"""Re-identification attacks on obfuscated releases.

An attacker holds one behavioral profile per user (empirical visit
frequencies plus a first-order transition matrix) and matches an observed
release against every profile by log-likelihood. Zero or unseen profile
entries are replaced by a small positive floor at lookup time only, so the
stored maximum-likelihood estimates stay exact and nothing is renormalized.
Scores are log2-likelihoods: a monotone transform of the likelihood, so
best-score decisions, error rates, and DET curves are unchanged while long
traces cannot underflow.

Trace releases are scored by `ProfileTable`, which packs every profile's
nonzero visit and transition probabilities, as log2 values, into one table
sorted by the key `src * size + dst`; the visit probabilities are the row of
a virtual start state `src = size`. Scoring a release against all n profiles
is one `searchsorted` of its keys, then one vectorised step per release
symbol that adds each profile's term, or its own log2 floor where the key is
absent. The terms are added in trace order, so every score is the same
float64 sum as a per-symbol loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import probcore
from .mechanisms import (GeneralLocalHash, GlhBatch, MechanismKernel,
                         RandomizedResponse, glh_match_chunks, glh_sample_batch,
                         rr_sample_batch)
from .probcore import MarkovSource, PopulationModel, SingleDatum

DEFAULT_FLOOR = 1e-8


@dataclass(frozen=True)
class Trace:
    """Ordered symbol sequence from one user."""

    symbols: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.symbols, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("trace must be a non-empty 1-d symbol sequence")
        object.__setattr__(self, "symbols", arr)

    def __len__(self):
        return len(self.symbols)


def _as_symbols(trace) -> np.ndarray:
    if isinstance(trace, Trace):
        return trace.symbols
    arr = np.asarray(trace, dtype=np.int64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("trace must be a non-empty 1-d symbol sequence")
    return arr


@dataclass(frozen=True)
class MarkovProfile:
    """Attacker-side user profile: visit frequencies and transition rows.

    `transitions` maps a source symbol to (destination array, probability
    array), destinations sorted; symbols never seen as a source simply have
    no row. The floor is applied when a looked-up entry is zero or missing.
    """

    owner: int
    size: int
    pi: np.ndarray
    transitions: dict
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        if self.floor <= 0:
            raise ValueError("floor must be positive")
        pi = np.asarray(self.pi, dtype=np.float64)
        if pi.shape != (self.size,):
            raise ValueError("visit probabilities must cover the alphabet")
        if abs(pi.sum() - 1.0) > probcore.SUM_TOL:
            raise ValueError("visit probabilities must sum to 1")
        object.__setattr__(self, "pi", pi)

    def initial_prob(self, symbol: int) -> float:
        v = self.pi[symbol]
        return float(v) if v > 0 else self.floor

    def transition_prob(self, src: int, dst: int) -> float:
        row = self.transitions.get(int(src))
        if row is None:
            return self.floor
        dsts, probs = row
        hit = np.searchsorted(dsts, dst)
        if hit < dsts.size and dsts[hit] == dst and probs[hit] > 0:
            return float(probs[hit])
        return self.floor


# Largest alphabet whose transition keys, the start row src = size included,
# stay below 2**63: (size + 1) * size - 1 < 2**63.
MAX_KEYED_ALPHABET = math.isqrt(2 ** 63 - 1)


def _pair_keys(src, dst, size: int) -> np.ndarray:
    """int64 keys src * size + dst, ordered like the pairs (src, dst)."""
    if size > MAX_KEYED_ALPHABET:
        raise ValueError(f"an alphabet of {size} symbols overflows int64 transition keys")
    return np.asarray(src, dtype=np.int64) * size + np.asarray(dst, dtype=np.int64)


def train_profile(trace, alphabet: Union[probcore.Alphabet, int],
                  floor: float = DEFAULT_FLOOR, owner: int = 0) -> MarkovProfile:
    """Count-and-normalize profile training.

    pi is the empirical symbol frequency of the trace; each transition row is
    count(a -> b) / count(a -> anything). Rows without observations are left
    absent and resolved by the floor at lookup.
    """
    symbols = _as_symbols(trace)
    size = probcore._as_alphabet(alphabet).size
    if symbols.min() < 0 or symbols.max() >= size:
        raise ValueError("trace symbol outside alphabet")
    transitions: dict = {}
    if symbols.size > 1:
        keys, counts = np.unique(_pair_keys(symbols[:-1], symbols[1:], size),
                                 return_counts=True)
        srcs, dsts = np.divmod(keys, size)
        starts = np.flatnonzero(np.diff(srcs, prepend=-1))
        ends = np.append(starts[1:], keys.size)
        probs = counts / np.repeat(np.add.reduceat(counts, starts), ends - starts)
        transitions = {s: (dsts[lo:hi], probs[lo:hi])
                       for s, lo, hi in zip(srcs[starts].tolist(), starts.tolist(),
                                            ends.tolist())}
    pi = np.bincount(symbols, minlength=size).astype(np.float64) / symbols.size
    return MarkovProfile(owner=owner, size=size, pi=pi, transitions=transitions, floor=floor)


class ProfileTable:
    """Every profile's positive log2 probabilities, packed for trace scoring.

    Entries are sorted by key (`_pair_keys`; visit probabilities are the row
    of the start state src = size), then by user. `keys` holds each distinct
    key once and `starts[k]:starts[k + 1]` is its run of (user, log2 p)
    entries. A profile without an entry for a key takes its own floor.
    """

    def __init__(self, profiles: Sequence[MarkovProfile]):
        if not profiles:
            raise ValueError("need at least one profile")
        size = profiles[0].size
        if any(p.size != size for p in profiles):
            raise ValueError("profiles must share one alphabet")
        row_src, row_user, rows = [], [], []
        for user, prof in enumerate(profiles):
            seen = prof.pi.nonzero()[0]
            trans = prof.transitions
            if trans and not (0 <= min(trans) and max(trans) < size):
                raise ValueError("profile transition outside the alphabet")
            row_src.append(size)
            row_src.extend(trans)
            row_user.extend([user] * (1 + len(trans)))
            rows.append((seen, prof.pi[seen]))
            rows.extend(trans.values())
        lens = [len(dsts) for dsts, _ in rows]
        if lens != [len(probs) for _, probs in rows]:
            raise ValueError("transition row with unequal destination and probability counts")
        src = np.repeat(np.array(row_src, dtype=np.int64), lens)
        dst = np.concatenate([dsts for dsts, _ in rows]).astype(np.int64, copy=False)
        prob = np.concatenate([probs for _, probs in rows]).astype(np.float64, copy=False)
        if dst.min() < 0 or dst.max() >= size:
            raise ValueError("profile transition outside the alphabet")
        keep = prob > 0
        keys = _pair_keys(src[keep], dst[keep], size)
        order = np.argsort(keys, kind="stable")  # users stay ascending within a key
        keys = keys[order]
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        self.size = size
        self.keys = keys[first]
        self.starts = np.append(first, keys.size)
        self.users = np.repeat(np.array(row_user), lens)[keep][order]
        self.log_p = np.log2(prob[keep][order])
        self.log_floor = np.log2([p.floor for p in profiles])

    def scores(self, trace) -> np.ndarray:
        """log2-likelihood of one release under every profile, shape (n,)."""
        ys = _as_symbols(trace)
        if ys.min() < 0 or ys.max() >= self.size:
            raise ValueError("release symbol outside the alphabet")
        wanted = _pair_keys(np.concatenate(([self.size], ys[:-1])), ys, self.size)
        at = np.minimum(np.searchsorted(self.keys, wanted), self.keys.size - 1)
        hits = self.keys[at] == wanted
        total = np.zeros(self.log_floor.size)  # 0.0 + x == x: the sum stays exact
        for hit, lo, hi in zip(hits.tolist(), self.starts[at].tolist(),
                               self.starts[at + 1].tolist()):
            term = self.log_floor.copy()
            if hit:
                term[self.users[lo:hi]] = self.log_p[lo:hi]
            total += term
        return total


def log_likelihood(profile: MarkovProfile, trace) -> float:
    """log2 of the trace likelihood under the profile, floored entrywise."""
    return float(ProfileTable([profile]).scores(trace)[0])


@dataclass(frozen=True)
class ScoreVector:
    """Similarity of one release against every enrolled profile."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("score vector must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "scores", arr)


def score_vector(trace, profiles: Sequence[MarkovProfile]) -> ScoreVector:
    return ScoreVector(ProfileTable(profiles).scores(trace))


def best_score_decision(s: Union[ScoreVector, np.ndarray]) -> int:
    """Index of the highest score; ties go to the lowest index."""
    arr = s.scores if isinstance(s, ScoreVector) else np.asarray(s)
    if arr.size < 1:
        raise ValueError("empty score vector")
    return int(np.argmax(arr))


def floored_pi_matrix(profiles: Sequence[MarkovProfile]) -> np.ndarray:
    """Stack per-user visit probabilities with the floor already applied."""
    mat = np.vstack([p.pi for p in profiles])
    floors = np.array([[p.floor] for p in profiles])
    return np.where(mat > 0, mat, floors)


def rr_single_datum_scores(pi_floored: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Score matrix (trials, n) for single-symbol releases: log2 pi_i(y)."""
    return np.log2(pi_floored[:, ys]).T


def glh_single_datum_scores(pi_floored: np.ndarray, batch: GlhBatch,
                            mech: GeneralLocalHash) -> np.ndarray:
    """Score matrix (trials, n) for hashed single-symbol releases.

    The likelihood of seeing bucket y under hash h for user i is
    off_bucket + shrink * sum of pi_i over the preimage of y; the uniform
    hash-choice factor is constant across users and dropped.
    """
    size = pi_floored.shape[1]
    masks = np.empty((size, len(batch)), dtype=np.float64)
    for lo, hi, mask in glh_match_chunks(batch, size):
        masks[:, lo:hi] = mask.T
    return _glh_log_likelihood(mech, pi_floored @ masks).T  # (n, trials) -> (trials, n)


def claimant_scores(pi_floored: np.ndarray, rows: np.ndarray, released,
                    mech) -> np.ndarray:
    """Score of profile rows[i] against single-datum release i, as `release` returned it."""
    if not isinstance(released, GlhBatch):
        return np.log2(pi_floored[rows, released])
    mass = np.empty(rows.size)
    for lo, hi, mask in glh_match_chunks(released, pi_floored.shape[1]):
        mass[lo:hi] = (pi_floored[rows[lo:hi]] * mask).sum(axis=1)
    return _glh_log_likelihood(mech, mass)


def _glh_log_likelihood(mech: GeneralLocalHash, preimage_mass: np.ndarray) -> np.ndarray:
    """log2 of the chance of a hashed bucket: off_bucket + shrink * preimage mass."""
    return np.log2(mech.off_bucket + (mech.mu - mech.off_bucket) * preimage_mass)


def _kernel_sample(kernel: MechanismKernel, xs: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Release each symbol x through kernel column x by inverse-CDF sampling."""
    cdfs = np.cumsum(kernel.matrix, axis=0)
    cdfs[-1, :] = 1.0
    draws = rng.random(xs.size)
    return (draws[None, :] > cdfs[:, xs]).sum(axis=0).astype(np.int64)


def release(mechanism, xs: np.ndarray, rng: np.random.Generator):
    """Release xs through None (as is), RR, GLH (a `GlhBatch`) or a square MechanismKernel."""
    if mechanism is None:
        return xs
    if isinstance(mechanism, RandomizedResponse):
        return rr_sample_batch(mechanism, xs, rng).ys
    if isinstance(mechanism, GeneralLocalHash):
        return glh_sample_batch(mechanism, xs, rng)
    if isinstance(mechanism, MechanismKernel):
        return _kernel_sample(mechanism, xs, rng)
    raise ValueError(f"unsupported mechanism {mechanism!r}")


def sample_releases(population: PopulationModel, mechanism, count: int,
                    rng: np.random.Generator) -> tuple:
    """Vectorized (user, released datum) draws for single-datum populations.

    Users come from the prior, their data by inverse CDF, releases from `release`.
    """
    us = probcore.sample(population.prior, rng, count)
    cond = population.conditional_matrix()
    cdfs = np.cumsum(cond, axis=1)
    cdfs[:, -1] = 1.0
    draws = rng.random(count)
    xs = np.empty(count, dtype=np.int64)
    size = cdfs.shape[1]
    chunk = max(1, 4 * 10 ** 6 // max(size, 1))
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        xs[lo:hi] = (draws[lo:hi, None] > cdfs[us[lo:hi]]).sum(axis=1)
    return us, release(mechanism, xs, rng)


def simulate_score_trials(population: PopulationModel, mechanism,
                          profiles: Sequence[MarkovProfile], trials: int,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (user, datum, release) triples and score each release.

    Returns (true_users, scores) with scores of shape (trials, n). The
    mechanism is anything `release` takes; the hashed one needs a
    single-datum population.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n = population.n
    if len(profiles) != n:
        raise ValueError("need one profile per user")

    if all(isinstance(m, SingleDatum) for m in population.models):
        us, released = sample_releases(population, mechanism, trials, rng)
        pi_floored = floored_pi_matrix(profiles)
        if isinstance(released, GlhBatch):
            return us, glh_single_datum_scores(pi_floored, released, mechanism)
        return us, rr_single_datum_scores(pi_floored, released)

    # trace-valued data: per-trial loop, symbol-wise obfuscation
    if isinstance(mechanism, GeneralLocalHash):
        raise ValueError("hashed releases of whole traces are not supported; "
                         "use single-datum populations for the hashed mechanism")
    table = ProfileTable(profiles)
    scores = np.empty((trials, n))
    us = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        u = probcore.sample(population.prior, rng)
        model = population.models[u]
        if isinstance(model, SingleDatum):
            x_trace = np.array([probcore.sample(model.dist, rng)], dtype=np.int64)
        else:
            x_trace = probcore.sample_markov(model, rng)
        us[t] = u
        scores[t] = table.scores(release(mechanism, x_trace, rng))
    return us, scores


def identification_error_rate(population: PopulationModel, mechanism,
                              profiles: Sequence[MarkovProfile], trials: int,
                              rng: np.random.Generator) -> float:
    """Fraction of trials where the best-score decision names the wrong user."""
    us, scores = simulate_score_trials(population, mechanism, profiles, trials, rng)
    decisions = np.argmax(scores, axis=1)
    return float((decisions != us).mean())


@dataclass(frozen=True)
class DetCurve:
    """(threshold, FAR, FRR) triples over every distinct score plus both infinities.

    Accept when score >= threshold: FAR is the impostor fraction accepted,
    FRR the genuine fraction rejected, so FAR falls and FRR rises with the
    threshold.
    """

    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray

    def __post_init__(self):
        if not (len(self.thresholds) == len(self.far) == len(self.frr)):
            raise ValueError("ragged curve")
        if np.any(np.diff(self.far) > 0) or np.any(np.diff(self.frr) < 0):
            raise ValueError("curve is not monotone in the threshold")
        for arr in (self.far, self.frr):
            if np.any((arr < 0) | (arr > 1)):
                raise ValueError("rates must lie in [0, 1]")


def far_frr_det(genuine_scores, impostor_scores) -> DetCurve:
    """Sweep the accept threshold over every distinct observed score."""
    gen = np.sort(np.asarray(genuine_scores, dtype=np.float64))
    imp = np.sort(np.asarray(impostor_scores, dtype=np.float64))
    if gen.size == 0 or imp.size == 0:
        raise ValueError("need both genuine and impostor scores")
    taus = np.concatenate(([-np.inf], np.unique(np.concatenate([gen, imp])), [np.inf]))
    far = 1.0 - np.searchsorted(imp, taus, side="left") / imp.size
    frr = np.searchsorted(gen, taus, side="left") / gen.size
    return DetCurve(thresholds=taus, far=far, frr=frr)
