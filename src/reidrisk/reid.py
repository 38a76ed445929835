"""Re-identification attacks on obfuscated releases.

An attacker holds one behavioral profile per user (empirical visit
frequencies plus a first-order transition matrix) and matches an observed
release against every profile by log-likelihood. Zero or unseen profile
entries are replaced by a small positive floor at lookup time only, so the
stored maximum-likelihood estimates stay exact and nothing is renormalized.
Scores are log2-likelihoods: a monotone transform of the likelihood, so
best-score decisions, error rates, and DET curves are unchanged while long
traces cannot underflow.

A `MarkovProfile` is one sorted table: its int64 keys `src * size + dst`
and their probabilities, with the visit frequencies as the row of a virtual
start state `src = size`. `ProfileTable` concatenates the tables of all n
profiles, keeps the positive entries as log2 values and sorts them by key,
then by user. Scoring a release against all n profiles is one `searchsorted`
of its keys, then one vectorised step per release symbol that adds each
profile's term, or its own log2 floor where the key is absent. The terms
are added in trace order, so every score is the same float64 sum as a
per-symbol loop.

In a single-datum attack user u holds probes[u], one int per user. Releases
score from the start-row entries alone: a lookup, or for a hashed release a
sum over each profile's few visited symbols, with no (n x size) array and no
BLAS product, whose summation order follows its threads.

`train_profile` sorts a trace's transition and start-row keys in one
buffer. A key's count is the length of its run and a row's total the length
of its key range, so a 16-symbol trace trains in a dozen numpy calls: about
16 us, against 27 us for the former `np.unique` trainer (1000 traces, 2-core
x86-64, numpy 2.4). Symbol arrays must hold integers; a float is accepted
only when it is a whole number, never truncated.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import probcore
from .mechanisms import (GeneralLocalHash, GlhBatch, RandomizedResponse, glh_match_chunks,
                         glh_sample_batch, integer_symbols, rr_sample_batch)
from .probcore import CategoricalDistribution, PopulationModel

DEFAULT_FLOOR = 1e-8


def _as_symbols(trace) -> np.ndarray:
    arr = integer_symbols(trace)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("trace must be a non-empty 1-d symbol sequence")
    return arr


@dataclass(frozen=True)
class MarkovProfile:
    """Attacker-side user profile: visit frequencies and transition rows in one table.

    `keys` are strictly increasing `_pair_keys` and `probs` their
    probabilities; the visit frequencies are the row of the start state
    src = size, and symbols never seen as a source simply have no row. The
    floor is applied when a looked-up entry is zero or missing.
    """

    owner: int
    size: int
    keys: np.ndarray
    probs: np.ndarray
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        if not self.floor > 0:
            raise ValueError("floor must be positive")
        if not 0 < self.size <= MAX_KEYED_ALPHABET:
            raise ValueError(f"alphabet size {self.size} outside [1, {MAX_KEYED_ALPHABET}]")
        keys = np.asarray(self.keys, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if keys.ndim != 1 or keys.shape != probs.shape:
            raise ValueError("keys and probabilities must be 1-d and of one length")
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("keys must be strictly increasing")
        visits = self.size * self.size
        if keys.size and (keys[0] < 0 or keys[-1] >= visits + self.size):
            raise ValueError("profile entry outside the alphabet")
        if abs(probs[keys.searchsorted(visits):].sum() - 1.0) > probcore.SUM_TOL:
            raise ValueError("visit probabilities must sum to 1")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "probs", probs)

    @property
    def pi(self) -> np.ndarray:
        """Dense visit frequencies: the start row, zero where unvisited."""
        visits = self.size * self.size
        at = self.keys.searchsorted(visits)
        pi = np.zeros(self.size)
        pi[self.keys[at:] - visits] = self.probs[at:]
        return pi

    def initial_prob(self, symbol: int) -> float:
        return self.transition_prob(self.size, symbol)

    def transition_prob(self, src: int, dst: int) -> float:
        """Stored p(src -> dst), src = size being the start state; else the floor."""
        if not (0 <= src <= self.size and 0 <= dst < self.size):
            raise ValueError("symbol outside the alphabet")
        key = src * self.size + dst
        at = self.keys.searchsorted(key)
        if at < self.keys.size and self.keys[at] == key and self.probs[at] > 0:
            return float(self.probs[at])
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

    pi is the empirical symbol frequency of the trace (the start row, whose
    total is the trace length); each transition row is count(a -> b) /
    count(a -> anything). Rows without observations are left absent.

    The n - 1 transition keys and the n start-row keys are sorted in one
    buffer. A key's count is the length of its run, and its row's total is
    the length of the row's key range in the buffer, so no array as wide as
    the alphabet is built.
    """
    symbols = _as_symbols(trace)
    size = probcore._as_alphabet(alphabet).size
    if symbols.min() < 0 or symbols.max() >= size:
        raise ValueError("trace symbol outside alphabet")
    n = symbols.size
    pairs = np.empty(2 * n - 1, dtype=np.int64)
    pairs[:n - 1] = _pair_keys(symbols[:-1], symbols[1:], size)
    pairs[n - 1:] = _pair_keys(size, symbols, size)
    pairs.sort()
    edges = np.ones(pairs.size + 1, dtype=bool)  # run starts, then the end
    np.not_equal(pairs[1:], pairs[:-1], out=edges[1:-1])
    edges = np.flatnonzero(edges)
    keys = pairs[edges[:-1]]
    row = keys - keys % size
    probs = (edges[1:] - edges[:-1]) / (pairs.searchsorted(row + size) - pairs.searchsorted(row))
    return MarkovProfile(owner=owner, size=size, keys=keys, probs=probs, floor=floor)


class ProfileTable:
    """Every profile's positive probabilities and their log2 values, packed for scoring.

    Entries are sorted by key, then by user. `keys` holds each distinct key
    once and `starts[k]:starts[k + 1]` is its run of (user, p, log2 p)
    entries. A profile without an entry for a key takes its own floor. The
    start-row keys, size**2 and up, score single-datum releases.
    """

    def __init__(self, profiles: Sequence[MarkovProfile]):
        sizes = {p.size for p in profiles}
        if len(sizes) != 1:
            raise ValueError("need at least one profile, all over one alphabet")
        users = np.repeat(np.arange(len(profiles)), [p.keys.size for p in profiles])
        keys = np.concatenate([p.keys for p in profiles])
        probs = np.concatenate([p.probs for p in profiles])
        keep = np.flatnonzero(probs > 0)
        order = keep[np.argsort(keys[keep], kind="stable")]  # users stay ascending within a key
        keys = keys[order]
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        self.size = sizes.pop()
        self.keys = keys[first]
        self.starts = np.append(first, keys.size)
        self.users = users[order]
        self.probs = probs[order]
        self.log_p = np.log2(self.probs)
        self.floor = np.array([p.floor for p in profiles])
        self.log_floor = np.log2(self.floor)
        self._visit_rows = None
        self._visit_lock = threading.Lock()  # threads that share a table build its rows once

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

    def _visits(self) -> tuple:
        """The start rows as (n, size) CSR arrays, each user's visited symbols ascending:
        their entries' positions in the key-major arrays plus one, and pi_u(x) - floor_u."""
        with self._visit_lock:
            if self._visit_rows is None:
                import scipy.sparse  # only single data need it; the CLI starts without it
                visits = self.size * self.size
                lo = self.starts[np.searchsorted(self.keys, visits)]
                entries = lo + np.argsort(self.users[lo:], kind="stable")  # keys ascend per user
                symbols = np.repeat(self.keys - visits, np.diff(self.starts))[entries]
                indptr = np.searchsorted(self.users[entries], np.arange(self.floor.size + 1))
                excess = self.probs[entries] - self.floor[self.users[entries]]
                shape = (self.floor.size, self.size)
                self._visit_rows = tuple(scipy.sparse.csr_array((d, symbols, indptr), shape=shape)
                                         for d in (entries + 1, excess))
        return self._visit_rows

    def datum_scores(self, released, mech=None, rows=None) -> np.ndarray:
        """Scores of single-datum releases, as `release` returned them, from the start rows.

        Every release under every profile, shape (len, n); with rows, release i
        under profile rows[i] alone, shape (len,). A symbol y scores log2 pi_u(y),
        or u's log2 floor. A GLH record (a, b, y) under `mech` scores log2(off_bucket
        + shrink * mass); the hash's own chance, the same for all users, is dropped.
        mass = floor_u * (preimage size) + the sum over u's visited x, ascending, of
        (pi_u(x) - floor_u) [h(x) = y], in one CSR row loop for both forms alike.
        """
        entry, excess = self._visits()
        if isinstance(released, GlhBatch):
            out = np.empty((excess.shape[0], len(released)) if rows is None else len(released))

            def fill(lo: int, hi: int, mask: np.ndarray) -> None:
                if rows is None:  # each row from 0.0 adds excess * 1.0 or * 0.0, x ascending
                    mass = excess @ mask.T.astype(np.float64)
                    mass += np.multiply.outer(self.floor, mask.sum(axis=1))
                    dest = out[:, lo:hi]
                else:  # the same products, then the same row loop over them times 1.0
                    claims = excess[rows[lo:hi]]
                    claims.data *= mask[np.repeat(np.arange(hi - lo), np.diff(claims.indptr)),
                                        claims.indices]
                    mass = claims @ np.ones(self.size) + mask.sum(axis=1) * self.floor[rows[lo:hi]]
                    dest = out[lo:hi]
                mass *= mech.mu - mech.off_bucket
                mass += mech.off_bucket
                np.log2(mass, out=dest)

            glh_match_chunks(released, self.size, fill)
            return out.T
        ys = integer_symbols(released)
        if ys.size and (ys.min() < 0 or ys.max() >= self.size):
            raise ValueError("release symbol outside the alphabet")
        if rows is not None:
            at = entry[rows, ys]  # 0 where the user never visited y
            return np.where(at > 0, self.log_p[at - 1], self.log_floor[rows])
        hits = entry.tocsc()[:, ys]  # column t: the users who visited ys[t]
        out = np.tile(self.log_floor, (ys.size, 1))
        trial = np.repeat(np.arange(ys.size), np.diff(hits.indptr))
        out[trial, hits.indices] = self.log_p[hits.data - 1]
        return out


def release(mechanism, xs: np.ndarray, rng: np.random.Generator):
    """Release xs through None (as is), RR, or GLH (a `GlhBatch`)."""
    if mechanism is None:
        return xs
    if isinstance(mechanism, RandomizedResponse):
        return rr_sample_batch(mechanism, xs, rng).ys
    if isinstance(mechanism, GeneralLocalHash):
        return glh_sample_batch(mechanism, xs, rng)
    raise ValueError(f"unsupported mechanism {mechanism!r}")


def sample_releases(probes, mechanism, count: int, rng: np.random.Generator) -> tuple:
    """Vectorized (user, released probe) draws, users from the uniform prior."""
    probes = _as_symbols(probes)
    us = probcore.sample(CategoricalDistribution.uniform(probes.size), rng, count)
    rng.random(count)  # the draw the point-mass inverse CDF took; kept so no stream moves
    return us, release(mechanism, probes[us], rng)


def _check_probes(probes, table: ProfileTable) -> np.ndarray:
    """probes as int64 symbols of the table's alphabet, one per profile; else ValueError."""
    probes = _as_symbols(probes)
    if probes.size != table.floor.size:
        raise ValueError(f"need one profile per user: {table.floor.size} for {probes.size}")
    if probes.min() < 0 or probes.max() >= table.size:
        raise ValueError("probe symbol outside the alphabet")
    return probes


def probe_score_trials(probes, mechanism, table: ProfileTable, trials: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(true_users, scores): `sample_releases` of the probes, each release scored
    under every profile of the table, scores of shape (trials, n)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    us, released = sample_releases(_check_probes(probes, table), mechanism, trials, rng)
    return us, table.datum_scores(released, mechanism)


def simulate_score_trials(population: PopulationModel, mechanism,
                          profiles: Sequence[MarkovProfile], trials: int,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (user, trace, release) triples and score each released trace.

    Returns (true_users, scores) with scores of shape (trials, n). The
    population must hold chains of one dimension and one trace length, and the
    mechanism is None or RR; single data go through `probe_score_trials`. The
    draws are all users, then all chains stepped in lockstep, then one release
    of every trial's symbols.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if len(profiles) != population.n:
        raise ValueError("need one profile per user")
    probcore._chain_shape(population.models)  # refuses single data and mixed or ragged chains
    if isinstance(mechanism, GeneralLocalHash):
        raise ValueError("hashed releases of whole traces are not supported; "
                         "use single-datum probes for the hashed mechanism")
    table = ProfileTable(profiles)
    us = probcore.sample(population.prior, rng, trials)
    xs = probcore.sample_traces([population.models[u] for u in us], rng)
    ys = np.reshape(release(mechanism, xs.ravel(), rng), xs.shape)
    return us, np.stack([table.scores(y) for y in ys])


def identification_error_rate(us: np.ndarray, scores: np.ndarray) -> float:
    """Fraction of trials whose best-score decision names the wrong user.

    Row t of the (trials, n) scores belongs to true user us[t]. The decision is
    the first-index argmax: a tie goes to the lowest user index.
    """
    return float((np.argmax(scores, axis=1) != us).mean())


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
