"""Re-identification attacks on obfuscated releases.

An attacker holds one behavioral profile per user (empirical visit
frequencies plus a first-order transition matrix) and matches an observed
release against every profile by log-likelihood. Zero or unseen profile
entries are replaced by a small positive floor at lookup time only, so the
stored maximum-likelihood estimates stay exact and nothing is renormalized.
Scores are log2-likelihoods: a monotone transform of the likelihood, so
best-score decisions, error rates, and DET curves are unchanged while long
traces cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import probcore
from .mechanisms import (GeneralLocalHash, GlhBatch, MechanismKernel,
                         RandomizedResponse, glh_match_chunks, rr_sample_batch)
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
    array); symbols never seen as a source simply have no row. The floor is
    applied when a looked-up entry is zero or missing.
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
        if hit < dsts.size and dsts[hit] == dst:
            return float(probs[hit])
        return self.floor


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
    pi = np.bincount(symbols, minlength=size).astype(np.float64) / symbols.size
    transitions: dict = {}
    if symbols.size > 1:
        src, dst = symbols[:-1], symbols[1:]
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        for s in np.unique(src):
            mask = src == s
            dsts, counts = np.unique(dst[mask], return_counts=True)
            transitions[int(s)] = (dsts, counts.astype(np.float64) / counts.sum())
    return MarkovProfile(owner=owner, size=size, pi=pi, transitions=transitions, floor=floor)


def log_likelihood(profile: MarkovProfile, trace) -> float:
    """log2 of the trace likelihood under the profile, floored entrywise."""
    symbols = _as_symbols(trace)
    total = np.log2(profile.initial_prob(symbols[0]))
    for prev, cur in zip(symbols[:-1], symbols[1:]):
        total += np.log2(profile.transition_prob(prev, cur))
    return float(total)


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
    if not profiles:
        raise ValueError("need at least one profile")
    return ScoreVector(np.array([log_likelihood(p, trace) for p in profiles]))


def best_score_decision(s: Union[ScoreVector, np.ndarray]) -> int:
    """Index of the highest score; ties go to the lowest index."""
    arr = s.scores if isinstance(s, ScoreVector) else np.asarray(s)
    if arr.size < 1:
        raise ValueError("empty score vector")
    return int(np.argmax(arr))


def floored_pi_matrix(profiles: Sequence[MarkovProfile]) -> np.ndarray:
    """Stack per-user visit probabilities with the floor already applied."""
    mat = np.vstack([p.pi for p in profiles])
    floor = profiles[0].floor
    return np.where(mat > 0, mat, floor)


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
    preimage_mass = pi_floored @ masks  # (n, trials)
    shrink = mech.mu - mech.off_bucket
    return np.log2(mech.off_bucket + shrink * preimage_mass).T


def _sample_users_and_data(population: PopulationModel, trials: int,
                           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (user, single datum) draws for single-datum populations."""
    us = probcore.sample(population.prior, rng, trials)
    cond = population.conditional_matrix()
    cdfs = np.cumsum(cond, axis=1)
    cdfs[:, -1] = 1.0
    draws = rng.random(trials)
    xs = np.empty(trials, dtype=np.int64)
    size = cdfs.shape[1]
    chunk = max(1, 4 * 10 ** 6 // max(size, 1))
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        xs[lo:hi] = (draws[lo:hi, None] > cdfs[us[lo:hi]]).sum(axis=1)
    return us, xs


def _kernel_sample(kernel: MechanismKernel, xs: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Release each symbol x through kernel column x by inverse-CDF sampling."""
    cdfs = np.cumsum(kernel.matrix, axis=0)
    cdfs[-1, :] = 1.0
    draws = rng.random(xs.size)
    return (draws[None, :] > cdfs[:, xs]).sum(axis=0).astype(np.int64)


def simulate_score_trials(population: PopulationModel, mechanism,
                          profiles: Sequence[MarkovProfile], trials: int,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (user, datum, release) triples and score each release.

    Returns (true_users, scores) with scores of shape (trials, n). The
    mechanism may be None (release the datum as is), a RandomizedResponse,
    a GeneralLocalHash (single-datum populations only), or any square
    MechanismKernel over the data alphabet.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n = population.n
    if len(profiles) != n:
        raise ValueError("need one profile per user")
    all_single = all(isinstance(m, SingleDatum) for m in population.models)

    if all_single:
        us, xs = _sample_users_and_data(population, trials, rng)
        pi_floored = floored_pi_matrix(profiles)
        if mechanism is None:
            return us, rr_single_datum_scores(pi_floored, xs)
        if isinstance(mechanism, RandomizedResponse):
            ys = rr_sample_batch(mechanism, xs, rng).ys
            return us, rr_single_datum_scores(pi_floored, ys)
        if isinstance(mechanism, GeneralLocalHash):
            from .mechanisms import glh_sample_batch

            batch = glh_sample_batch(mechanism, xs, rng)
            return us, glh_single_datum_scores(pi_floored, batch, mechanism)
        if isinstance(mechanism, MechanismKernel):
            return us, rr_single_datum_scores(pi_floored, _kernel_sample(mechanism, xs, rng))
        raise ValueError(f"unsupported mechanism {mechanism!r}")

    # trace-valued data: per-trial loop, symbol-wise obfuscation
    if isinstance(mechanism, GeneralLocalHash):
        raise ValueError("hashed releases of whole traces are not supported; "
                         "use single-datum populations for the hashed mechanism")
    scores = np.empty((trials, n))
    us = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        u = probcore.sample(population.prior, rng)
        model = population.models[u]
        if isinstance(model, SingleDatum):
            x_trace = np.array([probcore.sample(model.dist, rng)], dtype=np.int64)
        else:
            x_trace = probcore.sample_markov(model, rng)
        if mechanism is None:
            y_trace = x_trace
        elif isinstance(mechanism, RandomizedResponse):
            y_trace = rr_sample_batch(mechanism, x_trace, rng).ys
        elif isinstance(mechanism, MechanismKernel):
            y_trace = _kernel_sample(mechanism, x_trace, rng)
        else:
            raise ValueError(f"unsupported mechanism {mechanism!r}")
        us[t] = u
        scores[t] = score_vector(y_trace, profiles).scores
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
