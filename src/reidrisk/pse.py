"""Score-separation entropy: how much identity leaks through match scores.

The attacker's score vector separates genuine comparisons (probe and profile
from the same user) from impostor comparisons. The KL divergence between the
two scalar score laws is estimated with a nearest-neighbor estimator: for
each genuine score, compare the distance to its k-th nearest genuine
neighbor against the distance to its k-th nearest impostor neighbor. Scores
lie on a line, so the k nearest neighbors of a score are a contiguous run of
the sorted sample, and one binary search over such runs finds every k-th
distance in memory linear in the samples. The estimate converges to the
true divergence as samples grow, and on small enumerable instances it is
validated against exact computation by the oracle module.

Scores are harvested from single-datum attacks: user u holds probes[u], an
int array of one symbol per user, and one `ProfileTable` holds the profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .probcore import LN2, make_rng
from .reid import ProfileTable, _check_probes, probe_score_trials, sample_releases

DEFAULT_K = 5

# relative duplicate-breaking noise; far below every test tolerance
_JITTER_SCALE = 1e-10


@dataclass(frozen=True)
class ScoreSample:
    """Genuine and impostor score sets with their provenance."""

    genuine: np.ndarray
    impostor: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        g = np.asarray(self.genuine, dtype=np.float64)
        i = np.asarray(self.impostor, dtype=np.float64)
        if (g.size and not np.all(np.isfinite(g))) or (i.size and not np.all(np.isfinite(i))):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "genuine", g)
        object.__setattr__(self, "impostor", i)

    @property
    def usable(self) -> bool:
        return self.genuine.size > 0 and self.impostor.size > 0


def split_scores(scores: np.ndarray, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(genuine, impostor) scores of a (trials, n) score matrix.

    Row t is genuine at column us[t] (the true user's profile); every other
    entry of the row is an impostor score. Impostors keep row-major order.
    """
    t = np.arange(us.size)
    genuine = scores[t, us]
    mask = np.ones_like(scores, dtype=bool)
    mask[t, us] = False
    return genuine, scores[mask]


def harvest_scores(probes, mechanism, table: ProfileTable, trials: int,
                   rng: np.random.Generator, meta: Optional[dict] = None) -> ScoreSample:
    """Simulate releases and split every (release, profile) score by ownership.

    Each trial contributes one genuine score (the true user's profile) and
    n-1 impostor scores. A single-user population yields no impostor scores
    and the sample is flagged unusable.
    """
    us, scores = probe_score_trials(probes, mechanism, table, trials, rng)
    genuine, impostor = split_scores(scores, us)
    info = {"trials": trials, "n_users": scores.shape[1]}
    if meta:
        info.update(meta)
    return ScoreSample(genuine=genuine, impostor=impostor, meta=info)


def harvest_scores_sparse(probes, mechanism, table: ProfileTable, n_genuine: int,
                          n_impostor: int, rng: np.random.Generator,
                          meta: Optional[dict] = None) -> ScoreSample:
    """Sample genuine and impostor score pairs directly, never full matrices.

    Each genuine draw releases the probe of a prior-sampled user and scores
    it against that user's own profile; each impostor draw scores a fresh
    release against a claimant chosen uniformly among the other users. Memory
    stays flat in the population size, so sample counts can grow into the
    millions (needed to resolve bounds of a few millibits).
    """
    probes = _check_probes(probes, table)
    n = probes.size
    if n < 2:
        raise ValueError("need at least two users for impostor scores")
    if n_genuine < 1 or n_impostor < 1:
        raise ValueError("need positive sample counts")
    us, released = sample_releases(probes, mechanism, n_genuine, rng)
    genuine = table.datum_scores(released, mechanism, rows=us)
    us_i, released_i = sample_releases(probes, mechanism, n_impostor, rng)
    claim = (us_i + 1 + rng.integers(0, n - 1, n_impostor)) % n
    impostor = table.datum_scores(released_i, mechanism, rows=claim)
    info = {"n_genuine": int(n_genuine), "n_impostor": int(n_impostor),
            "n_users": int(n)}
    if meta:
        info.update(meta)
    return ScoreSample(genuine=genuine, impostor=impostor, meta=info)


@dataclass(frozen=True)
class KnnKlEstimate:
    """Nearest-neighbor divergence estimate in bits.

    `bits` is floored at zero for reporting; `raw_bits` keeps the signed
    value, and `below_noise_floor` marks raw estimates that came out
    negative (indistinguishable score laws at this sample size).
    """

    bits: float
    raw_bits: float
    k: int
    n_p: int
    n_q: int

    @property
    def below_noise_floor(self) -> bool:
        return self.raw_bits < 0


def _kth_nn_distance(queries: np.ndarray, refs_sorted: np.ndarray, k: int,
                     self_in_refs: bool) -> np.ndarray:
    """Distance from each query to its k-th nearest reference on the line.

    On a line the w nearest references of a query are a contiguous run of the
    sorted array, so the w-th distance is the smallest, over window starts l,
    of max(q - r[l], r[l+w-1] - q). The first term falls and the second rises
    with l, so a binary search over the w + 1 starts around the query's
    insertion point finds where they cross, and the answer is the better of
    the two windows at the crossing. When the queries ARE the references the
    window holds w = k + 1 entries, one of them the zero self-distance, which
    is the k-th distance with one zero dropped, duplicates included. Every
    result is one of the floats q - r or r - q, exactly as |r - q| gives it.
    Memory is linear in the inputs; no (queries, k) array is built.
    """
    w = k + 1 if self_in_refs else k
    # infinite sentinels: a window that runs off either end is never the nearest
    pad = np.full(w, np.inf)
    r = np.concatenate([-pad, refs_sorted, pad])

    def reach(start):  # farthest distance in the window r[start : start + w]
        return np.maximum(queries - r[start], r[start + (w - 1)] - queries)

    # with pos the query's insertion point, padded starts pos .. pos + w run
    # from the window that ends just before pos to the one that starts at pos
    start = np.searchsorted(refs_sorted, queries)
    n = w
    while n > 1:  # branchless lower bound over the first w of those starts
        half = n // 2
        mid = start + half
        left_farther = queries - r[mid] > r[mid + (w - 1)] - queries
        start = np.where(left_farther, mid, start)
        n -= half
    # `start` is now the last start whose left end is the farther one, or the
    # first start; the nearest window is `start` or the one after it, which
    # also covers the last start pos + w
    return np.minimum(reach(start), reach(start + 1))


def knn_kl_estimate(p_samples, q_samples, k: int = DEFAULT_K,
                    jitter_seed: int = 0) -> KnnKlEstimate:
    """Divergence D(p || q) between two scalar sample sets, in bits.

    mean over p-samples of log(nu_k / rho_k) + log(n_q / (n_p - 1)) nats,
    where rho_k is the k-th nearest-neighbor distance within the p-sample
    (self excluded) and nu_k within the q-sample. Exact duplicate scores are
    broken once by seeded jitter of relative magnitude 1e-10, far below any
    reported tolerance.
    """
    p = np.asarray(p_samples, dtype=np.float64).copy()
    q = np.asarray(q_samples, dtype=np.float64).copy()
    n_p, n_q = p.size, q.size
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_p < k + 1 or n_q < k:
        raise ValueError(f"need at least {k + 1} p-samples and {k} q-samples")
    pooled = np.concatenate([p, q])
    # Python floats overflow to inf without a numpy warning; the jitter below
    # widens the span by up to 2 * _JITTER_SCALE, and every neighbour
    # distance must stay finite
    spread = float(pooled.max()) - float(pooled.min())
    if not math.isfinite(spread * (1.0 + 4 * _JITTER_SCALE)):
        raise ValueError("scores span too wide a range for a finite float64 estimate")
    if np.unique(pooled).size < pooled.size:
        if spread == 0.0:
            spread = max(1.0, abs(float(pooled[0])))
        rng = make_rng(jitter_seed)
        noise = rng.uniform(-1.0, 1.0, pooled.size) * _JITTER_SCALE * spread
        p += noise[:n_p]
        q += noise[n_p:]
    p_sorted = np.sort(p)
    q_sorted = np.sort(q)
    rho = _kth_nn_distance(p_sorted, p_sorted, k, self_in_refs=True)
    nu = _kth_nn_distance(p_sorted, q_sorted, k, self_in_refs=False)
    if np.any(rho == 0.0) or np.any(nu == 0.0):
        raise ValueError("zero nearest-neighbor distance survived jitter; "
                         "samples are too degenerate to estimate")
    with np.errstate(over="ignore"):  # a ratio past float64 reads inf, refused below
        raw_nats = float(np.mean(np.log(nu / rho))) + float(np.log(n_q / (n_p - 1)))
    if not math.isfinite(raw_nats):
        raise ValueError("scores span too wide a range for a finite float64 estimate")
    raw_bits = raw_nats / LN2
    return KnnKlEstimate(bits=max(raw_bits, 0.0), raw_bits=raw_bits,
                         k=k, n_p=n_p, n_q=n_q)


def pse_estimate(sample: ScoreSample, k: int = DEFAULT_K,
                 jitter_seed: int = 0) -> KnnKlEstimate:
    """Identity information carried by the score law: D(genuine || impostor).

    This is the large-population limit of the score-level identity
    information; it never exceeds the release-level identity information.
    """
    if not sample.usable:
        raise ValueError("sample has an empty score list")
    return knn_kl_estimate(sample.genuine, sample.impostor, k=k, jitter_seed=jitter_seed)


@dataclass(frozen=True)
class ConvergencePoint:
    n_genuine: int
    n_impostor: int
    bits: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Estimates on nested sample prefixes plus a stability verdict.

    `stable` means the last two estimates agree within 5% relative (or both
    sit within 0.005 bits absolutely, which covers score laws that are
    genuinely indistinguishable).
    """

    points: tuple
    stable: bool


def convergence_probe(sample: ScoreSample, fractions: Sequence[float],
                      k: int = DEFAULT_K, seed: int = 0) -> ConvergenceReport:
    """Estimate on growing prefixes of a randomly shuffled copy of the sample.

    Shuffling first makes the prefixes representative even for adversarially
    ordered inputs; the shuffle and the estimates are deterministic per seed.
    """
    fr = sorted(set(float(f) for f in fractions))
    if not fr or fr[0] <= 0.0 or fr[-1] > 1.0:
        raise ValueError("fractions must lie in (0, 1]")
    rng = make_rng(seed)
    gen = sample.genuine[rng.permutation(sample.genuine.size)]
    imp = sample.impostor[rng.permutation(sample.impostor.size)]
    points = []
    for f in fr:
        n_g = max(k + 1, int(round(f * gen.size)))
        n_i = max(k, int(round(f * imp.size)))
        est = knn_kl_estimate(gen[:n_g], imp[:n_i], k=k, jitter_seed=seed)
        points.append(ConvergencePoint(n_genuine=n_g, n_impostor=n_i, bits=est.bits))
    stable = True
    if len(points) >= 2:
        a, b = points[-2].bits, points[-1].bits
        stable = abs(a - b) <= 0.05 * max(abs(a), abs(b)) or abs(a - b) <= 0.005
    return ConvergenceReport(points=tuple(points), stable=stable)
