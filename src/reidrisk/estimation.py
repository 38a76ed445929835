"""Server-side frequency estimation from obfuscated records.

The estimators invert the channel linearly: subtract the noise floor from
per-symbol counts and rescale by the channel contrast. Estimates are
unbiased for the empirical distribution of the true inputs and may be
negative before thresholding; negative values are preserved and reported,
and thresholded estimates are deliberately NOT renormalized.

The closed-form expected squared errors live here too, in numerically
stable e^(-eps) form, together with the bucket-count limit law.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Optional, Union

import numpy as np

from .mechanisms import GlhBatch, RrBatch, _keep_leak, glh_match_chunks
from .probcore import integer_symbols


@dataclass(frozen=True)
class FrequencyEstimate:
    """Debiased per-symbol frequency estimate with its raw counts."""

    size: int
    p_hat: np.ndarray
    counts: np.ndarray
    n: int
    thresholded: bool = False
    threshold: Optional[float] = None


def _rr_counts(records: Union[RrBatch, np.ndarray], size: int) -> tuple[np.ndarray, int]:
    ys = integer_symbols(records.ys if isinstance(records, RrBatch) else records)
    if ys.size == 0:
        raise ValueError("need at least one record")
    if ys.min() < 0 or ys.max() >= size:
        raise ValueError("record symbol outside alphabet")
    return np.bincount(ys, minlength=size).astype(np.float64), int(ys.size)


def estimate_rr(records: Union[RrBatch, np.ndarray], epsilon: float,
                size: int) -> FrequencyEstimate:
    """Debias randomized-response records, an `RrBatch` or an array of integer symbols.

    p_hat(x) = (c(x)/n - leak) / (keep - leak). epsilon = 0 makes the channel
    non-invertible and is rejected; math.inf passes counts through exactly.
    """
    if epsilon == 0:
        raise ValueError("epsilon = 0 leaves the channel non-invertible (keep = leak)")
    keep, leak, shrink = _keep_leak(epsilon, size)
    counts, n = _rr_counts(records, size)
    p_hat = (counts / n - leak) / shrink
    return FrequencyEstimate(size=size, p_hat=p_hat, counts=counts, n=n)


def glh_counts(batch: GlhBatch, size: int) -> np.ndarray:
    """c(x) = number of records whose hash sends x to the reported bucket."""
    if np.any((batch.ys < 1) | (batch.ys > batch.g)):
        raise ValueError("bucket outside [1, g]")
    counts = np.zeros(size, dtype=np.int64)
    lock = threading.Lock()

    def add(lo: int, hi: int, mask: np.ndarray) -> None:
        # sum along the mask's contiguous record axis, in the narrowest type that
        # holds a chunk's hi - lo records (uint16 sums twice as fast as uint32)
        narrow = np.uint16 if hi - lo < 2 ** 16 else np.uint32
        part = mask.T.view(np.uint8).sum(axis=1, dtype=narrow)
        with lock:  # integer sums: the total is exact in any order
            np.add(counts, part, out=counts)

    glh_match_chunks(batch, size, add)
    return counts.astype(np.float64)


def estimate_glh(batch: GlhBatch, epsilon: float, size: int) -> FrequencyEstimate:
    """Debias hashed records: p_hat(x) = (c(x)/n - 1/g) / (keep - 1/g)."""
    if epsilon == 0:
        raise ValueError("epsilon = 0 leaves the channel non-invertible")
    g = batch.g
    if g < 2:
        raise ValueError("bucket count must be >= 2")
    t = np.exp(-float(epsilon))
    # keep - 1/g, written to stay finite for every positive epsilon
    contrast = (g - 1) * (1.0 - t) / (g * (1.0 + (g - 1) * t))
    if contrast == 0:
        raise ValueError("channel contrast is zero; estimation impossible")
    counts = glh_counts(batch, size)
    n = len(batch)
    if n == 0:
        raise ValueError("need at least one record")
    p_hat = (counts / n - 1.0 / g) / contrast
    return FrequencyEstimate(size=size, p_hat=p_hat, counts=counts, n=n)


def apply_significance_threshold(est: FrequencyEstimate, null_variance: float,
                                 level: float) -> FrequencyEstimate:
    """Zero every estimate not significantly above zero.

    The cutoff is z * sqrt(null_variance) where z is the standard-normal
    upper quantile at level/size (union-bound corrected across symbols), or
    +inf where 1 - level/size rounds to 1. Surviving entries are kept
    untouched; the result is not renormalized.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    if null_variance <= 0:
        raise ValueError("null variance must be positive")
    q = 1.0 - level / est.size
    z = math.inf if q == 1.0 else NormalDist().inv_cdf(q)
    cutoff = z * float(np.sqrt(null_variance))
    kept = np.where(est.p_hat > cutoff, est.p_hat, 0.0)
    return replace(est, p_hat=kept, thresholded=True, threshold=cutoff)


def rr_null_variance(epsilon: float, size: int, n: int) -> float:
    """Variance of the RR estimate at a symbol with zero true probability."""
    return expected_l2_rr(epsilon, size, n, 0.0)


def glh_null_variance(epsilon: float, g: int, n: int) -> float:
    """Variance of the hashed estimate at a symbol with zero true probability."""
    return expected_l2_glh(epsilon, g, n, 0.0)


@dataclass(frozen=True)
class UtilityReport:
    """Top-heavy utility metrics against a known true distribution."""

    l2_sum: float
    mean_relative_error: Optional[float]
    top_symbols: np.ndarray
    excluded_symbols: np.ndarray


def l2_and_relative_error(p_true: np.ndarray, p_hat: np.ndarray, phi: int) -> UtilityReport:
    """Sum of squared errors and mean relative error over the top-phi symbols.

    The top phi symbols are ranked by descending true probability with ties
    broken by ascending symbol index. Symbols whose true probability is zero
    cannot carry a relative error; they are excluded and reported.
    """
    p_true = np.asarray(p_true, dtype=np.float64)
    p_hat = np.asarray(p_hat, dtype=np.float64)
    if p_true.shape != p_hat.shape:
        raise ValueError("shape mismatch")
    if not (1 <= phi <= p_true.size):
        raise ValueError("phi must lie in [1, size]")
    order = np.argsort(-p_true, kind="stable")
    top = order[:phi]
    diff = p_true[top] - p_hat[top]
    l2_sum = float((diff * diff).sum())
    nz = p_true[top] > 0
    excluded = top[~nz]
    if np.any(nz):
        mean_rel = float((np.abs(diff[nz]) / p_true[top][nz]).mean())
    else:
        mean_rel = None
    return UtilityReport(l2_sum=l2_sum, mean_relative_error=mean_rel,
                         top_symbols=top, excluded_symbols=excluded)


def expected_l2_rr(epsilon: float, size: int, n: int, p_x: float) -> float:
    """Closed-form E[(p_hat(x) - p(x))^2] for randomized response.

    (|X| + e^eps - 2)/(n (e^eps - 1)^2) + p(x) (|X| - 2)/(n (e^eps - 1)),
    evaluated through t = e^(-eps) so large eps stays finite.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not (0.0 <= p_x <= 1.0):
        raise ValueError("p_x must lie in [0, 1]")
    if size < 2 or n < 1:
        raise ValueError("need size >= 2 and n >= 1")
    t = np.exp(-float(epsilon))
    first = ((size - 2) * t * t + t) / (n * (1.0 - t) ** 2)
    second = p_x * (size - 2) * t / (n * (1.0 - t))
    return float(first + second)


def expected_l2_glh(epsilon: float, g: int, n: int, p_x: float) -> float:
    """Closed-form E[(p_hat(x) - p(x))^2] for the hashed mechanism.

    (g + e^eps - 1)^2/(n (e^eps - 1)^2 (g - 1))
    + p(x) (g^2 - 2g - e^eps + 1)/(n (e^eps - 1)(g - 1)).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if g < 2:
        raise ValueError("need g >= 2")
    if not (0.0 <= p_x <= 1.0):
        raise ValueError("p_x must lie in [0, 1]")
    t = np.exp(-float(epsilon))
    ratio = ((g - 1) * t + 1.0) / (1.0 - t)  # (g + e^eps - 1)/(e^eps - 1)
    first = ratio * ratio / (n * (g - 1))
    second = p_x * ((g - 1) ** 2 * t - 1.0) / (n * (1.0 - t) * (g - 1))
    return float(first + second)


def expected_l2_glh_theta(theta: float, g: int, n: int, p_x: float) -> float:
    """The same expected squared error parameterized by the shrink factor.

    (1 - p theta)/(n theta^2 (g - 1)) + p (1 - theta)/(n theta); identical to
    expected_l2_glh at theta = (e^eps - 1)/(g + e^eps - 1) and visibly
    decreasing in g.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie strictly inside (0, 1)")
    if g < 2:
        raise ValueError("need g >= 2")
    return (1.0 - p_x * theta) / (n * theta * theta * (g - 1)) + p_x * (1.0 - theta) / (n * theta)


def expected_l2_glh_limit(theta: float, n: int, p_x: float) -> float:
    """Large-bucket-count limit of the hashed estimator's squared error."""
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie strictly inside (0, 1)")
    return p_x * (1.0 - theta) / (n * theta)
