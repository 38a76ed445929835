"""Closed-form privacy arithmetic.

Everything here is a pure total function over validated inputs: information
shrink factors of the two mechanisms, worst-case caps on the identity
information leaked by a release (generic local-privacy cap and tighter
mechanism-specific caps), their linear composition over repeated releases,
identification-error guarantees of the Fano type, and the inverse solvers
that turn a target error probability back into mechanism parameters.

All information values are bits. An unbounded privacy budget may be passed
as math.inf, in which case the caps degrade gracefully to min(log2 n,
log2 |X|). The shrink factors and caps broadcast over an array of budgets,
`pie_bound_composed` over an array of caps and `fano_lower_bound` over
arrays of information and prior errors: each entry is the value its numbers
give alone, bit for bit, so the oracle checks these very formulas on whole
arrays of instances.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .mechanisms import _everywhere, _keep_leak

LOG2E = math.log2(math.e)


def _log2(x):
    """math.log2 of a number, or of each entry of an array: numpy's log2 can differ in a bit."""
    if isinstance(x, np.ndarray):
        return np.array([math.log2(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return math.log2(x)


def mi_loss_rr(epsilon: float, size: int) -> float:
    """Information shrink factor of randomized response: (e^eps - 1)/(|X| + e^eps - 1)."""
    if size < 2:
        raise ValueError("alphabet size must be >= 2")
    return _keep_leak(epsilon, size)[2]


def mi_loss_glh(epsilon: float, g: int) -> float:
    """Information shrink factor of hashed randomized response over g buckets."""
    if g < 2:
        raise ValueError("bucket count must be >= 2")
    return _keep_leak(epsilon, g)[2]


def pie_bound_ldp(epsilon: float, n: int, size: int) -> float:
    """Identity-information cap implied by the privacy budget alone.

    min(eps*log2 e, eps^2*log2 e, log2 n, log2 |X|) bits; holds for every
    mechanism meeting the budget and every population of n users.
    """
    if not _everywhere(epsilon >= 0) or n < 1 or size < 1:
        raise ValueError("need epsilon >= 0, n >= 1, size >= 1")
    return np.minimum(np.minimum(epsilon * LOG2E, epsilon * epsilon * LOG2E),
                      min(math.log2(n), math.log2(size)))


def pie_bound_rr(epsilon: float, n: int, size: int) -> float:
    """Identity-information cap specific to randomized response."""
    if n < 1:
        raise ValueError("need n >= 1")
    return mi_loss_rr(epsilon, size) * min(math.log2(n), math.log2(size))


def pie_bound_glh(epsilon: float, g: int, n: int, size: int) -> float:
    """Identity-information cap specific to hashed randomized response."""
    if n < 1 or size < 1:
        raise ValueError("need n >= 1, size >= 1")
    return mi_loss_glh(epsilon, g) * min(math.log2(n), math.log2(size))


def pie_bound_composed(alpha_single: float, t: int) -> float:
    """Cap for t releases about the same users: linear in t, any correlation."""
    if t < 1:
        raise ValueError("composition count must be >= 1")
    if not _everywhere(alpha_single >= 0):  # refuses NaN too
        raise ValueError("alpha must be >= 0")
    return t * alpha_single


@dataclass(frozen=True)
class FanoBound:
    """Lower bound on the smallest achievable identification error.

    `raw` is the formula value and may be negative (then the bound says
    nothing and `vacuous` is set); `value` is clamped to [0, 1) for reports.
    Each is an array, entry by entry, when `fano_lower_bound` is given arrays.
    """

    raw: float
    value: float
    vacuous: bool


def fano_lower_bound(info_bits: float, n: Optional[int] = None,
                     prior_bayes_error: Optional[float] = None) -> FanoBound:
    """Bound the identification error from the identity information in bits.

    Exactly one prior form must be given: `n` for a uniform prior over n
    users (bound 1 - (info+1)/log2 n), or `prior_bayes_error` for a general
    prior with no-information error beta in (0, 1) (bound
    1 + (info+1)/log2(1-beta), denominator negative). `info_bits` and
    `prior_bayes_error` may be arrays of the same shape; `n` stays one number.
    """
    if isinstance(info_bits, np.ndarray):
        info_bits = np.asarray(info_bits, dtype=np.float64)
    else:
        info_bits = float(info_bits)
    if not _everywhere(info_bits >= 0):  # refuses NaN too
        raise ValueError("information must be >= 0 bits")
    if (n is None) == (prior_bayes_error is None):
        raise ValueError("give exactly one of n (uniform prior) or prior_bayes_error")
    if n is not None:
        if n < 2:
            raise ValueError("uniform prior needs n >= 2")
        raw = 1.0 - (info_bits + 1.0) / math.log2(n)
    else:
        beta = prior_bayes_error
        if not (_everywhere(0.0 < beta) and _everywhere(beta < 1.0)):
            raise ValueError("prior Bayes error must lie in (0, 1)")
        raw = 1.0 + (info_bits + 1.0) / _log2(1.0 - beta)
    value = np.clip(raw, 0.0, 1.0) if isinstance(raw, np.ndarray) else min(max(raw, 0.0), 1.0)
    return FanoBound(raw=raw, value=value, vacuous=raw <= 0.0)


@dataclass(frozen=True)
class AlphaBudget:
    """Largest information cap compatible with a target error floor."""

    value: float
    achievable: bool


def alpha_for_target_bayes_error(beta_min: float, n: Optional[int] = None,
                                 prior_bayes_error: Optional[float] = None) -> AlphaBudget:
    """Invert the Fano bound: the alpha that still guarantees error >= beta_min."""
    if not (0.0 < beta_min < 1.0):
        raise ValueError("beta_min must lie in (0, 1)")
    if (n is None) == (prior_bayes_error is None):
        raise ValueError("give exactly one of n (uniform prior) or prior_bayes_error")
    if n is not None:
        if n < 2:
            raise ValueError("uniform prior needs n >= 2")
        value = (1.0 - beta_min) * math.log2(n) - 1.0
    else:
        beta = prior_bayes_error
        if not (0.0 < beta < 1.0):
            raise ValueError("prior Bayes error must lie in (0, 1)")
        value = -(1.0 - beta_min) * math.log2(1.0 - beta) - 1.0
    return AlphaBudget(value=value, achievable=value >= 0.0)


def epsilon_for_theta(theta: float, domain_size: int) -> float:
    """Privacy level that realizes a requested shrink factor.

    Inverse of the shrink-factor formulas: eps = ln(1 + theta*d/(1-theta))
    where d is |X| for randomized response or g for the hashed mechanism.
    """
    if not (0.0 <= theta < 1.0):
        raise ValueError("theta must lie in [0, 1)")
    if domain_size < 2:
        raise ValueError("domain size must be >= 2")
    return math.log1p(theta * domain_size / (1.0 - theta))


def glh_utility_optimal_g(epsilon: float) -> float:
    """Reference bucket count e^eps + 1 (utility-optimal for frequency estimation).

    `pipeline._glh_bucket_count` rounds it to the GLH bucket count of an
    attack or experiment that sets no `glh_g`.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    return math.exp(epsilon) + 1.0


@dataclass(frozen=True)
class PieBoundReport:
    """Everything the bounds CLI reports for one parameter point."""

    n: int
    size: int
    epsilon: float
    t: int
    theta_rr: float
    alpha_ldp: float
    alpha_rr: float
    g: Optional[int] = None
    theta_glh: Optional[float] = None
    alpha_glh: Optional[float] = None
    beta_min: Optional[float] = None
    alpha_max_for_beta_min: Optional[float] = None
    alpha_max_achievable: Optional[bool] = None
    fano: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields, plus the schema version and the no-information error 1 - 1/n."""
        return {"schema_version": 1, **asdict(self), "beta_u_uniform": 1.0 - 1.0 / self.n}

    def table_row(self) -> str:
        cells = [f"n={self.n}", f"size={self.size}", f"eps={self.epsilon:.6g}", f"t={self.t}",
                 f"theta_rr={self.theta_rr:.6g}", f"alpha_ldp={self.alpha_ldp:.6g}",
                 f"alpha_rr={self.alpha_rr:.6g}"]
        if self.g is not None:
            cells += [f"g={self.g}", f"alpha_glh={self.alpha_glh:.6g}"]
        return " ".join(cells)


def bound_report(n: int, size: int, epsilon: Optional[float] = None,
                 theta: Optional[float] = None, g: Optional[int] = None,
                 t: int = 1, beta_min: Optional[float] = None) -> PieBoundReport:
    """Assemble the full report for one (mechanism parameters, population) point.

    Exactly one of epsilon/theta must be given; theta is translated through
    the randomized-response shrink formula over |X| (over g when only the
    hashed mechanism is of interest the caller can translate explicitly).
    """
    if (epsilon is None) == (theta is None):
        raise ValueError("give exactly one of epsilon or theta")
    if epsilon is None:
        epsilon = epsilon_for_theta(theta, size)
    theta_rr = mi_loss_rr(epsilon, size)
    alpha_ldp = pie_bound_composed(pie_bound_ldp(epsilon, n, size), t)
    alpha_rr = pie_bound_composed(pie_bound_rr(epsilon, n, size), t)
    theta_glh = alpha_glh = None
    if g is not None:
        theta_glh = mi_loss_glh(epsilon, g)
        alpha_glh = pie_bound_composed(pie_bound_glh(epsilon, g, n, size), t)

    fano = {}
    if n >= 2:
        for name, alpha in (("ldp", alpha_ldp), ("rr", alpha_rr), ("glh", alpha_glh)):
            if alpha is None:
                continue
            b = fano_lower_bound(alpha, n=n)
            fano[name] = {"raw": b.raw, "value": b.value, "vacuous": b.vacuous}

    alpha_max = achievable = None
    if beta_min is not None:
        budget = alpha_for_target_bayes_error(beta_min, n=n)
        alpha_max, achievable = budget.value, budget.achievable

    return PieBoundReport(n=n, size=size, epsilon=epsilon, t=t, theta_rr=theta_rr,
                          alpha_ldp=alpha_ldp, alpha_rr=alpha_rr, g=g,
                          theta_glh=theta_glh, alpha_glh=alpha_glh,
                          beta_min=beta_min, alpha_max_for_beta_min=alpha_max,
                          alpha_max_achievable=achievable, fano=fano)
