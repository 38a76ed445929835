"""Brute-force ground truth on small enumerable instances.

Everything the closed-form modules claim is recomputed here by exhaustive
enumeration: exact identity information of a release, exact score-level
information for a given matcher, exact Bayes error, and exact composed
releases. Each instance carries exactly one channel kernel, so every exact
quantity has one implementation; hashed randomization is the kernel of the
exhaustive hash family, with the hash member part of the release. A
randomized checker draws many small random instances and verifies every
inequality the package relies on, reporting violations as data rather than
exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import bounds, probcore
from .mechanisms import ExhaustiveTable, MechanismKernel, mixture_kernel, postprocess, rr_kernel
from .probcore import CategoricalDistribution, PopulationModel

MAX_USERS = 8
MAX_SYMBOLS = 8
ENUMERATION_CAP = 10 ** 7
TOL = 1e-9


@dataclass(frozen=True)
class SmallInstance:
    """An enumerable population plus the one channel `kernel` that releases its data.

    Every mechanism is a kernel here: hashed randomization enters as
    `ExhaustiveTable(size, g).kernel(epsilon)`, whose outputs are the pairs
    (hash member, bucket). `pair_conditional` optionally carries
    p(x1, x2 | u) for two-release composition checks.
    """

    population: PopulationModel
    kernel: MechanismKernel
    pair_conditional: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.population.n
        size = self.population.data_alphabet().size
        if n > MAX_USERS or size > MAX_SYMBOLS:
            raise ValueError(f"instance too large: n={n}, size={size}")
        if self.kernel.input_size != size:
            raise ValueError("kernel input alphabet does not match the population")
        cells = n * size * self.kernel.output_size
        if cells > ENUMERATION_CAP:
            raise ValueError(f"enumeration size {cells} exceeds cap {ENUMERATION_CAP}")
        if self.pair_conditional is not None:
            pj = np.asarray(self.pair_conditional, dtype=np.float64)
            if pj.shape != (n, size, size):
                raise ValueError("pair conditional must have shape (n, size, size)")
            if np.any(pj < 0) or np.any(np.abs(pj.sum(axis=(1, 2)) - 1.0) > probcore.SUM_TOL):
                raise ValueError("each user's pair conditional must be a distribution")
            object.__setattr__(self, "pair_conditional", pj)


def _joint_uy(instance: SmallInstance) -> np.ndarray:
    """Exact joint p(u, y) of the release."""
    cond = instance.population.conditional_matrix()
    out_given_u = cond @ instance.kernel.matrix.T
    return instance.population.prior.p[:, None] * out_given_u


def exact_pie(instance: SmallInstance) -> float:
    """Exact identity information I(U; Y) of the release, in bits."""
    return probcore.mutual_information(_joint_uy(instance))


def exact_bayes_error(joint: np.ndarray) -> float:
    """1 - sum over columns of the largest row mass: the best guesser's error."""
    return float(1.0 - joint.max(axis=0).sum())


def likelihood_matcher(column: np.ndarray):
    """Score key: the per-user likelihood vector itself (a sufficient score)."""
    return tuple(column)


def argmax_matcher(column: np.ndarray):
    """Score key: only the identity of the best-scoring user."""
    return int(np.argmax(column))


def constant_matcher(column: np.ndarray):
    return 0


@dataclass(frozen=True)
class ExactScoreReport:
    """Exact score-level information and Bayes error for one matcher."""

    information_bits: float
    bayes_error: float
    score_groups: int


def exact_pse(instance: SmallInstance,
              matcher: Callable[[np.ndarray], object] = likelihood_matcher) -> ExactScoreReport:
    """Exact I(U; S) where S is the matcher's output on the release.

    The matcher sees the per-user likelihood column of each possible release
    value and returns any hashable score key; release values with identical
    keys are merged and the information of the quotient is computed. The
    likelihood matcher reproduces the release-level information exactly;
    every other matcher can only lose information.
    """
    joint = _joint_uy(instance)
    prior = instance.population.prior.p
    with np.errstate(invalid="ignore", divide="ignore"):
        likelihood = np.where(prior[:, None] > 0, joint / prior[:, None], 0.0)
    groups: dict = {}
    for y in range(joint.shape[1]):
        key = matcher(likelihood[:, y])
        groups.setdefault(key, []).append(y)
    quotient = np.empty((joint.shape[0], len(groups)))
    for s, ys in enumerate(groups.values()):
        quotient[:, s] = joint[:, ys].sum(axis=1)
    return ExactScoreReport(information_bits=probcore.mutual_information(quotient),
                            bayes_error=exact_bayes_error(quotient),
                            score_groups=len(groups))


def exact_composed_pie(instance: SmallInstance, t: int = 2) -> float:
    """Exact identity information of two releases obfuscated independently."""
    if t == 1:
        return exact_pie(instance)
    if t != 2:
        raise ValueError("only t in {1, 2} is enumerable here")
    if instance.pair_conditional is None:
        raise ValueError("instance carries no pair conditional")
    q = instance.kernel.matrix
    n = instance.population.n
    out = q.shape[0]
    if n * (q.shape[1] * out) ** 2 > ENUMERATION_CAP:
        raise ValueError("composed enumeration exceeds the size cap")
    pair = np.einsum("uab,ya,zb->uyz", instance.pair_conditional, q, q)
    joint = instance.population.prior.p[:, None] * pair.reshape(n, out * out)
    return probcore.mutual_information(joint)


@dataclass(frozen=True)
class Violation:
    instance_index: int
    check: str
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        return {"instance": self.instance_index, "check": self.check,
                "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class BoundViolationReport:
    instances_checked: int
    checks_run: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"instances_checked": self.instances_checked,
                "checks_run": self.checks_run,
                "violations": [v.to_dict() for v in self.violations],
                "passed": self.passed}


def _dirichlet_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    gam = rng.gamma(1.0, 1.0, size=(rows, cols))
    return gam / gam.sum(axis=1, keepdims=True)


def random_small_instance(rng: np.random.Generator) -> tuple[SmallInstance, float]:
    """One random instance: symmetric-Dirichlet rows, 5% point-mass injections."""
    n = int(rng.integers(2, 7))
    size = int(rng.integers(2, 7))
    epsilon = float(rng.uniform(0.0, 5.0))
    if rng.random() < 0.5:
        prior = CategoricalDistribution.uniform(n)
    elif rng.random() < 0.1:
        prior = CategoricalDistribution.point_mass(n, int(rng.integers(n)))
    else:
        prior = CategoricalDistribution(n, _dirichlet_rows(rng, 1, n)[0])
    if rng.random() < 0.05:
        cond = np.zeros((n, size))
        cond[np.arange(n), rng.integers(0, size, size=n)] = 1.0
    else:
        cond = _dirichlet_rows(rng, n, size)
    dists = [CategoricalDistribution(size, row) for row in cond]
    population = PopulationModel.single_datum(prior, dists)
    instance = SmallInstance(population=population, kernel=rr_kernel(epsilon, size))
    return instance, epsilon


def verify_bound_suite(count: int, rng_or_seed: Union[int, np.random.Generator],
                       instance_generator: Optional[Callable] = None) -> BoundViolationReport:
    """Hunt for counterexamples to every inequality on random small instances.

    For each instance the exact enumerated quantities are tested, with
    tolerance 1e-9, against: the data-processing caps, the generic
    privacy-budget cap, both mechanism-specific shrink caps, post-processing
    monotonicity, mixture convexity, score-level information never exceeding
    release-level information (with equality for the likelihood matcher),
    two-release linear composition under full correlation and independence,
    and the Fano error bounds against exact Bayes error.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(rng_or_seed, np.random.Generator):
        rng = rng_or_seed
    else:
        rng = probcore.make_rng(int(rng_or_seed))
    gen = instance_generator or random_small_instance
    violations: list[Violation] = []
    checks_run = 0

    def claim(idx: int, name: str, lhs: float, rhs: float, tol: float = TOL):
        nonlocal checks_run
        checks_run += 1
        if lhs > rhs + tol:
            violations.append(Violation(idx, name, float(lhs), float(rhs)))

    for idx in range(count):
        instance, epsilon = gen(rng)
        pop = instance.population
        n, size = pop.n, pop.data_alphabet().size
        q = instance.kernel
        cond = pop.conditional_matrix()
        prior = pop.prior.p

        i_uy = exact_pie(instance)
        i_ux = probcore.mutual_information(pop.joint_ux())
        p_x = prior @ cond
        joint_xy = p_x[:, None] * q.matrix.T
        i_xy = probcore.mutual_information(joint_xy)

        claim(idx, "release_info_below_identity_info", i_uy, i_ux)
        claim(idx, "release_info_below_channel_info", i_uy, i_xy)
        claim(idx, "generic_budget_cap", i_uy, bounds.pie_bound_ldp(epsilon, n, size))
        theta = bounds.mi_loss_rr(epsilon, size)
        claim(idx, "rr_shrink_of_identity_info", i_uy, theta * i_ux)
        claim(idx, "rr_cap", i_uy, bounds.pie_bound_rr(epsilon, n, size))

        # hashed mechanism with the exactly universal family
        g = int(rng.integers(2, 4))
        if g ** size * n * size * g <= ENUMERATION_CAP and g ** size <= 4096:
            hashed = ExhaustiveTable(size, g).kernel(epsilon)
            i_uhy = exact_pie(SmallInstance(population=pop, kernel=hashed))
            theta_g = bounds.mi_loss_glh(epsilon, g)
            claim(idx, "glh_shrink_of_identity_info", i_uhy, theta_g * i_ux)
            claim(idx, "glh_cap", i_uhy, bounds.pie_bound_glh(epsilon, g, n, size))

        # post-processing can only lose information
        out2 = int(rng.integers(2, 5))
        chan = MechanismKernel(size, out2, _dirichlet_rows(rng, size, out2).T)
        composed = SmallInstance(population=pop, kernel=postprocess(q, chan))
        claim(idx, "postprocess_monotone", exact_pie(composed), i_uy)

        # mixtures are convex in information
        eps2 = float(rng.uniform(0.0, 5.0))
        q2 = rr_kernel(eps2, size)
        w = float(rng.random())
        mixed = SmallInstance(population=pop, kernel=mixture_kernel(w, q, q2))
        i_mixed = exact_pie(mixed)
        i_uy2 = exact_pie(SmallInstance(population=pop, kernel=q2))
        claim(idx, "mixture_convexity", i_mixed, w * i_uy + (1.0 - w) * i_uy2)

        # score-level information
        suff = exact_pse(instance, likelihood_matcher)
        claim(idx, "sufficient_score_equality_upper", suff.information_bits, i_uy)
        claim(idx, "sufficient_score_equality_lower", i_uy, suff.information_bits)
        coarse = exact_pse(instance, argmax_matcher)
        claim(idx, "coarse_score_below_release_info", coarse.information_bits, i_uy)
        claim(idx, "constant_score_zero",
              exact_pse(instance, constant_matcher).information_bits, 0.0)

        # two correlated releases: linear composition
        pair_full = np.zeros((n, size, size))
        pair_full[:, np.arange(size), np.arange(size)] = cond
        inst_full = SmallInstance(population=pop, kernel=q, pair_conditional=pair_full)
        alpha1 = bounds.pie_bound_rr(epsilon, n, size)
        claim(idx, "composition_full_correlation",
              exact_composed_pie(inst_full), bounds.pie_bound_composed(alpha1, 2))
        pair_ind = cond[:, :, None] * cond[:, None, :]
        inst_ind = SmallInstance(population=pop, kernel=q, pair_conditional=pair_ind)
        i_pair = exact_composed_pie(inst_ind)
        claim(idx, "composition_independent", i_pair, bounds.pie_bound_composed(alpha1, 2))
        claim(idx, "composition_chain_rule", i_pair, 2.0 * i_uy)

        # Fano: exact Bayes error of the score variable respects the bound
        beta_s = suff.bayes_error
        is_uniform = np.allclose(prior, 1.0 / n, atol=1e-12)
        if is_uniform:
            fb = bounds.fano_lower_bound(suff.information_bits, n=n)
            claim(idx, "fano_uniform", fb.raw, beta_s)
        beta_u = 1.0 - float(prior.max())
        if 0.0 < beta_u < 1.0:
            fb = bounds.fano_lower_bound(suff.information_bits, prior_bayes_error=beta_u)
            claim(idx, "fano_general", fb.raw, beta_s)

    return BoundViolationReport(instances_checked=count, checks_run=checks_run,
                                violations=tuple(violations))
