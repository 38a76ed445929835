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

Each exact quantity is computed by one kernel over a stack of instances
(`_release_joints`, `_score_joints`, `_composed_joints` and
`probcore._mutual_information_stack`); the public per-instance functions
are stacks of one. The checker draws every instance first, then groups the
instances by shape and evaluates each quantity in one array pass per
group, a group cut into stacks of at most STACK_CELLS cells per array.
Traced through `bench/run.py --workload verify` on a 2-core x86-64 host,
this costs 0.35 ms per instance, where evaluating one instance at a time
cost 2.07 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import bounds, probcore
from .mechanisms import (ExhaustiveTable, MechanismKernel, _checked_columns, _keep_leak,
                         _rr_matrices, rr_kernel)
from .probcore import CategoricalDistribution, PopulationModel

MAX_USERS = 8
MAX_SYMBOLS = 8
ENUMERATION_CAP = 10 ** 7
TOL = 1e-9
# cells of the largest array one stack of verify_bound_suite builds
STACK_CELLS = 2 ** 14


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
            _checked_pairs(pj)
            object.__setattr__(self, "pair_conditional", pj)


def _checked_pairs(pairs: np.ndarray) -> None:
    """ValueError unless each user's p(x1, x2 | u) in pairs (..., size, size) is a distribution."""
    mass = pairs.sum(axis=(-2, -1))
    if not ((pairs >= 0).all() and (np.abs(mass - 1.0) <= probcore.SUM_TOL).all()):  # refuses NaN too
        raise ValueError("each user's pair conditional must be a distribution")


def _stack_of_one(instance: SmallInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prior, p(x | u), kernel matrix) of one instance, each with a leading axis of 1."""
    pop = instance.population
    return pop.prior.p[None], pop.conditional_matrix()[None], instance.kernel.matrix[None]


def _release_joints(prior: np.ndarray, cond: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Joints p(u, y): prior (B, n), p(x | u) (B, n, x), kernels (B, y, x) -> (B, n, y)."""
    return prior[:, :, None] * (cond @ q.transpose(0, 2, 1))


def _composed_joints(prior: np.ndarray, pairs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Joints p(u, (y1, y2)) of two releases: pairs (B, n, x, x), kernels (B, y, x) -> (B, n, y*y)."""
    pair = np.einsum("suab,sya,szb->suyz", pairs, q, q)
    return prior[:, :, None] * pair.reshape(pair.shape[0], pair.shape[1], -1)


def _likelihoods(prior: np.ndarray, joints: np.ndarray) -> np.ndarray:
    """Per-user likelihood columns p(y | u) of joints (B, n, y); 0 for users of no prior mass."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(prior[:, :, None] > 0, joints / prior[:, :, None], 0.0)


def _likelihood_labels(likelihoods: np.ndarray) -> np.ndarray:
    """(B, y) labels: the first column equal, entry for entry, to column y."""
    same = (likelihoods[:, :, :, None] == likelihoods[:, :, None, :]).all(axis=1)
    return same.argmax(axis=2)


def _score_joints(joints: np.ndarray, labels: np.ndarray, groups: int) -> np.ndarray:
    """Joints p(u, s): column y of joints[b] added into column labels[b, y] of `groups` columns."""
    onehot = labels[:, :, None] == np.arange(groups)
    return joints @ onehot.astype(np.float64)


def _bayes_errors(joints: np.ndarray) -> np.ndarray:
    """1 - sum over columns of the largest row mass, for each joint of a (B, n, y) stack."""
    return 1.0 - joints.max(axis=1).sum(axis=1)


def exact_pie(instance: SmallInstance) -> float:
    """Exact identity information I(U; Y) of the release, in bits."""
    return float(probcore._mutual_information_stack(_release_joints(*_stack_of_one(instance)))[0])


def exact_bayes_error(joint: np.ndarray) -> float:
    """1 - sum over columns of the largest row mass: the best guesser's error."""
    return float(_bayes_errors(np.asarray(joint)[None])[0])


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
    prior, cond, q = _stack_of_one(instance)
    joints = _release_joints(prior, cond, q)
    likelihood = _likelihoods(prior, joints)[0]
    keys: dict = {}
    labels = [keys.setdefault(matcher(likelihood[:, y]), len(keys))
              for y in range(likelihood.shape[1])]
    scores = _score_joints(joints, np.array([labels]), len(keys))
    return ExactScoreReport(
        information_bits=float(probcore._mutual_information_stack(scores)[0]),
        bayes_error=float(_bayes_errors(scores)[0]), score_groups=len(keys))


def exact_composed_pie(instance: SmallInstance, t: int = 2) -> float:
    """Exact identity information of two releases obfuscated independently."""
    if t == 1:
        return exact_pie(instance)
    if t != 2:
        raise ValueError("only t in {1, 2} is enumerable here")
    if instance.pair_conditional is None:
        raise ValueError("instance carries no pair conditional")
    prior, _, q = _stack_of_one(instance)
    out, size = q.shape[1:]
    if instance.population.n * (size * out) ** 2 > ENUMERATION_CAP:
        raise ValueError("composed enumeration exceeds the size cap")
    joints = _composed_joints(prior, instance.pair_conditional[None], q)
    return float(probcore._mutual_information_stack(joints)[0])


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
    population = PopulationModel.single_datum(prior, CategoricalDistribution.rows(size, cond))
    instance = SmallInstance(population=population, kernel=rr_kernel(epsilon, size))
    return instance, epsilon


class _Draw(NamedTuple):
    """What verify_bound_suite keeps of one instance between drawing and evaluating it."""

    prior: np.ndarray    # (n,)
    cond: np.ndarray     # p(x | u), (n, size)
    kernel: np.ndarray   # (size, size)
    epsilon: float
    g: int               # hash buckets
    hashed: bool         # whether the exhaustive hashed release is enumerated
    post: np.ndarray     # post-processing channel before its column test, (out2, size)
    eps2: float          # budget of the second randomized response
    w: float             # mixture weight


def _stacks(draws: list, fields: str, key: Callable, cells: Callable):
    """(key, positions, stack) for the draws sharing each key, in order of first appearance.

    A draw whose key is None is left out. A stack holds the named _Draw
    `fields` of at most STACK_CELLS // cells(*key) draws, one at least, each
    field an array with a leading stack axis.
    """
    groups: dict = {}
    for i, d in enumerate(draws):
        k = key(d)
        if k is not None:
            groups.setdefault(k, []).append(i)
    names = fields.split()
    for k, idx in groups.items():
        step = max(1, STACK_CELLS // cells(*k))
        for lo in range(0, len(idx), step):
            part = idx[lo:lo + step]
            stack = SimpleNamespace(**{f: np.array([getattr(draws[i], f) for i in part])
                                       for f in names})
            yield k, np.array(part), stack


def _exact_quantities(draws: list, p: dict) -> dict:
    """Every exact quantity of every draw, one array pass per stack of equal shapes.

    `p` holds per-draw arrays of the randomized-response probabilities:
    (keep, leak) of the hashed release over g buckets and (keep2, leak2) of
    the second release. Returns name -> (len(draws),) array; quantities of
    the hashed release are 0 where it is not enumerated.
    """
    out = {name: np.zeros(len(draws)) for name in (
        "i_uy", "i_ux", "i_xy", "i_uhy", "i_post", "i_mixed", "i_uy2", "suff", "suff_error",
        "coarse", "constant", "i_full", "i_pair", "beta_u")}
    out["uniform"] = np.zeros(len(draws), dtype=bool)
    mi = probcore._mutual_information_stack

    for (n, size), idx, s in _stacks(draws, "prior cond kernel w", lambda d: d.cond.shape,
                                     lambda n, size: n * size * size):
        joints = _release_joints(s.prior, s.cond, s.kernel)
        out["i_uy"][idx] = mi(joints)
        out["i_ux"][idx] = mi(s.prior[:, :, None] * s.cond)
        p_x = s.prior[:, None, :] @ s.cond
        out["i_xy"][idx] = mi(p_x.transpose(0, 2, 1) * s.kernel.transpose(0, 2, 1))

        # mixtures with a second randomized response
        q2 = _checked_columns(_rr_matrices(p["keep2"][idx], p["leak2"][idx], size))
        w = s.w[:, None, None]
        mixed = _checked_columns(w * s.kernel + (1.0 - w) * q2)
        out["i_mixed"][idx] = mi(_release_joints(s.prior, s.cond, mixed))
        out["i_uy2"][idx] = mi(_release_joints(s.prior, s.cond, q2))

        # score-level information of the likelihood, argmax and constant matchers
        likelihood = _likelihoods(s.prior, joints)
        suff = _score_joints(joints, _likelihood_labels(likelihood), size)
        out["suff"][idx] = mi(suff)
        out["suff_error"][idx] = _bayes_errors(suff)
        out["coarse"][idx] = mi(_score_joints(joints, likelihood.argmax(axis=1), n))
        out["constant"][idx] = mi(_score_joints(joints, np.zeros((len(idx), size), int), 1))

        # two releases of fully correlated and of independent data
        full = np.zeros((len(idx), n, size, size))
        full[:, :, np.arange(size), np.arange(size)] = s.cond
        independent = s.cond[:, :, :, None] * s.cond[:, :, None, :]
        for name, pairs in (("i_full", full), ("i_pair", independent)):
            _checked_pairs(pairs)
            out[name][idx] = mi(_composed_joints(s.prior, pairs, s.kernel))

        out["uniform"][idx] = np.isclose(s.prior, 1.0 / n, atol=1e-12).all(axis=1)
        out["beta_u"][idx] = 1.0 - s.prior.max(axis=1)

    # hashed randomization with the exactly universal family: the kernel
    # leak / count + (keep - leak) / count * H on rows p(x | u) that sum to 1
    indicators: dict = {}
    for (n, size, g), idx, s in _stacks(draws, "prior cond",
                                        lambda d: d.cond.shape + (d.g,) if d.hashed else None,
                                        lambda n, size, g: n * g ** size * g):
        if (size, g) not in indicators:
            indicators[size, g] = ExhaustiveTable(size, g).indicator()
        count = g ** size
        hits = s.cond @ indicators[size, g].T
        keep, leak = p["keep"][idx, None, None], p["leak"][idx, None, None]
        given_u = leak / count + (keep - leak) / count * hits
        out["i_uhy"][idx] = mi(s.prior[:, :, None] * given_u)

    # post-processing by a random channel
    for (n, size, out2), idx, s in _stacks(draws, "prior cond kernel post",
                                           lambda d: d.cond.shape + (len(d.post),),
                                           lambda n, size, out2: n * size * out2):
        composed = _checked_columns(_checked_columns(s.post) @ s.kernel)
        out["i_post"][idx] = mi(_release_joints(s.prior, s.cond, composed))
    return out


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

    Every instance is drawn first: the generator, then the hash bucket count,
    the post-processing channel, the second budget and the mixture weight,
    all from the one stream. The exact quantities are then evaluated a stack
    of equal-shaped instances at a time, and violations are reported in
    instance order, each instance's in the order of the checks above. A refused instance
    raises the ValueError the per-instance functions raise; where several are
    refused, the one raised need not be the earliest.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(rng_or_seed, np.random.Generator):
        rng = rng_or_seed
    else:
        rng = probcore.make_rng(int(rng_or_seed))
    gen = instance_generator or random_small_instance

    draws = []
    for _ in range(count):
        instance, epsilon = gen(rng)
        pop = instance.population
        n, size = pop.n, pop.data_alphabet().size
        if instance.kernel.output_size != size:
            raise ValueError("channel input alphabet must equal kernel output alphabet")
        g = int(rng.integers(2, 4))
        hashed = g ** size * n * size * g <= ENUMERATION_CAP and g ** size <= 4096
        out2 = int(rng.integers(2, 5))
        post = _dirichlet_rows(rng, size, out2).T
        eps2 = float(rng.uniform(0.0, 5.0))
        w = float(rng.random())
        draws.append(_Draw(pop.prior.p, pop.conditional_matrix(), instance.kernel.matrix,
                           epsilon, g, hashed, post, eps2, w))

    # closed-form caps and kernel probabilities, one instance at a time
    p = {name: np.zeros(count) for name in
         ("ldp", "theta", "rr", "composed", "theta_g", "glh", "keep", "leak", "keep2", "leak2")}
    for i, d in enumerate(draws):
        n, size = d.cond.shape
        p["ldp"][i] = bounds.pie_bound_ldp(d.epsilon, n, size)
        p["theta"][i] = bounds.mi_loss_rr(d.epsilon, size)
        p["rr"][i] = alpha1 = bounds.pie_bound_rr(d.epsilon, n, size)
        p["composed"][i] = bounds.pie_bound_composed(alpha1, 2)
        if d.hashed:
            p["theta_g"][i] = bounds.mi_loss_glh(d.epsilon, d.g)
            p["glh"][i] = bounds.pie_bound_glh(d.epsilon, d.g, n, size)
            p["keep"][i], p["leak"][i], _ = _keep_leak(d.epsilon, d.g)
        p["keep2"][i], p["leak2"][i], _ = _keep_leak(d.eps2, size)

    x = _exact_quantities(draws, p)
    general = (0.0 < x["beta_u"]) & (x["beta_u"] < 1.0)
    fano = np.zeros((count, 2))
    for i in np.flatnonzero(x["uniform"]):
        fano[i, 0] = bounds.fano_lower_bound(x["suff"][i], n=len(draws[i].prior)).raw
    for i in np.flatnonzero(general):
        fano[i, 1] = bounds.fano_lower_bound(x["suff"][i], prior_bayes_error=x["beta_u"][i]).raw

    w = np.array([d.w for d in draws])
    i_uy, i_ux, suff = x["i_uy"], x["i_ux"], x["suff"]
    every = np.ones(count, dtype=bool)
    hashed = np.array([d.hashed for d in draws])
    claims = {  # name: (lhs, rhs, applies), in the order each instance reports them
        "release_info_below_identity_info": (i_uy, i_ux, every),
        "release_info_below_channel_info": (i_uy, x["i_xy"], every),
        "generic_budget_cap": (i_uy, p["ldp"], every),
        "rr_shrink_of_identity_info": (i_uy, p["theta"] * i_ux, every),
        "rr_cap": (i_uy, p["rr"], every),
        "glh_shrink_of_identity_info": (x["i_uhy"], p["theta_g"] * i_ux, hashed),
        "glh_cap": (x["i_uhy"], p["glh"], hashed),
        "postprocess_monotone": (x["i_post"], i_uy, every),
        "mixture_convexity": (x["i_mixed"], w * i_uy + (1.0 - w) * x["i_uy2"], every),
        "sufficient_score_equality_upper": (suff, i_uy, every),
        "sufficient_score_equality_lower": (i_uy, suff, every),
        "coarse_score_below_release_info": (x["coarse"], i_uy, every),
        "constant_score_zero": (x["constant"], np.zeros(count), every),
        "composition_full_correlation": (x["i_full"], p["composed"], every),
        "composition_independent": (x["i_pair"], p["composed"], every),
        "composition_chain_rule": (x["i_pair"], 2.0 * i_uy, every),
        "fano_uniform": (fano[:, 0], x["suff_error"], x["uniform"]),
        "fano_general": (fano[:, 1], x["suff_error"], general),
    }
    names = list(claims)
    lhs, rhs, applies = (np.column_stack(side) for side in zip(*claims.values()))
    violated = applies & (lhs > rhs + TOL)
    violations = tuple(Violation(int(i), names[c], float(lhs[i, c]), float(rhs[i, c]))
                       for i, c in zip(*np.nonzero(violated)))
    return BoundViolationReport(instances_checked=count, checks_run=int(applies.sum()),
                                violations=violations)
