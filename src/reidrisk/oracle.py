"""Brute-force ground truth on small enumerable instances.

Everything the closed-form modules claim is recomputed here by exhaustive
enumeration: exact identity information of a release, exact score-level
information for a given matcher, exact Bayes error, and exact composed
releases. An instance is the prior p(u) and the rows p(x | u), as arrays,
plus exactly one channel kernel, so every exact quantity has one
implementation; hashed randomization is the kernel of the
exhaustive hash family, with the hash member part of the release. A
release (member, bucket) tells only its preimage set, the symbols the
member sends to that bucket, so the checker takes the hashed release on
its preimage sets: 2^size columns, one per subset of the alphabet, in place
of the g^size * g columns of that kernel, with the same information. A
randomized checker draws many small random instances and verifies every
inequality the package relies on, reporting violations as data rather than
exceptions.

Each exact quantity is computed by one kernel over a stack of instances
(`_release_joints`, `_score_joints`, `_composed_joints` and
`probcore._mutual_information_stack`); the public per-instance functions
are stacks of one. The checker draws its instances BLOCK_INSTANCES at a
time, writing each draw straight into the arrays of a `_Block`, which hold
MAX_USERS users and MAX_SYMBOLS symbols per instance; the padded users
and symbols are zero and never read. Its Dirichlet rows are normalized, the checks
`SmallInstance` would run are made and its randomized-response kernels are
built once per width, over each instance's own rows. The block is then
evaluated in one array pass per (users, symbols) shape, every array sliced
to that shape and every family of quantities together, a pass cut into
stacks of at most STACK_CELLS cells per array; the two-release joints of
fully correlated and of independent data are taken as the Khatri-Rao
square of the kernel and the outer square of p(y | u), the two cases of
`_composed_joints` the checker needs. On preimage sets an instance's
hashed release is at most MAX_USERS * 2^MAX_SYMBOLS = 2048 cells, so it is
evaluated, and its claims checked, on every instance. The caps are the
`bounds` functions, called once per (n, size, g) group on an array of
budgets. Traced through `bench/run.py --workload verify` on a 2-vCPU
x86-64 host, this costs 0.023 ms per instance (0.022-0.023 over 5 runs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import bounds, probcore
from .mechanisms import MechanismKernel, _checked_columns, _keep_leak, _rr_matrices, rr_kernel

MAX_USERS = 8
MAX_SYMBOLS = 8
ENUMERATION_CAP = 10 ** 7
TOL = 1e-9
# cells of the largest array one stack of verify_bound_suite builds; an instance
# of n users holds n * max(2^size, size^2): its hashed release, taken on its
# preimage sets, or its joint of two releases
STACK_CELLS = 2 ** 14
# instances verify_bound_suite draws and evaluates at a time
BLOCK_INSTANCES = 2 ** 12


@dataclass(frozen=True)
class SmallInstance:
    """An enumerable population plus the one channel `kernel` that releases its data.

    The population is the prior p(u) over n users and the rows p(x | u) of
    `cond`, shape (n, size); each is checked as a distribution and tiny
    drift is renormalized. Every mechanism is a kernel here: hashed
    randomization enters as `ExhaustiveTable(size, g).kernel(epsilon)`,
    whose outputs are the pairs (hash member, bucket); `verify_bound_suite`
    takes that release on its preimage sets instead, 2^size columns in place
    of g^size * g, with the same identity information. `pair_conditional`
    optionally carries p(x1, x2 | u) for two-release composition checks.
    """

    prior: np.ndarray
    cond: np.ndarray
    kernel: MechanismKernel
    pair_conditional: Optional[np.ndarray] = None

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=np.float64)
        cond = np.asarray(self.cond, dtype=np.float64)
        if cond.ndim != 2 or prior.shape != cond.shape[:1]:
            raise ValueError("need exactly one data model per user")
        n, size = cond.shape
        prior = np.array(probcore._checked_masses(prior[None], "distribution")[0])
        cond = np.array(probcore._checked_masses(cond, "distribution"))
        _check_shape(n, size, self.kernel.input_size, self.kernel.output_size)
        for name, value in (("prior", prior), ("cond", cond)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if self.pair_conditional is not None:
            pj = np.asarray(self.pair_conditional, dtype=np.float64)
            if pj.shape != (n, size, size):
                raise ValueError("pair conditional must have shape (n, size, size)")
            _checked_pairs(pj)
            object.__setattr__(self, "pair_conditional", pj)


def _check_shape(n: int, size: int, kernel_in: int, kernel_out: int) -> None:
    """ValueError unless n users over `size` symbols and a kernel of that shape are enumerable."""
    if n > MAX_USERS or size > MAX_SYMBOLS:
        raise ValueError(f"instance too large: n={n}, size={size}")
    if kernel_in != size:
        raise ValueError("kernel input alphabet does not match the population")
    cells = n * size * kernel_out
    if cells > ENUMERATION_CAP:
        raise ValueError(f"enumeration size {cells} exceeds cap {ENUMERATION_CAP}")


def _checked_pairs(pairs: np.ndarray) -> None:
    """ValueError unless each user's p(x1, x2 | u) in pairs (..., size, size) is a distribution."""
    mass = pairs.sum(axis=(-2, -1))
    if not ((pairs >= 0).all() and (np.abs(mass - 1.0) <= probcore.SUM_TOL).all()):  # refuses NaN too
        raise ValueError("each user's pair conditional must be a distribution")


def _stack_of_one(instance: SmallInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prior, p(x | u), kernel matrix) of one instance, each with a leading axis of 1."""
    return instance.prior[None], instance.cond[None], instance.kernel.matrix[None]


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
    if len(instance.prior) * (size * out) ** 2 > ENUMERATION_CAP:
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


def _gamma_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Gamma(1) draws, shape (rows, cols): symmetric-Dirichlet rows before `_normalized_rows`."""
    return rng.gamma(1.0, 1.0, size=(rows, cols))


def _normalized_rows(gam: np.ndarray) -> np.ndarray:
    """Each row of gam (rows, cols) divided by its sum."""
    return gam / gam.sum(axis=1, keepdims=True)


def _draw_population(rng: np.random.Generator, prior: np.ndarray, cond: np.ndarray) -> tuple:
    """(n, size, epsilon, gamma prior, gamma rows) of one random instance.

    Symmetric-Dirichlet rows; half the priors are uniform and a tenth of the
    rest point masses, and 5% of the conditionals are point-mass rows. The
    prior and the rows p(x | u) are written as drawn into the zeros of
    `prior` (MAX_USERS,) and `cond` (MAX_USERS, MAX_SYMBOLS); the two flags
    tell whether each was written as gamma draws, which `_normalized_rows`
    turns into Dirichlet rows.
    """
    n = int(rng.integers(2, 7))
    size = int(rng.integers(2, 7))
    epsilon = float(rng.uniform(0.0, 5.0))
    gamma_prior = gamma_rows = False
    if rng.random() < 0.5:
        prior[:n] = 1.0 / n
    elif rng.random() < 0.1:
        prior[int(rng.integers(n))] = 1.0
    else:
        prior[:n] = _gamma_rows(rng, 1, n)
        gamma_prior = True
    if rng.random() < 0.05:
        cond[np.arange(n), rng.integers(0, size, size=n)] = 1.0
    else:
        cond[:n, :size] = _gamma_rows(rng, n, size)
        gamma_rows = True
    return n, size, epsilon, gamma_prior, gamma_rows


def _draw_instance(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """(prior, p(x | u), epsilon) of one random instance, the masses not yet checked."""
    prior, cond = np.zeros(MAX_USERS), np.zeros((MAX_USERS, MAX_SYMBOLS))
    n, size, epsilon, gamma_prior, gamma_rows = _draw_population(rng, prior, cond)
    prior, cond = prior[:n], cond[:n, :size]
    if gamma_prior:
        prior = _normalized_rows(prior[None])[0]
    if gamma_rows:
        cond = _normalized_rows(cond)
    return prior, cond, epsilon


def random_small_instance(rng: np.random.Generator) -> tuple[SmallInstance, float]:
    """One random instance released by randomized response, and its budget."""
    prior, cond, epsilon = _draw_instance(rng)
    return SmallInstance(prior, cond, rr_kernel(epsilon, cond.shape[1])), epsilon


class _Block(NamedTuple):
    """A block of the suite's instances as arrays, one entry per instance in stream order.

    Users are padded to MAX_USERS and symbols to MAX_SYMBOLS, and each
    post-processing channel to 4 outputs, the most drawn. Padding is zero,
    and no evaluation reads the users and symbols past an instance's own n
    and size; a padded output is a zero row of the channel.
    """

    n: np.ndarray        # users, (B,)
    size: np.ndarray     # symbols, (B,)
    prior: np.ndarray    # (B, MAX_USERS)
    cond: np.ndarray     # p(x | u), (B, MAX_USERS, MAX_SYMBOLS)
    kernel: np.ndarray   # (B, MAX_SYMBOLS, MAX_SYMBOLS)
    epsilon: np.ndarray  # (B,)
    g: np.ndarray        # hash buckets, (B,)
    post: np.ndarray     # post-processing channel before its column test, (B, 4, MAX_SYMBOLS)
    eps2: np.ndarray     # budget of the second randomized response, (B,)
    w: np.ndarray        # mixture weight, (B,)


def _rows_in_place(rows: np.ndarray, real: np.ndarray, widths: np.ndarray, transform) -> None:
    """Replace the real rows of `rows` (B, R, W) by `transform` of them, once per width.

    Row j of instance i is real where real[i, j], and is its first widths[i]
    entries; transform takes the (rows, width) stack of one width.
    """
    for width in np.unique(widths).tolist():
        owner, row = np.nonzero(real & (widths == width)[:, None])
        rows[owner, row, :width] = transform(rows[owner, row, :width])


def _draw_block(rng: np.random.Generator, count: int,
                instance_generator: Optional[Callable]) -> _Block:
    """The next `count` instances of the suite's stream, as a _Block.

    Each draw takes the instance, then the hash bucket count, the
    post-processing channel, the second budget and the mixture weight, and
    writes each into the block as it is drawn. With no generator the
    instance is `_draw_population`'s, and its Dirichlet rows are normalized,
    its masses checked as `random_small_instance`'s SmallInstance checks them
    and its kernels built, once per width, over the instance's own users.
    """
    prior = np.zeros((count, MAX_USERS))
    cond = np.zeros((count, MAX_USERS, MAX_SYMBOLS))
    kernel = np.zeros((count, MAX_SYMBOLS, MAX_SYMBOLS))
    most_outputs = 4
    post = np.zeros((count, most_outputs, MAX_SYMBOLS))
    draws = []
    for i in range(count):
        if instance_generator is None:
            n, size, epsilon, *gamma = _draw_population(rng, prior[i], cond[i])
        else:
            instance, epsilon = instance_generator(rng)
            n, size = instance.cond.shape
            if instance.kernel.output_size != size:
                raise ValueError("channel input alphabet must equal kernel output alphabet")
            prior[i, :n] = instance.prior
            cond[i, :n, :size] = instance.cond
            kernel[i, :size, :size] = instance.kernel.matrix
            gamma = [False, False]
        g = int(rng.integers(2, 4))
        out2 = int(rng.integers(2, most_outputs + 1))
        post[i, :out2, :size] = _gamma_rows(rng, size, out2).T
        draws.append((n, size, epsilon, g, out2, float(rng.uniform(0.0, 5.0)), float(rng.random()),
                      *gamma))
    n, size, epsilon, g, out2, eps2, w, gamma_prior, gamma_rows = (
        np.array(column) for column in zip(*draws))
    _rows_in_place(post.transpose(0, 2, 1), np.arange(MAX_SYMBOLS) < size[:, None], out2,
                   _normalized_rows)
    if instance_generator is None:
        users = np.arange(MAX_USERS) < n[:, None]
        _rows_in_place(prior[:, None], gamma_prior[:, None], n, _normalized_rows)
        _rows_in_place(cond, users & gamma_rows[:, None], size, _normalized_rows)
        checked = functools.partial(probcore._checked_masses, what="distribution")
        _rows_in_place(prior[:, None], np.ones((count, 1), dtype=bool), n, checked)
        _rows_in_place(cond, users, size, checked)
        for width in np.unique(size).tolist():
            idx = np.flatnonzero(size == width)
            keep, leak, _ = _keep_leak(epsilon[idx], width)
            kernel[idx, :width, :width] = _checked_columns(_rr_matrices(keep, leak, width))
            _check_shape(int(n[idx].max()), width, width, width)
    return _Block(n, size, prior, cond, kernel, epsilon, g, post, eps2, w)


def _preimage_sets(size: int, g) -> tuple[np.ndarray, np.ndarray]:
    """(members, share) of the 2^size subsets S of the alphabet, as hashed releases see them.

    members[s, x] is 1 where x lies in subset s (bit x of s); share[s] is the
    fraction g * (g - 1)^(size - |S|) / g^size of the exhaustive family's
    (member, bucket) columns whose preimage set is S. g broadcasts: a (B, 1)
    array of bucket counts gives one share row per count.
    """
    members = ((np.arange(2 ** size)[:, None] >> np.arange(size)) & 1).astype(np.float64)
    return members, g * (g - 1.0) ** (size - members.sum(axis=1)) / g ** size


def _exact_quantities(block: _Block) -> dict:
    """Every exact quantity of every instance of a block, one array pass per (n, size) shape.

    A pass is cut into stacks of at most STACK_CELLS cells per array, and
    every array of a pass is sliced to the shape's own users and symbols, so
    no instance's quantities depend on the others drawn with it and no
    padded cell is read. Returns name -> (B,) array.
    """
    count = len(block.n)
    out = {name: np.zeros(count) for name in (
        "i_uy", "i_ux", "i_xy", "i_uhy", "i_post", "i_mixed", "i_uy2", "suff", "suff_error",
        "coarse", "constant", "i_full", "i_pair", "beta_u")}
    out["uniform"] = np.zeros(count, dtype=bool)
    shapes, group = np.unique(np.column_stack([block.n, block.size]), axis=0, return_inverse=True)
    for j, (n, size) in enumerate(shapes.tolist()):
        same = np.flatnonzero(group == j)
        step = max(1, STACK_CELLS // (n * max(2 ** size, size * size)))
        for lo in range(0, len(same), step):
            idx = same[lo:lo + step]
            for name, value in _stack_quantities(block, idx, n, size).items():
                out[name][idx] = value
    return out


def _stack_quantities(block: _Block, idx: np.ndarray, n: int, size: int) -> dict:
    """The exact quantities of the block's instances `idx`, all of n users over `size` symbols.

    Joints of one shape share one `_mutual_information_stack` pass.
    """
    prior, cond = block.prior[idx, :n], block.cond[idx, :n, :size]
    q = block.kernel[idx, :size, :size]
    mi = probcore._mutual_information_stack
    out = {"uniform": np.isclose(prior, 1.0 / n, atol=1e-12).all(axis=1),
           "beta_u": 1.0 - prior.max(axis=1)}

    def information(*joints):
        return mi(np.concatenate(joints)).reshape(len(joints), -1)

    given_u = cond @ q.transpose(0, 2, 1)  # p(y | u)
    joints = prior[:, :, None] * given_u
    p_x = prior[:, None, :] @ cond
    out["i_xy"] = mi(p_x.transpose(0, 2, 1) * q.transpose(0, 2, 1))

    # mixtures with a second randomized response
    keep2, leak2, _ = _keep_leak(block.eps2[idx], size)
    q2 = _checked_columns(_rr_matrices(keep2, leak2, size))
    w = block.w[idx, None, None]
    mixed = _checked_columns(w * q + (1.0 - w) * q2)

    # score-level information of the likelihood, argmax and constant matchers
    likelihood = _likelihoods(prior, joints)
    suff = _score_joints(joints, _likelihood_labels(likelihood), size)
    out["suff_error"] = _bayes_errors(suff)
    out["i_uy"], out["i_ux"], out["i_mixed"], out["i_uy2"], out["suff"] = information(
        joints, prior[:, :, None] * cond, _release_joints(prior, cond, mixed),
        _release_joints(prior, cond, q2), suff)
    out["coarse"] = mi(_score_joints(joints, likelihood.argmax(axis=1), n))
    out["constant"] = mi(_score_joints(joints, np.zeros((len(idx), size), int), 1))

    # two releases of fully correlated data, through the Khatri-Rao square of the
    # kernel (row (y, z), column x: q[y, x] * q[z, x]), and of independent data,
    # through the outer square of p(y | u)
    square = (q[:, :, None, :] * q[:, None, :, :]).reshape(len(idx), size * size, size)
    pairs = given_u[:, :, :, None] * given_u[:, :, None, :]
    out["i_full"], out["i_pair"] = information(
        prior[:, :, None] * (cond @ square.transpose(0, 2, 1)),
        prior[:, :, None] * pairs.reshape(len(idx), n, size * size))

    # post-processing by a random channel
    composed = _checked_columns(_checked_columns(block.post[idx, :, :size]) @ q)
    out["i_post"] = mi(_release_joints(prior, cond, composed))

    # hashed randomization with the exactly universal family: each column of its kernel
    # is leak / count + (keep - leak) / count * p(S | u), S the column's preimage set and
    # count = g^size, so merging the equal columns of each S leaves I(U; (H, Y)) as it is
    g = block.g[idx, None]
    members, share = _preimage_sets(size, g)
    keep, leak, _ = _keep_leak(block.epsilon[idx, None, None], g[:, :, None])
    out["i_uhy"] = mi(
        prior[:, :, None] * (share[:, None, :] * (leak + (keep - leak) * (cond @ members.T))))
    return out


def _block_report(block: _Block, first: int) -> tuple[int, list]:
    """(checks run, violations) of a block whose first instance has index `first`."""
    count = len(block.n)
    # closed-form caps, one call of each bounds function per (n, size, g) group
    p = {name: np.zeros(count) for name in ("ldp", "theta", "rr", "composed", "theta_g", "glh")}
    shapes, group = np.unique(np.column_stack([block.n, block.size, block.g]), axis=0,
                              return_inverse=True)
    for j, (n, size, g) in enumerate(shapes.tolist()):
        idx = np.flatnonzero(group == j)
        epsilon = block.epsilon[idx]
        p["ldp"][idx] = bounds.pie_bound_ldp(epsilon, n, size)
        p["theta"][idx] = bounds.mi_loss_rr(epsilon, size)
        p["rr"][idx] = alpha1 = bounds.pie_bound_rr(epsilon, n, size)
        p["composed"][idx] = bounds.pie_bound_composed(alpha1, 2)
        p["theta_g"][idx] = bounds.mi_loss_glh(epsilon, g)
        p["glh"][idx] = bounds.pie_bound_glh(epsilon, g, n, size)

    x = _exact_quantities(block)
    general = (0.0 < x["beta_u"]) & (x["beta_u"] < 1.0)
    fano = np.zeros((count, 2))
    for n in np.unique(block.n[x["uniform"]]).tolist():
        idx = np.flatnonzero(x["uniform"] & (block.n == n))
        fano[idx, 0] = bounds.fano_lower_bound(x["suff"][idx], n=n).raw
    if general.any():
        fano[general, 1] = bounds.fano_lower_bound(
            x["suff"][general], prior_bayes_error=x["beta_u"][general]).raw

    w = block.w
    i_uy, i_ux, suff = x["i_uy"], x["i_ux"], x["suff"]
    every = np.ones(count, dtype=bool)
    claims = {  # name: (lhs, rhs, applies), in the order each instance reports them
        "release_info_below_identity_info": (i_uy, i_ux, every),
        "release_info_below_channel_info": (i_uy, x["i_xy"], every),
        "generic_budget_cap": (i_uy, p["ldp"], every),
        "rr_shrink_of_identity_info": (i_uy, p["theta"] * i_ux, every),
        "rr_cap": (i_uy, p["rr"], every),
        "glh_shrink_of_identity_info": (x["i_uhy"], p["theta_g"] * i_ux, every),
        "glh_cap": (x["i_uhy"], p["glh"], every),
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
    violations = [Violation(first + int(i), names[c], float(lhs[i, c]), float(rhs[i, c]))
                  for i, c in zip(*np.nonzero(violated))]
    return int(applies.sum()), violations


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

    Instances are drawn from the one stream BLOCK_INSTANCES at a time, so
    memory does not grow with `count`. Each block is drawn whole, then its
    exact quantities are evaluated in one pass per (users, symbols) shape,
    on the instances' own users and symbols; padded cells are never read.
    `instance_generator(rng)` returns (SmallInstance, epsilon); without
    one, instances are drawn as `random_small_instance` draws them, as arrays.
    Violations are reported in instance order, each instance's in the order
    of the checks above. A refused instance raises the ValueError the
    per-instance functions raise; where several are refused, the one raised
    need not be the earliest.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(rng_or_seed, np.random.Generator):
        rng = rng_or_seed
    else:
        rng = probcore.make_rng(int(rng_or_seed))
    checks, violations = 0, []
    for first in range(0, count, BLOCK_INSTANCES):
        # no name holds a block's draws, so they are freed before the next block is drawn
        block_checks, block_violations = _block_report(
            _draw_block(rng, min(BLOCK_INSTANCES, count - first), instance_generator), first)
        checks += block_checks
        violations += block_violations
    return BoundViolationReport(instances_checked=count, checks_run=checks,
                                violations=tuple(violations))
