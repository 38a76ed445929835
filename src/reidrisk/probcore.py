"""Discrete probability primitives shared by every other module.

All information quantities are reported in bits; natural-log intermediates
are converted by dividing by ln 2. Distributions are dense numpy vectors.
Joint distributions may be stored dense or as a coordinate list when the
matrix is very sparse, so brute-force enumeration and large synthetic
populations both stay feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

# absolute tolerance on probability mass sums; inputs off by more are rejected
SUM_TOL = 1e-9

LN2 = float(np.log(2.0))


def spawn_streams(seed: int, count: int) -> list[np.random.Generator]:
    """Split one master seed into `count` independent random streams.

    Every stochastic operation in this package takes an explicit stream, so
    experiments are reproducible and parallel workers never share state.
    """
    seq = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in seq.spawn(count)]


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set; symbols are dense ids 0..size-1.

    `labels`, when present, maps external ids (strings) to dense ids and must
    be a bijection onto 0..size-1.
    """

    size: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise ValueError("label table must cover every symbol exactly once")
            if len(set(self.labels)) != self.size:
                raise ValueError("label table must be a bijection (duplicate labels)")

    def index_of(self, label: str) -> int:
        if self.labels is None:
            raise ValueError("alphabet has no label table")
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(label) from None

    def label_of(self, idx: int) -> str:
        if self.labels is None:
            return str(idx)
        return self.labels[idx]


def _as_alphabet(a: Union[Alphabet, int]) -> Alphabet:
    return a if isinstance(a, Alphabet) else Alphabet(int(a))


def _checked_mass(vec: np.ndarray, what: str) -> np.ndarray:
    """Validate non-negativity and unit mass; renormalize tiny drift, reject more."""
    if np.any(vec < 0):
        raise ValueError(f"{what} has negative entries")
    total = float(vec.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"{what} mass {total!r} deviates from 1 by more than {SUM_TOL}")
    if total != 1.0 and total > 0:
        vec = vec / total
    return vec


class CategoricalDistribution:
    """A point on the probability simplex over a finite alphabet."""

    __slots__ = ("alphabet", "p")

    def __init__(self, alphabet: Union[Alphabet, int], p: Sequence[float]):
        alphabet = _as_alphabet(alphabet)
        vec = np.asarray(p, dtype=np.float64)
        if vec.shape != (alphabet.size,):
            raise ValueError(f"probability vector shape {vec.shape} does not match alphabet size {alphabet.size}")
        vec = _checked_mass(vec, "distribution")
        vec = np.array(vec, copy=True)
        vec.setflags(write=False)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "p", vec)

    def __setattr__(self, name, value):
        raise AttributeError("CategoricalDistribution is immutable")

    @property
    def size(self) -> int:
        return self.alphabet.size

    @classmethod
    def uniform(cls, alphabet: Union[Alphabet, int]) -> "CategoricalDistribution":
        alphabet = _as_alphabet(alphabet)
        return cls(alphabet, np.full(alphabet.size, 1.0 / alphabet.size))

    @classmethod
    def point_mass(cls, alphabet: Union[Alphabet, int], symbol: int) -> "CategoricalDistribution":
        alphabet = _as_alphabet(alphabet)
        vec = np.zeros(alphabet.size)
        vec[symbol] = 1.0
        return cls(alphabet, vec)

    def __repr__(self):
        return f"CategoricalDistribution(size={self.size})"


class JointDistribution:
    """Joint probability mass over a (row, column) pair of alphabets.

    Stored dense by default; `from_coo` keeps a coordinate-list form when the
    caller knows the matrix is sparse. Marginals and mutual information work
    on either form without densifying.
    """

    __slots__ = ("row_alphabet", "col_alphabet", "matrix", "coo")

    def __init__(self, row_alphabet, col_alphabet, matrix: np.ndarray):
        row_alphabet = _as_alphabet(row_alphabet)
        col_alphabet = _as_alphabet(col_alphabet)
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (row_alphabet.size, col_alphabet.size):
            raise ValueError(f"joint matrix shape {m.shape} does not match alphabets")
        m = _checked_mass(m.ravel(), "joint distribution").reshape(m.shape)
        m = np.array(m, copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "row_alphabet", row_alphabet)
        object.__setattr__(self, "col_alphabet", col_alphabet)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "coo", None)

    def __setattr__(self, name, value):
        raise AttributeError("JointDistribution is immutable")

    @classmethod
    def from_coo(cls, row_alphabet, col_alphabet, rows, cols, vals) -> "JointDistribution":
        """Build from coordinate lists without materializing the dense matrix."""
        row_alphabet = _as_alphabet(row_alphabet)
        col_alphabet = _as_alphabet(col_alphabet)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, vals must be equal-length 1-d arrays")
        if rows.size and (rows.min() < 0 or rows.max() >= row_alphabet.size):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= col_alphabet.size):
            raise ValueError("column index out of range")
        vals = _checked_mass(vals, "joint distribution")
        obj = object.__new__(cls)
        for arr in (rows, cols, vals):
            arr.setflags(write=False)
        object.__setattr__(obj, "row_alphabet", row_alphabet)
        object.__setattr__(obj, "col_alphabet", col_alphabet)
        object.__setattr__(obj, "matrix", None)
        object.__setattr__(obj, "coo", (rows, cols, vals))
        return obj

    def row_marginal(self) -> CategoricalDistribution:
        if self.matrix is not None:
            vec = self.matrix.sum(axis=1)
        else:
            rows, _, vals = self.coo
            vec = np.bincount(rows, weights=vals, minlength=self.row_alphabet.size)
        return CategoricalDistribution(self.row_alphabet, vec)

    def col_marginal(self) -> CategoricalDistribution:
        if self.matrix is not None:
            vec = self.matrix.sum(axis=0)
        else:
            _, cols, vals = self.coo
            vec = np.bincount(cols, weights=vals, minlength=self.col_alphabet.size)
        return CategoricalDistribution(self.col_alphabet, vec)

    def __repr__(self):
        kind = "coo" if self.matrix is None else "dense"
        return f"JointDistribution({self.row_alphabet.size}x{self.col_alphabet.size}, {kind})"


@dataclass(frozen=True)
class SingleDatum:
    """Per-user data model that emits one symbol per release."""

    dist: CategoricalDistribution


@dataclass(frozen=True)
class MarkovSource:
    """Per-user first-order chain over the alphabet.

    `support` restricts the chain to a subset of symbols so large populations
    stay compact; `initial` and `transitions` are indexed by position within
    the support (identity support when None). Rows of `transitions` with any
    mass must sum to 1; all-zero rows mean the state was never left and are
    resolved at lookup time by the consumer's floor rule.
    """

    initial: np.ndarray
    transitions: np.ndarray
    trace_len: int
    support: Optional[np.ndarray] = None

    def __post_init__(self):
        init = np.asarray(self.initial, dtype=np.float64)
        trans = np.asarray(self.transitions, dtype=np.float64)
        if init.ndim != 1 or trans.shape != (init.size, init.size):
            raise ValueError("initial/transition shapes are inconsistent")
        if np.any(init < 0) or np.any(trans < 0):
            raise ValueError("negative probability in chain")
        if abs(init.sum() - 1.0) > SUM_TOL:
            raise ValueError("initial distribution must sum to 1")
        row_mass = trans.sum(axis=1)
        bad = (row_mass > 0) & (np.abs(row_mass - 1.0) > SUM_TOL)
        if np.any(bad):
            raise ValueError("transition rows with mass must sum to 1")
        if self.trace_len < 1:
            raise ValueError("trace length must be >= 1")
        if self.support is not None:
            sup = np.asarray(self.support, dtype=np.int64)
            if sup.size != init.size:
                raise ValueError("support size must match chain dimension")
            object.__setattr__(self, "support", sup)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "transitions", trans)


@dataclass(frozen=True)
class PopulationModel:
    """User prior plus one data model per user: the joint law of (U, X)."""

    n: int
    prior: CategoricalDistribution
    models: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one user")
        if self.prior.size != self.n:
            raise ValueError("prior must be a distribution over the n users")
        if len(self.models) != self.n:
            raise ValueError("need exactly one data model per user")
        object.__setattr__(self, "models", tuple(self.models))

    @classmethod
    def single_datum(cls, prior: CategoricalDistribution, dists: Sequence[CategoricalDistribution]) -> "PopulationModel":
        return cls(prior.size, prior, tuple(SingleDatum(d) for d in dists))

    def data_alphabet(self) -> Alphabet:
        m = self.models[0]
        if isinstance(m, SingleDatum):
            return m.dist.alphabet
        raise ValueError("population has no single shared data alphabet")

    def conditional_matrix(self) -> np.ndarray:
        """Stack p(x | u) rows for single-datum populations: shape (n, |X|)."""
        rows = []
        for m in self.models:
            if not isinstance(m, SingleDatum):
                raise ValueError("conditional matrix is defined for single-datum models only")
            rows.append(m.dist.p)
        return np.vstack(rows)

    def joint_ux(self) -> JointDistribution:
        """Exact joint of (U, X) for single-datum populations."""
        cond = self.conditional_matrix()
        joint = self.prior.p[:, None] * cond
        return JointDistribution(Alphabet(self.n), self.data_alphabet(), joint)


def entropy(d: CategoricalDistribution) -> float:
    """Shannon entropy in bits; 0 log 0 contributes nothing."""
    p = d.p[d.p > 0]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def kl_divergence(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    """KL divergence D(p || q) in bits.

    Raises if some p(x) > 0 where q(x) = 0: the divergence is infinite and
    callers must handle that case explicitly rather than receive a large float.
    """
    if p.size != q.size:
        raise ValueError("distributions live on different alphabets")
    mask = p.p > 0
    if np.any(q.p[mask] == 0):
        raise ValueError("support of p is not contained in support of q (infinite divergence)")
    pm = p.p[mask]
    return float((pm * np.log2(pm / q.p[mask])).sum())


def _mi_from_parts(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   row_m: np.ndarray, col_m: np.ndarray) -> float:
    mask = vals > 0
    r, c, v = rows[mask], cols[mask], vals[mask]
    return float((v * np.log2(v / (row_m[r] * col_m[c]))).sum())


def mutual_information(j: JointDistribution) -> float:
    """Mutual information of the joint's row and column variables, in bits."""
    row_m = j.row_marginal().p
    col_m = j.col_marginal().p
    if j.matrix is not None:
        rows, cols = np.nonzero(j.matrix)
        vals = j.matrix[rows, cols]
    else:
        rows, cols, vals = j.coo
    val = _mi_from_parts(rows, cols, vals, row_m, col_m)
    # clip the tiny negative residue float summation can leave on independent joints
    return max(val, 0.0)


def cdf_table(p: np.ndarray, mass: Optional[np.ndarray] = None) -> np.ndarray:
    """Cumulative sums of p along its last axis, for inverse-CDF draws u in [0, 1).

    Each row is divided by its `mass` when given (rows of zero mass are left
    as they are), then set to 1.0 from its last positive entry on. Counting
    the entries <= u then lands on a symbol of positive probability only:
    rounding can leave the sum of the positive entries below 1, and forcing
    just the final entry would send a draw in that gap to a trailing
    zero-probability symbol.
    """
    cdf = np.cumsum(p, axis=-1)
    if mass is not None:
        np.divide(cdf, mass, out=cdf, where=mass > 0)
    size = p.shape[-1]
    last = size - 1 - np.argmax(p[..., ::-1] > 0, axis=-1)
    cdf[np.arange(size) >= last[..., None]] = 1.0
    return cdf


def sample(d: CategoricalDistribution, rng: np.random.Generator, size: Optional[int] = None):
    """Draw symbol indices from d; deterministic for a fixed seeded stream."""
    cdf = cdf_table(d.p)
    if size is None:
        return int(np.searchsorted(cdf, rng.random(), side="right"))
    return np.searchsorted(cdf, rng.random(size), side="right").astype(np.int64)


def sample_markov(model: MarkovSource, rng: np.random.Generator) -> np.ndarray:
    """Simulate one trace from a per-user chain, mapped through its support."""
    cdf0 = cdf_table(model.initial)
    row_mass = model.transitions.sum(axis=1)
    cdfs = cdf_table(model.transitions, row_mass[:, None])
    out = np.empty(model.trace_len, dtype=np.int64)
    state = int(np.searchsorted(cdf0, rng.random(), side="right"))
    out[0] = state
    draws = rng.random(model.trace_len - 1)
    for t in range(1, model.trace_len):
        if row_mass[state] == 0:
            raise ValueError(f"chain has no outgoing transitions from state {state}")
        state = int(np.searchsorted(cdfs[state], draws[t - 1], side="right"))
        out[t] = state
    if model.support is not None:
        return model.support[out]
    return out
