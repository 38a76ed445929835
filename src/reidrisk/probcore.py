"""Discrete probability primitives shared by every other module.

All information quantities are reported in bits; natural-log intermediates
are converted by dividing by ln 2. Distributions and joint distributions
are dense numpy arrays.

Every draw of a symbol from a probability table goes through `inverse_cdf`,
and every Markov chain steps through `step_chains`, all chains of a
population in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _checked_masses(stack: np.ndarray, what: str) -> np.ndarray:
    """Validate each stack[i] as one mass; renormalize tiny drift, reject more.

    Each item needs non-negative entries and a finite total within SUM_TOL of
    1. The first refused item raises ValueError naming its first fault, in
    that order; a total off 1 by less is divided out.
    """
    flat = stack.reshape(len(stack), -1)
    total = flat.sum(axis=1)
    # the deviation test is false for a non-finite total
    if (flat < 0).any() or not (np.abs(total - 1.0) <= SUM_TOL).all():
        negative = (flat < 0).any(axis=1)
        i = int(np.argmin(~negative & (np.abs(total - 1.0) <= SUM_TOL)))
        mass = float(total[i])
        if negative[i]:
            raise ValueError(f"{what} has negative entries")
        if not math.isfinite(mass):  # a NaN or infinite entry makes the mass non-finite
            raise ValueError(f"{what} mass {mass!r} is not finite")
        raise ValueError(f"{what} mass {mass!r} deviates from 1 by more than {SUM_TOL}")
    if (total != 1.0).any():
        stack = stack / total.reshape((-1,) + (1,) * (stack.ndim - 1))
    return stack


class CategoricalDistribution:
    """A point on the probability simplex over a finite alphabet."""

    __slots__ = ("alphabet", "p")

    def __init__(self, alphabet: Union[Alphabet, int], p: Sequence[float]):
        alphabet = _as_alphabet(alphabet)
        vec = np.asarray(p, dtype=np.float64)
        if vec.shape != (alphabet.size,):
            raise ValueError(f"probability vector shape {vec.shape} does not match alphabet size {alphabet.size}")
        vec = np.array(_checked_masses(vec[None], "distribution")[0], copy=True)
        vec.setflags(write=False)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "p", vec)

    def __setattr__(self, name, value):
        raise AttributeError("CategoricalDistribution is immutable")

    @property
    def size(self) -> int:
        return self.alphabet.size

    @classmethod
    def rows(cls, alphabet: Union[Alphabet, int], matrix) -> list["CategoricalDistribution"]:
        """One distribution per row of `matrix`, the rows checked in one pass."""
        alphabet = _as_alphabet(alphabet)
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != alphabet.size:
            raise ValueError(f"probability rows shape {m.shape} does not match "
                             f"alphabet size {alphabet.size}")
        m = np.array(_checked_masses(m, "distribution"), copy=True)
        m.setflags(write=False)
        out = []
        for row in m:
            d = object.__new__(cls)
            object.__setattr__(d, "alphabet", alphabet)
            object.__setattr__(d, "p", row)
            out.append(d)
        return out

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
        if not (np.all(np.isfinite(init)) and np.all(np.isfinite(trans))):
            raise ValueError("non-finite probability in chain")
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
        return np.array(rows)

    def joint_ux(self) -> np.ndarray:
        """Exact joint p(u, x) of single-datum populations: shape (n, |X|)."""
        return self.prior.p[:, None] * self.conditional_matrix()


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


def _mutual_information_stack(joints: np.ndarray) -> np.ndarray:
    """Mutual information of the row and column variables of each joint mass, in bits.

    `joints` has shape (B, rows, cols); each joints[i] is checked as one mass
    by `_checked_masses`. Returns shape (B,).
    """
    m = _checked_masses(joints, "joint distribution")
    row_m = m.sum(axis=2, keepdims=True)
    col_m = m.sum(axis=1, keepdims=True)
    # zero cells contribute nothing: their ratio is set to 1
    ratio = np.divide(m, row_m * col_m, out=np.ones_like(m), where=m > 0)
    val = (m * np.log2(ratio)).reshape(len(m), -1).sum(axis=1)
    # clip the tiny negative residue float summation can leave on independent joints
    return np.maximum(val, 0.0)


def mutual_information(joint: np.ndarray) -> float:
    """Mutual information of the row and column variables of a 2-d joint mass, in bits."""
    m = np.asarray(joint, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"joint distribution must be a 2-d array, got shape {m.shape}")
    return float(_mutual_information_stack(m[None])[0])


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


def inverse_cdf(cdfs: np.ndarray, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Symbol of each draw: the number of entries <= draws[i] in row rows[i] of cdfs.

    `cdfs` is a `cdf_table` of shape (r, width) and draws lie in [0, 1). A
    `cdf_table` row rises up to its last positive entry and holds 1.0, above
    every draw, from there on. So the entries <= u form a prefix, even where
    rounding lifts an entry above 1.0, and a binary search counts them
    exactly: the symbols are those of a dense count over the whole row, from
    the same draws. All draws search their own rows at once, one halving step
    at a time, with no draws x width comparison and no grouping by row.
    """
    width = cdfs.shape[-1]
    flat = cdfs.reshape(-1)
    last = np.asarray(rows, dtype=np.int64) * width - 1  # flat[last + j] is entry j - 1
    pos = np.zeros(last.shape, dtype=np.int64)
    step = 1 << (width - 1).bit_length() >> 1  # the largest power of two below width
    while step:
        cand = np.minimum(pos + step, width)
        np.copyto(pos, cand, where=flat[last + cand] <= draws)
        step >>= 1
    return pos


def sample(d: CategoricalDistribution, rng: np.random.Generator, size: Optional[int] = None):
    """Draw symbol indices from d; deterministic for a fixed seeded stream."""
    draws = np.atleast_1d(rng.random(size))
    xs = inverse_cdf(cdf_table(d.p)[None, :], np.zeros(draws.size, dtype=np.int64), draws)
    return int(xs[0]) if size is None else xs


def step_chains(initial: np.ndarray, transitions: np.ndarray, length: int,
                rng: np.random.Generator) -> np.ndarray:
    """Step n first-order chains in lockstep: states of shape (n, length).

    `initial` (n, k) and `transitions` (n, k, k) hold one chain per row.
    Each step, the first included, draws one uniform per chain. Transition
    rows are divided by their mass; a chain that must leave a state with no
    outgoing mass raises ValueError.
    """
    n, k = initial.shape
    mass = transitions.sum(axis=2)
    cdfs = cdf_table(transitions, mass[..., None]).reshape(n * k, k)
    mass = mass.ravel()
    base = np.arange(n) * k  # row of chain i's state s in cdfs: base[i] + s
    out = np.empty((n, length), dtype=np.int64)
    out[:, 0] = inverse_cdf(cdf_table(initial), np.arange(n), rng.random(n))
    for t in range(1, length):
        rows = base + out[:, t - 1]
        dead = mass[rows] == 0
        if dead.any():
            raise ValueError("chain has no outgoing transitions from state "
                             f"{out[dead.argmax(), t - 1]}")
        out[:, t] = inverse_cdf(cdfs, rows, rng.random(n))
    return out


def _chain_shape(models: Sequence) -> tuple[int, int]:
    """The (dimension, trace length) that every model shares; ValueError unless all are chains."""
    if not all(isinstance(m, MarkovSource) for m in models):
        raise ValueError("every data model must be a MarkovSource; a population "
                         "cannot mix single data and traces")
    shapes = {(m.initial.size, m.trace_len) for m in models}
    if len(shapes) != 1:
        raise ValueError("chains must share one dimension and one trace length")
    return shapes.pop()


def sample_traces(models: Sequence[MarkovSource], rng: np.random.Generator) -> np.ndarray:
    """One trace per chain, stepped in lockstep and mapped through its support.

    The chains must share one dimension and one `trace_len`; the result has
    shape (len(models), trace_len).
    """
    dim, length = _chain_shape(models)
    states = step_chains(np.stack([m.initial for m in models]),
                         np.stack([m.transitions for m in models]), length, rng)
    supports = np.stack([np.arange(dim) if m.support is None else m.support for m in models])
    return np.take_along_axis(supports, states, axis=1)


def sample_markov(model: MarkovSource, rng: np.random.Generator) -> np.ndarray:
    """Simulate one trace from a per-user chain, mapped through its support."""
    return sample_traces([model], rng)[0]
