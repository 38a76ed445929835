"""Local obfuscation mechanisms and channel algebra.

Two concrete mechanisms are provided: symbol-level randomized response (keep
the true symbol with a boosted probability, otherwise emit any symbol at a
small uniform probability) and hashed randomized response (hash the symbol
into g buckets with a randomly drawn member of a universal hash family, then
run randomized response over the g buckets). Both expose their channel matrix
and sample records, their randomized-response draws made by one helper.

Probabilities are parameterized through e^(-epsilon), so arbitrarily large
epsilon values never overflow: the keep probability is
1 / (1 + (k-1) e^(-eps)) and the leak probability e^(-eps) of that.
"""

from __future__ import annotations

import functools
import os
import re
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .probcore import SUM_TOL, alphabet_symbols

# smallest prime above 2^31; default modulus for the pairwise hash family
PRODUCTION_PRIME = 2147483659

# largest bucket count: g and g + 1, the bound of the uniform bucket draw, fit int64
MAX_BUCKETS = 2 ** 63 - 1


class MechanismKernel:
    """Column-stochastic channel matrix Q with Q[y, x] = P(output y | input x)."""

    __slots__ = ("input_size", "output_size", "matrix")

    def __init__(self, input_size: int, output_size: int, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (output_size, input_size):
            raise ValueError(f"kernel shape {m.shape} does not match ({output_size}, {input_size})")
        m = _checked_columns(m)
        m.setflags(write=False)
        object.__setattr__(self, "input_size", input_size)
        object.__setattr__(self, "output_size", output_size)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("MechanismKernel is immutable")

    @classmethod
    def identity(cls, size: int) -> "MechanismKernel":
        return cls(size, size, np.eye(size))

    def __repr__(self):
        return f"MechanismKernel({self.input_size} -> {self.output_size})"


def _checked_columns(m: np.ndarray) -> np.ndarray:
    """Kernel matrices (..., out, in) with each column divided by its mass.

    ValueError unless every entry is non-negative and every column sums to 1
    within SUM_TOL: the test each `MechanismKernel` passes, run on a whole
    stack of kernels at once.
    """
    if (m < 0).any():
        raise ValueError("kernel has negative entries")
    col_mass = m.sum(axis=-2, keepdims=True)
    if not (np.abs(col_mass - 1.0) <= SUM_TOL).all():  # also false for a NaN or infinite mass
        raise ValueError("kernel columns must each be finite and sum to 1")
    return m / col_mass


def _everywhere(ok) -> bool:
    """Whether a comparison holds for a number, or for every entry of an array of them.

    Every comparison with NaN is false, so `_everywhere(x >= 0)` refuses NaN.
    """
    return bool(ok.all()) if isinstance(ok, np.ndarray) else bool(ok)


def _keep_leak(epsilon, k) -> tuple:
    """(keep, leak, shrink) probabilities for k-ary randomized response.

    keep = e^eps / (k + e^eps - 1) on the diagonal, leak = 1 / (k + e^eps - 1)
    elsewhere, shrink = keep - leak. Computed via t = e^(-eps) so eps may be
    arbitrarily large (math.inf gives a pass-through channel). epsilon and k
    broadcast: arrays give arrays, each entry the value its numbers give.
    """
    if not _everywhere(epsilon >= 0):
        raise ValueError("epsilon must be >= 0")
    t = np.exp(-(epsilon if isinstance(epsilon, np.ndarray) else float(epsilon)))
    denom = 1.0 + (k - 1) * t
    keep = 1.0 / denom
    leak = t / denom
    return keep, leak, (1.0 - t) / denom


@dataclass(frozen=True)
class RandomizedResponse:
    """Randomized response over a k-symbol alphabet at privacy level epsilon."""

    epsilon: float
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("randomized response needs an alphabet of size >= 2")
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be >= 0")

    @property
    def mu(self) -> float:
        """Probability of reporting the true symbol."""
        return _keep_leak(self.epsilon, self.size)[0]

    @property
    def nu(self) -> float:
        """Probability of reporting any one specific other symbol."""
        return _keep_leak(self.epsilon, self.size)[1]

    @property
    def theta(self) -> float:
        """Probability of the 'emit the truth' branch in the two-stage view.

        With probability theta the true symbol is emitted, otherwise a
        uniform symbol (which may coincide with the truth); this reproduces
        mu on the diagonal exactly and is also the channel's information
        shrink factor.
        """
        return _keep_leak(self.epsilon, self.size)[2]

    def kernel(self) -> "MechanismKernel":
        return rr_kernel(self.epsilon, self.size)


def rr_kernel(epsilon: float, size: int) -> MechanismKernel:
    """Channel matrix of randomized response: keep prob on the diagonal."""
    if size < 2:
        raise ValueError("randomized response needs an alphabet of size >= 2")
    keep, leak, _ = _keep_leak(epsilon, size)
    return MechanismKernel(size, size, _rr_matrices(keep, leak, size))


def _rr_matrices(keep, leak, size: int) -> np.ndarray:
    """Randomized-response matrices before the column test: keep on the diagonal, leak off it.

    One (size, size) matrix for scalar probabilities; shape (B, size, size)
    for arrays of B keep and leak probabilities.
    """
    m = np.empty(np.shape(leak) + (size, size))
    m[...] = np.reshape(leak, np.shape(leak) + (1, 1))
    m.reshape(-1, size * size)[:, ::size + 1] = np.reshape(keep, (-1, 1))  # the diagonals
    return m


@dataclass(frozen=True)
class RrBatch:
    """Column form of many RR records."""

    ys: np.ndarray


@dataclass(frozen=True)
class GlhBatch:
    """Column form of many hashed records sharing one (prime, g) family."""

    a: np.ndarray
    b: np.ndarray
    ys: np.ndarray
    prime: int
    g: int

    def __len__(self):
        return len(self.ys)


def _rr_draws(mech: RandomizedResponse, xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Randomized response of symbols xs in [0, mech.size), in the two-stage view.

    Draws every keep flag (probability theta), then every uniform symbol, so
    each RR and GLH release consumes its stream in this one order.
    """
    keep = rng.random(xs.size) < mech.theta
    uniform = rng.integers(0, mech.size, size=xs.size)
    return np.where(keep, xs, uniform)


def rr_sample_batch(mech: RandomizedResponse, xs: np.ndarray, rng: np.random.Generator) -> RrBatch:
    """Vectorized randomized response over a whole symbol array."""
    return RrBatch(ys=_rr_draws(mech, alphabet_symbols(xs, mech.size, "input"), rng))


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond 64-bit range
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_above(n: int) -> int:
    c = n + 1
    while not _is_prime(c):
        c += 1
    return c


def _check_modulus(prime: int) -> None:
    # a*x + b peaks at (P-1)^2 + (P-1) for a, b, x < P; it must not wrap int64
    if (prime - 1) ** 2 + (prime - 1) >= 2 ** 63:
        raise ValueError(f"hash modulus {prime} overflows 64-bit arithmetic "
                         "(the limit is about 3.037e9)")


def _hash_residues(a, b, x, prime: int):
    """(a x + b) mod P, broadcast over a, b, x, with a, b and x each reduced mod P first.

    The one place the pairwise family's arithmetic is written. Arguments are
    int64 arrays or Python ints of any value; after the reduction a x + b
    stays below 2^63 for every modulus `_check_modulus` admits.
    """
    _check_modulus(prime)
    h = (a % prime) * (x % prime)
    h += b % prime
    h %= prime
    return h


def hash_buckets(a, b, x, prime: int, g: int):
    """Carter-Wegman buckets (((a x + b) mod P) mod g) + 1, broadcast over a, b, x.

    Arguments are int64 arrays or Python ints; a, b and x are read mod P.
    """
    h = _hash_residues(a, b, x, prime)
    h %= g
    h += 1
    return h


# cells of the (record, symbol) match table that all match workers hold at once
_MATCH_CHUNK_CELLS = 4 * 10 ** 6
# cells matched per step of the residue walk in glh_match_chunks
_WALK_STEP_CELLS = 2 ** 15

_POOL_LOCK = threading.Lock()
_POOL: Optional[ThreadPoolExecutor] = None


@functools.cache
def _match_workers() -> int:
    """Threads of the match pool: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _match_pool() -> ThreadPoolExecutor:
    """The process's one match pool, made on first use and kept until exit."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(_match_workers(), thread_name_prefix="reidrisk-match")
        return _POOL


def _forget_pool() -> None:
    """After a fork: the child has none of the parent's pool threads, so it makes its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def glh_match_chunks(batch: GlhBatch, size: int,
                     fn: Callable[[int, int, np.ndarray], object]) -> list:
    """Run fn(lo, hi, mask) over the (record, symbol) hash-match table of a batch.

    mask[i, x] is true when record lo+i hashes symbol x to its reported
    bucket. The chunks [lo, hi) tile [0, n) in order, every mask is a fresh
    array, and fn's results come back as a list in chunk order.

    Chunks run on one thread pool kept for the life of the process, a worker
    per CPU in the process's affinity set (so `taskset -c 0` makes it one);
    numpy releases the interpreter lock inside each operation. A width of
    one, or a batch of one chunk, runs inline. All workers together hold at
    most about 4e6 cells, and a chunk at most 2^15 records, so memory stays
    flat in the record count and the width, and a small alphabet still
    spreads over the workers. fn runs concurrently with itself: it writes
    disjoint slices or locks what it shares, and must not call
    glh_match_chunks. If a chunk raises, the chunks not yet started are
    dropped, the running ones awaited, and the first error in chunk order
    raised. The masks, and so every reader's output, do not depend on the
    width.

    No cell pays a `%` or a divide. Per chunk of R records the symbols are
    dealt into K interleaved lanes, lane k holding k, k + K, k + 2K, ...,
    with K chosen so that one step covers about 2^15 cells (the step's
    uint64 arrays then stay in a core's L2 cache). Lane k starts at the
    residue v = (a k + b) mod P, and a step moves every lane K symbols on
    with v += s, v = min(v, v - P) in uint64, where s = a K mod P: s and v
    are below P < 2^32, so nothing wraps and a x is never formed. The bucket
    test v mod g = y - 1 follows Lemire, Kaser & Kurz, "Faster remainder by
    direct computation" (2019): with d = min(g, 2^32), so that v mod g =
    v mod d, and c = ceil(2^64 / d), v mod d = t exactly when the low 64
    bits of c v lie in [ceil(t 2^64 / d), ceil((t + 1) 2^64 / d)). So a cell
    takes one multiply by c, one wrapping subtract of its record's lower
    edge and one compare with its record's width (see _bucket_edges): six
    operations with the walk's three, all on (K, R) arrays, since each chunk
    copies its per-record stride, edges and widths to that shape once. Step
    j fills block j of an (L, K, R) buffer, L = ceil(size / K); flattened to
    (L K, R) its rows are the symbols in order, and the mask is the
    [:size].T view of that.

    On a 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4), `glh_counts` at
    1e5 records x 1000 symbols takes about 2.8 ns per cell on one worker and
    2.1 ns on two.
    """
    n = len(batch)
    workers = _match_workers()
    chunk = max(1, min(_WALK_STEP_CELLS, _MATCH_CHUNK_CELLS // (max(size, 1) * workers)))

    def run(lo: int, hi: int):
        return fn(lo, hi, _match_chunk(batch, size, lo, hi))

    spans = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if workers == 1 or len(spans) <= 1:
        return [run(lo, hi) for lo, hi in spans]
    futures = [_match_pool().submit(run, lo, hi) for lo, hi in spans]
    try:
        return [f.result() for f in futures]
    finally:
        for f in futures:
            f.cancel()
        wait(futures)


def _bucket_edges(ys: np.ndarray, g: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(c, lower, width) of the bucket test in glh_match_chunks, one edge pair per record.

    A residue v < 2^32 matches record i when (c v - lower[i]) mod 2^64 <
    width[i]. The edges ceil(t 2^64 / d) are computed as t q + ceil(t r / d),
    where 2^64 = q d + r, so every term stays below 2^64; the upper edge of
    t = d - 1 is 2^64 itself and wraps to 0, which the wrapping width
    subtract undoes. A record whose y - 1 lies outside [0, d) gets width 0
    and matches nothing, as no residue does: v mod g < g, and where g > 2^32,
    v mod g = v < 2^32.
    """
    d = min(int(g), 2 ** 32)
    q, r = divmod(2 ** 64, d)
    t = ys.astype(np.uint64) - np.uint64(1)  # y < 1 wraps to 2^63 or more, past every bucket
    ok = t < d
    t *= ok

    def edge(t):
        return t * np.uint64(q) + (t * np.uint64(r) + np.uint64(d - 1)) // np.uint64(d)

    lower = edge(t)
    width = (edge(t + np.uint64(1)) - lower) * ok
    return -(-2 ** 64 // d), lower, width


def _match_chunk(batch: GlhBatch, size: int, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, size) match mask of records [lo, hi); see glh_match_chunks."""
    c, lower, width = _bucket_edges(batch.ys[lo:hi], batch.g)
    r = hi - lo
    lanes = max(1, min(size, _WALK_STEP_CELLS // r))
    steps = -(-size // lanes)
    a, b = batch.a[lo:hi], batch.b[lo:hi]
    first = np.arange(lanes, dtype=np.int64)[:, None]
    v = _hash_residues(a, b, first, batch.prime).astype(np.uint64)

    def lanewise(per_record):
        return np.broadcast_to(per_record, v.shape).copy()

    stride = lanewise(_hash_residues(a, 0, lanes, batch.prime).astype(np.uint64))
    lower, width = lanewise(lower), lanewise(width)
    prime, c = np.uint64(batch.prime), np.uint64(c)
    scratch = np.empty_like(v)
    out = np.empty((steps, lanes, r), dtype=bool)
    for j in range(steps):
        if j:
            v += stride
            np.subtract(v, prime, out=scratch)
            np.minimum(v, scratch, out=v)
        np.multiply(v, c, out=scratch)
        scratch -= lower
        np.less(scratch, width, out=out[j])
    return out.reshape(steps * lanes, r)[:size].T


class CarterWegman:
    """Pairwise hash family h(x) = (((a x + b) mod P) mod g) + 1.

    Members are identified by (a, b) with a in [1, P-1], b in [0, P-1].
    Collision probability for x != x' is at most 1/g + O(1/P), a documented
    approximation of an exactly universal family; the oracle module uses the
    exhaustive family where exactness matters.
    """

    def __init__(self, prime: int, g: int):
        if not 2 <= g <= MAX_BUCKETS:
            raise ValueError(f"need between 2 and {MAX_BUCKETS} buckets, got {g}")
        if not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        _check_modulus(prime)
        self.prime = int(prime)
        self.g = int(g)

    @classmethod
    def for_domain(cls, domain_size: int, g: int) -> "CarterWegman":
        """Family with the production modulus: smallest prime above max(|X|, 2^31)."""
        if domain_size < PRODUCTION_PRIME:
            return cls(PRODUCTION_PRIME, g)
        return cls(next_prime_above(domain_size), g)

    def sample_descriptors(self, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """`count` members (a, b), each uniform over the (P - 1) P members.

        One bounded draw q on [0, (P - 1) P) per member, which `_check_modulus`
        keeps below 2^63, split as a = q // P + 1 and b = q mod P.
        """
        q = rng.integers(0, (self.prime - 1) * self.prime, size=count, dtype=np.int64)
        b = _hash_residues(q, 0, 1, self.prime)  # q mod P
        q //= self.prime
        q += 1
        return q, b


class ExhaustiveTable:
    """All g^domain functions from the domain into [g]; exactly universal.

    Oracle-only: permitted while g^domain stays at or below 10^6. Member
    index i maps x to digit x of i written in base g (plus 1 for 1-based
    buckets), which enumerates every function exactly once. `kernel` is the
    exact channel of hashed randomization with this family.
    """

    MAX_FUNCTIONS = 10 ** 6

    def __init__(self, domain_size: int, g: int):
        if g < 2 or domain_size < 1:
            raise ValueError("need g >= 2 and a non-empty domain")
        count = g ** domain_size
        if count > self.MAX_FUNCTIONS:
            raise ValueError(f"exhaustive family would hold {count} functions (cap {self.MAX_FUNCTIONS})")
        self.domain_size = int(domain_size)
        self.g = int(g)
        self.count = int(count)

    def all_tables(self) -> np.ndarray:
        """Dense (count, domain) matrix of every member's bucket values."""
        idx = np.arange(self.count)[:, None]
        powers = self.g ** np.arange(self.domain_size)[None, :]
        return (idx // powers) % self.g + 1

    def indicator(self) -> np.ndarray:
        """H of shape (count * g, domain): H[f*g + b, x] = 1 where member f sends x to bucket b + 1."""
        hits = self.all_tables()[:, None, :] == np.arange(1, self.g + 1)[None, :, None]
        return hits.reshape(self.count * self.g, self.domain_size).astype(np.float64)

    def kernel(self, epsilon: float) -> MechanismKernel:
        """Channel from x to the pair (member f, bucket b), ordered member-major.

        A uniform member hashes x, then randomized response at epsilon runs
        over the g buckets: Q = leak / count + (keep - leak) / count * H, with
        H the `indicator` and (keep, leak) the randomized-response pair.
        """
        keep, leak, _ = _keep_leak(epsilon, self.g)
        q = leak / self.count + (keep - leak) / self.count * self.indicator()
        return MechanismKernel(self.domain_size, self.count * self.g, q)


@dataclass(frozen=True)
class GeneralLocalHash:
    """Hash into g = family.g buckets with a random Carter-Wegman member, then run
    `bucket`, randomized response over the g buckets, on the hashed value."""

    epsilon: float
    family: CarterWegman
    bucket: RandomizedResponse = field(init=False)

    def __post_init__(self):
        if not isinstance(self.family, CarterWegman):
            raise ValueError("hashed obfuscation needs the pairwise (Carter-Wegman) family")
        object.__setattr__(self, "bucket", RandomizedResponse(self.epsilon, self.family.g))

    @classmethod
    def with_production_family(cls, epsilon: float, g: int, domain_size: int) -> "GeneralLocalHash":
        return cls(epsilon, CarterWegman.for_domain(domain_size, g))


def glh_sample_batch(mech: GeneralLocalHash, xs: np.ndarray, rng: np.random.Generator) -> GlhBatch:
    """Vectorized hashed obfuscation; one fresh family member per record.

    The symbols may be any in the hash domain [0, P).
    """
    family = mech.family
    xs = alphabet_symbols(xs, family.prime, "hash input")
    a, b = family.sample_descriptors(xs.size, rng)
    z = hash_buckets(a, b, xs, family.prime, family.g)
    z -= 1
    ys = _rr_draws(mech.bucket, z, rng)
    ys += 1
    return GlhBatch(a=a, b=b, ys=ys, prime=family.prime, g=family.g)


def postprocess(k: MechanismKernel, channel: MechanismKernel) -> MechanismKernel:
    """Compose a post-processing channel on the mechanism's output."""
    if channel.input_size != k.output_size:
        raise ValueError("channel input alphabet must equal kernel output alphabet")
    return MechanismKernel(k.input_size, channel.output_size, channel.matrix @ k.matrix)


def mixture_kernel(w: float, q1: MechanismKernel, q2: MechanismKernel) -> MechanismKernel:
    """Entrywise mixture: run q1 with probability w, else q2."""
    if not (0.0 <= w <= 1.0):
        raise ValueError("mixture weight must lie in [0, 1]")
    if (q1.input_size, q1.output_size) != (q2.input_size, q2.output_size):
        raise ValueError("mixture components must share alphabets")
    return MechanismKernel(q1.input_size, q1.output_size, w * q1.matrix + (1.0 - w) * q2.matrix)


RR_HEADER = ["user_idx", "y"]
GLH_HEADER = ["user_idx", "a", "b", "P", "g", "y"]

# rows formatted by one `%` in write_int_table. Each block's temporaries (the
# argument tuple, the repeated row format and the text) stay under 1 MB for
# six columns, so freeing them does not raise glibc's mmap threshold and
# leave later arrays on a fragmenting heap; smaller blocks were no lower.
_WRITE_BLOCK_ROWS = 2 ** 12


def write_int_table(path, header: Sequence[str], columns) -> None:
    """Write integer columns under `header` as CSV, byte for byte what csv.writer writes.

    A column is an integer array, or one int that every row repeats and that
    is written into the row format once. Rows are formatted by one `%` per
    block of 2^12, so a block's temporaries stay under 1 MB at six columns.
    """
    arrays = [np.asarray(c, dtype=np.int64) for c in columns if np.ndim(c)]
    if any(len(c) != len(arrays[0]) for c in arrays):
        raise ValueError("table columns differ in length")
    row = ",".join("%d" if np.ndim(c) else str(int(c)) for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(arrays[0]), _WRITE_BLOCK_ROWS):
            block = np.stack([c[lo:lo + _WRITE_BLOCK_ROWS] for c in arrays], axis=1)
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_int_table(path, *headers: list[str]) -> tuple[list[str], np.ndarray]:
    """Read an integer CSV whose header line is one of `headers`.

    Returns the header and the (rows, columns) int64 table. Each value is
    ASCII digits with an optional sign and optional whitespace around it;
    empty lines are skipped. Anything else is a ValueError naming the file line:
    a row of the wrong width, a value beyond int64, and text such as a
    quoted "7", 1_000, 1.5 or a trailing "# note".
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header not in headers:
            expected = " or ".join(",".join(h) for h in headers)
            raise ValueError(f"expected header {expected}, got {header}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: an empty table, not a warning
                table = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
        except ValueError as exc:
            raise ValueError(_first_bad_row(fh, len(header), str(exc))) from None
        if table.size and table.shape[1] != len(header):
            raise ValueError(_first_bad_row(fh, len(header), f"rows of {table.shape[1]} fields "
                                            f"where the header has {len(header)}"))
    if table.size == 0:
        table = np.empty((0, len(header)), dtype=np.int64)
    return header, table


def _is_integer_text(text: str) -> bool:
    """Whether text is an integer cell as read_int_table reads it.

    ASCII digits with an optional sign, and whitespace around them as
    str.isspace says; `int` would also read `0_1` and non-ASCII digits.
    """
    return re.fullmatch(r"\s*[+-]?[0-9]+\s*", text) is not None


def _ascii_float(text: str) -> float:
    """float(text), refusing `_` separators and non-ASCII characters, which float() reads."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def _first_bad_row(fh, width: int, reason: str) -> str:
    """What is wrong with the first refused row of an open table file, naming its line.

    Checks read_int_table's syntax in Python, line by line: slow, but it runs
    only once loadtxt has refused the file. Whitespace is what str.isspace
    says, as in loadtxt. Gives `reason` when the file cannot be read again,
    such as a pipe, or when every row passes.
    """
    if not fh.seekable():
        return reason
    fh.seek(0)
    for lineno, text in enumerate(fh, start=1):
        if lineno == 1 or text == "\n":
            continue
        cells = text.rstrip("\n").split(",")
        if len(cells) != width:
            return f"line {lineno} has {len(cells)} fields where the header has {width}"
        for cell in cells:
            if not _is_integer_text(cell):
                return f"non-integer value {cell!r} at line {lineno}"
            if not -2 ** 63 <= int(cell.strip()) < 2 ** 63:
                return f"value outside the 64-bit integer range at line {lineno}"
    return reason


def write_records(path, user_idx: Sequence[int], batch: Union[RrBatch, GlhBatch]) -> None:
    """Write obfuscated records as CSV; rows are self-describing for GLH."""
    if isinstance(batch, RrBatch):
        write_int_table(path, RR_HEADER, [user_idx, batch.ys])
    else:
        write_int_table(path, GLH_HEADER,
                        [user_idx, batch.a, batch.b, batch.prime, batch.g, batch.ys])


def read_records(path) -> tuple[np.ndarray, Union[RrBatch, GlhBatch]]:
    """Read a record CSV back into column form; detects RR vs GLH by header.

    Every value must fit in int64. A GLH file must hold at least one record
    and one (P, g) family with P prime and overflow-safe, a in [1, P),
    b in [0, P) and y in [1, g].
    """
    header, table = read_int_table(path, RR_HEADER, GLH_HEADER)
    if header == RR_HEADER:
        return table[:, 0], RrBatch(ys=table[:, 1])
    users, a, b, primes, gs, ys = table.T
    if not len(ys):
        raise ValueError("record file holds no records")
    if primes.min() != primes.max() or gs.min() != gs.max():
        raise ValueError("record file mixes hash families (varying P or g)")
    family = CarterWegman(int(primes[0]), int(gs[0]))  # P prime and overflow-safe, g >= 2
    if not (1 <= a.min() and a.max() < family.prime and 0 <= b.min() and b.max() < family.prime):
        raise ValueError("hash descriptor outside a in [1, P), b in [0, P)")
    if ys.min() < 1 or ys.max() > family.g:
        raise ValueError("reported bucket outside [1, g]")
    return users, GlhBatch(a=a, b=b, ys=ys, prime=family.prime, g=family.g)
