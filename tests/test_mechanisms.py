"""Tests for the obfuscation mechanisms: randomized response, hashed
randomized response, the hash families, channel algebra, privacy audit, and
the record file round trip."""

import copy
import csv
import io
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reidrisk.mechanisms import (
    MAX_BUCKETS,
    PRODUCTION_PRIME,
    CarterWegman,
    ExhaustiveTable,
    GeneralLocalHash,
    GlhBatch,
    MechanismKernel,
    RandomizedResponse,
    RrBatch,
    _is_prime,
    glh_match_chunks,
    glh_sample_batch,
    hash_buckets,
    mixture_kernel,
    next_prime_above,
    postprocess,
    read_records,
    rr_kernel,
    rr_sample_batch,
    write_int_table,
    write_records,
)
import reidrisk.mechanisms as mechanisms
from reidrisk.estimation import glh_counts
from reidrisk.probcore import integer_symbols, make_rng
from reidrisk.pse import harvest_scores_sparse
from reidrisk.reid import DEFAULT_FLOOR, ProfileTable, train_profile


# largest prime the modulus guard admits: (P-1)^2 + (P-1) < 2^63
LARGEST_PRIME = 3037000493
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


def row_ratios(k: MechanismKernel) -> np.ndarray:
    """max_x Q(y|x) / min_x Q(y|x) for every output y: e^eps for an eps-LDP channel."""
    return k.matrix.max(axis=1) / k.matrix.min(axis=1)


class TestRandomizedResponse:
    def test_mu_nu_closed_form(self):
        # epsilon = ln 3, k = 4: keep = 3/6, leak = 1/6, shrink = 2/6.
        m = RandomizedResponse(epsilon=math.log(3.0), size=4)
        assert math.isclose(m.mu, 0.5, rel_tol=1e-14)
        assert math.isclose(m.nu, 1 / 6, rel_tol=1e-14)
        assert math.isclose(m.theta, 1 / 3, rel_tol=1e-14)

    def test_mass_and_shrink_identities(self):
        m = RandomizedResponse(epsilon=1.7, size=9)
        assert math.isclose(m.mu + (m.size - 1) * m.nu, 1.0, rel_tol=1e-14)
        assert math.isclose(m.theta, m.mu - m.nu, rel_tol=1e-13)

    def test_epsilon_zero_is_uniform(self):
        m = RandomizedResponse(epsilon=0.0, size=5)
        assert math.isclose(m.mu, 0.2, rel_tol=1e-14)
        assert math.isclose(m.theta, 0.0, abs_tol=1e-15)

    def test_huge_epsilon_does_not_overflow(self):
        m = RandomizedResponse(epsilon=5000.0, size=10)
        assert m.mu == 1.0 and m.nu == 0.0 and m.theta == 1.0

    def test_infinite_epsilon_is_passthrough(self):
        k = rr_kernel(math.inf, 3)
        assert np.array_equal(k.matrix, np.eye(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomizedResponse(epsilon=1.0, size=1)
        with pytest.raises(ValueError):
            RandomizedResponse(epsilon=-0.5, size=4)

    def test_kernel_matches_mu_nu(self):
        m = RandomizedResponse(epsilon=2.0, size=6)
        k = m.kernel()
        assert np.allclose(np.diag(k.matrix), m.mu)
        off = k.matrix[~np.eye(6, dtype=bool)]
        assert np.allclose(off, m.nu)

    @settings(deadline=None, max_examples=60)
    @given(st.floats(0.01, 20.0), st.integers(2, 64))
    def test_kernel_privacy_audit_is_tight(self, eps, size):
        # every output's likelihood ratio is exactly e^eps, so the kernel is eps-LDP and no less
        assert np.allclose(row_ratios(rr_kernel(eps, size)), math.exp(eps), rtol=1e-9, atol=0)

    def test_sample_batch_matches_kernel_distribution(self):
        m = RandomizedResponse(epsilon=1.0, size=4)
        xs = np.full(200_000, 2, dtype=np.int64)
        batch = rr_sample_batch(m, xs, make_rng(2024))
        freq = np.bincount(batch.ys, minlength=4) / xs.size
        want = m.kernel().matrix[:, 2]
        assert np.max(np.abs(freq - want)) < 5 * math.sqrt(0.25 / xs.size)

    def test_sample_single_record(self):
        m = RandomizedResponse(epsilon=1.0, size=4)
        batch = rr_sample_batch(m, np.array([1]), make_rng(0))
        assert isinstance(batch, RrBatch) and batch.ys.shape == (1,)
        assert 0 <= batch.ys[0] < 4

    def test_sample_rejects_out_of_alphabet(self):
        m = RandomizedResponse(epsilon=1.0, size=4)
        for xs in ([4], [0, 9], [-1]):
            with pytest.raises(ValueError):
                rr_sample_batch(m, np.array(xs), make_rng(0))


class TestIntegerSymbols:
    """A value that is not an integer is refused, never truncated by a cast."""

    def test_int64_input_passes_without_a_copy(self):
        xs = np.array([3, 0, 2], dtype=np.int64)
        assert integer_symbols(xs) is xs
        assert integer_symbols([3, 0, 2]).dtype == np.int64
        assert integer_symbols(np.array([1, 2], dtype=np.int8)).tolist() == [1, 2]

    def test_whole_floats_and_unsigned_values_pass(self):
        assert integer_symbols(np.array([2.0, 0.0])).tolist() == [2, 0]
        assert integer_symbols(np.array([5], dtype=np.uint64)).tolist() == [5]
        assert integer_symbols([]).dtype == np.int64

    @pytest.mark.parametrize("values", [
        [0.7, 1.9, 1.2], [0.0, 0.5], [float("nan")], [float("inf")], [1e20],
        np.array([2 ** 64 - 1], dtype=np.uint64), [1, 2 ** 70], ["1"], [True, False],
    ])
    def test_non_integers_refused(self, values):
        with pytest.raises(ValueError, match="integers"):
            integer_symbols(values)

    def test_samplers_refuse_fractional_symbols(self):
        rr = RandomizedResponse(epsilon=1.0, size=4)
        glh = GeneralLocalHash.with_production_family(1.0, 4, domain_size=4)
        for sampler, mech in ((rr_sample_batch, rr), (glh_sample_batch, glh)):
            with pytest.raises(ValueError, match="integers"):
                sampler(mech, np.array([0.7, 1.9, 1.2]), make_rng(0))

    def test_samplers_read_whole_floats_as_their_integers(self):
        rr = RandomizedResponse(epsilon=1.0, size=4)
        glh = GeneralLocalHash.with_production_family(1.0, 4, domain_size=4)
        assert np.array_equal(rr_sample_batch(rr, np.array([3.0, 1.0]), make_rng(5)).ys,
                              rr_sample_batch(rr, np.array([3, 1]), make_rng(5)).ys)
        assert np.array_equal(glh_sample_batch(glh, np.array([3.0, 1.0]), make_rng(5)).ys,
                              glh_sample_batch(glh, np.array([3, 1]), make_rng(5)).ys)

    def test_glh_refuses_symbols_outside_the_hash_domain(self):
        # -1 would hash as P - 1, and a*x wraps int64 for x far above P
        glh = GeneralLocalHash.with_production_family(1.0, 4, domain_size=10)
        prime = glh.family.prime
        for xs in ([-1], [prime], [0, prime + 1], [2 ** 62]):
            with pytest.raises(ValueError,
                               match=rf"^hash input symbol -?\d+ outside \[0, {prime}\)$"):
                glh_sample_batch(glh, np.array(xs), make_rng(0))
        assert glh_sample_batch(glh, np.array([0, prime - 1]), make_rng(0)).ys.size == 2


class TestPrimes:
    def test_known_primes(self):
        for p in (2, 3, 5, 7, 2_147_483_647, PRODUCTION_PRIME):
            assert _is_prime(p)
        for c in (1, 4, 9, 2_147_483_648, 10**12 + 1):
            assert not _is_prime(c)

    def test_production_prime_is_first_above_2_31(self):
        assert next_prime_above(2**31) == PRODUCTION_PRIME == 2147483659

    def test_next_prime_small(self):
        assert next_prime_above(1) == 2
        assert next_prime_above(13) == 17
        assert next_prime_above(14) == 17


class TestCarterWegman:
    def test_for_domain_uses_production_prime(self):
        fam = CarterWegman.for_domain(10_500_393, g=16)
        assert fam.prime == PRODUCTION_PRIME

    def test_for_domain_grows_past_production_prime(self):
        fam = CarterWegman.for_domain(PRODUCTION_PRIME + 10, g=4)
        assert fam.prime > PRODUCTION_PRIME + 10 and _is_prime(fam.prime)

    def test_eval_formula(self):
        # h(x) = (((a x + b) mod 13) mod 4) + 1, for a scalar and broadcast over x
        assert hash_buckets(3, 5, 7, 13, 4) == ((3 * 7 + 5) % 13) % 4 + 1
        arr = hash_buckets(3, 5, np.arange(13), 13, 4)
        assert arr.tolist() == [((3 * x + 5) % 13) % 4 + 1 for x in range(13)]
        assert arr.min() >= 1 and arr.max() <= 4

    def test_invalid_descriptor_rejected(self, tmp_path):
        # a record file is the one way descriptors enter from outside
        path = tmp_path / "bad.csv"
        for a, b in ((0, 5), (13, 5), (3, 13), (3, -1)):  # a in [1, P), b in [0, P)
            path.write_text(f"user_idx,a,b,P,g,y\n0,{a},{b},13,4,1\n")
            with pytest.raises(ValueError, match="descriptor"):
                read_records(path)

    def test_descriptor_sampling_ranges(self):
        fam = CarterWegman(prime=13, g=4)
        a, b = fam.sample_descriptors(5000, make_rng(1))
        assert a.min() >= 1 and a.max() < 13
        assert b.min() >= 0 and b.max() < 13

    def test_collision_rate_near_uniform(self):
        # Pairwise family: P(h(x) = h(x')) approx 1/g for x != x'.
        fam = CarterWegman(prime=PRODUCTION_PRIME, g=8)
        a, b = fam.sample_descriptors(40_000, make_rng(7))
        hx = ((a * 123 + b) % fam.prime) % fam.g
        hy = ((a * 45678 + b) % fam.prime) % fam.g
        rate = float(np.mean(hx == hy))
        assert abs(rate - 1 / 8) < 5 * math.sqrt(0.125 * 0.875 / 40_000) + 2 / PRODUCTION_PRIME

    def test_validation(self):
        with pytest.raises(ValueError):
            CarterWegman(prime=12, g=4)
        with pytest.raises(ValueError):
            CarterWegman(prime=13, g=1)

    def test_modulus_that_would_wrap_int64_is_refused(self):
        # At P above about 3.037e9, a*x + b can pass 2^63: in int64 this
        # input lands in bucket 2, while the exact bucket is 4.
        with pytest.raises(ValueError):
            CarterWegman.for_domain(5 * 10 ** 9, 4)
        prime = next_prime_above(5 * 10 ** 9)
        with pytest.raises(ValueError):
            hash_buckets(prime - 2, 7, np.int64(5 * 10 ** 9 - 1), prime, 4)

    def test_largest_admitted_modulus_hashes_exactly(self):
        top = 3037000500  # largest P with (P-1)^2 + (P-1) < 2^63
        assert (top - 1) ** 2 + (top - 1) < 2 ** 63 <= top ** 2 + top
        prime = next(p for p in range(top, 0, -1) if _is_prime(p))
        CarterWegman(prime, g=5)
        a, b, x = prime - 1, prime - 1, prime - 1
        assert hash_buckets(a, b, np.int64(x), prime, 5) == ((a * x + b) % prime) % 5 + 1
        with pytest.raises(ValueError):
            CarterWegman(next_prime_above(top), g=5)


class TestExhaustiveTable:
    def test_enumerates_every_function_once(self):
        fam = ExhaustiveTable(domain_size=3, g=2)
        tables = fam.all_tables()
        assert tables.shape == (8, 3)
        assert len({tuple(row) for row in tables}) == 8
        assert tables.min() == 1 and tables.max() == 2

    def test_eval_matches_all_tables(self):
        # member d sends x to digit x of d written in base g, plus 1
        fam = ExhaustiveTable(domain_size=3, g=3)
        tables = fam.all_tables()
        for d in range(fam.count):
            assert tables[d].tolist() == [d // 3 ** x % 3 + 1 for x in range(3)]

    def test_exact_universality(self):
        # For x != x', exactly count/g members collide: the family is
        # exactly (not just approximately) universal.
        fam = ExhaustiveTable(domain_size=4, g=3)
        tables = fam.all_tables()
        for x, xp in ((0, 1), (1, 3), (0, 3)):
            collisions = int(np.sum(tables[:, x] == tables[:, xp]))
            assert collisions * fam.g == fam.count

    def test_single_symbol_uniformity(self):
        fam = ExhaustiveTable(domain_size=3, g=4)
        tables = fam.all_tables()
        for x in range(3):
            counts = np.bincount(tables[:, x], minlength=5)[1:]
            assert np.all(counts == fam.count // 4)

    def test_cap(self):
        with pytest.raises(ValueError):
            ExhaustiveTable(domain_size=30, g=4)

    @pytest.mark.parametrize("size,g", [(1, 2), (3, 2), (2, 3), (4, 3)])
    def test_kernel_is_member_major_hashed_rr(self, size, g):
        fam = ExhaustiveTable(domain_size=size, g=g)
        eps = 0.7
        q = fam.kernel(eps)
        assert (q.input_size, q.output_size) == (size, fam.count * g)
        assert np.allclose(q.matrix.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        bucket_q = rr_kernel(eps, g).matrix
        tables = fam.all_tables()
        for f in range(fam.count):
            for b in range(g):
                want = bucket_q[b, tables[f] - 1] / fam.count
                assert np.allclose(q.matrix[f * g + b], want, rtol=1e-13, atol=0)


class TestGeneralLocalHash:
    def test_bucket_probabilities(self):
        # epsilon = ln 3, g = 4: on-bucket 1/2, off-bucket 1/6.
        m = GeneralLocalHash(math.log(3.0), CarterWegman(13, 4))
        assert m.bucket == RandomizedResponse(math.log(3.0), 4)
        assert math.isclose(m.bucket.mu, 0.5, rel_tol=1e-14)
        assert math.isclose(m.bucket.nu, 1 / 6, rel_tol=1e-14)
        assert math.isclose(m.bucket.theta, 1 / 3, rel_tol=1e-14)

    def test_bucket_kernel_audits_at_epsilon(self):
        m = GeneralLocalHash.with_production_family(2.5, 8, domain_size=1000)
        assert np.allclose(row_ratios(m.bucket.kernel()), math.exp(2.5), rtol=1e-9, atol=0)

    def test_bucket_count_beyond_int64_refused(self):
        with pytest.raises(ValueError, match="buckets"):
            CarterWegman(13, MAX_BUCKETS + 1)
        with pytest.raises(ValueError, match="buckets"):
            GeneralLocalHash.with_production_family(1.0, 10 ** 20, domain_size=8)

    def test_largest_bucket_count_samples(self):
        # an int64 g is kept as a Python int, so g + 1 = 2**63 still bounds the uniform draw
        m = GeneralLocalHash.with_production_family(0.0, np.int64(MAX_BUCKETS), domain_size=8)
        assert type(m.family.g) is int
        batch = glh_sample_batch(m, np.arange(8), make_rng(2))
        assert np.all((batch.ys >= 1) & (batch.ys <= MAX_BUCKETS))

    def test_sample_record_fields(self):
        m = GeneralLocalHash.with_production_family(1.0, 4, domain_size=100)
        batch = glh_sample_batch(m, np.full(5000, 17), make_rng(3))
        assert batch.g == 4 and batch.prime == PRODUCTION_PRIME and len(batch) == 5000
        assert batch.ys.min() >= 1 and batch.ys.max() <= 4
        assert batch.a.min() >= 1 and batch.a.max() < PRODUCTION_PRIME
        assert batch.b.min() >= 0 and batch.b.max() < PRODUCTION_PRIME

    def test_sample_batch_on_bucket_rate(self):
        m = GeneralLocalHash.with_production_family(math.log(3.0), 4, domain_size=1000)
        xs = np.full(100_000, 555, dtype=np.int64)
        batch = glh_sample_batch(m, xs, make_rng(11))
        z = ((batch.a * 555 + batch.b) % batch.prime) % batch.g + 1
        on_rate = float(np.mean(batch.ys == z))
        assert abs(on_rate - m.bucket.mu) < 5 * math.sqrt(0.25 / xs.size)

    def test_sample_batch_marginal_is_uniform(self):
        m = GeneralLocalHash.with_production_family(2.0, 5, domain_size=1000)
        batch = glh_sample_batch(m, np.full(100_000, 7), make_rng(12))
        freq = np.bincount(batch.ys, minlength=6)[1:] / len(batch)
        assert np.max(np.abs(freq - 0.2)) < 5 * math.sqrt(0.16 / 100_000) + 2 / PRODUCTION_PRIME

    def test_batch_requires_pairwise_family(self):
        # the constructor refuses any other family, so no sampler ever meets one
        with pytest.raises(ValueError, match="pairwise"):
            GeneralLocalHash(1.0, ExhaustiveTable(3, 2))


class StubIntegers:
    """Generator stub whose bounded integer draws are `values`, checked against the bounds."""

    def __init__(self, values):
        self.values = np.array(values, dtype=np.int64)

    def integers(self, low, high, size=None, dtype=np.int64):
        assert size == self.values.size and dtype == np.int64
        assert low <= self.values.min() and self.values.max() < high
        return self.values.copy()


class TestReleaseReplay:
    """The samplers replayed on a copy of their generator, draw for draw: the
    descriptors (GLH, one draw q per member, a = q // P + 1 and b = q mod P), the
    keep flags, then the uniform symbols or buckets."""

    @pytest.mark.parametrize("prime", [13, PRODUCTION_PRIME, LARGEST_PRIME])
    def test_descriptor_draw_ends(self, prime):
        # q = 0 and q = (P - 1) P - 1 are the first and last members of [1, P) x [0, P)
        last = (prime - 1) * prime - 1
        a, b = CarterWegman(prime, 4).sample_descriptors(2, StubIntegers([0, last]))
        assert a.tolist() == [1, prime - 1] and b.tolist() == [0, prime - 1]
        assert a.dtype == b.dtype == np.int64

    @pytest.mark.parametrize("epsilon,g", [(0.0, 2), (1.0, 4), (3.0, 17), (math.inf, 5),
                                           (0.5, 2 ** 40), (0.5, MAX_BUCKETS)])
    def test_glh_sample_batch(self, epsilon, g):
        mech = GeneralLocalHash.with_production_family(epsilon, g, 1000)
        xs = make_rng(0).integers(0, 1000, 4000)
        rng = make_rng(7)
        twin = copy.deepcopy(rng)
        batch = glh_sample_batch(mech, xs, rng)
        prime = mech.family.prime
        q = twin.integers(0, (prime - 1) * prime, size=xs.size)
        a, b = q // prime + 1, q % prime
        z = hash_buckets(a, b, xs, prime, g)
        keep = twin.random(xs.size) < mech.bucket.theta
        ys = np.where(keep, z, twin.integers(1, g + 1, size=xs.size))
        assert (batch.prime, batch.g) == (prime, g)
        for got, want in ((batch.a, a), (batch.b, b), (batch.ys, ys)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("epsilon,size", [(0.0, 2), (1.0, 5), (math.inf, 7), (2.0, 1000)])
    def test_rr_sample_batch(self, epsilon, size):
        mech = RandomizedResponse(epsilon, size)
        xs = make_rng(1).integers(0, size, 4000)
        rng = make_rng(8)
        twin = copy.deepcopy(rng)
        got = rr_sample_batch(mech, xs, rng).ys
        keep = twin.random(xs.size) < mech.theta
        want = np.where(keep, xs, twin.integers(0, size, size=xs.size))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestChannelAlgebra:
    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            MechanismKernel(2, 2, np.array([[0.5, 0.4], [0.4, 0.4]]))
        with pytest.raises(ValueError):
            MechanismKernel(2, 2, np.array([[1.2, 0.5], [-0.2, 0.5]]))

    def test_kernel_refuses_nan_entries(self):
        with pytest.raises(ValueError, match="finite"):
            MechanismKernel(2, 2, np.array([[math.nan, 0.5], [1.0, 0.5]]))

    def test_identity_kernel(self):
        k = MechanismKernel.identity(3)
        assert np.array_equal(k.matrix, np.eye(3))
        assert np.all(k.matrix.min(axis=1) == 0)  # no finite eps bounds a pass-through

    def test_audit_uniform_kernel_is_zero(self):
        # eps = 0: every row is constant, a likelihood ratio of e^0
        assert row_ratios(rr_kernel(0.0, 6)).tolist() == [1.0] * 6

    def test_postprocess_is_matrix_product(self):
        k = rr_kernel(1.0, 3)
        merge = MechanismKernel(3, 2, np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        out = postprocess(k, merge)
        assert np.allclose(out.matrix, merge.matrix @ k.matrix)

    def test_postprocess_never_increases_budget(self):
        k = rr_kernel(2.0, 4)
        merge = MechanismKernel(4, 2, np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=float))
        before = row_ratios(k).max()
        after = row_ratios(postprocess(k, merge)).max()
        assert after <= before * (1 + 1e-12)

    def test_postprocess_shape_mismatch(self):
        with pytest.raises(ValueError):
            postprocess(rr_kernel(1.0, 3), MechanismKernel.identity(4))

    def test_mixture(self):
        q1 = rr_kernel(0.5, 3)
        q2 = rr_kernel(3.0, 3)
        mix = mixture_kernel(0.25, q1, q2)
        assert np.allclose(mix.matrix, 0.25 * q1.matrix + 0.75 * q2.matrix)

    def test_mixture_validation(self):
        q = rr_kernel(1.0, 3)
        with pytest.raises(ValueError):
            mixture_kernel(1.5, q, q)
        with pytest.raises(ValueError):
            mixture_kernel(0.5, q, rr_kernel(1.0, 4))


class TestRecordFiles:
    def test_rr_roundtrip(self, tmp_path):
        m = RandomizedResponse(epsilon=1.0, size=8)
        batch = rr_sample_batch(m, np.arange(8).repeat(3), make_rng(0))
        users = np.arange(24) % 5
        path = tmp_path / "rr.csv"
        write_records(path, users, batch)
        users2, batch2 = read_records(path)
        assert isinstance(batch2, RrBatch)
        assert np.array_equal(users2, users)
        assert np.array_equal(batch2.ys, batch.ys)

    def test_glh_roundtrip(self, tmp_path):
        m = GeneralLocalHash.with_production_family(1.0, 4, domain_size=50)
        batch = glh_sample_batch(m, np.arange(50), make_rng(1))
        users = np.zeros(50, dtype=int)
        path = tmp_path / "glh.csv"
        write_records(path, users, batch)
        users2, batch2 = read_records(path)
        assert isinstance(batch2, GlhBatch)
        assert batch2.prime == batch.prime and batch2.g == batch.g
        for col in ("a", "b", "ys"):
            assert np.array_equal(getattr(batch2, col), getattr(batch, col))

    def test_mixed_families_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_idx,a,b,P,g,y\n0,1,0,13,4,1\n1,1,0,17,4,2\n")
        with pytest.raises(ValueError):
            read_records(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError):
            read_records(path)


def csv_writer_text(header, columns, n):
    """The reference: csv.writer's output for the table write_int_table is given."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(header)
    w.writerows([c[i] if isinstance(c, list) else c for c in columns] for i in range(n))
    return out.getvalue()


INT64_EDGES = st.one_of(INT64, st.sampled_from([-2 ** 63, 2 ** 63 - 1, -1, 0, 1]))
_FILE_EXAMPLES = settings(max_examples=150, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestIntTables:
    """write_int_table writes csv.writer's bytes, one `%` per block of rows,
    and read_records(write_records(...)) gives every batch back."""

    @_FILE_EXAMPLES
    @given(st.data())
    def test_bytes_match_csv_writer(self, tmp_path, data):
        # small blocks put row counts on both sides of a block boundary
        block = data.draw(st.sampled_from([1, 2, 3, 5]))
        n = data.draw(st.integers(0, 12))
        width = data.draw(st.integers(1, 6))
        columns = [data.draw(st.lists(INT64_EDGES, min_size=n, max_size=n)) if i == 0
                   or data.draw(st.booleans()) else data.draw(INT64_EDGES)
                   for i in range(width)]
        header = [f"c{i}" for i in range(width)]
        path = tmp_path / "table.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mechanisms, "_WRITE_BLOCK_ROWS", block)
            write_int_table(path, header, columns)
        assert path.read_bytes() == csv_writer_text(header, columns, n).encode()

    @pytest.mark.parametrize("n", [0, 1, mechanisms._WRITE_BLOCK_ROWS - 1,
                                   mechanisms._WRITE_BLOCK_ROWS, mechanisms._WRITE_BLOCK_ROWS + 1,
                                   2 * mechanisms._WRITE_BLOCK_ROWS + 3])
    def test_bytes_at_the_shipped_block_size(self, tmp_path, n):
        rng = make_rng(n)
        columns = [rng.integers(-2 ** 63, 2 ** 63 - 1, n, endpoint=True).tolist()
                   for _ in range(3)]
        for col in columns:
            col[:5] = [-2 ** 63, 2 ** 63 - 1, -1, 0, 1][:n]
        columns.insert(1, 2 ** 63 - 1)
        header = ["u", "P", "a", "y"]
        path = tmp_path / "table.csv"
        write_int_table(path, header, columns)
        assert path.read_bytes() == csv_writer_text(header, columns, n).encode()

    def test_columns_of_different_lengths_refused(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            write_int_table(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])

    @_FILE_EXAMPLES
    @given(st.data())
    def test_refusal_names_the_line(self, tmp_path, data):
        # one faulty row among valid ones, with empty lines anywhere before it
        width = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(st.lists(INT64_EDGES.map(str), min_size=width, max_size=width),
                                  min_size=1, max_size=6))
        bad = data.draw(st.integers(0, len(rows) - 1))
        fault = data.draw(st.sampled_from(["text", "beyond", "wide", "narrow"]))
        cell = data.draw(st.integers(0, width - 1))
        if fault == "text":
            junk = ['"7"', "1_000", "1.5", "2 # x", "x", "\u0663", "0x10", "1e3", "- 1", "1 2"]
            rows[bad][cell] = data.draw(st.sampled_from(junk + ([""] if width > 1 else [])))
        elif fault == "beyond":
            rows[bad][cell] = data.draw(st.sampled_from(
                [str(2 ** 63), str(-2 ** 63 - 1), "99999999999999999999999", " 9223372036854775808"]))
        elif fault == "wide" or width == 1:
            rows[bad].append(data.draw(INT64_EDGES.map(str)))
        else:
            rows[bad].pop()
        lines = [",".join(f"c{i}" for i in range(width))]
        for i, row in enumerate(rows):
            lines += [""] * data.draw(st.integers(0, 2))
            if i == bad:
                lineno = len(lines) + 1
            lines.append(",".join(row))
        end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        path = tmp_path / "table.csv"
        path.write_bytes((end.join(lines) + end).encode())
        kind = {"text": "non-integer", "beyond": "64-bit"}.get(fault, "fields")
        with pytest.raises(ValueError, match=rf"(\bline {lineno}\b.*{kind}|{kind}.*\bline {lineno}$)"):
            mechanisms.read_int_table(path, lines[0].split(","))

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("text, reason", [(b"a,b\n0,1\n1,x\n", "'x'"),
                                              (b"a,b\n0,1,2\n", "3 fields")])
    def test_refusal_from_a_pipe_keeps_its_reason(self, text, reason):
        # a pipe cannot be read twice, so the reason comes from the one read
        r, w = os.pipe()
        try:
            os.write(w, text)
            os.close(w)
            with pytest.raises(ValueError, match=reason):
                mechanisms.read_int_table(f"/dev/fd/{r}", ["a", "b"])
        finally:
            os.close(r)

    def test_empty_lines_skipped_and_whitespace_read(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"a,b\r\n\r\n 1,\t-2 \r\n\r\n+3,\x0c4\r\n\r\n")
        header, table = mechanisms.read_int_table(path, ["x"], ["a", "b"])
        assert header == ["a", "b"] and table.tolist() == [[1, -2], [3, 4]]

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n\n\n", "a,b"])
    def test_header_only_is_an_empty_table(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            header, table = mechanisms.read_int_table(path, ["a", "b"])
        assert table.shape == (0, 2) and table.dtype == np.int64

    @_FILE_EXAMPLES
    @given(st.data())
    def test_rr_round_trip(self, tmp_path, data):
        n = data.draw(st.integers(0, 12))
        users = np.array(data.draw(st.lists(INT64_EDGES, min_size=n, max_size=n)), dtype=np.int64)
        ys = np.array(data.draw(st.lists(INT64_EDGES, min_size=n, max_size=n)), dtype=np.int64)
        path = tmp_path / "rr.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mechanisms, "_WRITE_BLOCK_ROWS", data.draw(st.sampled_from([1, 3, 2 ** 14])))
            write_records(path, users, RrBatch(ys=ys))
        users2, batch = read_records(path)
        assert isinstance(batch, RrBatch)
        assert np.array_equal(users2, users) and np.array_equal(batch.ys, ys)

    @_FILE_EXAMPLES
    @given(st.data())
    def test_glh_round_trip(self, tmp_path, data):
        prime = data.draw(st.sampled_from([13, 31, PRODUCTION_PRIME, LARGEST_PRIME]))
        g = data.draw(st.one_of(st.integers(2, 9), st.just(MAX_BUCKETS)))
        n = data.draw(st.integers(1, 12))

        def column(lo, hi):
            return np.array(data.draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)),
                            dtype=np.int64)

        users = column(-2 ** 63, 2 ** 63 - 1)
        batch = GlhBatch(a=column(1, prime - 1), b=column(0, prime - 1), ys=column(1, g),
                         prime=prime, g=g)
        path = tmp_path / "glh.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mechanisms, "_WRITE_BLOCK_ROWS", data.draw(st.sampled_from([1, 3, 2 ** 14])))
            write_records(path, users, batch)
        users2, batch2 = read_records(path)
        assert isinstance(batch2, GlhBatch)
        assert (batch2.prime, batch2.g) == (prime, g)
        assert np.array_equal(users2, users)
        for col in ("a", "b", "ys"):
            assert np.array_equal(getattr(batch2, col), getattr(batch, col))

    @pytest.mark.parametrize("mech", ["rr", "glh"])
    def test_write_peak_memory_stays_under_a_small_block(self, tmp_path, mech):
        # a block's tuple, row format and text; 2^14-row blocks peaked at 1.74 MiB (RR)
        # and 3.71 MiB (GLH), 2^12-row blocks at 0.44 and 0.93 MiB
        rng = make_rng(0)
        xs = rng.integers(0, 1000, 10 ** 5)
        batch = (rr_sample_batch(RandomizedResponse(1.0, 1000), xs, rng) if mech == "rr" else
                 glh_sample_batch(GeneralLocalHash.with_production_family(1.0, 4, 1000), xs, rng))
        users = np.arange(len(xs))
        tracemalloc.start()
        try:
            write_records(tmp_path / "records.csv", users, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2 ** 20


class TestHashMatchKernel:
    """size = 1e5 gives 40 records per 4e6-cell chunk, so 101 records span
    three chunks; every result is checked against hash_buckets per record."""

    SIZE, N = 10 ** 5, 101

    @pytest.fixture(scope="class")
    def mech(self):
        return GeneralLocalHash.with_production_family(1.0, 4, self.SIZE)

    @pytest.fixture(scope="class")
    def batch(self, mech):
        return glh_sample_batch(mech, make_rng(0).integers(0, self.SIZE, self.N), make_rng(1))

    @pytest.fixture(scope="class")
    def profiles(self):
        rng = make_rng(2)
        return [train_profile(rng.integers(0, self.SIZE, 5000), self.SIZE, owner=i)
                for i in range(3)]

    def brute_masks(self, batch):
        xs = np.arange(self.SIZE)
        return np.array([hash_buckets(int(a), int(b), xs, batch.prime, batch.g) == y
                         for a, b, y in zip(batch.a, batch.b, batch.ys)])

    def brute_scores(self, batch, profiles, mech):
        pi = np.array([np.where(p.pi > 0, p.pi, DEFAULT_FLOOR) for p in profiles])
        mass = pi @ self.brute_masks(batch).T.astype(np.float64)
        return np.log2(mech.bucket.nu + (mech.bucket.mu - mech.bucket.nu) * mass).T

    def test_chunks_tile_the_records(self, batch, monkeypatch):
        monkeypatch.setattr(mechanisms, "_match_workers", lambda: 1)
        chunks = glh_match_chunks(batch, self.SIZE, lambda lo, hi, mask: (lo, hi, mask))
        assert [(lo, hi) for lo, hi, _ in chunks] == [(0, 40), (40, 80), (80, 101)]
        assert np.array_equal(np.vstack([m for _, _, m in chunks]), self.brute_masks(batch))

    def test_glh_counts(self, batch):
        want = self.brute_masks(batch).sum(axis=0)
        assert np.array_equal(glh_counts(batch, self.SIZE), want)

    def test_glh_single_datum_scores(self, batch, profiles, mech):
        got = ProfileTable(profiles).datum_scores(batch, mech)
        assert np.allclose(got, self.brute_scores(batch, profiles, mech), rtol=0, atol=1e-12)

    def test_harvest_scores_sparse(self, monkeypatch, profiles, mech):
        import reidrisk.pse as pse
        import reidrisk.reid as reid

        # record what the harvester releases, from which data, and who released it
        sample_batch, sample_users = reid.glh_sample_batch, pse.sample_releases
        batches, data, owners = [], [], []

        def capture_batch(mech, xs, rng):
            data.append(xs)
            batches.append(sample_batch(mech, xs, rng))
            return batches[-1]

        def capture_users(*args, **kwargs):
            us, released = sample_users(*args, **kwargs)
            owners.append(us)
            return us, released

        monkeypatch.setattr(reid, "glh_sample_batch", capture_batch)
        monkeypatch.setattr(pse, "sample_releases", capture_users)
        probes = make_rng(4).integers(0, self.SIZE, 3)
        sample = harvest_scores_sparse(probes, mech, ProfileTable(profiles), self.N, self.N,
                                       make_rng(3))
        assert all(np.array_equal(xs, probes[us]) for xs, us in zip(data, owners))

        genuine = self.brute_scores(batches[0], profiles, mech)
        assert np.allclose(sample.genuine, genuine[np.arange(self.N), owners[0]],
                           rtol=0, atol=1e-12)
        # each impostor score is the release scored against some other user
        impostor = self.brute_scores(batches[1], profiles, mech)
        for score, row, owner in zip(sample.impostor, impostor, owners[1]):
            assert np.min(np.abs(np.delete(row, owner) - score)) <= 1e-12


def walk_masks(batch, size):
    """The masks glh_match_chunks hands out, stacked into one (records, size) table."""
    return np.vstack([np.zeros((0, size), dtype=bool)]
                     + glh_match_chunks(batch, size, lambda lo, hi, mask: mask))


def reference_masks(batch, size):
    """The same table from hash_buckets, one record at a time."""
    xs = np.arange(size)
    rows = [hash_buckets(int(a), int(b), xs, batch.prime, batch.g) == y
            for a, b, y in zip(batch.a, batch.b, batch.ys)]
    return np.array(rows, dtype=bool).reshape(len(batch), size)


def hit_batch(a, b, hits, prime, g, size):
    """A batch whose record i reports the bucket of symbol hits[i], or bucket 1 for hits[i] = -1."""
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    xs = np.array(hits, dtype=np.int64)
    ys = np.where(xs >= 0, hash_buckets(a, b, np.maximum(xs, 0), prime, g), 1)
    return GlhBatch(a=a, b=b, ys=ys, prime=prime, g=g)


class TestHashWalk:
    """glh_match_chunks walks (a x + b) mod P one add per cell; every mask
    equals hash_buckets per record, however the walk wraps or the lanes fall."""

    @settings(max_examples=300, deadline=None)
    @given(INT64, INT64, st.integers(0, 2 ** 62),
           st.sampled_from([13, 31, PRODUCTION_PRIME, LARGEST_PRIME]),
           st.integers(2, MAX_BUCKETS))
    def test_hash_buckets_reads_descriptors_mod_p(self, a, b, x, prime, g):
        got = hash_buckets(np.int64(a), np.int64(b), np.int64(x), prime, g)
        assert got == ((a * x + b) % prime) % g + 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_walk_matches_hash_buckets(self, data):
        # a small step size makes small tables walk many steps over many lanes
        prime = data.draw(st.sampled_from([13, 31, 257, PRODUCTION_PRIME, LARGEST_PRIME]))
        g = data.draw(st.one_of(st.integers(2, 9),
                                st.sampled_from([prime - 1, prime, prime + 3, MAX_BUCKETS,
                                                 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40])))
        n = data.draw(st.integers(1, 12))
        size = data.draw(st.one_of(st.integers(1, 150), st.sampled_from([1, 13, 31, 97, 127])))
        step_cells = data.draw(st.sampled_from([1, 2, 5, 16, 64, mechanisms._WALK_STEP_CELLS]))
        a = data.draw(st.lists(INT64, min_size=n, max_size=n))
        b = data.draw(st.lists(INT64, min_size=n, max_size=n))
        hits = data.draw(st.lists(st.integers(-1, size - 1), min_size=n, max_size=n))
        batch = hit_batch(a, b, hits, prime, g, size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mechanisms, "_WALK_STEP_CELLS", step_cells)
            got = walk_masks(batch, size)
        assert np.array_equal(got, reference_masks(batch, size))

    @pytest.mark.parametrize("prime, g, n, size", [
        (13, 4, 40, 40_000),            # 49 steps per lane mod a tiny prime
        (31, 31, 2, 100_003),           # g = P; a prime size leaves the last step partial
        (31, 40, 5, 7),                 # g > P; fewer symbols than a step could take
        (257, MAX_BUCKETS, 9, 1),       # one symbol
        (PRODUCTION_PRIME, 4, 4, 25_013),
    ])
    def test_walk_at_the_shipped_step_size(self, prime, g, n, size):
        rng = make_rng(n)
        a = rng.integers(-2 ** 63, 2 ** 63 - 1, n, endpoint=True)
        b = rng.integers(-2 ** 63, 2 ** 63 - 1, n, endpoint=True)
        batch = hit_batch(a, b, rng.integers(0, size, n), prime, g, size)
        got = walk_masks(batch, size)
        assert np.array_equal(got, reference_masks(batch, size))
        assert got.any(axis=1).all()  # every record hits its own symbol

    @pytest.mark.parametrize("g", [5, MAX_BUCKETS])
    def test_largest_modulus_with_top_descriptors(self, g):
        p = LARGEST_PRIME
        size = 30_000
        batch = hit_batch([p - 1] * 3, [p - 1] * 3, [0, size // 2, size - 1], p, g, size)
        got = walk_masks(batch, size)
        assert np.array_equal(got, reference_masks(batch, size))
        assert got[[0, 1, 2], [0, size // 2, size - 1]].all()

    @pytest.mark.parametrize("prime", [31, PRODUCTION_PRIME, LARGEST_PRIME])
    @pytest.mark.parametrize("g", [2, 3, 29, 31, 2 ** 31 + 11, 2 ** 32 - 1, 2 ** 32,
                                   2 ** 32 + 1, 2 ** 40, MAX_BUCKETS])
    @pytest.mark.parametrize("bucket", ["first", "last", "zero", "int64 min"])
    def test_first_and_last_bucket(self, prime, g, bucket):
        # y = 1 or y = g at every record, or a y below 1 that no symbol reaches;
        # where 0 <= y - 1 < P, symbol 7 is planted on it
        size, n = 600, 6
        y = {"first": 1, "last": g, "zero": 0, "int64 min": -2 ** 63}[bucket]
        rng = make_rng(g % 1000)
        a = rng.integers(1, prime, n)
        planted = (y - 1) % prime
        b = (planted - a * 7) % prime
        batch = GlhBatch(a=a, b=b, ys=np.full(n, y, dtype=np.int64), prime=prime, g=g)
        got = walk_masks(batch, size)
        assert np.array_equal(got, reference_masks(batch, size))
        assert got[:, 7].all() == (0 <= y - 1 < prime)

    @pytest.mark.parametrize("prime", [PRODUCTION_PRIME, LARGEST_PRIME])
    @pytest.mark.parametrize("g, wraps", [(2 ** 33, 1), (2 ** 40, 1), (2 ** 40, 255),
                                          (MAX_BUCKETS, 1), (MAX_BUCKETS, 2 ** 31 - 1)])
    def test_bucket_congruent_mod_2_32_to_a_residue_never_matches(self, prime, g, wraps):
        # y - 1 = v + wraps 2^32 for the residue v of symbol 5: v mod 2^32 = (y - 1) mod 2^32,
        # yet v mod g != y - 1, since v < P < 2^32 <= y - 1 < g
        size = 300
        a = np.array([3, prime - 2, 12345], dtype=np.int64)
        b = np.array([0, 17, prime - 1], dtype=np.int64)
        v = (a * 5 + b) % prime
        ys = v + wraps * 2 ** 32 + 1
        assert (ys <= g).all()
        batch = GlhBatch(a=a, b=b, ys=ys, prime=prime, g=g)
        got = walk_masks(batch, size)
        assert np.array_equal(got, reference_masks(batch, size))
        assert not got.any()

    def test_descriptors_outside_the_modulus_match_their_residues(self):
        p, size = 13, 100
        inside = hit_batch([3, 12, 1, 7], [0, 5, 12, 9], [4, 50, 99, -1], p, 4, size)
        shifted = GlhBatch(a=inside.a + np.array([p, -p, 7 * p, -(2 ** 40) * p]),
                           b=inside.b + np.array([-p, 3 * p, -(2 ** 50) * p, p]),
                           ys=inside.ys, prime=p, g=4)
        assert np.array_equal(walk_masks(shifted, size), walk_masks(inside, size))
        assert np.array_equal(walk_masks(shifted, size), reference_masks(shifted, size))

    def test_empty_batch_counts_zero(self):
        empty = np.zeros(0, dtype=np.int64)
        batch = GlhBatch(a=empty, b=empty, ys=empty, prime=13, g=4)
        assert glh_match_chunks(batch, 10, lambda *chunk: chunk) == []
        counts = glh_counts(batch, 10)
        assert counts.shape == (10,) and not counts.any()


class TestMatchPool:
    """glh_match_chunks hands chunks to a pool of _match_workers() threads; every
    result is the same at any width, and a failing chunk stops the call cleanly."""

    SIZE, N = 200, 500

    @pytest.fixture(scope="class")
    def mech(self):
        return GeneralLocalHash.with_production_family(1.0, 8, self.SIZE)

    @pytest.fixture(scope="class")
    def batch(self, mech):
        return glh_sample_batch(mech, make_rng(4).integers(0, self.SIZE, self.N), make_rng(5))

    @pytest.fixture(scope="class")
    def table(self):
        rng = make_rng(6)
        return ProfileTable([train_profile(rng.integers(0, self.SIZE, 300), self.SIZE, owner=i)
                             for i in range(4)])

    @pytest.fixture(scope="class")
    def rows(self):
        return make_rng(7).integers(0, 4, self.N)

    @pytest.fixture(scope="class")
    def reference(self, batch, mech, table, rows):
        """Each reader's output in one chunk run inline, as the single-threaded walk gave it."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mechanisms, "_match_workers", lambda: 1)
            return (glh_counts(batch, self.SIZE), table.datum_scores(batch, mech),
                    table.datum_scores(batch, mech, rows=rows))

    @pytest.fixture(params=[1, 2, 3])
    def width(self, request, monkeypatch):
        """A pool of the given width, with chunks small enough that a batch spans many."""
        pool = ThreadPoolExecutor(request.param)
        monkeypatch.setattr(mechanisms, "_match_workers", lambda: request.param)
        monkeypatch.setattr(mechanisms, "_POOL", pool)
        monkeypatch.setattr(mechanisms, "_MATCH_CHUNK_CELLS", 3000)
        yield request.param
        pool.shutdown(wait=True)

    def test_chunks_tile_the_records_in_order(self, batch, width):
        chunk = 3000 // (self.SIZE * width)
        spans = glh_match_chunks(batch, self.SIZE, lambda lo, hi, mask: (lo, hi))
        assert spans == [(lo, min(lo + chunk, self.N)) for lo in range(0, self.N, chunk)]
        assert len(spans) > 10

    def test_readers_identical_at_any_width(self, batch, mech, table, rows, reference, width):
        assert np.array_equal(glh_counts(batch, self.SIZE), reference[0])
        assert np.array_equal(table.datum_scores(batch, mech), reference[1])
        assert np.array_equal(table.datum_scores(batch, mech, rows=rows), reference[2])

    def test_counts_lose_no_update_under_contention(self, monkeypatch):
        # one record per chunk, four workers and frequent thread switches: a count
        # update that is not locked loses some of the many concurrent ones
        size = 16
        batch = glh_sample_batch(GeneralLocalHash.with_production_family(1.0, 2, size),
                                 make_rng(8).integers(0, size, 2000), make_rng(9))
        monkeypatch.setattr(mechanisms, "_match_workers", lambda: 1)
        want = glh_counts(batch, size)
        pool = ThreadPoolExecutor(4)
        monkeypatch.setattr(mechanisms, "_match_workers", lambda: 4)
        monkeypatch.setattr(mechanisms, "_POOL", pool)
        monkeypatch.setattr(mechanisms, "_MATCH_CHUNK_CELLS", size * 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [glh_counts(batch, size) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=True)
        assert all(np.array_equal(counts, want) for counts in got)

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
    def test_forked_child_makes_its_own_pool(self, batch, reference, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(mechanisms, "_match_workers", lambda: 2)
        monkeypatch.setattr(mechanisms, "_MATCH_CHUNK_CELLS", 3000)
        monkeypatch.setattr(mechanisms, "_POOL", None)
        assert np.array_equal(glh_counts(batch, self.SIZE), reference[0])
        parent_pool = mechanisms._POOL
        try:
            # the parent's pool exists and has run; the child's first call must not wait on it
            child = multiprocessing.get_context("fork").Process(
                target=lambda: os._exit(int(not np.array_equal(glh_counts(batch, self.SIZE),
                                                               reference[0]))))
            child.start()
            child.join(timeout=30)
            alive = child.is_alive()
            if alive:
                child.kill()
            assert not alive and child.exitcode == 0
        finally:
            parent_pool.shutdown(wait=True)

    def test_failing_chunk_raises_once_every_chunk_stopped(self, batch, width):
        lock = threading.Lock()
        running, started = [0], []

        def fn(lo, hi, mask):
            with lock:
                running[0] += 1
                started.append(lo)
            try:
                time.sleep(0.002)
                if lo == 3000 // (self.SIZE * width) * 4:
                    raise RuntimeError(f"chunk at {lo} failed")
                return lo
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(RuntimeError, match="failed"):
            glh_match_chunks(batch, self.SIZE, fn)
        with lock:
            assert running[0] == 0
            count = len(started)
        time.sleep(0.05)
        assert len(started) == count  # nothing starts after the call returned

