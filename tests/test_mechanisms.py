"""Tests for the obfuscation mechanisms: randomized response, hashed
randomized response, the hash families, channel algebra, privacy audit, and
the record file round trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    integer_symbols,
    mixture_kernel,
    next_prime_above,
    postprocess,
    read_records,
    rr_kernel,
    rr_sample_batch,
    write_records,
)
from reidrisk.estimation import glh_counts
from reidrisk.probcore import CategoricalDistribution, PopulationModel, make_rng
from reidrisk.pse import harvest_scores_sparse
from reidrisk.reid import floored_pi_matrix, glh_single_datum_scores, train_profile


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
            with pytest.raises(ValueError, match="hash domain"):
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
        # epsilon = ln 3, g = 4: on-bucket 1/2, off-bucket 1/6, marginal 1/4.
        m = GeneralLocalHash(math.log(3.0), 4, CarterWegman(13, 4))
        assert math.isclose(m.mu, 0.5, rel_tol=1e-14)
        assert math.isclose(m.off_bucket, 1 / 6, rel_tol=1e-14)
        assert m.nu == 0.25
        assert math.isclose(m.theta_bucket, 1 / 3, rel_tol=1e-14)

    def test_bucket_kernel_audits_at_epsilon(self):
        m = GeneralLocalHash.with_production_family(2.5, 8, domain_size=1000)
        assert np.allclose(row_ratios(m.bucket_kernel()), math.exp(2.5), rtol=1e-9, atol=0)

    def test_family_bucket_count_must_agree(self):
        with pytest.raises(ValueError):
            GeneralLocalHash(1.0, 8, CarterWegman(13, 4))

    def test_bucket_count_beyond_int64_refused(self):
        with pytest.raises(ValueError, match="buckets"):
            GeneralLocalHash(1.0, MAX_BUCKETS + 1, CarterWegman(13, MAX_BUCKETS + 1))
        with pytest.raises(ValueError, match="buckets"):
            GeneralLocalHash.with_production_family(1.0, 10 ** 20, domain_size=8)

    def test_largest_bucket_count_samples(self):
        # an int64 g is kept as a Python int, so g + 1 = 2**63 still bounds the uniform draw
        m = GeneralLocalHash.with_production_family(0.0, np.int64(MAX_BUCKETS), domain_size=8)
        assert type(m.g) is int
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
        assert abs(on_rate - m.mu) < 5 * math.sqrt(0.25 / xs.size)

    def test_sample_batch_marginal_is_uniform(self):
        m = GeneralLocalHash.with_production_family(2.0, 5, domain_size=1000)
        batch = glh_sample_batch(m, np.full(100_000, 7), make_rng(12))
        freq = np.bincount(batch.ys, minlength=6)[1:] / len(batch)
        assert np.max(np.abs(freq - 0.2)) < 5 * math.sqrt(0.16 / 100_000) + 2 / PRODUCTION_PRIME

    def test_batch_requires_pairwise_family(self):
        # the constructor refuses any other family, so no sampler ever meets one
        with pytest.raises(ValueError, match="pairwise"):
            GeneralLocalHash(1.0, 2, ExhaustiveTable(3, 2))


class TestChannelAlgebra:
    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            MechanismKernel(2, 2, np.array([[0.5, 0.4], [0.4, 0.4]]))
        with pytest.raises(ValueError):
            MechanismKernel(2, 2, np.array([[1.2, 0.5], [-0.2, 0.5]]))

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
        mass = floored_pi_matrix(profiles) @ self.brute_masks(batch).T.astype(np.float64)
        return np.log2(mech.off_bucket + (mech.mu - mech.off_bucket) * mass).T

    def test_chunks_tile_the_records(self, batch):
        chunks = list(glh_match_chunks(batch, self.SIZE))
        assert [(lo, hi) for lo, hi, _ in chunks] == [(0, 40), (40, 80), (80, 101)]
        assert np.array_equal(np.vstack([m for _, _, m in chunks]), self.brute_masks(batch))

    def test_glh_counts(self, batch):
        want = self.brute_masks(batch).sum(axis=0)
        assert np.array_equal(glh_counts(batch, self.SIZE), want)

    def test_glh_single_datum_scores(self, batch, profiles, mech):
        got = glh_single_datum_scores(floored_pi_matrix(profiles), batch, mech)
        assert np.allclose(got, self.brute_scores(batch, profiles, mech), rtol=0, atol=1e-12)

    def test_harvest_scores_sparse(self, monkeypatch, profiles, mech):
        import reidrisk.pse as pse
        import reidrisk.reid as reid

        # record what the harvester releases and who released it
        sample_batch, sample_users = reid.glh_sample_batch, pse.sample_releases
        batches, owners = [], []

        def capture_batch(*args, **kwargs):
            batches.append(sample_batch(*args, **kwargs))
            return batches[-1]

        def capture_users(*args, **kwargs):
            us, released = sample_users(*args, **kwargs)
            owners.append(us)
            return us, released

        monkeypatch.setattr(reid, "glh_sample_batch", capture_batch)
        monkeypatch.setattr(pse, "sample_releases", capture_users)
        uniform = CategoricalDistribution.uniform(self.SIZE)
        pop = PopulationModel.single_datum(CategoricalDistribution.uniform(3), [uniform] * 3)
        sample = harvest_scores_sparse(pop, mech, profiles, self.N, self.N, make_rng(3))

        genuine = self.brute_scores(batches[0], profiles, mech)
        assert np.allclose(sample.genuine, genuine[np.arange(self.N), owners[0]],
                           rtol=0, atol=1e-12)
        # each impostor score is the release scored against some other user
        impostor = self.brute_scores(batches[1], profiles, mech)
        for score, row, owner in zip(sample.impostor, impostor, owners[1]):
            assert np.min(np.abs(np.delete(row, owner) - score)) <= 1e-12
