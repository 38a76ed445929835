"""Tests for score-separation entropy: score harvesting (dense and sparse),
the nearest-neighbor divergence estimator, and the convergence probe."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reidrisk.mechanisms import GeneralLocalHash, RandomizedResponse
from reidrisk.probcore import make_rng
from reidrisk.pse import (
    ConvergenceReport,
    KnnKlEstimate,
    ScoreSample,
    _kth_nn_distance,
    convergence_probe,
    harvest_scores,
    harvest_scores_sparse,
    knn_kl_estimate,
    pse_estimate,
)
from reidrisk.reid import ProfileTable, probe_score_trials, train_profile

# KL(N(0,1) || N(1,1)) = (1/2) log2(e), frozen from high precision.
GAUSS_SHIFT_KL_BITS = 0.7213475204444817


def clear_profiles(probes, size):
    """(probes, table) where user i's profile was trained on its own probe alone."""
    probes = np.array(probes)
    return probes, ProfileTable([train_profile([s], size, owner=i) for i, s in enumerate(probes)])


def brute_kth(queries, refs, k, self_in_refs):
    out = np.empty(len(queries))
    refs = np.asarray(refs, dtype=np.float64)
    for i, q in enumerate(np.asarray(queries, dtype=np.float64)):
        d = np.sort(np.abs(refs - q))
        if self_in_refs:
            d = d[1:]  # one zero self-distance removed
        out[i] = d[k - 1]
    return out


class TestScoreSample:
    def test_usable_requires_both_sides(self):
        assert ScoreSample(np.array([1.0]), np.array([0.0])).usable
        assert not ScoreSample(np.array([1.0]), np.array([])).usable
        assert not ScoreSample(np.array([]), np.array([0.0])).usable

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ScoreSample(np.array([np.inf]), np.array([0.0]))
        with pytest.raises(ValueError):
            ScoreSample(np.array([1.0]), np.array([np.nan]))


class TestHarvesting:
    def test_dense_counts(self):
        probes, table = clear_profiles([0, 1, 2], 3)
        sample = harvest_scores(probes, None, table, trials=40, rng=make_rng(0), meta={"tag": "x"})
        assert sample.genuine.size == 40
        assert sample.impostor.size == 40 * 2
        assert sample.meta["tag"] == "x" and sample.meta["n_users"] == 3

    def test_dense_clear_release_scores_are_exact(self):
        probes, table = clear_profiles([0, 1], 2)
        sample = harvest_scores(probes, None, table, trials=25, rng=make_rng(1))
        assert np.all(sample.genuine == 0.0)  # log2 1
        assert np.allclose(sample.impostor, math.log2(table.floor[0]))

    def test_sparse_counts_and_meta(self):
        probes, table = clear_profiles(range(4), 4)
        sample = harvest_scores_sparse(probes, None, table, 100, 300, make_rng(2))
        assert sample.genuine.size == 100 and sample.impostor.size == 300
        assert sample.meta["n_users"] == 4

    def test_sparse_clear_release_scores_are_exact(self):
        probes, table = clear_profiles([0, 1, 2], 3)
        sample = harvest_scores_sparse(probes, None, table, 50, 150, make_rng(3))
        assert np.all(sample.genuine == 0.0)
        # A uniformly chosen WRONG claimant never matches a distinct probe.
        assert np.allclose(sample.impostor, math.log2(table.floor[0]))

    def test_sparse_deterministic(self):
        probes, table = clear_profiles([0, 1, 2], 3)
        mech = RandomizedResponse(epsilon=1.0, size=3)
        s1 = harvest_scores_sparse(probes, mech, table, 64, 64, make_rng(7))
        s2 = harvest_scores_sparse(probes, mech, table, 64, 64, make_rng(7))
        assert np.array_equal(s1.genuine, s2.genuine)
        assert np.array_equal(s1.impostor, s2.impostor)

    def test_sparse_agrees_with_dense_in_law(self):
        # Same probes and mechanism: the two harvesters must estimate the
        # same divergence up to sampling noise.
        rng = make_rng(11)
        probes = rng.integers(0, 8, size=6)
        table = ProfileTable([train_profile([s, s, int(rng.integers(8))], 8, owner=i)
                              for i, s in enumerate(probes)])
        mech = RandomizedResponse(epsilon=2.0, size=8)
        dense = harvest_scores(probes, mech, table, trials=4000, rng=make_rng(12))
        sparse = harvest_scores_sparse(probes, mech, table, 4000, 20000, rng=make_rng(13))
        d = pse_estimate(dense, k=5).bits
        s = pse_estimate(sparse, k=5).bits
        assert abs(d - s) < 0.12 * max(d, s)

    def test_sparse_validation(self):
        probes, table = clear_profiles([0], 2)
        with pytest.raises(ValueError):
            harvest_scores_sparse(probes, None, table, 10, 10, make_rng(0))
        probes2, table2 = clear_profiles([0, 1], 2)
        with pytest.raises(ValueError):
            harvest_scores_sparse(probes2, None, table2, 0, 10, make_rng(0))
        with pytest.raises(ValueError):
            harvest_scores_sparse(probes2, "bogus", table2, 10, 10, make_rng(0))

    def test_sparse_rejects_trace_population(self):
        # one trace per user is not a probe array: the probes must be 1-d
        table = ProfileTable([train_profile([0, 0], 2, owner=i) for i in range(2)])
        with pytest.raises(ValueError):
            harvest_scores_sparse(np.array([[0, 0, 1], [1, 1, 0]]), None, table, 10, 10,
                                  make_rng(0))

    @pytest.mark.parametrize("n_profiles", [2, 5])
    @pytest.mark.parametrize("harvest", ["sparse", "dense", "trials"])
    def test_one_profile_per_user(self, n_profiles, harvest):
        # 2 profiles for 4 users once failed inside scipy with IndexError;
        # 5 profiles for 4 users were accepted and the fifth never claimed
        table = ProfileTable([train_profile([s % 4], 4, owner=s) for s in range(n_profiles)])
        with pytest.raises(ValueError, match="one profile per user"):
            self.call(harvest, np.arange(4), table)

    @pytest.mark.parametrize("probes", [[0, 1, 2, 4], [0, -1, 2, 3], [0, 1.5, 2, 3],
                                        [[0, 1], [2, 3]], []],
                             ids=["past_size", "negative", "fraction", "two_d", "empty"])
    @pytest.mark.parametrize("harvest", ["sparse", "dense", "trials"])
    def test_probes_are_symbols_of_the_alphabet(self, probes, harvest):
        table = ProfileTable([train_profile([s], 4, owner=s) for s in range(4)])
        with pytest.raises(ValueError):
            self.call(harvest, np.array(probes), table)

    @staticmethod
    def call(harvest, probes, table):
        mech = RandomizedResponse(1.0, 4)
        if harvest == "sparse":
            return harvest_scores_sparse(probes, mech, table, 10, 10, make_rng(0))
        if harvest == "dense":
            return harvest_scores(probes, mech, table, 10, make_rng(0))
        return probe_score_trials(probes, mech, table, 10, make_rng(0))

    def test_single_user_dense_sample_is_unusable(self):
        probes, table = clear_profiles([1], 2)
        sample = harvest_scores(probes, None, table, trials=5, rng=make_rng(0))
        assert not sample.usable
        with pytest.raises(ValueError):
            pse_estimate(sample)


# floats with frequent exact ties
SCORES = st.one_of(st.floats(-100, 100), st.integers(-3, 3).map(float))


class TestKthNeighborDistance:
    # k reaches the sample size, so some reference sets are exactly one window wide
    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(SCORES, min_size=1, max_size=40),
        st.lists(SCORES, min_size=1, max_size=40),
        st.integers(1, 12),
    )
    def test_cross_matches_brute_force(self, qs, rs, k):
        k = min(k, len(rs))
        queries = np.sort(np.asarray(qs))
        refs = np.sort(np.asarray(rs))
        got = _kth_nn_distance(queries, refs, k, self_in_refs=False)
        want = brute_kth(queries, refs, k, self_in_refs=False)
        assert np.array_equal(got, want)

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(SCORES, min_size=2, max_size=40),
        st.integers(1, 12),
    )
    def test_self_matches_brute_force(self, vs, k):
        k = min(k, len(vs) - 1)
        arr = np.sort(np.asarray(vs))
        got = _kth_nn_distance(arr, arr, k, self_in_refs=True)
        want = brute_kth(arr, arr, k, self_in_refs=True)
        assert np.array_equal(got, want)

    def test_large_seeded_case(self):
        rng = make_rng(63)
        queries = np.sort(rng.normal(size=2000))
        refs = np.sort(rng.normal(0.5, 1.5, size=3000))
        got = _kth_nn_distance(queries, refs, 63, self_in_refs=False)
        assert np.array_equal(got, brute_kth(queries, refs, 63, self_in_refs=False))
        got = _kth_nn_distance(refs, refs, 63, self_in_refs=True)
        assert np.array_equal(got, brute_kth(refs, refs, 63, self_in_refs=True))


class TestDivergenceEstimator:
    def test_shifted_gaussians_match_closed_form(self):
        rng = make_rng(2024)
        p = rng.normal(0.0, 1.0, 20_000)
        q = rng.normal(1.0, 1.0, 20_000)
        est = knn_kl_estimate(p, q, k=5)
        assert abs(est.bits - GAUSS_SHIFT_KL_BITS) < 0.08 * GAUSS_SHIFT_KL_BITS
        assert est.n_p == est.n_q == 20_000 and est.k == 5

    def test_same_law_estimates_near_zero(self):
        rng = make_rng(77)
        p = rng.normal(0.0, 1.0, 20_000)
        q = rng.normal(0.0, 1.0, 20_000)
        est = knn_kl_estimate(p, q, k=5)
        assert abs(est.raw_bits) < 0.05
        assert est.bits >= 0.0

    def test_reported_bits_never_negative(self):
        est = KnnKlEstimate(bits=0.0, raw_bits=-0.01, k=5, n_p=10, n_q=10)
        assert est.below_noise_floor
        assert KnnKlEstimate(bits=0.2, raw_bits=0.2, k=5, n_p=10, n_q=10).below_noise_floor is False

    def test_duplicate_heavy_samples_are_handled_deterministically(self):
        rng = make_rng(5)
        p = rng.integers(0, 4, size=400).astype(float)
        q = rng.integers(0, 4, size=400).astype(float)
        a = knn_kl_estimate(p, q, k=3, jitter_seed=42)
        b = knn_kl_estimate(p, q, k=3, jitter_seed=42)
        assert a.raw_bits == b.raw_bits
        c = knn_kl_estimate(p, q, k=3, jitter_seed=43)
        assert abs(c.raw_bits - a.raw_bits) < 0.05

    def test_fully_degenerate_samples_still_finite(self):
        est = knn_kl_estimate(np.zeros(30), np.zeros(30), k=3)
        assert math.isfinite(est.raw_bits)

    def test_validation(self):
        with pytest.raises(ValueError):
            knn_kl_estimate(np.arange(10.0), np.arange(10.0), k=0)
        with pytest.raises(ValueError):
            knn_kl_estimate(np.arange(5.0), np.arange(10.0), k=5)  # need k+1 p-samples
        with pytest.raises(ValueError):
            knn_kl_estimate(np.arange(10.0), np.arange(4.0), k=5)  # need k q-samples

    def test_separated_supports_give_large_positive(self):
        rng = make_rng(8)
        p = rng.normal(0.0, 0.1, 2000)
        q = rng.normal(10.0, 0.1, 2000)
        assert knn_kl_estimate(p, q, k=5).bits > 5.0


class TestConvergenceProbe:
    def _gauss_sample(self, n=20_000):
        rng = make_rng(31)
        return ScoreSample(rng.normal(0.0, 1.0, n), rng.normal(1.0, 1.0, 3 * n))

    def test_points_grow_and_stabilize(self):
        rep = convergence_probe(self._gauss_sample(), fractions=(0.25, 0.5, 1.0), k=5, seed=3)
        assert len(rep.points) == 3
        ns = [p.n_genuine for p in rep.points]
        assert ns == sorted(ns) and ns[-1] == 20_000
        assert rep.stable

    def test_deterministic_per_seed(self):
        s = self._gauss_sample(4000)
        a = convergence_probe(s, (0.5, 1.0), seed=9)
        b = convergence_probe(s, (0.5, 1.0), seed=9)
        assert [p.bits for p in a.points] == [p.bits for p in b.points]

    def test_absolute_gate_covers_indistinguishable_laws(self):
        # Evenly spaced interleaved scores: the estimator lands slightly
        # negative, both prefixes clamp to 0 bits, and the absolute
        # 0.005-bit gate marks the (flat) sequence stable.
        gen = np.arange(2000, dtype=np.float64)
        imp = np.arange(2000, dtype=np.float64) + 0.5
        rep = convergence_probe(ScoreSample(gen, imp), (0.5, 1.0), k=5, seed=1)
        assert all(p.bits == 0.0 for p in rep.points)
        assert rep.stable

    def test_fraction_validation(self):
        s = self._gauss_sample(1000)
        with pytest.raises(ValueError):
            convergence_probe(s, ())
        with pytest.raises(ValueError):
            convergence_probe(s, (0.0, 1.0))
        with pytest.raises(ValueError):
            convergence_probe(s, (0.5, 1.5))

    def test_single_fraction_is_stable_by_convention(self):
        rep = convergence_probe(self._gauss_sample(2000), (1.0,), seed=0)
        assert len(rep.points) == 1 and rep.stable
