"""Tests for frequency estimation under obfuscation: debiasing, significance
thresholding, utility metrics, and the closed-form expected squared errors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reidrisk.estimation import (
    apply_significance_threshold,
    estimate_glh,
    estimate_rr,
    expected_l2_glh,
    expected_l2_glh_limit,
    expected_l2_glh_theta,
    expected_l2_rr,
    glh_counts,
    glh_null_variance,
    l2_and_relative_error,
    rr_null_variance,
    FrequencyEstimate,
)
from reidrisk.bounds import mi_loss_glh
from reidrisk.mechanisms import (
    GeneralLocalHash,
    GlhBatch,
    RandomizedResponse,
    RrBatch,
    glh_sample_batch,
    rr_sample_batch,
)
from reidrisk.probcore import make_rng

# Standard-normal upper quantile at 0.05/100, frozen from high precision.
Z_UNION_100 = 3.2905267314918948


class TestRrEstimator:
    def test_exact_inversion_on_expected_counts(self):
        # eps = ln 3, size 4: keep 1/2, leak 1/6, shrink 1/3. Feeding counts
        # exactly equal to n * (leak + shrink * p) must return p exactly.
        p = np.array([0.5, 0.25, 0.125, 0.125])
        counts = 24 * (1 / 6 + (1 / 3) * p)  # = (8, 6, 5, 5)
        assert np.allclose(counts, np.round(counts))
        ys = np.repeat(np.arange(4), counts.astype(int))
        est = estimate_rr(RrBatch(ys=ys), math.log(3.0), 4)
        assert np.allclose(est.p_hat, p, atol=1e-12)
        assert est.n == 24 and np.array_equal(est.counts, counts)

    def test_infinite_epsilon_is_passthrough(self):
        est = estimate_rr(RrBatch(ys=np.array([0, 0, 1, 2])), math.inf, 3)
        assert np.allclose(est.p_hat, [0.5, 0.25, 0.25])

    def test_negative_estimates_are_preserved(self):
        # A symbol that never appears gets a negative debiased estimate.
        est = estimate_rr(RrBatch(ys=np.zeros(100, dtype=np.int64)), 1.0, 4)
        assert est.p_hat[1] < 0
        assert not est.thresholded

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_rr(RrBatch(ys=np.array([0])), 0.0, 4)
        with pytest.raises(ValueError):
            estimate_rr(RrBatch(ys=np.array([], dtype=np.int64)), 1.0, 4)
        with pytest.raises(ValueError):
            estimate_rr(RrBatch(ys=np.array([4])), 1.0, 4)
        with pytest.raises(ValueError, match="symbols must be integers"):
            estimate_rr(RrBatch(ys=np.array([1.0, 0.5])), 1.0, 4)

    def test_unbiased_at_moderate_scale(self):
        # Fixed inputs, one seeded mechanism pass; deviations stay within
        # 4 standard errors given by the closed-form variance.
        p = np.array([0.4, 0.3, 0.2, 0.1])
        n = 20_000
        xs = np.repeat(np.arange(4), (n * p).astype(int))
        eps = 1.0
        batch = rr_sample_batch(RandomizedResponse(eps, 4), xs, make_rng(99))
        est = estimate_rr(batch, eps, 4)
        for x in range(4):
            sd = math.sqrt(expected_l2_rr(eps, 4, n, p[x]))
            assert abs(est.p_hat[x] - p[x]) < 4 * sd


class TestGlhEstimator:
    def test_counts_match_brute_force(self):
        rng = make_rng(17)
        prime, g, size, n = 13, 3, 7, 40
        a = rng.integers(1, prime, size=n)
        b = rng.integers(0, prime, size=n)
        ys = rng.integers(1, g + 1, size=n)
        batch = GlhBatch(a=a, b=b, ys=ys, prime=prime, g=g)
        got = glh_counts(batch, size)
        want = np.zeros(size)
        for i in range(n):
            for x in range(size):
                if ((a[i] * x + b[i]) % prime) % g + 1 == ys[i]:
                    want[x] += 1
        assert np.array_equal(got, want)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_counts_match_brute_force_randomized(self, seed, g):
        rng = make_rng(seed)
        prime, size, n = 31, 6, 25
        batch = GlhBatch(
            a=rng.integers(1, prime, size=n),
            b=rng.integers(0, prime, size=n),
            ys=rng.integers(1, g + 1, size=n),
            prime=prime,
            g=g,
        )
        got = glh_counts(batch, size)
        want = np.array([
            sum(1 for i in range(n)
                if ((batch.a[i] * x + batch.b[i]) % prime) % g + 1 == batch.ys[i])
            for x in range(size)
        ])
        assert np.array_equal(got, want)

    def test_debias_formula(self):
        # With counts c and n records, p_hat = (c/n - 1/g) / (mu - 1/g).
        mech = GeneralLocalHash.with_production_family(math.log(3.0), 4, domain_size=6)
        batch = glh_sample_batch(mech, np.zeros(500, dtype=np.int64), make_rng(5))
        est = estimate_glh(batch, math.log(3.0), 6)
        counts = glh_counts(batch, 6)
        contrast = mech.bucket.mu - 1.0 / 4
        assert np.allclose(est.p_hat, (counts / 500 - 0.25) / contrast, atol=1e-12)

    def test_bucket_range_validated(self):
        batch = GlhBatch(a=np.array([1]), b=np.array([0]), ys=np.array([5]), prime=13, g=4)
        with pytest.raises(ValueError):
            glh_counts(batch, 4)

    def test_unbiased_at_moderate_scale(self):
        p = np.array([0.4, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0])
        n, eps, g = 30_000, math.log(3.0), 4
        xs = np.repeat(np.arange(8), (n * p).astype(int))
        mech = GeneralLocalHash.with_production_family(eps, g, domain_size=8)
        batch = glh_sample_batch(mech, xs, make_rng(41))
        est = estimate_glh(batch, eps, 8)
        for x in range(8):
            sd = math.sqrt(expected_l2_glh(eps, g, n, p[x]))
            assert abs(est.p_hat[x] - p[x]) < 4 * sd


# e^-epsilon rounds to 1 (from about 5e-17 down), and the channel's contrast to 0
VANISHING_EPSILON = 1e-17


class TestNonInvertibleBudgets:
    """Every estimator and closed form refuses a budget whose contrast is zero or not a
    number: 0, one so small that e^-epsilon rounds to 1, NaN, and a negative one."""

    GLH_BATCH = GlhBatch(a=np.array([3]), b=np.array([5]), ys=np.array([2]), prime=13, g=4)
    CALLS = {
        "estimate_rr": lambda eps: estimate_rr(RrBatch(ys=np.array([0, 1, 1])), eps, 4),
        "estimate_glh": lambda eps: estimate_glh(TestNonInvertibleBudgets.GLH_BATCH, eps, 4),
        "expected_l2_rr": lambda eps: expected_l2_rr(eps, 8, 100, 0.1),
        "expected_l2_glh": lambda eps: expected_l2_glh(eps, 4, 100, 0.1),
        "rr_null_variance": lambda eps: rr_null_variance(eps, 8, 100),
        "glh_null_variance": lambda eps: glh_null_variance(eps, 4, 100),
    }

    @pytest.mark.parametrize("epsilon", [0.0, VANISHING_EPSILON, math.nan, -1.0, -1000.0],
                             ids=["zero", "vanishing", "nan", "negative", "overflowing"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused(self, call, epsilon):
        with pytest.raises(ValueError, match="non-invertible|epsilon must be >= 0"):
            self.CALLS[call](epsilon)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_smallest_budget_with_a_contrast_is_kept(self, call):
        eps = 2.0 ** -52  # e^-epsilon is a double just below 1
        assert np.all(np.isfinite(self.CALLS[call](eps).p_hat if call.startswith("estimate")
                                  else self.CALLS[call](eps)))


class TestSignificanceThreshold:
    def test_strictly_above_cutoff_survives(self):
        from statistics import NormalDist

        null_var = 1e-4
        z = NormalDist().inv_cdf(1 - 0.05 / 3)
        cutoff = z * 0.01
        est = FrequencyEstimate(
            size=3,
            p_hat=np.array([0.5, cutoff, -0.2]),
            counts=np.zeros(3),
            n=100,
        )
        out = apply_significance_threshold(est, null_var, 0.05)
        assert out.p_hat[0] == 0.5  # kept untouched, not renormalized
        assert out.p_hat[1] == 0.0  # equal to the cutoff: zeroed
        assert out.p_hat[2] == 0.0  # negative: zeroed
        assert out.thresholded and math.isclose(out.threshold, cutoff, rel_tol=1e-12)

    def test_union_bound_quantile_frozen(self):
        # size 100, level 0.05: cutoff = 3.29052673... * sqrt(null variance)
        est = FrequencyEstimate(size=100, p_hat=np.zeros(100), counts=np.zeros(100), n=10)
        out = apply_significance_threshold(est, 4.0, 0.05)
        assert math.isclose(out.threshold, Z_UNION_100 * 2.0, rel_tol=1e-12)

    def test_level_below_float_resolution_keeps_nothing(self):
        # 1 - 1e-300 / 4 rounds to 1.0, whose quantile is +inf: every estimate is zeroed
        est = FrequencyEstimate(size=4, p_hat=np.array([1.0, 0.5, 0.0, -0.5]),
                                counts=np.zeros(4), n=10)
        out = apply_significance_threshold(est, 1e-4, 1e-300)
        assert out.threshold == math.inf and not out.p_hat.any()

    @pytest.mark.parametrize("level", [0.05, 1e-300], ids=["finite_z", "infinite_z"])
    def test_zero_null_variance_keeps_positive_estimates(self, level):
        # RR at an infinite budget has null variance 0: cutoff 0, never z * 0 = nan at z = inf
        est = FrequencyEstimate(size=4, p_hat=np.array([0.75, 0.25, 0.0, -0.5]),
                                counts=np.zeros(4), n=4)
        out = apply_significance_threshold(est, rr_null_variance(math.inf, 4, 4), level)
        assert out.threshold == 0.0
        assert np.array_equal(out.p_hat, [0.75, 0.25, 0.0, 0.0])

    def test_validation(self):
        est = FrequencyEstimate(size=2, p_hat=np.zeros(2), counts=np.zeros(2), n=1)
        with pytest.raises(ValueError):
            apply_significance_threshold(est, 1.0, 0.0)
        for bad in (-1e-12, math.nan):
            with pytest.raises(ValueError, match="null variance"):
                apply_significance_threshold(est, bad, 0.05)

    def test_null_variance_is_zero_probability_error(self):
        assert rr_null_variance(1.0, 8, 100) == expected_l2_rr(1.0, 8, 100, 0.0)
        assert glh_null_variance(1.0, 8, 100) == expected_l2_glh(1.0, 8, 100, 0.0)


class TestUtilityMetrics:
    def test_hand_case(self):
        p_true = np.array([0.5, 0.3, 0.2, 0.0])
        p_hat = np.array([0.4, 0.4, 0.1, 0.1])
        rep = l2_and_relative_error(p_true, p_hat, phi=2)
        assert np.array_equal(rep.top_symbols, [0, 1])
        assert math.isclose(rep.l2_sum, 0.02, rel_tol=1e-12)
        assert math.isclose(rep.mean_relative_error, (0.2 + 1 / 3) / 2, rel_tol=1e-12)
        assert rep.excluded_symbols.size == 0

    def test_zero_probability_symbols_excluded(self):
        p_true = np.array([0.6, 0.4, 0.0])
        p_hat = np.array([0.6, 0.4, 0.2])
        rep = l2_and_relative_error(p_true, p_hat, phi=3)
        assert np.array_equal(rep.excluded_symbols, [2])
        # The squared error still counts the excluded symbol's miss.
        assert math.isclose(rep.l2_sum, 0.04, rel_tol=1e-12)
        assert rep.mean_relative_error == 0.0

    def test_all_zero_top_gives_none(self):
        rep = l2_and_relative_error(np.zeros(3), np.array([0.1, 0.0, 0.0]), phi=2)
        assert rep.mean_relative_error is None

    def test_ties_break_by_symbol_index(self):
        p_true = np.array([0.3, 0.4, 0.3])
        rep = l2_and_relative_error(p_true, p_true, phi=2)
        assert np.array_equal(rep.top_symbols, [1, 0])

    def test_phi_validation(self):
        with pytest.raises(ValueError):
            l2_and_relative_error(np.ones(3) / 3, np.ones(3) / 3, phi=0)
        with pytest.raises(ValueError):
            l2_and_relative_error(np.ones(3) / 3, np.ones(3) / 3, phi=4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            l2_and_relative_error(np.ones(3) / 3, np.ones(4) / 4, phi=1)


class TestClosedFormErrors:
    def test_rr_frozen_hand_value(self):
        # eps = ln 3, size 8, n = 1e5, p = 1/4:
        # (8+3-2)/(1e5 * 4) + 0.25 * 6/(1e5 * 2) = 2.25e-5 + 7.5e-6 = 3e-5.
        assert math.isclose(expected_l2_rr(math.log(3.0), 8, 10**5, 0.25), 3e-5, rel_tol=1e-12)

    def test_glh_frozen_hand_value(self):
        # eps = ln 3, g = 4, n = 1e5, p = 1/4:
        # 36/(1e5*4*3) + 0.25*(16-8-3+1)/(1e5*2*3) = 3e-5 + 2.5e-6.
        assert math.isclose(
            expected_l2_glh(math.log(3.0), 4, 10**5, 0.25), 3.25e-5, rel_tol=1e-12
        )

    @settings(deadline=None, max_examples=60)
    @given(st.floats(0.05, 12.0), st.integers(2, 10**6), st.floats(0.0, 1.0))
    def test_glh_theta_form_matches_epsilon_form(self, eps, g, p):
        theta = mi_loss_glh(eps, g)
        a = expected_l2_glh(eps, g, 1000, p)
        b = expected_l2_glh_theta(theta, g, 1000, p)
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-18)

    def test_large_epsilon_stays_finite(self):
        v = expected_l2_rr(800.0, 100, 1000, 0.5)
        assert v == 0.0  # perfect channel: no estimation error

    def test_limit_matches_large_g(self):
        theta, n, p = 0.5, 10**4, 0.3
        near = expected_l2_glh_theta(theta, 10**9, n, p)
        lim = expected_l2_glh_limit(theta, n, p)
        assert math.isclose(near, lim, rel_tol=1e-4)

    def test_monotone_decreasing_in_g(self):
        theta, n, p = 0.5, 10**4, 0.3
        vals = [expected_l2_glh_theta(theta, g, n, p) for g in (2, 4, 64, 1024, 10**6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > expected_l2_glh_limit(theta, n, p) for v in vals)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_l2_rr(0.0, 8, 100, 0.1)
        with pytest.raises(ValueError):
            expected_l2_rr(1.0, 8, 100, 1.5)
        with pytest.raises(ValueError):
            expected_l2_glh(1.0, 1, 100, 0.1)
        with pytest.raises(ValueError):
            expected_l2_glh_theta(1.0, 4, 100, 0.1)
        with pytest.raises(ValueError):
            expected_l2_glh_limit(0.0, 100, 0.1)
