"""Tests for the information-disclosure bounds: shrink factors, per-release
budgets, identification-error floors, and the composed report object."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reidrisk.bounds import (
    AlphaBudget,
    FanoBound,
    alpha_for_target_bayes_error,
    bound_report,
    epsilon_for_theta,
    fano_lower_bound,
    glh_utility_optimal_g,
    mi_loss_glh,
    mi_loss_rr,
    pie_bound_composed,
    pie_bound_glh,
    pie_bound_ldp,
    pie_bound_rr,
)
from reidrisk.oracle import SmallInstance, exact_pie
from reidrisk.probcore import CategoricalDistribution, entropy, mutual_information

# A population / alphabet scale used throughout: about 1.37 million users
# releasing symbols from a 10.5-million-point domain.
N_USERS = 1_370_637
DOMAIN = 10_500_393

mp.mp.dps = 50


def mp_theta_rr(eps: float, k: int) -> float:
    """High-precision shrink factor (e^eps - 1) / (k + e^eps - 1)."""
    e = mp.e ** mp.mpf(eps)
    return float((e - 1) / (k + e - 1))


def mp_alpha_ldp(eps: float, n: int, size: int) -> float:
    e = mp.mpf(eps)
    return float(min(e * mp.log(2, 2) / mp.log(2), e * e / mp.log(2), mp.log(n, 2), mp.log(size, 2)))


class TestShrinkFactors:
    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_rr_matches_high_precision(self, eps):
        assert math.isclose(mi_loss_rr(eps, DOMAIN), mp_theta_rr(eps, DOMAIN), rel_tol=1e-12)

    def test_rr_frozen_values(self):
        assert math.isclose(mi_loss_rr(0.1, DOMAIN), 1.001590293070611e-08, rel_tol=1e-9)
        assert math.isclose(mi_loss_rr(1.0, DOMAIN), 1.6363973684412183e-07, rel_tol=1e-9)
        assert math.isclose(mi_loss_rr(10.0, DOMAIN), 2.0931942467793721e-03, rel_tol=1e-9)

    def test_glh_frozen_value(self):
        # g = 1e8 buckets at eps = 10.
        assert math.isclose(mi_loss_glh(10.0, 10**8), 2.2020615651638559e-04, rel_tol=1e-9)

    def test_glh_equals_rr_on_buckets(self):
        for eps, g in ((0.5, 4), (2.0, 64), (8.0, 1024)):
            assert math.isclose(mi_loss_glh(eps, g), mi_loss_rr(eps, g), rel_tol=1e-14)

    @settings(deadline=None, max_examples=60)
    @given(st.floats(1e-4, 30.0), st.integers(2, 10**6))
    def test_rr_shrink_in_unit_interval(self, eps, k):
        th = mi_loss_rr(eps, k)
        assert 0.0 < th < 1.0

    def test_shrink_limits(self):
        assert mi_loss_rr(0.0, 100) == 0.0
        assert mi_loss_rr(math.inf, 100) == 1.0

    @settings(deadline=None, max_examples=60)
    @given(st.floats(1e-5, 0.999), st.integers(2, 10**6))
    def test_epsilon_for_theta_roundtrip(self, theta, k):
        eps = epsilon_for_theta(theta, k)
        assert math.isclose(mi_loss_rr(eps, k), theta, rel_tol=1e-9)

    def test_epsilon_for_theta_closed_form(self):
        # theta = 1/2, k = 4: eps = ln(1 + 0.5 * 4 / 0.5) = ln 5.
        assert math.isclose(epsilon_for_theta(0.5, 4), math.log(5.0), rel_tol=1e-14)

    def test_epsilon_for_theta_validation(self):
        assert epsilon_for_theta(0.0, 4) == 0.0
        with pytest.raises(ValueError):
            epsilon_for_theta(1.0, 4)
        with pytest.raises(ValueError):
            epsilon_for_theta(-0.1, 4)


class TestPerReleaseBudgets:
    def test_ldp_branch_small_eps_is_quadratic(self):
        # eps = 0.1: the eps^2 branch wins: 0.01 * log2(e).
        want = 0.01 / math.log(2.0)
        assert math.isclose(pie_bound_ldp(0.1, N_USERS, DOMAIN), want, rel_tol=1e-12)

    def test_ldp_branch_unit_eps(self):
        want = 1.0 / math.log(2.0)
        assert math.isclose(pie_bound_ldp(1.0, N_USERS, DOMAIN), want, rel_tol=1e-12)

    def test_ldp_branch_large_eps_is_linear(self):
        want = 10.0 / math.log(2.0)
        assert math.isclose(pie_bound_ldp(10.0, N_USERS, DOMAIN), want, rel_tol=1e-12)

    def test_ldp_caps_at_log_population(self):
        assert pie_bound_ldp(1000.0, 1024, DOMAIN) == 10.0

    def test_ldp_caps_at_log_domain(self):
        assert pie_bound_ldp(1000.0, N_USERS, 4) == 2.0

    def test_ldp_matches_high_precision(self):
        for eps in (0.1, 1.0, 10.0):
            assert math.isclose(
                pie_bound_ldp(eps, N_USERS, DOMAIN), mp_alpha_ldp(eps, N_USERS, DOMAIN), rel_tol=1e-12
            )

    def test_rr_budget_frozen_values(self):
        assert math.isclose(pie_bound_rr(0.1, N_USERS, DOMAIN), 2.0418835481829825e-07, rel_tol=1e-9)
        assert math.isclose(pie_bound_rr(1.0, N_USERS, DOMAIN), 3.3360276033291089e-06, rel_tol=1e-9)
        assert math.isclose(pie_bound_rr(10.0, N_USERS, DOMAIN), 4.2672726814743136e-02, rel_tol=1e-9)

    def test_rr_budget_is_shrink_times_log(self):
        eps = 3.0
        want = mi_loss_rr(eps, DOMAIN) * min(math.log2(N_USERS), math.log2(DOMAIN))
        assert math.isclose(pie_bound_rr(eps, N_USERS, DOMAIN), want, rel_tol=1e-13)

    def test_glh_budget_frozen_value(self):
        assert math.isclose(pie_bound_glh(10.0, 10**8, N_USERS, DOMAIN), 4.4892141158931521e-03, rel_tol=1e-9)

    def test_rr_budget_never_exceeds_generic(self):
        # The symbol-level mechanism bound is uniformly tighter because the
        # shrink factor carries the huge domain in its denominator. The
        # hashed bound is NOT comparable in general (few buckets at large
        # epsilon saturate toward log2 n), so the usable budget is the min.
        for eps in (0.05, 0.5, 2.0, 6.0, 12.0):
            assert pie_bound_rr(eps, N_USERS, DOMAIN) <= pie_bound_ldp(eps, N_USERS, DOMAIN) + 1e-12

    def test_composition_is_linear(self):
        assert pie_bound_composed(0.25, 8) == 2.0
        with pytest.raises(ValueError):
            pie_bound_composed(0.25, 0)

    @pytest.mark.parametrize("alpha", [math.nan, np.float64(math.nan), np.array([0.5, math.nan])])
    def test_nan_alpha_is_refused(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be >= 0$"):
            pie_bound_composed(alpha, 2)


# budgets spanning every branch of the caps: 0, the quadratic and linear
# branches, the log-size plateau and an unbounded budget
BUDGETS = np.array([0.0, 1e-3, 0.3, 1.0, 1.7, 4.9, 12.0, 700.0, math.inf])


def same_bits(array, scalars) -> bool:
    """Whether the array holds, bit for bit, the floats of the scalar calls."""
    return np.array([float(v) for v in scalars]).tobytes() == np.asarray(array, dtype=float).tobytes()


class TestBroadcastBudgets:
    """Each function over an array of budgets gives, entry by entry, its scalar value."""

    @pytest.mark.parametrize("n,size,g", [(2, 2, 2), (5, 3, 3), (8, 8, 3), (N_USERS, DOMAIN, 4)])
    def test_arrays_give_the_scalar_values(self, n, size, g):
        for f, args in ((mi_loss_rr, (size,)), (mi_loss_glh, (g,)), (pie_bound_ldp, (n, size)),
                        (pie_bound_rr, (n, size)), (pie_bound_glh, (g, n, size))):
            assert same_bits(f(BUDGETS, *args), [f(float(e), *args) for e in BUDGETS]), f.__name__
        alphas = pie_bound_rr(BUDGETS, n, size)
        assert same_bits(pie_bound_composed(alphas, 3), [pie_bound_composed(a, 3) for a in alphas])

    def test_fano_arrays_give_the_scalar_bounds(self):
        info = np.array([0.0, 0.25, 1.0, 2.5, 9.0])
        betas = np.array([0.1, 0.3, 0.5, 0.77, 0.999])
        for kwargs, scalar in (({"n": 7}, lambda i, _: fano_lower_bound(i, n=7)),
                               ({"prior_bayes_error": betas},
                                lambda i, b: fano_lower_bound(i, prior_bayes_error=b))):
            got = fano_lower_bound(info, **kwargs)
            want = [scalar(float(i), float(b)) for i, b in zip(info, betas)]
            for field in ("raw", "value", "vacuous"):
                assert same_bits(getattr(got, field), [getattr(w, field) for w in want]), field

    @pytest.mark.parametrize("f", [mi_loss_rr, pie_bound_ldp, pie_bound_rr])
    def test_an_array_with_a_nan_budget_is_refused(self, f):
        with pytest.raises(ValueError, match="epsilon (must be )?>= 0"):
            f(np.array([1.0, math.nan]), *((4, 4) if f is not mi_loss_rr else (4,)))


class TestFano:
    def test_uniform_prior_formula(self):
        # 1024 equally likely users, 1 bit disclosed: error >= 1 - 2/10.
        b = fano_lower_bound(1.0, n=1024)
        assert math.isclose(b.value, 0.8, rel_tol=1e-14)
        assert not b.vacuous

    def test_general_prior_formula(self):
        # Prior Bayes error 3/4 means max prior mass 1/4: with zero bits
        # disclosed the floor is 1 - 1/log2(4) = 1/2.
        b = fano_lower_bound(0.0, prior_bayes_error=0.75)
        assert math.isclose(b.value, 0.5, rel_tol=1e-14)

    def test_clamps_to_zero_and_flags_vacuous(self):
        b = fano_lower_bound(25.0, n=1024)
        assert b.value == 0.0 and b.vacuous and b.raw < 0

    def test_numpy_scalar_input_stays_json_clean(self):
        b = fano_lower_bound(np.float64(2.0), n=256)
        blob = json.dumps({"vacuous": b.vacuous, "value": b.value})
        assert "vacuous" in blob

    def test_pseudonymized_release_floor(self):
        # 256 users behind a pseudonym and no information: error >= 7/8.
        assert fano_lower_bound(0.0, n=256).value == 0.875

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            fano_lower_bound(1.0)
        with pytest.raises(ValueError):
            fano_lower_bound(1.0, n=8, prior_bayes_error=0.5)
        with pytest.raises(ValueError):
            fano_lower_bound(-0.1, n=8)
        with pytest.raises(ValueError):
            fano_lower_bound(1.0, n=1)

    @pytest.mark.parametrize("info", [math.nan, np.float64(math.nan), np.array([1.0, math.nan])])
    def test_nan_information_is_refused(self, info):
        with pytest.raises(ValueError, match="^information must be >= 0 bits$"):
            fano_lower_bound(info, n=4)
        with pytest.raises(ValueError, match="^information must be >= 0 bits$"):
            fano_lower_bound(info, prior_bayes_error=0.5)

    @settings(deadline=None, max_examples=60)
    @given(st.floats(0.0, 40.0), st.integers(2, 10**7))
    def test_floor_is_a_probability(self, info, n):
        b = fano_lower_bound(info, n=n)
        assert 0.0 <= b.value < 1.0

    def test_alpha_for_target_frozen(self):
        a = alpha_for_target_bayes_error(0.8, n=10**6)
        assert math.isclose(a.value, 2.986313713864835, rel_tol=1e-12)
        assert a.achievable

    def test_alpha_for_target_inverts_fano(self):
        a = alpha_for_target_bayes_error(0.9, n=10**4)
        b = fano_lower_bound(a.value, n=10**4)
        assert math.isclose(b.value, 0.9, rel_tol=1e-12)

    def test_alpha_for_target_unachievable(self):
        # With 2 users, beta > 1 - 1/log2(2) = 0 cannot be certified this way
        # once the +1 slack eats the whole budget.
        a = alpha_for_target_bayes_error(0.96, n=2)
        assert not a.achievable and a.value < 0

    def test_alpha_for_target_validation(self):
        with pytest.raises(ValueError):
            alpha_for_target_bayes_error(1.2, n=100)
        with pytest.raises(ValueError):
            alpha_for_target_bayes_error(0.5)


class TestUtilityOptimalBuckets:
    def test_closed_form(self):
        assert glh_utility_optimal_g(math.log(3.0)) == 4.0

    @settings(deadline=None, max_examples=40)
    @given(st.floats(0.01, 12.0))
    def test_matches_exponential(self, eps):
        assert math.isclose(glh_utility_optimal_g(eps), math.exp(eps) + 1.0, rel_tol=1e-12)


class TestDataProcessingCap:
    # I(U;X) caps the identity information of any release computed from X alone
    def test_cap_bounds_identity_information(self):
        prior = np.array([0.2, 0.5, 0.3])
        cond = np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1], [0.25, 0.25, 0.25, 0.25]])
        joint = prior[:, None] * cond
        h_x = entropy(CategoricalDistribution(4, joint.sum(axis=0)))
        assert mutual_information(joint) <= min(math.log2(3), math.log2(4), h_x) + 1e-12

    def test_cap_dominates_obfuscated_disclosure(self):
        # Any channel on X can only lose information about U.
        from reidrisk.mechanisms import rr_kernel

        prior, cond = np.full(3, 1 / 3), np.eye(3)
        inst_rr = SmallInstance(prior, cond, rr_kernel(1.0, 3))
        i_ux = mutual_information(prior[:, None] * cond)
        assert exact_pie(inst_rr) <= i_ux + 1e-12


class TestBoundReport:
    def test_requires_exactly_one_of_epsilon_theta(self):
        with pytest.raises(ValueError):
            bound_report(100, 8)
        with pytest.raises(ValueError):
            bound_report(100, 8, epsilon=1.0, theta=0.5)

    def test_theta_is_converted_to_epsilon(self):
        by_theta = bound_report(N_USERS, DOMAIN, theta=0.5)
        assert math.isclose(mi_loss_rr(by_theta.epsilon, DOMAIN), 0.5, rel_tol=1e-9)

    def test_frozen_table(self):
        rep = bound_report(N_USERS, DOMAIN, epsilon=10.0, g=10**8)
        assert math.isclose(rep.alpha_ldp, 14.426950408889634, rel_tol=1e-9)
        assert math.isclose(rep.theta_rr, 2.0931942467793721e-03, rel_tol=1e-9)
        assert math.isclose(rep.alpha_rr, 4.2672726814743136e-02, rel_tol=1e-9)
        assert math.isclose(rep.theta_glh, 2.2020615651638559e-04, rel_tol=1e-9)
        assert math.isclose(rep.alpha_glh, 4.4892141158931521e-03, rel_tol=1e-9)

    def test_fano_entries_cover_all_budgets(self):
        rep = bound_report(N_USERS, DOMAIN, epsilon=1.0, g=64)
        assert set(rep.fano) == {"ldp", "rr", "glh"}
        for entry in rep.fano.values():
            assert set(entry) == {"raw", "value", "vacuous"}
            assert 0.0 <= entry["value"] < 1.0

    def test_fano_orders_with_budgets(self):
        rep = bound_report(N_USERS, DOMAIN, epsilon=1.0)
        # Smaller disclosure budget gives a larger error floor.
        assert rep.alpha_rr <= rep.alpha_ldp
        assert rep.fano["rr"]["value"] >= rep.fano["ldp"]["value"]

    def test_beta_min_plumbing(self):
        rep = bound_report(10**6, 100, epsilon=1.0, beta_min=0.8)
        assert math.isclose(rep.alpha_max_for_beta_min, 2.986313713864835, rel_tol=1e-12)
        assert rep.alpha_max_achievable

    def test_to_dict_is_json_serializable(self):
        rep = bound_report(N_USERS, DOMAIN, epsilon=10.0, g=64, beta_min=0.9, t=3)
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["n"] == N_USERS and blob["t"] == 3
        assert blob["schema_version"] == 1
        assert math.isclose(blob["beta_u_uniform"], 1.0 - 1.0 / N_USERS, rel_tol=1e-12)

    def test_table_row_mentions_key_fields(self):
        row = bound_report(N_USERS, DOMAIN, epsilon=1.0).table_row()
        assert "1" in row

    def test_composition_scales_budgets(self):
        r1 = bound_report(N_USERS, DOMAIN, epsilon=1.0, t=1)
        r5 = bound_report(N_USERS, DOMAIN, epsilon=1.0, t=5)
        assert math.isclose(r5.alpha_rr, 5 * r1.alpha_rr, rel_tol=1e-12)
