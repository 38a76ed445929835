"""Tests for the brute-force oracle: exact enumerated quantities on small
instances and the randomized inequality checker, including a planted
violation to prove the checker can actually fail."""

import json
import math

import numpy as np
import pytest

from reidrisk.mechanisms import ExhaustiveTable, MechanismKernel, rr_kernel
from reidrisk.oracle import (
    BoundViolationReport,
    SmallInstance,
    Violation,
    argmax_matcher,
    constant_matcher,
    exact_bayes_error,
    exact_composed_pie,
    exact_pie,
    exact_pse,
    likelihood_matcher,
    random_small_instance,
    verify_bound_suite,
)
from reidrisk.probcore import (CategoricalDistribution, PopulationModel, make_rng,
                               mutual_information)

# KL(Bernoulli(3/4) || Bernoulli(1/2)) = 1 - H(3/4), frozen.
ONE_MINUS_H34 = 0.18872187554086714


def two_point_mass_population():
    prior = CategoricalDistribution.uniform(2)
    dists = [CategoricalDistribution.point_mass(2, 0), CategoricalDistribution.point_mass(2, 1)]
    return PopulationModel.single_datum(prior, dists)


def reference_joint_uhy(population, epsilon, g):
    """Joint p(u, (h, y)) of a hashed release, built member by member without a kernel.

    Outputs are ordered member-major: column f*g + b is member f, bucket b.
    """
    size = population.data_alphabet().size
    fam = ExhaustiveTable(size, g)
    onehot = np.eye(g)[fam.all_tables() - 1]  # (#funcs, size, g)
    cond = population.conditional_matrix()
    bucket_q = rr_kernel(epsilon, g).matrix
    z_given_uh = np.einsum("ux,fxg->fug", cond, onehot)
    y_given_uh = np.einsum("fug,bg->fub", z_given_uh, bucket_q)
    joint = y_given_uh.transpose(1, 0, 2).reshape(population.n, -1)
    return population.prior.p[:, None] * joint / fam.count


def reference_score_information(joint, prior, matcher):
    """I(U; S) of the matcher's score, grouped from a joint p(u, y)."""
    groups = {}
    for y in range(joint.shape[1]):
        column = np.where(prior > 0, joint[:, y] / np.where(prior > 0, prior, 1.0), 0.0)
        groups.setdefault(matcher(column), []).append(y)
    quotient = np.stack([joint[:, ys].sum(axis=1) for ys in groups.values()], axis=1)
    return mutual_information(quotient)


def hashed_instance(population, epsilon, g, **kwargs):
    size = population.data_alphabet().size
    return SmallInstance(population=population, kernel=ExhaustiveTable(size, g).kernel(epsilon),
                         **kwargs)


class TestSmallInstance:
    def test_size_caps(self):
        prior = CategoricalDistribution.uniform(9)
        dists = [CategoricalDistribution.point_mass(2, 0)] * 9
        pop = PopulationModel.single_datum(prior, dists)
        with pytest.raises(ValueError):
            SmallInstance(population=pop, kernel=rr_kernel(1.0, 2))

    def test_kernel_alphabet_must_match(self):
        with pytest.raises(ValueError):
            SmallInstance(population=two_point_mass_population(), kernel=rr_kernel(1.0, 3))

    def test_pair_conditional_validation(self):
        pop = two_point_mass_population()
        with pytest.raises(ValueError):
            SmallInstance(population=pop, kernel=rr_kernel(1.0, 2),
                          pair_conditional=np.ones((2, 2, 2)))
        ok = np.zeros((2, 2, 2))
        ok[0, 0, 0] = 1.0
        ok[1, 1, 1] = 1.0
        SmallInstance(population=pop, kernel=rr_kernel(1.0, 2), pair_conditional=ok)


class TestExactRelease:
    def test_binary_rr_frozen_value(self):
        # Two distinguishable users through binary RR at eps = ln 3:
        # I(U; Y) = 1 - H(3/4).
        inst = SmallInstance(population=two_point_mass_population(),
                             kernel=rr_kernel(math.log(3.0), 2))
        assert math.isclose(exact_pie(inst), ONE_MINUS_H34, rel_tol=1e-13)

    def test_clear_release_discloses_full_identity(self):
        inst = SmallInstance(population=two_point_mass_population(),
                             kernel=MechanismKernel.identity(2))
        assert math.isclose(exact_pie(inst), 1.0, rel_tol=1e-13)

    def test_uniform_channel_discloses_nothing(self):
        inst = SmallInstance(population=two_point_mass_population(),
                             kernel=rr_kernel(0.0, 2))
        assert abs(exact_pie(inst)) < 1e-13

    def test_hashed_release_halves_binary_disclosure(self):
        # Over a 2-symbol domain with g = 2, the exhaustive family holds 4
        # tables: 2 constant (no information) and 2 injective (binary RR).
        # Hash choice is independent of identity, so
        # I(U; H, Y) = E_h I(U; Y | h) = 0.5 * I_binary_rr.
        eps = math.log(3.0)
        pop = two_point_mass_population()
        glh = hashed_instance(pop, eps, 2)
        rr = SmallInstance(population=pop, kernel=rr_kernel(eps, 2))
        assert glh.kernel.output_size == 8
        assert math.isclose(exact_pie(glh), 0.5 * exact_pie(rr), rel_tol=1e-12)
        assert math.isclose(exact_pie(glh), 0.5 * ONE_MINUS_H34, rel_tol=1e-12)


class TestHashedKernel:
    """The hashed kernel against the joint built member by member.

    The argmax matcher is left out: it breaks exact ties between users by
    index, and rounding in either joint can flip such a tie, so its score
    information may differ by far more than rounding between the two.
    """

    def test_matches_member_by_member_joint(self):
        rng = make_rng(2024)
        checked = 0
        while checked < 200:
            inst, eps = random_small_instance(rng)
            pop = inst.population
            size = pop.data_alphabet().size
            g = int(rng.integers(2, 4))
            if g ** size > 4096:
                continue
            hashed = hashed_instance(pop, eps, g)
            ref = reference_joint_uhy(pop, eps, g)
            prior = pop.prior.p
            assert abs(exact_pie(hashed) - mutual_information(ref)) <= 1e-12
            for matcher in (likelihood_matcher, constant_matcher):
                got = exact_pse(hashed, matcher).information_bits
                assert abs(got - reference_score_information(ref, prior, matcher)) <= 1e-12
            checked += 1

    def test_composition_of_independent_hashed_releases(self):
        # each release hashes with its own member; two independent data
        # draws disclose at most twice one release
        rng = make_rng(8)
        checked = 0
        while checked < 10:
            inst, eps = random_small_instance(rng)
            pop = inst.population
            if pop.data_alphabet().size > 3:
                continue
            cond = pop.conditional_matrix()
            pair = cond[:, :, None] * cond[:, None, :]
            hashed = hashed_instance(pop, eps, 2, pair_conditional=pair)
            one = exact_pie(hashed)
            two = exact_composed_pie(hashed, t=2)
            assert one - 1e-12 <= two <= 2 * one + 1e-12
            checked += 1


class TestExactScores:
    def test_bayes_error_hand_case(self):
        assert math.isclose(
            exact_bayes_error(np.array([[0.4, 0.1], [0.2, 0.3]])), 0.3, rel_tol=1e-13
        )

    def test_likelihood_matcher_is_sufficient(self):
        rng = make_rng(3)
        cond = rng.random((3, 4))
        cond /= cond.sum(axis=1, keepdims=True)
        pop = PopulationModel.single_datum(
            CategoricalDistribution.uniform(3),
            [CategoricalDistribution(4, row) for row in cond],
        )
        inst = SmallInstance(population=pop, kernel=rr_kernel(1.3, 4))
        rep = exact_pse(inst, likelihood_matcher)
        assert math.isclose(rep.information_bits, exact_pie(inst), rel_tol=1e-11)

    def test_coarser_matchers_lose_information_and_accuracy(self):
        inst = SmallInstance(population=two_point_mass_population(),
                             kernel=rr_kernel(1.0, 2))
        suff = exact_pse(inst, likelihood_matcher)
        coarse = exact_pse(inst, argmax_matcher)
        const = exact_pse(inst, constant_matcher)
        assert const.information_bits == 0.0 and const.score_groups == 1
        assert coarse.information_bits <= suff.information_bits + 1e-12
        assert coarse.bayes_error >= suff.bayes_error - 1e-12

    def test_argmax_matcher_on_binary_instance_keeps_everything(self):
        # With 2 symmetric users the argmax of the likelihood column is a
        # sufficient statistic of the release.
        inst = SmallInstance(population=two_point_mass_population(),
                             kernel=rr_kernel(math.log(3.0), 2))
        coarse = exact_pse(inst, argmax_matcher)
        assert math.isclose(coarse.information_bits, ONE_MINUS_H34, rel_tol=1e-12)


class TestExactComposition:
    def _paired_instance(self, eps, correlated):
        pop = two_point_mass_population()
        cond = pop.conditional_matrix()
        if correlated:
            pair = np.zeros((2, 2, 2))
            pair[:, np.arange(2), np.arange(2)] = cond
        else:
            pair = cond[:, :, None] * cond[:, None, :]
        return SmallInstance(population=pop, kernel=rr_kernel(eps, 2), pair_conditional=pair)

    def test_t1_is_single_release(self):
        inst = self._paired_instance(1.0, correlated=True)
        assert exact_composed_pie(inst, t=1) == exact_pie(inst)

    def test_clear_pair_saturates_at_identity_entropy(self):
        inst = self._paired_instance(math.inf, correlated=True)
        assert math.isclose(exact_composed_pie(inst, t=2), 1.0, rel_tol=1e-12)

    def test_two_releases_disclose_more_than_one(self):
        inst = self._paired_instance(1.0, correlated=True)
        one = exact_pie(inst)
        two = exact_composed_pie(inst, t=2)
        assert one - 1e-12 <= two <= 2 * one + 1e-12

    def test_validation(self):
        inst = self._paired_instance(1.0, correlated=False)
        with pytest.raises(ValueError):
            exact_composed_pie(inst, t=3)
        no_pair = SmallInstance(population=two_point_mass_population(), kernel=rr_kernel(1.0, 2))
        with pytest.raises(ValueError):
            exact_composed_pie(no_pair, t=2)


class TestRandomInstances:
    def test_respects_caps_and_ranges(self):
        rng = make_rng(55)
        for _ in range(50):
            inst, eps = random_small_instance(rng)
            assert 2 <= inst.population.n <= 6
            assert 2 <= inst.population.data_alphabet().size <= 6
            assert 0.0 <= eps <= 5.0
            assert inst.kernel is not None


class TestVerifySuite:
    def test_no_violations_on_many_random_instances(self):
        rep = verify_bound_suite(150, 424242)
        assert rep.passed
        assert rep.instances_checked == 150
        assert rep.checks_run >= 150 * 12  # at least the unconditional checks

    def test_accepts_generator_object(self):
        rep = verify_bound_suite(5, make_rng(1))
        assert rep.instances_checked == 5

    def test_to_dict_round_trips(self):
        rep = verify_bound_suite(3, 7)
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["passed"] is True and blob["instances_checked"] == 3

    def test_count_validation(self):
        with pytest.raises(ValueError):
            verify_bound_suite(0, 1)

    def test_custom_generator_is_used(self):
        calls = []

        def gen(rng):
            calls.append(1)
            inst = SmallInstance(population=two_point_mass_population(),
                                 kernel=rr_kernel(1.0, 2))
            return inst, 1.0

        rep = verify_bound_suite(4, 0, instance_generator=gen)
        assert len(calls) == 4 and rep.passed

    def test_planted_violation_is_caught(self):
        # Lie about the privacy level: a nearly clear channel claimed to run
        # at epsilon = 0.01 must blow through the generic budget cap.
        def liar(rng):
            inst = SmallInstance(population=two_point_mass_population(),
                                 kernel=rr_kernel(5.0, 2))
            return inst, 0.01

        rep = verify_bound_suite(1, 0, instance_generator=liar)
        assert not rep.passed
        names = {v.check for v in rep.violations}
        assert "generic_budget_cap" in names
        v = rep.violations[0]
        assert v.lhs > v.rhs  # the recorded sides witness the violation

    def test_violation_report_shape(self):
        v = Violation(instance_index=3, check="demo", lhs=2.0, rhs=1.0)
        rep = BoundViolationReport(instances_checked=5, checks_run=9, violations=(v,))
        assert not rep.passed
        blob = rep.to_dict()
        assert blob["violations"][0]["check"] == "demo"
