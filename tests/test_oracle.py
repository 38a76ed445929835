"""Tests for the brute-force oracle: exact enumerated quantities on small
instances and the randomized inequality checker, including a planted
violation to prove the checker can actually fail."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidrisk import oracle
from reidrisk.mechanisms import (ExhaustiveTable, MechanismKernel, _keep_leak, mixture_kernel,
                                 postprocess, rr_kernel)
from reidrisk.oracle import (
    BoundViolationReport,
    SmallInstance,
    Violation,
    _bayes_errors,
    _composed_joints,
    _Draw,
    _exact_quantities,
    _likelihood_labels,
    _likelihoods,
    _release_joints,
    _score_joints,
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
from reidrisk.probcore import (CategoricalDistribution, PopulationModel, _mutual_information_stack,
                               make_rng, mutual_information)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pair_conditional_with_a_non_finite_entry_is_refused(self, bad):
        pop = two_point_mass_population()
        with pytest.raises(ValueError, match="pair conditional must be a distribution"):
            SmallInstance(population=pop, kernel=rr_kernel(1.0, 2),
                          pair_conditional=np.full((2, 2, 2), bad))
        one = np.zeros((2, 2, 2))
        one[:, 0, 0] = 1.0
        one[0, 1, 1] = bad
        with pytest.raises(ValueError, match="pair conditional must be a distribution"):
            SmallInstance(population=pop, kernel=rr_kernel(1.0, 2), pair_conditional=one)


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


def shaped_instances(seed, count, n, size, out, point_prior, point_rows, equal_columns):
    """`count` instances sharing (n, size) and a kernel of `out` outputs.

    Point-mass priors and p(x | u) rows appear where asked; `equal_columns`
    repeats the kernel's first output row, so two likelihood columns of each
    release are equal.
    """
    rng = make_rng(seed)
    instances = []
    for _ in range(count):
        if point_prior:
            prior = CategoricalDistribution.point_mass(n, int(rng.integers(n)))
        else:
            prior = CategoricalDistribution(n, rng.dirichlet(np.ones(n)))
        cond = rng.dirichlet(np.ones(size), size=n)
        if point_rows:
            cond[: n // 2 + 1] = np.eye(size)[rng.integers(0, size, n // 2 + 1)]
        q = rng.dirichlet(np.ones(out), size=size).T
        if equal_columns and out > 1:
            q[1] = q[0]
            q /= q.sum(axis=0)
        pop = PopulationModel.single_datum(prior, CategoricalDistribution.rows(size, cond))
        instances.append(SmallInstance(population=pop, kernel=MechanismKernel(size, out, q)))
    return instances


instance_shapes = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1), "count": st.integers(1, 4), "n": st.integers(1, 5),
    "size": st.integers(1, 5), "out": st.integers(1, 7), "point_prior": st.booleans(),
    "point_rows": st.booleans(), "equal_columns": st.booleans()})


class TestStackedKernels:
    """Stacks of instances against the batch-of-one public functions."""

    @settings(deadline=None, max_examples=80)
    @given(instance_shapes)
    def test_stack_matches_batch_of_one(self, shape):
        instances = shaped_instances(**shape)
        prior = np.stack([i.population.prior.p for i in instances])
        cond = np.stack([i.population.conditional_matrix() for i in instances])
        q = np.stack([i.kernel.matrix for i in instances])
        joints = _release_joints(prior, cond, q)
        likelihood = _likelihoods(prior, joints)
        labels = {"likelihood": _likelihood_labels(likelihood),
                  "argmax": likelihood.argmax(axis=1),
                  "constant": np.zeros(joints.shape[::2], dtype=int)}
        groups = {"likelihood": joints.shape[2], "argmax": joints.shape[1], "constant": 1}
        info = {name: _mutual_information_stack(_score_joints(joints, lab, groups[name]))
                for name, lab in labels.items()}
        error = _bayes_errors(_score_joints(joints, labels["likelihood"], joints.shape[2]))
        pie = _mutual_information_stack(joints)
        pairs = cond[:, :, :, None] * cond[:, :, None, :]
        composed = _mutual_information_stack(_composed_joints(prior, pairs, q))
        for b, inst in enumerate(instances):
            assert abs(pie[b] - exact_pie(inst)) <= 1e-12
            for name, matcher in (("likelihood", likelihood_matcher),
                                  ("argmax", argmax_matcher), ("constant", constant_matcher)):
                assert abs(info[name][b] - exact_pse(inst, matcher).information_bits) <= 1e-12
            assert abs(error[b] - exact_pse(inst, likelihood_matcher).bayes_error) <= 1e-12
            paired = SmallInstance(population=inst.population, kernel=inst.kernel,
                                   pair_conditional=pairs[b])
            assert abs(composed[b] - exact_composed_pie(paired)) <= 1e-12
            # the stacked groups are the matchers' groups
            columns = [likelihood[b, :, y] for y in range(joints.shape[2])]
            keys = [likelihood_matcher(c) for c in columns]
            grouped = labels["likelihood"][b]
            for y, key in enumerate(keys):
                assert [k == key for k in keys] == list(grouped == grouped[y])
            assert labels["argmax"][b].tolist() == [argmax_matcher(c) for c in columns]

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64))
    def test_suite_quantities_match_per_instance(self, seed, cells):
        rng = make_rng(seed)
        instances, draws = [], []
        for _ in range(12):
            inst, eps = random_small_instance(rng)
            pop = inst.population
            n, size = pop.n, pop.data_alphabet().size
            if rng.random() < 0.3:
                cond = np.eye(size)[rng.integers(0, size, n)]
                prior = CategoricalDistribution.point_mass(n, 0) if rng.random() < 0.5 else pop.prior
                pop = PopulationModel.single_datum(prior, CategoricalDistribution.rows(size, cond))
                inst = SmallInstance(population=pop, kernel=inst.kernel)
            g = int(rng.integers(2, 4))
            post = rng.dirichlet(np.ones(int(rng.integers(2, 5))), size=size).T
            draws.append(_Draw(pop.prior.p, pop.conditional_matrix(), inst.kernel.matrix, eps, g,
                               g ** size <= 4096, post, float(rng.uniform(0, 5)), float(rng.random())))
            instances.append(inst)
        p = {name: np.zeros(len(draws)) for name in ("keep", "leak", "keep2", "leak2")}
        for i, d in enumerate(draws):
            p["keep"][i], p["leak"][i], _ = _keep_leak(d.epsilon, d.g)
            p["keep2"][i], p["leak2"][i], _ = _keep_leak(d.eps2, len(d.post.T))
        got = _exact_quantities(draws, p)
        oracle.STACK_CELLS, saved = cells, oracle.STACK_CELLS
        try:
            chunked = _exact_quantities(draws, p)
        finally:
            oracle.STACK_CELLS = saved
        for name in got:
            assert np.array_equal(got[name], chunked[name])
        for i, (inst, d) in enumerate(zip(instances, draws)):
            for name, want in reference_quantities(inst, d).items():
                assert abs(float(got[name][i]) - float(want)) <= 1e-12, name


def reference_quantities(inst, d):
    """Each exact quantity of one suite instance, from the per-instance public functions."""
    pop, q = inst.population, inst.kernel
    size = q.input_size
    cond, prior = pop.conditional_matrix(), pop.prior.p
    q2 = rr_kernel(d.eps2, size)
    full = np.zeros((pop.n, size, size))
    full[:, np.arange(size), np.arange(size)] = cond
    suff = exact_pse(inst, likelihood_matcher)
    ref = {
        "i_uy": exact_pie(inst),
        "i_ux": mutual_information(pop.joint_ux()),
        "i_xy": mutual_information((prior @ cond)[:, None] * q.matrix.T),
        "i_post": exact_pie(SmallInstance(
            population=pop, kernel=postprocess(q, MechanismKernel(size, len(d.post), d.post)))),
        "i_mixed": exact_pie(SmallInstance(population=pop, kernel=mixture_kernel(d.w, q, q2))),
        "i_uy2": exact_pie(SmallInstance(population=pop, kernel=q2)),
        "suff": suff.information_bits,
        "suff_error": suff.bayes_error,
        "coarse": exact_pse(inst, argmax_matcher).information_bits,
        "constant": exact_pse(inst, constant_matcher).information_bits,
        "i_full": exact_composed_pie(SmallInstance(population=pop, kernel=q, pair_conditional=full)),
        "i_pair": exact_composed_pie(SmallInstance(
            population=pop, kernel=q, pair_conditional=cond[:, :, None] * cond[:, None, :])),
        "uniform": np.allclose(prior, 1.0 / pop.n, atol=1e-12),
        "beta_u": 1.0 - prior.max(),
    }
    if d.hashed:
        ref["i_uhy"] = exact_pie(hashed_instance(pop, d.epsilon, d.g))
    return ref


def planting_generator():
    """Random instances; every third one claims a budget 50 times below its kernel's."""
    calls = []

    def gen(rng):
        inst, eps = random_small_instance(rng)
        calls.append(1)
        return inst, (eps / 50.0 if len(calls) % 3 == 1 else eps)
    return gen


# reports of the one-instance-at-a-time suite these pins were recorded from
PINNED_PLANTED = [
    (0, "generic_budget_cap", 0.25447247137360024, 0.004606937188360089),
    (0, "rr_shrink_of_identity_info", 0.25447247137360024, 0.00590403057632727),
    (0, "rr_cap", 0.25447247137360024, 0.02865172887125775),
    (0, "composition_full_correlation", 0.3242616998390758, 0.0573034577425155),
    (0, "composition_independent", 0.45060562267646986, 0.0573034577425155),
    (3, "generic_budget_cap", 0.018572126345253254, 0.0011299457353243544),
    (3, "rr_shrink_of_identity_info", 0.018572126345253254, 0.0007522459248866852),
    (3, "rr_cap", 0.018572126345253254, 0.007045344185250356),
    (3, "composition_full_correlation", 0.03287678446396315, 0.014090688370500712),
    (3, "composition_independent", 0.03667948763053176, 0.014090688370500712),
    (6, "generic_budget_cap", 0.04545226349940785, 0.003702301311490788),
    (6, "rr_shrink_of_identity_info", 0.04545226349940785, 0.0014848048570388417),
    (6, "rr_cap", 0.04545226349940785, 0.026985782503476913),
    (6, "composition_full_correlation", 0.06489955461582592, 0.053971565006953826),
    (6, "composition_independent", 0.0894097194143775, 0.053971565006953826),
    (9, "generic_budget_cap", 0.1451486505699133, 0.013711830547011566),
    (9, "rr_shrink_of_identity_info", 0.1451486505699133, 0.005060568607938662),
    (9, "rr_cap", 0.1451486505699133, 0.052314641460887615),
    (9, "composition_full_correlation", 0.14990673483500866, 0.10462928292177523),
    (9, "composition_independent", 0.2740746493724468, 0.10462928292177523),
]


class TestPinnedReports:
    @pytest.mark.parametrize("count,seed,checks", [(1000, 20260817, 17454), (150, 424242, 2612)])
    def test_seeded_reports(self, count, seed, checks):
        assert verify_bound_suite(count, seed).to_dict() == {
            "instances_checked": count, "checks_run": checks, "violations": [], "passed": True}

    def test_generator_object_report(self):
        assert verify_bound_suite(5, make_rng(1)).to_dict() == {
            "instances_checked": 5, "checks_run": 88, "violations": [], "passed": True}

    def test_planted_violations_keep_order_and_sides(self):
        rep = verify_bound_suite(12, 99, instance_generator=planting_generator())
        assert rep.checks_run == 211
        assert [(v.instance_index, v.check) for v in rep.violations] == \
            [(i, check) for i, check, _, _ in PINNED_PLANTED]
        for v, (_, _, lhs, rhs) in zip(rep.violations, PINNED_PLANTED):
            assert abs(v.lhs - lhs) <= 1e-12 and abs(v.rhs - rhs) <= 1e-12

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_small_stacks_give_the_same_report(self, monkeypatch, cells):
        want = [verify_bound_suite(80, 5).to_dict(),
                verify_bound_suite(12, 99, instance_generator=planting_generator()).to_dict()]
        monkeypatch.setattr(oracle, "STACK_CELLS", cells)
        assert [verify_bound_suite(80, 5).to_dict(),
                verify_bound_suite(12, 99, instance_generator=planting_generator()).to_dict()] == want

    def test_nan_kernel_is_refused(self):
        def gen(rng):
            inst, eps = random_small_instance(rng)
            m = np.array(inst.kernel.matrix)
            m[0, 0] = np.nan
            object.__setattr__(inst.kernel, "matrix", m)
            return inst, eps

        with pytest.raises(ValueError, match="^joint distribution mass nan is not finite$"):
            verify_bound_suite(3, 5, instance_generator=gen)

    def test_kernel_of_other_outputs_is_refused(self):
        def gen(rng):
            pop = two_point_mass_population()
            return SmallInstance(population=pop, kernel=ExhaustiveTable(2, 2).kernel(1.0)), 1.0

        with pytest.raises(ValueError, match="channel input alphabet must equal kernel output"):
            verify_bound_suite(2, 0, instance_generator=gen)
