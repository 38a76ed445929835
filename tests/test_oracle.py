"""Tests for the brute-force oracle: exact enumerated quantities on small
instances and the randomized inequality checker, including a planted
violation to prove the checker can actually fail."""

import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidrisk import oracle
from reidrisk.mechanisms import (ExhaustiveTable, MechanismKernel, mixture_kernel, postprocess,
                                 rr_kernel)
from reidrisk.oracle import (
    MAX_SYMBOLS,
    MAX_USERS,
    BoundViolationReport,
    SmallInstance,
    Violation,
    _bayes_errors,
    _Block,
    _composed_joints,
    _draw_block,
    _exact_quantities,
    _likelihood_labels,
    _likelihoods,
    _preimage_sets,
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
from reidrisk.probcore import (CategoricalDistribution, _mutual_information_stack, make_rng,
                               mutual_information)

# KL(Bernoulli(3/4) || Bernoulli(1/2)) = 1 - H(3/4), frozen.
ONE_MINUS_H34 = 0.18872187554086714


def two_point_masses():
    """(prior, p(x | u)) of two equally likely users, each always holding its own symbol."""
    return np.full(2, 0.5), np.eye(2)


def reference_joint_uhy(prior, cond, epsilon, g):
    """Joint p(u, (h, y)) of a hashed release, built member by member without a kernel.

    Outputs are ordered member-major: column f*g + b is member f, bucket b.
    """
    fam = ExhaustiveTable(cond.shape[1], g)
    onehot = np.eye(g)[fam.all_tables() - 1]  # (#funcs, size, g)
    bucket_q = rr_kernel(epsilon, g).matrix
    z_given_uh = np.einsum("ux,fxg->fug", cond, onehot)
    y_given_uh = np.einsum("fug,bg->fub", z_given_uh, bucket_q)
    joint = y_given_uh.transpose(1, 0, 2).reshape(len(prior), -1)
    return prior[:, None] * joint / fam.count


def reference_score_information(joint, prior, matcher):
    """I(U; S) of the matcher's score, grouped from a joint p(u, y)."""
    groups = {}
    for y in range(joint.shape[1]):
        column = np.where(prior > 0, joint[:, y] / np.where(prior > 0, prior, 1.0), 0.0)
        groups.setdefault(matcher(column), []).append(y)
    quotient = np.stack([joint[:, ys].sum(axis=1) for ys in groups.values()], axis=1)
    return mutual_information(quotient)


def hashed_instance(prior, cond, epsilon, g, **kwargs):
    return SmallInstance(prior, cond, ExhaustiveTable(cond.shape[1], g).kernel(epsilon), **kwargs)


def suite_block(rng, instances):
    """The suite's block of the given (SmallInstance, epsilon) pairs, the rest drawn from rng."""
    given = iter(instances)
    return _draw_block(rng, len(instances), lambda _: next(given))


# (prior, p(x | u), kernel, message) of refused instances, one fault each
REFUSED_INSTANCES = {
    "negative_prior_entry": ([1.5, -0.5], np.eye(2), rr_kernel(1.0, 2),
                             "^distribution has negative entries$"),
    "negative_row_entry": ([0.5, 0.5], [[0.5, 0.5], [1.1, -0.1]], rr_kernel(1.0, 2),
                           "^distribution has negative entries$"),
    "nan_row": ([0.5, 0.5], [[0.5, 0.5], [np.nan, 1.0]], rr_kernel(1.0, 2),
                "^distribution mass nan is not finite$"),
    "row_off_by_1e-6": ([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5 + 1e-6]], rr_kernel(1.0, 2),
                        r"^distribution mass 1\.000001\d* deviates from 1 by more than 1e-09$"),
    "users_disagree": (np.full(3, 1 / 3), np.eye(2), rr_kernel(1.0, 2),
                       "^need exactly one data model per user$"),
    "kernel_input_not_size": ([0.5, 0.5], np.eye(2), rr_kernel(1.0, 3),
                              "^kernel input alphabet does not match the population$"),
    "nine_users": (np.full(9, 1 / 9), np.eye(2)[[0] * 9], rr_kernel(1.0, 2),
                   "^instance too large: n=9, size=2$"),
    "nine_symbols": ([1.0], np.eye(9)[[0]], rr_kernel(1.0, 9),
                     "^instance too large: n=1, size=9$"),
}


class TestSmallInstance:
    @pytest.mark.parametrize("case", REFUSED_INSTANCES.values(), ids=REFUSED_INSTANCES.keys())
    def test_refuses_each_fault(self, case):
        prior, cond, kernel, message = case
        with pytest.raises(ValueError, match=message):
            SmallInstance(prior, cond, kernel)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_tiny_drift_is_renormalized_as_each_distribution(self, n, size, seed):
        # every mass off 1 by up to 1e-12 is divided out as CategoricalDistribution divides it
        rng = np.random.default_rng(seed)
        prior = rng.dirichlet(np.ones(n)) * (1 + rng.uniform(-1e-12, 1e-12))
        cond = rng.dirichlet(np.ones(size), size=n) * (1 + rng.uniform(-1e-12, 1e-12, (n, 1)))
        inst = SmallInstance(prior, cond, MechanismKernel.identity(size))
        assert inst.prior.tobytes() == CategoricalDistribution(n, prior).p.tobytes()
        assert inst.cond.tobytes() == np.stack([CategoricalDistribution(size, r).p for r in cond]).tobytes()
        assert not (inst.prior.flags.writeable or inst.cond.flags.writeable)

    def test_size_caps(self):
        with pytest.raises(ValueError):
            SmallInstance(np.full(9, 1 / 9), np.eye(2)[[0] * 9], rr_kernel(1.0, 2))

    def test_kernel_alphabet_must_match(self):
        with pytest.raises(ValueError):
            SmallInstance(*two_point_masses(), rr_kernel(1.0, 3))

    def test_pair_conditional_validation(self):
        with pytest.raises(ValueError):
            SmallInstance(*two_point_masses(), rr_kernel(1.0, 2),
                          pair_conditional=np.ones((2, 2, 2)))
        ok = np.zeros((2, 2, 2))
        ok[0, 0, 0] = 1.0
        ok[1, 1, 1] = 1.0
        SmallInstance(*two_point_masses(), rr_kernel(1.0, 2), pair_conditional=ok)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pair_conditional_with_a_non_finite_entry_is_refused(self, bad):
        with pytest.raises(ValueError, match="pair conditional must be a distribution"):
            SmallInstance(*two_point_masses(), rr_kernel(1.0, 2),
                          pair_conditional=np.full((2, 2, 2), bad))
        one = np.zeros((2, 2, 2))
        one[:, 0, 0] = 1.0
        one[0, 1, 1] = bad
        with pytest.raises(ValueError, match="pair conditional must be a distribution"):
            SmallInstance(*two_point_masses(), rr_kernel(1.0, 2), pair_conditional=one)


class TestExactRelease:
    def test_binary_rr_frozen_value(self):
        # Two distinguishable users through binary RR at eps = ln 3:
        # I(U; Y) = 1 - H(3/4).
        inst = SmallInstance(*two_point_masses(), rr_kernel(math.log(3.0), 2))
        assert math.isclose(exact_pie(inst), ONE_MINUS_H34, rel_tol=1e-13)

    def test_clear_release_discloses_full_identity(self):
        inst = SmallInstance(*two_point_masses(), MechanismKernel.identity(2))
        assert math.isclose(exact_pie(inst), 1.0, rel_tol=1e-13)

    def test_uniform_channel_discloses_nothing(self):
        inst = SmallInstance(*two_point_masses(), rr_kernel(0.0, 2))
        assert abs(exact_pie(inst)) < 1e-13

    def test_hashed_release_halves_binary_disclosure(self):
        # Over a 2-symbol domain with g = 2, the exhaustive family holds 4
        # tables: 2 constant (no information) and 2 injective (binary RR).
        # Hash choice is independent of identity, so
        # I(U; H, Y) = E_h I(U; Y | h) = 0.5 * I_binary_rr.
        eps = math.log(3.0)
        glh = hashed_instance(*two_point_masses(), eps, 2)
        rr = SmallInstance(*two_point_masses(), rr_kernel(eps, 2))
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
            prior, cond = inst.prior, inst.cond
            g = int(rng.integers(2, 4))
            if g ** cond.shape[1] > 4096:
                continue
            hashed = hashed_instance(prior, cond, eps, g)
            ref = reference_joint_uhy(prior, cond, eps, g)
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
            cond = inst.cond
            if cond.shape[1] > 3:
                continue
            pair = cond[:, :, None] * cond[:, None, :]
            hashed = hashed_instance(inst.prior, cond, eps, 2, pair_conditional=pair)
            one = exact_pie(hashed)
            two = exact_composed_pie(hashed, t=2)
            assert one - 1e-12 <= two <= 2 * one + 1e-12
            checked += 1


class TestPreimageSets:
    """The suite's hashed release, taken on preimage sets, against the exhaustive kernel."""

    @pytest.mark.parametrize("size,g", [(size, g) for size in range(1, 7) for g in (2, 3)])
    def test_share_counts_the_columns_of_each_preimage_set(self, size, g):
        members, share = _preimage_sets(size, g)
        bits = 2 ** np.arange(size)
        assert np.array_equal(members @ bits, np.arange(2 ** size))
        family = ExhaustiveTable(size, g)
        columns = np.bincount((family.indicator() @ bits).astype(int), minlength=2 ** size)
        assert np.array_equal(share, columns / family.count)

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(2, 3), st.integers(2, 6),
           st.floats(0.0, 8.0) | st.just(math.inf), st.booleans(), st.booleans())
    def test_suite_matches_the_exhaustive_kernel(self, seed, size, g, n, epsilon,
                                                 point_prior, point_rows):
        rng = make_rng(seed)
        instances = []
        for _ in range(3):
            prior = np.eye(n)[rng.integers(n)] if point_prior else rng.dirichlet(np.ones(n))
            cond = rng.dirichlet(np.ones(size), size=n)
            if point_rows:
                cond[: n // 2 + 1] = np.eye(size)[rng.integers(0, size, n // 2 + 1)]
            instances.append((SmallInstance(prior, cond, rr_kernel(epsilon, size)), epsilon))
        block = suite_block(rng, instances)._replace(g=np.full(3, g), hashed=np.ones(3, dtype=bool))
        got = _exact_quantities(block)["i_uhy"]
        kernel = ExhaustiveTable(size, g).kernel(epsilon)
        for i, (inst, _) in enumerate(instances):
            assert abs(got[i] - exact_pie(SmallInstance(inst.prior, inst.cond, kernel))) <= 1e-12


class TestExactScores:
    def test_bayes_error_hand_case(self):
        assert math.isclose(
            exact_bayes_error(np.array([[0.4, 0.1], [0.2, 0.3]])), 0.3, rel_tol=1e-13
        )

    def test_likelihood_matcher_is_sufficient(self):
        rng = make_rng(3)
        cond = rng.random((3, 4))
        cond /= cond.sum(axis=1, keepdims=True)
        inst = SmallInstance(np.full(3, 1 / 3), cond, rr_kernel(1.3, 4))
        rep = exact_pse(inst, likelihood_matcher)
        assert math.isclose(rep.information_bits, exact_pie(inst), rel_tol=1e-11)

    def test_coarser_matchers_lose_information_and_accuracy(self):
        inst = SmallInstance(*two_point_masses(), rr_kernel(1.0, 2))
        suff = exact_pse(inst, likelihood_matcher)
        coarse = exact_pse(inst, argmax_matcher)
        const = exact_pse(inst, constant_matcher)
        assert const.information_bits == 0.0 and const.score_groups == 1
        assert coarse.information_bits <= suff.information_bits + 1e-12
        assert coarse.bayes_error >= suff.bayes_error - 1e-12

    def test_argmax_matcher_on_binary_instance_keeps_everything(self):
        # With 2 symmetric users the argmax of the likelihood column is a
        # sufficient statistic of the release.
        inst = SmallInstance(*two_point_masses(), rr_kernel(math.log(3.0), 2))
        coarse = exact_pse(inst, argmax_matcher)
        assert math.isclose(coarse.information_bits, ONE_MINUS_H34, rel_tol=1e-12)


class TestExactComposition:
    def _paired_instance(self, eps, correlated):
        prior, cond = two_point_masses()
        if correlated:
            pair = np.zeros((2, 2, 2))
            pair[:, np.arange(2), np.arange(2)] = cond
        else:
            pair = cond[:, :, None] * cond[:, None, :]
        return SmallInstance(prior, cond, rr_kernel(eps, 2), pair_conditional=pair)

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
        no_pair = SmallInstance(*two_point_masses(), rr_kernel(1.0, 2))
        with pytest.raises(ValueError):
            exact_composed_pie(no_pair, t=2)


class TestRandomInstances:
    def test_respects_caps_and_ranges(self):
        rng = make_rng(55)
        for _ in range(50):
            inst, eps = random_small_instance(rng)
            assert 2 <= inst.cond.shape[0] <= 6
            assert 2 <= inst.cond.shape[1] <= 6
            assert 0.0 <= eps <= 5.0
            assert inst.kernel is not None


class TestSuiteDraws:
    """The suite's array draws against the objects of random_small_instance."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60))
    def test_arrays_are_the_instances_draw_for_draw(self, seed, count):
        instances = []

        def gen(rng):
            instances.append(random_small_instance(rng))
            return instances[-1]

        arrays, objects = make_rng(seed), make_rng(seed)
        got = _draw_block(arrays, count, None)
        want = _draw_block(objects, count, gen)
        assert len(got.n) == len(instances) == count
        for i, (inst, eps) in enumerate(instances):
            n, size = inst.cond.shape
            assert (got.n[i], got.size[i]) == (n, size)
            for a, b in ((got.prior[i, :n], inst.prior), (got.cond[i, :n, :size], inst.cond),
                         (got.kernel[i, :size, :size], inst.kernel.matrix)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert got.epsilon[i] == eps
            # padded users have prior 0 and a point-mass row; padded symbols are zeros
            assert not got.prior[i, n:].any()
            assert np.array_equal(got.cond[i, n:], np.eye(MAX_SYMBOLS)[[0] * (MAX_USERS - n)])
            assert not (got.cond[i, :, size:].any() or got.kernel[i, size:].any()
                        or got.kernel[i, :, size:].any() or got.post[i, :, size:].any())
        for name in _Block._fields:  # g, hashed, post, eps2 and w too
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert arrays.random() == objects.random()


def gamma_draws(monkeypatch, seed, count):
    """Each oracle._gamma_rows result of the suite's first `count` draws at `seed`, in turn."""
    real, draws = oracle._gamma_rows, []

    def spy(rng, rows, cols):
        draws.append(real(rng, rows, cols))
        return draws[-1]

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_gamma_rows", spy)
        _draw_block(make_rng(seed), count, None)
    return draws


def planted_rows(real, fault, target):
    """oracle._normalized_rows with `fault` planted in each row normalized from gamma row `target`."""
    def rows(gam):
        out = real(gam)
        if gam.shape[1] == len(target):
            hit = (gam == target).all(axis=1)
            out[hit, 0] = {"nan": np.nan, "negative": -out[hit, 0],
                           "drift": out[hit, 0] + 1e-6}[fault]
        return out
    return rows


class TestDrawRefusals:
    # at seed 3, gamma draws 9 and 10 (counted from 0) are the prior and the
    # conditional of instance 3, one of several instances of its widths; the
    # block normalizes them with the others of their width, the instance alone
    @pytest.mark.parametrize("call", [9, 10])
    @pytest.mark.parametrize("fault,message", [
        ("nan", "^distribution mass nan is not finite$"),
        ("negative", "^distribution has negative entries$"),
        ("drift", r"^distribution mass 1\.000001\d* deviates from 1 by more than 1e-09$"),
    ])
    def test_planted_fault_raises_the_instances_error(self, monkeypatch, call, fault, message):
        target = gamma_draws(monkeypatch, 3, 20)[call][-1]
        real, errors = oracle._normalized_rows, []
        monkeypatch.setattr(oracle, "_normalized_rows", planted_rows(real, fault, target))
        for generator in (None, random_small_instance):
            with pytest.raises(ValueError, match=message) as err:
                verify_bound_suite(20, 3, instance_generator=generator)
            errors.append(str(err.value))
        assert errors[0] == errors[1]


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
            inst = SmallInstance(*two_point_masses(), rr_kernel(1.0, 2))
            return inst, 1.0

        rep = verify_bound_suite(4, 0, instance_generator=gen)
        assert len(calls) == 4 and rep.passed

    def test_planted_violation_is_caught(self):
        # Lie about the privacy level: a nearly clear channel claimed to run
        # at epsilon = 0.01 must blow through the generic budget cap.
        def liar(rng):
            inst = SmallInstance(*two_point_masses(), rr_kernel(5.0, 2))
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
            prior = CategoricalDistribution.point_mass(n, int(rng.integers(n))).p
        else:
            prior = rng.dirichlet(np.ones(n))
        cond = rng.dirichlet(np.ones(size), size=n)
        if point_rows:
            cond[: n // 2 + 1] = np.eye(size)[rng.integers(0, size, n // 2 + 1)]
        q = rng.dirichlet(np.ones(out), size=size).T
        if equal_columns and out > 1:
            q[1] = q[0]
            q /= q.sum(axis=0)
        instances.append(SmallInstance(prior, cond, MechanismKernel(size, out, q)))
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
        prior = np.stack([i.prior for i in instances])
        cond = np.stack([i.cond for i in instances])
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
            paired = SmallInstance(inst.prior, inst.cond, inst.kernel, pair_conditional=pairs[b])
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
        instances = []
        for _ in range(12):
            inst, eps = random_small_instance(rng)
            n, size = inst.cond.shape
            if rng.random() < 0.3:
                cond = np.eye(size)[rng.integers(0, size, n)]
                prior = np.eye(n)[0] if rng.random() < 0.5 else inst.prior
                inst = SmallInstance(prior, cond, inst.kernel)
            instances.append((inst, eps))
        block = suite_block(rng, instances)
        got = _exact_quantities(block)
        oracle.STACK_CELLS, saved = cells, oracle.STACK_CELLS
        try:
            chunked = _exact_quantities(block)
        finally:
            oracle.STACK_CELLS = saved
        for name in got:
            assert np.array_equal(got[name], chunked[name])
        for i, (inst, _) in enumerate(instances):
            for name, want in reference_quantities(inst, block, i).items():
                assert abs(float(got[name][i]) - float(want)) <= 1e-12, name


def limit_instance(rng):
    """A random instance of 7-8 users over 7-8 symbols, released by a square non-RR kernel.

    Output row 0 of the kernel is all zero and rows 1 and 2 are equal; a
    third of the priors are uniform.
    """
    n, size = int(rng.integers(7, 9)), int(rng.integers(7, 9))
    prior = np.full(n, 1.0 / n) if rng.random() < 1 / 3 else rng.dirichlet(np.ones(n))
    cond = rng.dirichlet(np.ones(size), size=n)
    q = rng.dirichlet(np.ones(size), size=size).T
    q[0] = 0.0
    q[2] = q[1]
    q /= q.sum(axis=0)
    return SmallInstance(prior, cond, MechanismKernel(size, size, q)), float(rng.uniform(0.0, 5.0))


class TestInstanceLimits:
    """The suite at MAX_USERS users and MAX_SYMBOLS symbols, where no user or symbol is padding."""

    def test_quantities_match_per_instance(self):
        instances = []

        def gen(rng):
            instances.append(limit_instance(rng))
            return instances[-1]

        block = _draw_block(make_rng(11), 40, gen)
        assert (block.n == MAX_USERS).any() and (block.size == MAX_SYMBOLS).any()
        # 3^8 tables exceed the hashed release's limit: size 8 with g = 3 is not enumerated
        assert ((block.size == MAX_SYMBOLS) & (block.g == 3) & ~block.hashed).any()
        got = _exact_quantities(block)
        for i, (inst, _) in enumerate(instances):
            for name, want in reference_quantities(inst, block, i).items():
                assert abs(float(got[name][i]) - float(want)) <= 1e-12, name

    def test_report_is_the_one_instance_report(self, monkeypatch):
        want = verify_bound_suite(40, 11, instance_generator=limit_instance).to_dict()
        assert want["violations"]  # the kernels break the RR caps, so the sides are compared too
        monkeypatch.setattr(oracle, "BLOCK_INSTANCES", 1)
        monkeypatch.setattr(oracle, "STACK_CELLS", 1)
        assert verify_bound_suite(40, 11, instance_generator=limit_instance).to_dict() == want


def reference_quantities(inst, block, i):
    """Each exact quantity of instance i of a suite block, from the per-instance public functions."""
    prior, cond, q = inst.prior, inst.cond, inst.kernel
    n, size = cond.shape
    q2 = rr_kernel(block.eps2[i], size)
    full = np.zeros((n, size, size))
    full[:, np.arange(size), np.arange(size)] = cond
    post = block.post[i, :, :size]
    post = post[post.any(axis=1)]  # the drawn outputs, without the zero rows padding them
    suff = exact_pse(inst, likelihood_matcher)
    ref = {
        "i_uy": exact_pie(inst),
        "i_ux": mutual_information(prior[:, None] * cond),
        "i_xy": mutual_information((prior @ cond)[:, None] * q.matrix.T),
        "i_post": exact_pie(SmallInstance(
            prior, cond, postprocess(q, MechanismKernel(size, len(post), post)))),
        "i_mixed": exact_pie(SmallInstance(prior, cond, mixture_kernel(block.w[i], q, q2))),
        "i_uy2": exact_pie(SmallInstance(prior, cond, q2)),
        "suff": suff.information_bits,
        "suff_error": suff.bayes_error,
        "coarse": exact_pse(inst, argmax_matcher).information_bits,
        "constant": exact_pse(inst, constant_matcher).information_bits,
        "i_full": exact_composed_pie(SmallInstance(prior, cond, q, pair_conditional=full)),
        "i_pair": exact_composed_pie(SmallInstance(
            prior, cond, q, pair_conditional=cond[:, :, None] * cond[:, None, :])),
        "uniform": np.allclose(prior, 1.0 / n, atol=1e-12),
        "beta_u": 1.0 - prior.max(),
    }
    ref["i_uhy"] = (exact_pie(hashed_instance(prior, cond, block.epsilon[i], int(block.g[i])))
                    if block.hashed[i] else 0.0)
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

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_blocks_give_the_same_report(self, monkeypatch, block):
        want = [verify_bound_suite(80, 5).to_dict(),
                verify_bound_suite(12, 99, instance_generator=planting_generator()).to_dict()]
        monkeypatch.setattr(oracle, "BLOCK_INSTANCES", block)
        assert [verify_bound_suite(80, 5).to_dict(),
                verify_bound_suite(12, 99, instance_generator=planting_generator()).to_dict()] == want

    def test_no_block_outlives_its_report(self, monkeypatch):
        # memory stays flat in the count: a block's arrays are freed before the next is drawn
        monkeypatch.setattr(oracle, "BLOCK_INSTANCES", 5)
        real, blocks, alive = oracle._draw_block, [], []

        def draw(rng, count, generator):
            block = real(rng, count, generator)
            blocks.append([weakref.ref(array) for array in block])
            return block

        def gen(rng):
            alive.append(sum(ref() is not None for refs in blocks for ref in refs))
            return random_small_instance(rng)

        monkeypatch.setattr(oracle, "_draw_block", draw)
        verify_bound_suite(15, 3, instance_generator=gen)
        assert len(blocks) == 3 and alive == [0] * 15

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
            return SmallInstance(*two_point_masses(), ExhaustiveTable(2, 2).kernel(1.0)), 1.0

        with pytest.raises(ValueError, match="channel input alphabet must equal kernel output"):
            verify_bound_suite(2, 0, instance_generator=gen)
