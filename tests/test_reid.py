"""Tests for the re-identification attack: profile training, log-likelihood
scoring, vectorized single-release attacks, trial simulation, and DET curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reidrisk.mechanisms import (
    CarterWegman,
    GeneralLocalHash,
    GlhBatch,
    MechanismKernel,
    RandomizedResponse,
    rr_sample_batch,
)
from reidrisk.pipeline import _simulate_chains
from reidrisk.probcore import (
    CategoricalDistribution,
    MarkovSource,
    PopulationModel,
    SingleDatum,
    make_rng,
    sample,
    sample_markov,
)
from reidrisk.reid import (
    MAX_KEYED_ALPHABET,
    DetCurve,
    MarkovProfile,
    ProfileTable,
    Trace,
    _kernel_sample,
    _pair_keys,
    best_score_decision,
    far_frr_det,
    floored_pi_matrix,
    glh_single_datum_scores,
    identification_error_rate,
    log_likelihood,
    rr_single_datum_scores,
    sample_releases,
    score_vector,
    simulate_score_trials,
    train_profile,
)


def point_mass_population(symbols, size):
    """Uniform-prior population where user i deterministically emits symbols[i]."""
    prior = CategoricalDistribution.uniform(len(symbols))
    dists = [CategoricalDistribution.point_mass(size, s) for s in symbols]
    return PopulationModel.single_datum(prior, dists)


class TestProfileTraining:
    def test_counts_and_normalization(self):
        prof = train_profile([0, 1, 0, 0, 2], alphabet=3)
        assert np.allclose(prof.pi, [3 / 5, 1 / 5, 1 / 5])
        # transitions: 0 -> {0, 1, 2} each once; 1 -> 0 once.
        assert math.isclose(prof.transition_prob(0, 0), 1 / 3, rel_tol=1e-12)
        assert math.isclose(prof.transition_prob(0, 1), 1 / 3, rel_tol=1e-12)
        assert math.isclose(prof.transition_prob(0, 2), 1 / 3, rel_tol=1e-12)
        assert prof.transition_prob(1, 0) == 1.0

    def test_unseen_entries_fall_back_to_floor(self):
        prof = train_profile([0, 0], alphabet=3)
        assert prof.initial_prob(1) == prof.floor  # never visited
        assert prof.transition_prob(2, 0) == prof.floor  # source never seen
        assert prof.transition_prob(0, 1) == prof.floor  # destination never seen

    def test_seen_entries_are_exact_not_renormalized(self):
        # The floor is a lookup-time fallback; stored rows keep exact MLE mass.
        prof = train_profile([0, 1, 0, 1, 0], alphabet=2)
        assert prof.transition_prob(0, 1) == 1.0
        assert prof.transition_prob(1, 0) == 1.0

    def test_single_symbol_trace_has_no_transitions(self):
        prof = train_profile([1], alphabet=2)
        assert prof.keys.tolist() == [2 * 2 + 1]  # the start row's entry for symbol 1 only
        assert prof.initial_prob(1) == 1.0

    def test_out_of_alphabet_rejected(self):
        with pytest.raises(ValueError):
            train_profile([0, 5], alphabet=3)

    def test_trace_wrapper_accepted(self):
        a = train_profile(Trace(np.array([0, 1, 1])), alphabet=2)
        b = train_profile([0, 1, 1], alphabet=2)
        assert np.array_equal(a.pi, b.pi)

    def test_profile_validation(self):
        # size 2: transition keys 0..3, start row keys 4 and 5
        with pytest.raises(ValueError):
            MarkovProfile(owner=0, size=2, keys=[4, 5], probs=[0.7, 0.7])
        with pytest.raises(ValueError):
            MarkovProfile(owner=0, size=2, keys=[4, 5], probs=[0.5, 0.5], floor=0.0)
        for keys, probs in (([-1, 4, 5], [1.0, 0.5, 0.5]),  # key below the table
                            ([4, 5, 6], [0.5, 0.5, 1.0]),  # key past the start row
                            ([5, 4], [0.5, 0.5]),  # decreasing keys
                            ([0, 0, 4, 5], [0.5, 0.5, 0.5, 0.5]),  # repeated key
                            ([0, 4, 5], [1.0, 0.5]),  # fewer probabilities than keys
                            ([[4, 5]], [[0.5, 0.5]]),  # not 1-d
                            ([0, 1], [0.5, 0.5]),  # no start row
                            ([0, 4], [1.0, 0.5])):  # start row sums to 0.5
            with pytest.raises(ValueError):
                MarkovProfile(owner=0, size=2, keys=keys, probs=probs)

    def test_lookup_rejects_symbols_outside_the_alphabet(self):
        prof = train_profile([0, 1], alphabet=2)
        assert prof.transition_prob(2, 1) == prof.initial_prob(1) == 0.5  # src 2: the start state
        for src, dst in ((3, 0), (-1, 0), (0, 2), (0, -1)):
            with pytest.raises(ValueError):
                prof.transition_prob(src, dst)
        for symbol in (2, -1):
            with pytest.raises(ValueError):
                prof.initial_prob(symbol)


class TestLogLikelihood:
    def test_hand_computed_chain(self):
        # T(0,0) = 0.5, T(0,1) = 0.25 (keys 0, 1); pi = (0.5, 0.5) (keys 4, 5)
        prof = MarkovProfile(owner=0, size=2, keys=[0, 1, 4, 5], probs=[0.5, 0.25, 0.5, 0.5])
        # log2 0.5 + log2 T(0,0) + log2 T(0,1) = -1 - 1 - 2
        assert log_likelihood(prof, [0, 0, 1]) == -4.0

    def test_floor_applies_to_missing_entries(self):
        prof = train_profile([0, 0, 0], alphabet=2)
        want = math.log2(prof.floor) + math.log2(prof.floor)
        assert math.isclose(log_likelihood(prof, [1, 1]), want, rel_tol=1e-12)

    def test_longer_own_trace_scores_higher_than_foreign(self):
        own = train_profile([0, 1, 0, 1, 0, 1], alphabet=2)
        assert log_likelihood(own, [0, 1, 0, 1]) > log_likelihood(own, [1, 1, 1, 1])

    def test_score_vector_and_ties(self):
        p0 = train_profile([0, 0], alphabet=2, owner=0)
        p1 = train_profile([0, 0], alphabet=2, owner=1)
        p2 = train_profile([1, 1], alphabet=2, owner=2)
        sv = score_vector([0, 0], [p0, p1, p2])
        assert sv.scores[0] == sv.scores[1] > sv.scores[2]
        assert best_score_decision(sv) == 0  # tie goes to the lowest index

    def test_score_vector_requires_profiles(self):
        with pytest.raises(ValueError):
            score_vector([0], [])


class TestSingleReleaseScores:
    def test_floored_pi_matrix(self):
        p0 = train_profile([0, 0], alphabet=3)
        p1 = train_profile([1, 2], alphabet=3)
        mat = floored_pi_matrix([p0, p1])
        assert np.allclose(mat[0], [1.0, p0.floor, p0.floor])
        assert np.allclose(mat[1], [p0.floor, 0.5, 0.5])

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_rr_scores_match_brute_force(self, seed):
        rng = make_rng(seed)
        n, size, trials = 4, 6, 9
        pi = rng.random((n, size)) + 1e-3
        pi /= pi.sum(axis=1, keepdims=True)
        ys = rng.integers(0, size, size=trials)
        got = rr_single_datum_scores(pi, ys)
        want = np.array([[math.log2(pi[i, y]) for i in range(n)] for y in ys])
        assert np.allclose(got, want, atol=1e-12)

    def test_glh_scores_match_brute_force(self):
        rng = make_rng(23)
        n, size, trials, prime, g = 3, 5, 8, 13, 2
        pi = rng.random((n, size)) + 1e-3
        pi /= pi.sum(axis=1, keepdims=True)
        batch = GlhBatch(
            a=rng.integers(1, prime, size=trials),
            b=rng.integers(0, prime, size=trials),
            ys=rng.integers(1, g + 1, size=trials),
            prime=prime,
            g=g,
        )
        mech = GeneralLocalHash(1.0, g, CarterWegman(prime, g))
        got = glh_single_datum_scores(pi, batch, mech)
        shrink = mech.mu - mech.off_bucket
        want = np.empty((trials, n))
        for t in range(trials):
            pre = [x for x in range(size)
                   if ((batch.a[t] * x + batch.b[t]) % prime) % g + 1 == batch.ys[t]]
            for i in range(n):
                want[t, i] = math.log2(mech.off_bucket + shrink * pi[i, pre].sum())
        assert np.allclose(got, want, atol=1e-10)


class TestSimulation:
    def test_deterministic_under_seed(self):
        pop = point_mass_population([0, 1, 2], size=3)
        profiles = [train_profile([s], alphabet=3, owner=i) for i, s in enumerate([0, 1, 2])]
        mech = RandomizedResponse(epsilon=1.0, size=3)
        us1, sc1 = simulate_score_trials(pop, mech, profiles, 200, make_rng(5))
        us2, sc2 = simulate_score_trials(pop, mech, profiles, 200, make_rng(5))
        assert np.array_equal(us1, us2) and np.array_equal(sc1, sc2)

    def test_clear_releases_are_perfectly_identified(self):
        pop = point_mass_population([0, 1, 2, 3], size=4)
        profiles = [train_profile([s], alphabet=4, owner=i) for i, s in enumerate([0, 1, 2, 3])]
        err = identification_error_rate(pop, None, profiles, 300, make_rng(0))
        assert err == 0.0

    def test_identity_kernel_matches_clear_release(self):
        pop = point_mass_population([0, 1, 2], size=3)
        profiles = [train_profile([s], alphabet=3, owner=i) for i, s in enumerate([0, 1, 2])]
        err = identification_error_rate(pop, MechanismKernel.identity(3), profiles, 300, make_rng(1))
        assert err == 0.0

    def test_indistinguishable_users_fail_at_chance(self):
        # Four users with identical behavior and identical profiles: ties
        # always resolve to user 0, so the error rate is P(U != 0) = 3/4.
        d = CategoricalDistribution.uniform(5)
        pop = PopulationModel.single_datum(CategoricalDistribution.uniform(4), [d] * 4)
        profiles = [train_profile([0, 1, 2, 3, 4], alphabet=5, owner=i) for i in range(4)]
        err = identification_error_rate(pop, None, profiles, 4000, make_rng(2))
        assert abs(err - 0.75) < 5 * math.sqrt(0.1875 / 4000)

    def test_more_noise_means_more_errors(self):
        pop = point_mass_population([0, 1, 2, 3], size=4)
        profiles = [train_profile([s], alphabet=4, owner=i) for i, s in enumerate([0, 1, 2, 3])]
        errs = [
            identification_error_rate(
                pop, RandomizedResponse(epsilon=eps, size=4), profiles, 3000, make_rng(3)
            )
            for eps in (0.1, 1.0, 4.0)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_rr_error_rate_matches_exact_value(self):
        # Distinct point-mass users: the decision is right iff the released
        # symbol equals the true one OR the argmax tie resolves to the truth;
        # here the correct-decision probability is keep + leak (the truth wins
        # its own tie only when y = x, else a wrong user scores highest),
        # so the error is (k-2)*leak... computed directly from the kernel.
        eps, k, trials = 1.5, 4, 6000
        pop = point_mass_population([0, 1, 2, 3], size=k)
        profiles = [train_profile([s], alphabet=k, owner=i) for i, s in enumerate(range(k))]
        mech = RandomizedResponse(epsilon=eps, size=k)
        # Released symbol y identifies user y; correct iff y == x.
        p_correct = mech.mu
        err = identification_error_rate(pop, mech, profiles, trials, make_rng(4))
        assert abs(err - (1 - p_correct)) < 5 * math.sqrt(0.25 / trials)

    def test_trace_population_round_trip(self):
        # Two users with disjoint deterministic chains are separable from
        # clear traces.
        m0 = MarkovSource(np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.5, 0.5]]), trace_len=6)
        m1 = MarkovSource(np.array([0.0, 1.0]), np.array([[0.5, 0.5], [0.0, 1.0]]), trace_len=6)
        pop = PopulationModel(2, CategoricalDistribution.uniform(2), (m0, m1))
        profiles = [
            train_profile([0] * 8, alphabet=2, owner=0),
            train_profile([1] * 8, alphabet=2, owner=1),
        ]
        err = identification_error_rate(pop, None, profiles, 100, make_rng(6))
        assert err == 0.0

    def test_trace_population_rejects_hashed_mechanism(self):
        m0 = MarkovSource(np.array([1.0, 0.0]), np.eye(2), trace_len=4)
        pop = PopulationModel(2, CategoricalDistribution.uniform(2), (m0, m0))
        profiles = [train_profile([0, 0], 2, owner=i) for i in range(2)]
        mech = GeneralLocalHash.with_production_family(1.0, 2, domain_size=2)
        with pytest.raises(ValueError):
            simulate_score_trials(pop, mech, profiles, 10, make_rng(0))

    def test_unsupported_mechanism_rejected(self):
        pop = point_mass_population([0, 1], size=2)
        profiles = [train_profile([s], 2, owner=i) for i, s in enumerate([0, 1])]
        with pytest.raises(ValueError):
            simulate_score_trials(pop, "not a mechanism", profiles, 10, make_rng(0))

    def test_argument_validation(self):
        pop = point_mass_population([0, 1], size=2)
        profiles = [train_profile([0], 2)]
        with pytest.raises(ValueError):
            simulate_score_trials(pop, None, profiles, 10, make_rng(0))  # wrong count
        with pytest.raises(ValueError):
            simulate_score_trials(pop, None, profiles * 2, 0, make_rng(0))


class TestDetCurve:
    def test_hand_case(self):
        curve = far_frr_det([3.0, 1.0], [0.0, 2.0])
        assert np.array_equal(curve.thresholds[1:-1], [0.0, 1.0, 2.0, 3.0])
        assert curve.thresholds[0] == -np.inf and curve.thresholds[-1] == np.inf
        assert np.allclose(curve.far, [1.0, 1.0, 0.5, 0.5, 0.0, 0.0])
        assert np.allclose(curve.frr, [0.0, 0.0, 0.0, 0.5, 0.5, 1.0])

    def test_endpoints_always_degenerate(self):
        rng = make_rng(9)
        curve = far_frr_det(rng.normal(1, 1, 50), rng.normal(0, 1, 70))
        assert curve.far[0] == 1.0 and curve.frr[0] == 0.0
        assert curve.far[-1] == 0.0 and curve.frr[-1] == 1.0

    def test_monotonicity_enforced(self):
        rng = make_rng(10)
        curve = far_frr_det(rng.normal(1, 1, 200), rng.normal(0, 1, 200))
        assert np.all(np.diff(curve.far) <= 0)
        assert np.all(np.diff(curve.frr) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            far_frr_det([], [1.0])
        with pytest.raises(ValueError):
            DetCurve(
                thresholds=np.array([0.0, 1.0]),
                far=np.array([0.2, 0.8]),  # increasing FAR is impossible
                frr=np.array([0.0, 1.0]),
            )
        with pytest.raises(ValueError):
            DetCurve(
                thresholds=np.array([0.0, 1.0]),
                far=np.array([1.5, 0.0]),
                frr=np.array([0.0, 1.0]),
            )


def reference_log_likelihood(train, floor, release):
    """log2 likelihood of a release from the raw counts of one training trace.

    Each term is np.log2 of a count ratio (or of the floor), added in release
    order, so the result is exactly the float64 sum the scorer must produce.
    """
    train = list(train)
    first = train.count(release[0]) / len(train)
    total = np.log2(first if first > 0 else floor)
    pairs = list(zip(train[:-1], train[1:]))
    for src, dst in zip(release[:-1], release[1:]):
        out_of_src = sum(1 for s, _ in pairs if s == src)
        hits = pairs.count((src, dst))
        total += np.log2(hits / out_of_src if hits else floor)
    return float(total)


@st.composite
def training_sets(draw):
    """(size, training traces, per-profile floors) over a small alphabet.

    Short traces leave sources and destinations unseen, and symbols never
    visited give zero pi entries.
    """
    size = draw(st.integers(2, 5))
    n = draw(st.integers(1, 4))
    traces = [draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8))
              for _ in range(n)]
    floors = [draw(st.sampled_from([1e-8, 1e-5, 0.03])) for _ in range(n)]
    return size, traces, floors


def trained(size, traces, floors):
    return [train_profile(t, size, floor=f, owner=i)
            for i, (t, f) in enumerate(zip(traces, floors))]


def per_source_transitions(symbols):
    """Transition rows built one source symbol at a time."""
    symbols = np.asarray(symbols, dtype=np.int64)
    src, dst = symbols[:-1], symbols[1:]
    rows = {}
    for s in sorted(set(src.tolist())):
        dsts, counts = np.unique(dst[src == s], return_counts=True)
        rows[s] = (dsts, counts.astype(np.float64) / counts.sum())
    return rows


def visit_frequencies(symbols, size):
    """Dense empirical symbol frequencies of a trace."""
    return np.bincount(np.asarray(symbols), minlength=size).astype(np.float64) / len(symbols)


class TestVectorisedTraining:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 12).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=40))))
    def test_matches_per_source_reference(self, case):
        size, symbols = case
        prof = train_profile(symbols, size)
        assert prof.keys.dtype == np.int64 and np.all(np.diff(prof.keys) > 0)
        assert prof.probs.dtype == np.float64
        srcs, dsts = np.divmod(prof.keys, size)
        want = per_source_transitions(symbols)
        assert sorted(set(srcs[srcs < size].tolist())) == list(want)
        for src, (want_dsts, want_probs) in want.items():
            assert np.array_equal(dsts[srcs == src], want_dsts)
            assert prof.probs[srcs == src].tobytes() == want_probs.tobytes()
        freqs = visit_frequencies(symbols, size)
        visited = np.flatnonzero(freqs)
        assert np.array_equal(dsts[srcs == size], visited)
        assert prof.probs[srcs == size].tobytes() == freqs[visited].tobytes()
        assert prof.pi.tobytes() == freqs.tobytes()


class ZeroDraws:
    """Generator stub whose uniform draws are all exactly 0.0."""

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


class TestSamplersSkipZeroProbabilitySymbols:
    """A draw of exactly 0.0 must not land on a leading zero-probability symbol."""

    def test_single_datum_draws(self):
        us, released = sample_releases(point_mass_population([3, 5], 8), None, 4, ZeroDraws())
        assert us.tolist() == [0, 0, 0, 0]
        assert released.tolist() == [3, 3, 3, 3]

    def test_kernel_release(self):
        assert _kernel_sample(MechanismKernel(4, 4, np.eye(4)), np.array([1, 2, 3]),
                              ZeroDraws()).tolist() == [1, 2, 3]

    def test_lockstep_chains(self):
        pis = np.array([[0.0, 1.0, 0.0]])
        trans = np.array([[[0.0, 0.5, 0.5]] * 3])
        traces = _simulate_chains(pis, trans, np.array([[10, 11, 12]]), 3, ZeroDraws())
        assert traces[0].tolist() == [11, 11, 11]


class TestProfileTable:
    @settings(deadline=None, max_examples=200)
    @given(training_sets(), st.data())
    def test_scores_match_per_symbol_reference(self, case, data):
        size, traces, floors = case
        profiles = trained(size, traces, floors)
        release = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6))
        want = [reference_log_likelihood(t, f, release) for t, f in zip(traces, floors)]
        assert score_vector(release, profiles).scores.tolist() == want
        assert [log_likelihood(p, release) for p in profiles] == want

    @settings(deadline=None, max_examples=60)
    @given(training_sets(), st.integers(0, 2**32 - 1),
           st.sampled_from(["none", "rr", "kernel"]))
    def test_trial_scores_match_per_symbol_reference(self, case, seed, mech_name):
        # Even users follow a chain (trace length 1 to 4), odd users emit one
        # symbol, so the population is mixed and takes the trace path.
        size, traces, floors = case
        n = len(traces)
        rng = make_rng(seed)
        models = []
        for i in range(n):
            if i % 2 == 0:
                models.append(MarkovSource(rng.dirichlet(np.ones(size)),
                                           rng.dirichlet(np.ones(size), size=size),
                                           trace_len=int(rng.integers(1, 5))))
            else:
                models.append(SingleDatum(CategoricalDistribution(size, rng.dirichlet(np.ones(size)))))
        pop = PopulationModel(n, CategoricalDistribution(n, rng.dirichlet(np.ones(n))), models)
        mech = {"none": None,
                "rr": RandomizedResponse(1.0, size),
                "kernel": MechanismKernel(size, size, rng.dirichlet(np.ones(size), size=size).T),
                }[mech_name]
        trials = 12
        us, scores = simulate_score_trials(pop, mech, trained(size, traces, floors),
                                           trials, make_rng(seed))
        # replay the documented draw order: user, datum or trace, release
        replay = make_rng(seed)
        for t in range(trials):
            u = sample(pop.prior, replay)
            model = pop.models[u]
            if isinstance(model, SingleDatum):
                xs = np.array([sample(model.dist, replay)], dtype=np.int64)
            else:
                xs = sample_markov(model, replay)
            if mech is None:
                ys = xs
            elif isinstance(mech, RandomizedResponse):
                ys = rr_sample_batch(mech, xs, replay).ys
            else:
                ys = _kernel_sample(mech, xs, replay)
            assert us[t] == u
            want = [reference_log_likelihood(tr, f, ys.tolist()) for tr, f in zip(traces, floors)]
            assert scores[t].tolist() == want

    def test_zero_probability_entries_take_the_floor(self):
        # T(0,0) = 0, T(0,1) = 1 (keys 0, 1); pi = (0.5, 0.5, 0) (keys 9, 10, 11)
        prof = MarkovProfile(owner=0, size=3, keys=[0, 1, 9, 10, 11],
                             probs=[0.0, 1.0, 0.5, 0.5, 0.0], floor=0.25)
        assert prof.transition_prob(0, 0) == 0.25
        assert log_likelihood(prof, [0, 0, 1]) == -1.0 - 2.0 + 0.0
        assert log_likelihood(prof, [2]) == -2.0
        assert floored_pi_matrix([prof]).tolist() == [[0.5, 0.5, 0.25]]

    def test_rejects_inconsistent_input(self):
        p2 = train_profile([0, 1], 2)
        p3 = train_profile([0, 1], 3)
        with pytest.raises(ValueError):
            ProfileTable([p2, p3])
        for release in ([2], [0, -1]):
            with pytest.raises(ValueError):
                score_vector(release, [p2])
        with pytest.raises(ValueError):
            MarkovProfile(owner=0, size=3, keys=[9, 10], probs=[0.5])
        # a row outside the alphabet, then a ragged row: the constructor refuses both
        for keys, probs in (([6, 7, 8], [1.0, 0.5, 0.5]),
                            ([0, 1, 4, 5], [1.0, 0.5, 0.5])):
            with pytest.raises(ValueError):
                MarkovProfile(owner=0, size=2, keys=keys, probs=probs)

    def test_pair_keys_stay_inside_int64(self):
        # the largest key is the start row's last entry, (size + 1) * size - 1
        top = MAX_KEYED_ALPHABET
        key = _pair_keys([top], [top - 1], top)
        assert int(key[0]) == (top + 1) * top - 1 < 2 ** 63
        with pytest.raises(ValueError):
            _pair_keys([0], [0], top + 1)

    def test_floored_pi_matrix_uses_each_profiles_floor(self):
        p0 = train_profile([0, 0], alphabet=2, floor=1e-3)
        p1 = train_profile([1, 1], alphabet=2, floor=1e-5)
        mat = floored_pi_matrix([p0, p1])
        assert mat.tolist() == [[1.0, 1e-3], [1e-5, 1.0]]
