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
    glh_sample_batch,
    hash_buckets,
    rr_sample_batch,
)
from reidrisk.probcore import (
    CategoricalDistribution,
    MarkovSource,
    PopulationModel,
    SingleDatum,
    cdf_table,
    inverse_cdf,
    make_rng,
    sample,
    sample_markov,
    sample_traces,
    step_chains,
)
from reidrisk.reid import (
    MAX_KEYED_ALPHABET,
    DetCurve,
    MarkovProfile,
    ProfileTable,
    _pair_keys,
    far_frr_det,
    identification_error_rate,
    probe_score_trials,
    release,
    sample_releases,
    simulate_score_trials,
    train_profile,
)


def clear_profiles(probes, size):
    """(probes, table) where user i's profile was trained on its own probe alone."""
    probes = np.array(probes)
    return probes, ProfileTable([train_profile([s], size, owner=i) for i, s in enumerate(probes)])


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
        for symbols in ([0, 5], [-1], [0, 3], [2, 0, -5], [3, 3]):
            with pytest.raises(ValueError, match="outside alphabet"):
                train_profile(symbols, alphabet=3)

    def test_fractional_symbols_refused(self):
        # a plain int64 cast would train on [0, 1, 1] and score [0, 1]
        with pytest.raises(ValueError, match="integers"):
            train_profile([0.7, 1.9, 1.2], 3)
        table = ProfileTable([train_profile([0, 1, 1], 3)])
        with pytest.raises(ValueError, match="integers"):
            table.scores([0.9, 1.5])
        assert (train_profile(np.array([0.0, 1.0, 1.0]), 3).probs.tobytes()
                == train_profile([0, 1, 1], 3).probs.tobytes())

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
        assert ProfileTable([prof]).scores([0, 0, 1])[0] == -4.0

    def test_floor_applies_to_missing_entries(self):
        prof = train_profile([0, 0, 0], alphabet=2)
        want = math.log2(prof.floor) + math.log2(prof.floor)
        assert math.isclose(ProfileTable([prof]).scores([1, 1])[0], want, rel_tol=1e-12)

    def test_longer_own_trace_scores_higher_than_foreign(self):
        own = train_profile([0, 1, 0, 1, 0, 1], alphabet=2)
        table = ProfileTable([own])
        assert table.scores([0, 1, 0, 1])[0] > table.scores([1, 1, 1, 1])[0]

    def test_score_vector_and_ties(self):
        p0 = train_profile([0, 0], alphabet=2, owner=0)
        p1 = train_profile([0, 0], alphabet=2, owner=1)
        p2 = train_profile([1, 1], alphabet=2, owner=2)
        scores = ProfileTable([p0, p1, p2]).scores([0, 0])
        assert scores[0] == scores[1] > scores[2]
        assert np.argmax(scores) == 0  # the decision rule: a tie goes to the lowest index

    def test_score_vector_requires_profiles(self):
        with pytest.raises(ValueError):
            ProfileTable([])
        p = train_profile([0, 0], alphabet=2)
        for release in ([], [[0, 1]]):  # a release is a non-empty 1-d symbol sequence
            with pytest.raises(ValueError):
                ProfileTable([p]).scores(release)


def floored_visits(profiles):
    """Dense (n, size) visit probabilities, each profile's floor where pi is 0."""
    return np.array([np.where(p.pi > 0, p.pi, p.floor) for p in profiles])


def brute_glh_scores(profiles, batch, mech):
    """(records, n) GLH scores from each record's preimage, found by hashing every symbol."""
    xs = np.arange(profiles[0].size)
    pi = floored_visits(profiles)
    shrink = mech.mu - mech.off_bucket
    return np.array([[math.log2(mech.off_bucket + shrink * row[pre].sum()) for row in pi]
                     for pre in (hash_buckets(int(a), int(b), xs, batch.prime, batch.g) == y
                                 for a, b, y in zip(batch.a, batch.b, batch.ys))])


@st.composite
def visit_tables(draw):
    """(size, profiles): visit rows with per-profile floors, zero entries, and supports
    that often hold symbols 0 and size - 1."""
    size = draw(st.integers(1, 12))
    profiles = []
    for owner in range(draw(st.integers(1, 5))):
        support = draw(st.sets(st.sampled_from([0, size - 1]) | st.integers(0, size - 1),
                               min_size=1, max_size=size))
        weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e-9]),
                                min_size=len(support), max_size=len(support)))
        weights[0] = weights[0] or 1.0
        probs = np.array(weights) / sum(weights)
        floor = draw(st.sampled_from([1e-8, 1e-3, 0.03, 0.5]))
        profiles.append(MarkovProfile(owner=owner, size=size, floor=floor, probs=probs,
                                      keys=size * size + np.array(sorted(support))))
    return size, profiles


class TestSingleReleaseScores:
    def test_floored_pi_matrix(self):
        # the scores of symbols 0, 1, 2 read out log2 of the floored visit table
        p0 = train_profile([0, 0], alphabet=3)
        p1 = train_profile([1, 2], alphabet=3)
        scores = ProfileTable([p0, p1]).datum_scores(np.arange(3))
        want = [[1.0, p0.floor, p0.floor], [p0.floor, 0.5, 0.5]]
        assert np.array_equal(scores.T, np.log2(want))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_rr_scores_match_brute_force(self, seed):
        rng = make_rng(seed)
        n, size, trials = 4, 6, 9
        profiles = [train_profile(rng.integers(0, size, 5), size, owner=i,
                                  floor=float(rng.choice([1e-8, 0.3])))
                    for i in range(n)]
        ys = rng.integers(0, size, size=trials)
        got = ProfileTable(profiles).datum_scores(ys)
        want = np.array([[math.log2(p.pi[y] or p.floor) for p in profiles] for y in ys])
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.array_equal(got, np.log2(floored_visits(profiles)[:, ys]).T)

    def test_glh_scores_match_brute_force(self):
        rng = make_rng(23)
        n, size, trials, prime, g = 3, 5, 8, 13, 2
        profiles = [train_profile(rng.integers(0, size, 4), size, owner=i) for i in range(n)]
        batch = GlhBatch(
            a=rng.integers(1, prime, size=trials),
            b=rng.integers(0, prime, size=trials),
            ys=rng.integers(1, g + 1, size=trials),
            prime=prime,
            g=g,
        )
        mech = GeneralLocalHash(1.0, g, CarterWegman(prime, g))
        got = ProfileTable(profiles).datum_scores(batch, mech)
        assert np.allclose(got, brute_glh_scores(profiles, batch, mech), rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=150)
    @given(visit_tables(), st.integers(0, 2**32 - 1), st.sampled_from(["none", "rr", "glh"]))
    def test_claimant_scores_equal_all_user_scores(self, case, seed, mech_name):
        # the per-claimant form gives the all-users form's float for each (release, user)
        size, profiles = case
        rng = make_rng(seed)
        xs = rng.integers(0, size, 40)
        xs[:2] = 0, size - 1
        mech = {"none": None,
                "rr": RandomizedResponse(1.0, size) if size > 1 else None,
                "glh": GeneralLocalHash.with_production_family(2.0, int(rng.integers(2, 6)),
                                                               size)}[mech_name]
        released = (glh_sample_batch(mech, xs, rng) if mech_name == "glh"
                    else rr_sample_batch(mech, xs, rng).ys if mech is not None else xs)
        table = ProfileTable(profiles)
        every = table.datum_scores(released, mech)
        assert every.shape == (xs.size, len(profiles))
        rows = rng.integers(0, len(profiles), xs.size)
        assert np.array_equal(table.datum_scores(released, mech, rows=rows),
                              every[np.arange(xs.size), rows])
        if mech_name == "glh":
            want = brute_glh_scores(profiles, released, mech)
        else:
            want = np.log2(floored_visits(profiles)[:, released]).T
        assert np.allclose(every, want, rtol=0, atol=1e-12)

    def test_release_outside_the_alphabet_refused(self):
        table = ProfileTable([train_profile([0, 1], 2)])
        for ys in ([2], [-1], [0.5]):
            with pytest.raises(ValueError):
                table.datum_scores(np.array(ys))
            with pytest.raises(ValueError):
                table.datum_scores(np.array(ys), rows=np.zeros(1, dtype=np.int64))


class TestSimulation:
    def test_deterministic_under_seed(self):
        probes, table = clear_profiles([0, 1, 2], 3)
        mech = RandomizedResponse(epsilon=1.0, size=3)
        us1, sc1 = probe_score_trials(probes, mech, table, 200, make_rng(5))
        us2, sc2 = probe_score_trials(probes, mech, table, 200, make_rng(5))
        assert np.array_equal(us1, us2) and np.array_equal(sc1, sc2)

    def test_clear_releases_are_perfectly_identified(self):
        probes, table = clear_profiles([0, 1, 2, 3], 4)
        err = identification_error_rate(*probe_score_trials(probes, None, table, 300, make_rng(0)))
        assert err == 0.0

    @pytest.mark.parametrize("mech", [None, RandomizedResponse(1.0, 5),
                                      GeneralLocalHash.with_production_family(1.0, 2, 5)],
                             ids=["none", "rr", "glh"])
    def test_indistinguishable_users_fail_at_chance(self, mech):
        # Four users with identical probes and identical profiles score
        # bit-equal under every mechanism, and the first-index argmax names
        # user 0, so the error rate is P(U != 0) = 3/4.
        table = ProfileTable([train_profile([0, 1, 2, 3, 4], alphabet=5, owner=i)
                              for i in range(4)])
        us, scores = probe_score_trials(np.full(4, 2), mech, table, 4000, make_rng(2))
        assert (scores == scores[:, :1]).all()
        err = identification_error_rate(us, scores)
        assert err == float((us != 0).mean())
        assert abs(err - 0.75) < 5 * math.sqrt(0.1875 / 4000)

    def test_more_noise_means_more_errors(self):
        probes, table = clear_profiles([0, 1, 2, 3], 4)
        errs = [
            identification_error_rate(*probe_score_trials(
                probes, RandomizedResponse(epsilon=eps, size=4), table, 3000, make_rng(3)))
            for eps in (0.1, 1.0, 4.0)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_rr_error_rate_matches_exact_value(self):
        # Distinct probes: user y is the only one whose profile holds symbol y,
        # so the decision is right iff the released symbol equals the true one,
        # with probability mu.
        eps, k, trials = 1.5, 4, 6000
        probes, table = clear_profiles(range(k), k)
        mech = RandomizedResponse(epsilon=eps, size=k)
        err = identification_error_rate(*probe_score_trials(probes, mech, table, trials,
                                                            make_rng(4)))
        assert abs(err - (1 - mech.mu)) < 5 * math.sqrt(0.25 / trials)

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
        err = identification_error_rate(*simulate_score_trials(pop, None, profiles, 100,
                                                               make_rng(6)))
        assert err == 0.0

    def test_trace_population_rejects_hashed_mechanism(self):
        m0 = MarkovSource(np.array([1.0, 0.0]), np.eye(2), trace_len=4)
        pop = PopulationModel(2, CategoricalDistribution.uniform(2), (m0, m0))
        profiles = [train_profile([0, 0], 2, owner=i) for i in range(2)]
        mech = GeneralLocalHash.with_production_family(1.0, 2, domain_size=2)
        with pytest.raises(ValueError):
            simulate_score_trials(pop, mech, profiles, 10, make_rng(0))

    def test_unsupported_mechanism_rejected(self):
        probes, table = clear_profiles([0, 1], 2)
        for mech in ("not a mechanism", MechanismKernel.identity(2)):
            with pytest.raises(ValueError, match="unsupported mechanism"):
                probe_score_trials(probes, mech, table, 10, make_rng(0))

    def test_argument_validation(self):
        probes, table = clear_profiles([0, 1], 2)
        with pytest.raises(ValueError, match="one profile per user"):
            probe_score_trials(probes[:1], None, table, 10, make_rng(0))
        with pytest.raises(ValueError):
            probe_score_trials(probes, None, table, 0, make_rng(0))
        trace = MarkovSource(np.array([1.0, 0.0]), np.eye(2), trace_len=3)
        pop = PopulationModel(2, CategoricalDistribution.uniform(2), (trace, trace))
        with pytest.raises(ValueError):
            simulate_score_trials(pop, None, [train_profile([0], 2)], 10, make_rng(0))
        with pytest.raises(ValueError):
            simulate_score_trials(pop, None, [train_profile([0], 2)] * 2, 0, make_rng(0))

    @pytest.mark.parametrize("mech", [None, RandomizedResponse(1.0, 3),
                                      GeneralLocalHash.with_production_family(1.0, 2, 3)],
                             ids=["none", "rr", "glh"])
    def test_single_datum_population_refused(self, mech):
        # single data are probes beside a table; the population form holds traces only
        prior = CategoricalDistribution.uniform(2)
        pop = PopulationModel.single_datum(prior, [CategoricalDistribution.point_mass(3, 1)] * 2)
        profiles = [train_profile([1], 3, owner=i) for i in range(2)]
        with pytest.raises(ValueError, match="MarkovSource"):
            simulate_score_trials(pop, mech, profiles, 10, make_rng(0))


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


def unique_reference(symbols, size):
    """The former trainer: one np.unique over the keys, rows normalized by np.add.reduceat."""
    symbols = np.asarray(symbols, dtype=np.int64)
    keys, counts = np.unique(np.concatenate((_pair_keys(symbols[:-1], symbols[1:], size),
                                             _pair_keys(size, symbols, size))),
                             return_counts=True)
    starts = np.flatnonzero(np.diff(keys // size, prepend=-1))
    probs = counts / np.repeat(np.add.reduceat(counts, starts), np.diff(starts, append=keys.size))
    return keys, probs


@st.composite
def training_traces(draw):
    """(size, trace) over alphabets of 1 to 50 symbols; half the traces use symbol size - 1."""
    size = draw(st.integers(1, 50))
    trace = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=200))
    if draw(st.booleans()):
        trace.insert(draw(st.integers(0, len(trace))), size - 1)
    return size, trace


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

    @settings(deadline=None, max_examples=300)
    @given(training_traces())
    def test_matches_unique_reference(self, case):
        size, symbols = case
        prof = train_profile(symbols, size)
        keys, probs = unique_reference(symbols, size)
        assert prof.keys.tobytes() == keys.tobytes()
        assert prof.probs.tobytes() == probs.tobytes()

    @pytest.mark.parametrize("size", [1, 7, 50, 1000])
    def test_long_trace_matches_unique_reference(self, size):
        symbols = make_rng(size).integers(0, size, 10 ** 4)
        symbols[-1] = size - 1
        prof = train_profile(symbols, size)
        keys, probs = unique_reference(symbols, size)
        assert prof.keys.tobytes() == keys.tobytes()
        assert prof.probs.tobytes() == probs.tobytes()

    def test_largest_alphabet_trains_sparse(self):
        top = MAX_KEYED_ALPHABET
        prof = train_profile([0, top - 1, top - 1, 5], top)
        keys, probs = unique_reference([0, top - 1, top - 1, 5], top)
        assert prof.keys.tobytes() == keys.tobytes()
        assert prof.probs.tobytes() == probs.tobytes()

    @pytest.mark.parametrize("size", [MAX_KEYED_ALPHABET + 1, 2 ** 62])
    def test_refuses_alphabets_beyond_int64_keys(self, size):
        with pytest.raises(ValueError, match="overflows int64"):
            train_profile([0, 1], size)


class StubDraws:
    """Generator stub whose uniform draws all equal `u`."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


# The largest draw below 1. The positive entries 1..10 of TAILED sum to
# 0.9999999999999999, below it, so a CDF that forces only its final entry to
# 1.0 sends this draw to the trailing zero-probability symbol 11.
LAST_DRAW = 1.0 - 2.0 ** -53
TAILED = np.array([0.0] + [0.1] * 10 + [0.0])


class TestSamplersSkipZeroProbabilitySymbols:
    """No draw, 0.0 or the largest below 1, lands on a zero-probability symbol."""

    def test_single_datum_draws(self):
        us, released = sample_releases(np.array([3, 5]), None, 4, StubDraws(0.0))
        assert us.tolist() == [0, 0, 0, 0]
        assert released.tolist() == [3, 3, 3, 3]

    def test_lockstep_chains(self):
        pis = np.array([[0.0, 1.0, 0.0]])
        trans = np.array([[[0.0, 0.5, 0.5]] * 3])
        assert step_chains(pis, trans, 3, StubDraws(0.0)).tolist() == [[1, 1, 1]]

    def test_lockstep_chains_tail(self):
        trans = np.tile(TAILED, (1, 12, 1))
        assert step_chains(TAILED[None, :], trans, 3, StubDraws(LAST_DRAW)).tolist() == [[10] * 3]

    def test_probcore_sample_tail(self):
        d = CategoricalDistribution(12, TAILED)
        assert sample(d, StubDraws(LAST_DRAW)) == 10
        assert sample(d, StubDraws(LAST_DRAW), 3).tolist() == [10] * 3

    def test_sample_markov_tail(self):
        chain = MarkovSource(TAILED, np.tile(TAILED, (12, 1)), trace_len=3)
        assert sample_markov(chain, StubDraws(LAST_DRAW)).tolist() == [10] * 3


def dense_count_reference(cdfs, rows, draws):
    """The former inverse-CDF step: count the entries <= u over a whole row."""
    return (cdfs[rows] <= draws[:, None]).sum(axis=1)


# The cumulative sum of ROUNDED reaches 1.0000000000000002 at symbol 2, before
# the last positive entry 4, so its `cdf_table` row rises above 1.0 and then
# falls back to 1.0 there.
ROUNDED = np.array([0.0, 0.5, 0.5000000000000002, 0.0, 1e-17, 0.0])


class TestInverseCdfDraws:
    """The lockstep binary search gives the symbols of a dense count, draw for draw."""

    def test_rounded_row_matches_dense_count(self):
        assert cdf_table(ROUNDED).tolist() == [0.0, 0.5, 1.0000000000000002,
                                               1.0000000000000002, 1.0, 1.0]
        cdfs = cdf_table(np.vstack([ROUNDED, TAILED[:6] / TAILED[:6].sum()]))
        draws = np.array([0.0, np.nextafter(0.5, 0), 0.5, 0.7, LAST_DRAW] * 2)
        rows = np.repeat([0, 1], 5)
        got = inverse_cdf(cdfs, rows, draws)
        assert got.tolist() == dense_count_reference(cdfs, rows, draws).tolist()
        assert got[:5].tolist() == [1, 1, 2, 2, 2]

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 70), st.integers(1, 5), st.integers(0, 300), st.integers(0, 2**32 - 1))
    def test_matches_dense_count(self, width, n_rows, count, seed):
        # widths 1 to 70 cross the powers of two at which the search adds a step
        rng = make_rng(seed)
        p = rng.dirichlet(np.full(width, 0.3), n_rows) * (rng.random((n_rows, width)) < 0.7)
        p[:, 0] += p.sum(axis=1) == 0  # a row zeroed out entirely becomes a point mass
        rows = [p / p.sum(axis=1, keepdims=True)]
        for special in (ROUNDED, TAILED):
            if width >= special.size:
                rows.append(np.pad(special, (0, width - special.size))[None, :])
        cdfs = cdf_table(np.vstack(rows))
        rows = rng.integers(0, cdfs.shape[0], count)
        draws = rng.random(count)
        draws[::7] = LAST_DRAW
        draws[::11] = 0.0
        got = inverse_cdf(cdfs, rows, draws)
        assert got.dtype == np.int64
        assert got.tolist() == dense_count_reference(cdfs, rows, draws).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sample_releases_draws_as_the_dense_count(self, seed):
        # the probes as one-hot rows, each symbol by a dense count over its row
        probes = np.concatenate([[0, 5], make_rng(seed).integers(0, 6, 3)])
        us, xs = sample_releases(probes, None, 500, make_rng(seed))
        rng = make_rng(seed)
        want_us = sample(CategoricalDistribution.uniform(5), rng, 500)
        want = dense_count_reference(cdf_table(np.eye(6)[probes]), want_us, rng.random(500))
        assert us.tolist() == want_us.tolist()
        assert xs.tolist() == want.tolist()

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 9), st.integers(1, 40), st.integers(1, 300), st.integers(0, 2**32 - 1),
           st.sampled_from(["none", "rr", "glh"]))
    def test_sample_releases_draws_as_the_point_mass_path(self, n, size, count, seed, mech_name):
        # user u's probe as the one-hot row of a point mass: users from the prior,
        # then one inverse-CDF draw per user over that row, then the release
        rng = make_rng(seed)
        probes = rng.integers(0, size, n)
        probes[0], probes[-1] = 0, size - 1
        mech = {"none": None,
                "rr": RandomizedResponse(1.0, size) if size > 1 else None,
                "glh": GeneralLocalHash.with_production_family(1.0, 3, size)}[mech_name]
        draws = make_rng(seed + 1)
        us, released = sample_releases(probes, mech, count, draws)
        replay = make_rng(seed + 1)
        want_us = sample(CategoricalDistribution.uniform(n), replay, count)
        xs = inverse_cdf(cdf_table(np.eye(size)[probes]), want_us, replay.random(count))
        want = release(mech, xs, replay)

        def columns(r):
            return np.stack([r.a, r.b, r.ys]) if isinstance(r, GlhBatch) else r

        assert us.tolist() == want_us.tolist()
        assert np.array_equal(xs, probes[us])
        assert np.array_equal(columns(released), columns(want))
        assert draws.random() == replay.random()


def dense_chains_reference(pis, trans, length, rng):
    """The former lockstep stepper: a dense count of each draw over its chain's CDF row."""
    n = pis.shape[0]
    out = np.empty((n, length), dtype=np.int64)
    state = (cdf_table(pis) <= rng.random(n)[:, None]).sum(axis=1)
    out[:, 0] = state
    cdfs = cdf_table(trans)
    rows = np.arange(n)
    for t in range(1, length):
        state = (cdfs[rows, state] <= rng.random(n)[:, None]).sum(axis=1)
        out[:, t] = state
    return out


def searchsorted_markov_reference(model, rng):
    """The former `sample_markov`: one `searchsorted` per step of one chain."""
    cdf0 = cdf_table(model.initial)
    row_mass = model.transitions.sum(axis=1)
    cdfs = cdf_table(model.transitions, row_mass[:, None])
    out = np.empty(model.trace_len, dtype=np.int64)
    state = int(np.searchsorted(cdf0, rng.random(), side="right"))
    out[0] = state
    draws = rng.random(model.trace_len - 1)
    for t in range(1, model.trace_len):
        state = int(np.searchsorted(cdfs[state], draws[t - 1], side="right"))
        out[t] = state
    return out if model.support is None else model.support[out]


def lockstep_reference(models, rng):
    """Traces of `sample_traces`, chain by chain: all first draws, then one per chain a step."""
    states = [[int(np.searchsorted(cdf_table(m.initial), u, side="right"))]
              for m, u in zip(models, rng.random(len(models)))]
    for _ in range(1, models[0].trace_len):
        for m, trace, u in zip(models, states, rng.random(len(models))):
            mass = m.transitions.sum(axis=1)
            trace.append(int(np.searchsorted(cdf_table(m.transitions, mass[:, None])[trace[-1]],
                                             u, side="right")))
    return np.array([m.support[tr] if m.support is not None else tr
                     for m, tr in zip(models, states)], dtype=np.int64)


def random_chains(rng, n, dim, length, zero_share=0.3):
    """n chains over dim states; a share of entries is zeroed, never a whole row."""
    def rows(count):
        p = rng.dirichlet(np.full(dim, 0.5), count) * (rng.random((count, dim)) >= zero_share)
        p[np.arange(count), rng.integers(0, dim, count)] += p.sum(axis=1) == 0
        return p / p.sum(axis=1, keepdims=True)
    return [MarkovSource(rows(1)[0], rows(dim), trace_len=length,
                         support=np.sort(rng.choice(10 * dim, dim, replace=False)))
            for _ in range(n)]


class TestChainSteppers:
    """`step_chains` steps every chain through `inverse_cdf`, as the former steppers did."""

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 8), st.integers(1, 20), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_step_chains_matches_the_dense_count(self, n, dim, length, seed):
        models = random_chains(make_rng(seed), n, dim, length)
        pis = np.stack([m.initial for m in models])
        trans = np.stack([m.transitions for m in models])
        got = step_chains(pis, trans, length, make_rng(seed + 1))
        assert got.dtype == np.int64
        assert got.tolist() == dense_chains_reference(pis, trans, length, make_rng(seed + 1)).tolist()

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 20), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_sample_markov_matches_the_searchsorted_steps(self, dim, length, seed):
        model = random_chains(make_rng(seed), 1, dim, length)[0]
        want = searchsorted_markov_reference(model, make_rng(seed + 1))
        assert sample_markov(model, make_rng(seed + 1)).tolist() == want.tolist()

    def test_sample_markov_draws_rounded_and_tailed_rows(self):
        for p in (ROUNDED, TAILED):
            model = MarkovSource(p, np.tile(p, (p.size, 1)), trace_len=40)
            for seed in range(5):
                want = searchsorted_markov_reference(model, make_rng(seed))
                assert sample_markov(model, make_rng(seed)).tolist() == want.tolist()

    def test_transition_rows_are_divided_by_their_mass(self):
        # row 0 sums to 1 - 6e-10, inside the tolerance; divided, its first
        # entry rises above the draw, which the undivided 0.3 does not
        row = [0.3, 0.3, 0.4 - 6e-10]
        model = MarkovSource(np.array([1.0, 0.0, 0.0]), np.array([row, row, row]), trace_len=3)
        assert sample_markov(model, StubDraws(0.3 + 1e-10)).tolist() == [0, 0, 0]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 8), st.integers(1, 10), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_sample_traces_steps_in_lockstep(self, n, dim, length, seed):
        models = random_chains(make_rng(seed), n, dim, length)
        # chain 0 has no support, so maps through the identity
        models[0] = MarkovSource(models[0].initial, models[0].transitions, trace_len=length)
        got = sample_traces(models, make_rng(seed + 1))
        assert got.shape == (n, length)
        assert got.tolist() == lockstep_reference(models, make_rng(seed + 1)).tolist()

    def test_refuses_mixed_and_ragged_chains(self):
        chain = MarkovSource(np.array([1.0, 0.0]), np.eye(2), trace_len=3)
        datum = SingleDatum(CategoricalDistribution.point_mass(2, 0))
        wider = MarkovSource(np.array([1.0, 0.0, 0.0]), np.eye(3), trace_len=3)
        longer = MarkovSource(chain.initial, chain.transitions, trace_len=4)
        profiles = [train_profile([0, 1], 3, owner=i) for i in range(2)]
        for other, why in ((datum, "mix"), (wider, "one dimension"), (longer, "one trace length")):
            with pytest.raises(ValueError, match=why):
                sample_traces([chain, other], make_rng(0))
            pop = PopulationModel(2, CategoricalDistribution(2, [1.0, 0.0]), (chain, other))
            with pytest.raises(ValueError, match=why):  # refused although user 1 is never drawn
                simulate_score_trials(pop, None, profiles, 5, make_rng(0))


class TestProfileTable:
    @settings(deadline=None, max_examples=200)
    @given(training_sets(), st.data())
    def test_scores_match_per_symbol_reference(self, case, data):
        size, traces, floors = case
        profiles = trained(size, traces, floors)
        release = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6))
        want = [reference_log_likelihood(t, f, release) for t, f in zip(traces, floors)]
        assert ProfileTable(profiles).scores(release).tolist() == want
        assert [ProfileTable([p]).scores(release)[0] for p in profiles] == want

    @settings(deadline=None, max_examples=60)
    @given(training_sets(), st.integers(0, 2**32 - 1), st.sampled_from(["none", "rr"]))
    def test_trial_scores_match_per_symbol_reference(self, case, seed, mech_name):
        # every user follows a chain over the whole alphabet, all of one trace length
        size, traces, floors = case
        n = len(traces)
        rng = make_rng(seed)
        length = int(rng.integers(1, 5))
        models = [MarkovSource(rng.dirichlet(np.ones(size)),
                               rng.dirichlet(np.ones(size), size=size), trace_len=length)
                  for _ in range(n)]
        pop = PopulationModel(n, CategoricalDistribution(n, rng.dirichlet(np.ones(n))), models)
        mech = {"none": None, "rr": RandomizedResponse(1.0, size)}[mech_name]
        trials = 12
        us, scores = simulate_score_trials(pop, mech, trained(size, traces, floors),
                                           trials, make_rng(seed))
        # replay the documented draw order: users, lockstep chain steps, one release
        replay = make_rng(seed)
        want_us = sample(pop.prior, replay, trials)
        xs = lockstep_reference([models[u] for u in want_us], replay).ravel()
        ys = xs if mech is None else rr_sample_batch(mech, xs, replay).ys
        assert us.tolist() == want_us.tolist()
        for t, y in enumerate(ys.reshape(trials, length).tolist()):
            want = [reference_log_likelihood(tr, f, y) for tr, f in zip(traces, floors)]
            assert scores[t].tolist() == want

    def test_zero_probability_entries_take_the_floor(self):
        # T(0,0) = 0, T(0,1) = 1 (keys 0, 1); pi = (0.5, 0.5, 0) (keys 9, 10, 11)
        prof = MarkovProfile(owner=0, size=3, keys=[0, 1, 9, 10, 11],
                             probs=[0.0, 1.0, 0.5, 0.5, 0.0], floor=0.25)
        assert prof.transition_prob(0, 0) == 0.25
        assert ProfileTable([prof]).scores([0, 0, 1])[0] == -1.0 - 2.0 + 0.0
        assert ProfileTable([prof]).scores([2])[0] == -2.0
        assert ProfileTable([prof]).datum_scores(np.arange(3)).ravel().tolist() == [-1.0, -1.0, -2.0]

    def test_rejects_inconsistent_input(self):
        p2 = train_profile([0, 1], 2)
        p3 = train_profile([0, 1], 3)
        with pytest.raises(ValueError):
            ProfileTable([p2, p3])
        for release in ([2], [0, -1]):
            with pytest.raises(ValueError):
                ProfileTable([p2]).scores(release)
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
        scores = ProfileTable([p0, p1]).datum_scores(np.arange(2))
        assert np.array_equal(scores.T, np.log2([[1.0, 1e-3], [1e-5, 1.0]]))

    def test_threads_sharing_a_table_build_its_start_rows_once(self, monkeypatch):
        import threading
        import time

        import scipy.sparse

        built, csr_array = [], scipy.sparse.csr_array

        def slow_csr_array(*args, **kwargs):  # widens the window in which builds could overlap
            built.append(threading.get_ident())
            time.sleep(0.01)
            return csr_array(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse, "csr_array", slow_csr_array)
        table = ProfileTable([train_profile([i, i + 1], 6, owner=i) for i in range(5)])
        start, results = threading.Barrier(4, timeout=10), []

        def score():
            start.wait()
            results.append(table.datum_scores(np.arange(6)))

        threads = [threading.Thread(target=score) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads) and len(results) == 4
        assert len(built) == 2  # the entry and excess arrays, once
        assert all(np.array_equal(r, results[0]) for r in results)
