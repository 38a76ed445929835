"""Tests for the probability core: the symbol gate, distributions, information
measures, Markov sources, population models, and seeded stream spawning."""

import argparse
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reidrisk import cli, reid
from reidrisk.estimation import estimate_rr
from reidrisk.mechanisms import (CarterWegman, GeneralLocalHash, MechanismKernel,
                                 RandomizedResponse, RrBatch, glh_sample_batch, rr_sample_batch)
from reidrisk.oracle import SmallInstance
from reidrisk.pipeline import DataError, TraceDataset
from reidrisk.probcore import (
    SUM_TOL,
    CategoricalDistribution,
    MarkovSource,
    PopulationModel,
    alphabet_symbols,
    entropy,
    make_rng,
    mutual_information,
    sample,
    sample_markov,
    spawn_streams,
)

# Reference constants, frozen from high-precision (mpmath) evaluation.
ENTROPY_3_4 = 0.8112781244591329  # binary entropy of 3/4, in bits
KL_34_VS_HALF = 0.18872187554086714  # KL((3/4,1/4) || (1/2,1/2)), in bits


def simplexes(min_size=2, max_size=8):
    """Strategy producing strictly positive probability vectors."""
    return (
        st.lists(st.floats(0.01, 1.0), min_size=min_size, max_size=max_size)
        .map(lambda w: np.asarray(w) / np.sum(w))
    )


class TestCategoricalDistribution:
    def test_accepts_int_alphabet(self):
        d = CategoricalDistribution(4, [0.1, 0.2, 0.3, 0.4])
        assert d.size == 4

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            CategoricalDistribution(2, [1.1, -0.1])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            CategoricalDistribution(3, [0.5, 0.5])

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            CategoricalDistribution(2, [0.6, 0.6])

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError, match="not finite"):
            CategoricalDistribution(2, [math.nan, 1.0])

    def test_tiny_drift_is_renormalized(self):
        d = CategoricalDistribution(2, [0.5 + 2e-10, 0.5])
        assert math.isclose(float(np.sum(d.p)), 1.0, rel_tol=0, abs_tol=1e-15)

    def test_point_mass(self):
        d = CategoricalDistribution.point_mass(5, 3)
        assert d.p[3] == 1.0 and np.sum(d.p) == 1.0

    def test_uniform(self):
        d = CategoricalDistribution.uniform(8)
        assert np.allclose(d.p, 1 / 8)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_one_distribution_per_row(self, n, size, seed):
        # p(x | u) rows are held as one array by oracle.SmallInstance
        rng = np.random.default_rng(seed)
        m = rng.gamma(1.0, 1.0, size=(n, size))
        m /= m.sum(axis=1, keepdims=True)
        rows = SmallInstance(np.full(n, 1 / n), m, MechanismKernel.identity(size)).cond
        assert rows.tolist() == [CategoricalDistribution(size, r).p.tolist() for r in m]
        assert rows.shape == (n, size) and not rows.flags.writeable


class TestEntropyAndKl:
    def test_entropy_frozen_value(self):
        d = CategoricalDistribution(2, [0.75, 0.25])
        assert math.isclose(entropy(d), ENTROPY_3_4, rel_tol=1e-14)

    def test_entropy_point_mass_is_zero(self):
        assert entropy(CategoricalDistribution.point_mass(4, 0)) == 0.0

    def test_entropy_uniform_is_log_size(self):
        assert math.isclose(entropy(CategoricalDistribution.uniform(16)), 4.0, rel_tol=1e-14)

    @settings(deadline=None, max_examples=50)
    @given(simplexes())
    def test_entropy_bounds(self, p):
        h = entropy(CategoricalDistribution(p.size, p))
        assert -1e-12 <= h <= math.log2(p.size) + 1e-12


class TestJointDistribution:
    """A joint distribution is a plain 2-d array; `mutual_information` validates it."""

    def test_marginals(self):
        # I = H(row) + H(col) - H(joint), with the marginals summed off the array
        m = np.array([[0.1, 0.25, 0.05], [0.3, 0.0, 0.3]])
        h_row = entropy(CategoricalDistribution(2, m.sum(axis=1)))
        h_col = entropy(CategoricalDistribution(3, m.sum(axis=0)))
        h_joint = entropy(CategoricalDistribution(6, m.ravel()))
        assert math.isclose(mutual_information(m), h_row + h_col - h_joint, rel_tol=1e-12)

    def test_rejects_negative_or_unnormalized(self):
        with pytest.raises(ValueError, match="deviates from 1"):
            mutual_information(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="negative"):
            mutual_information(np.array([[1.2, -0.2], [0.0, 0.0]]))
        # a mass off by more than SUM_TOL is refused, drift within it is not
        with pytest.raises(ValueError, match="deviates from 1"):
            mutual_information(np.array([[0.5, 0.5 + 2 * SUM_TOL]]))
        assert mutual_information(np.array([[0.5, 0.5 + SUM_TOL / 2]])) == 0.0

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError, match="not finite"):
            mutual_information(np.array([[math.nan, 0.5], [0.25, 0.25]]))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 1)])
    def test_rejects_non_2d(self, shape):
        with pytest.raises(ValueError, match="2-d"):
            mutual_information(np.full(shape, 0.25))

    def test_mutual_information_independent_is_zero(self):
        outer = np.outer([0.3, 0.7], [0.6, 0.4])
        assert abs(mutual_information(outer)) < 1e-14

    def test_mutual_information_diagonal_equals_entropy(self):
        want = entropy(CategoricalDistribution(3, [0.2, 0.3, 0.5]))
        assert math.isclose(mutual_information(np.diag([0.2, 0.3, 0.5])), want, rel_tol=1e-13)

    def test_mutual_information_frozen_value(self):
        # Uniform input through a channel that keeps the symbol w.p. 3/4:
        # I = 1 - H(3/4) = KL((3/4,1/4) || uniform).
        joint = np.array([[0.375, 0.125], [0.125, 0.375]])
        assert math.isclose(mutual_information(joint), KL_34_VS_HALF, rel_tol=1e-13)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_mutual_information_bounds(self, seed):
        rng = make_rng(seed)
        m = rng.random((3, 4))
        m /= m.sum()
        mi = mutual_information(m)
        h_row = entropy(CategoricalDistribution(3, m.sum(axis=1)))
        h_col = entropy(CategoricalDistribution(4, m.sum(axis=0)))
        assert -1e-12 <= mi <= min(h_row, h_col) + 1e-12


class TestSampling:
    def test_sample_deterministic_under_seed(self):
        d = CategoricalDistribution(4, [0.1, 0.2, 0.3, 0.4])
        a = sample(d, make_rng(7), size=100)
        b = sample(d, make_rng(7), size=100)
        assert np.array_equal(a, b)

    def test_sample_scalar_and_vector(self):
        d = CategoricalDistribution(3, [0.2, 0.3, 0.5])
        x = sample(d, make_rng(0))
        assert isinstance(x, (int, np.integer)) and 0 <= x < 3
        xs = sample(d, make_rng(0), size=50)
        assert xs.shape == (50,) and xs.min() >= 0 and xs.max() < 3

    def test_sample_frequencies_match(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        xs = sample(CategoricalDistribution(4, p), make_rng(123), size=200_000)
        freq = np.bincount(xs, minlength=4) / xs.size
        # 5 sigma on the largest cell standard error.
        assert np.max(np.abs(freq - p)) < 5 * math.sqrt(0.25 / xs.size)

    def test_point_mass_sampling_is_constant(self):
        xs = sample(CategoricalDistribution.point_mass(6, 4), make_rng(1), size=64)
        assert np.all(xs == 4)


class TestMarkovSource:
    def test_validation(self):
        pi = np.array([1.0, 0.0])
        good = np.array([[0.5, 0.5], [1.0, 0.0]])
        MarkovSource(pi, good, trace_len=3)
        with pytest.raises(ValueError):
            MarkovSource(pi, np.array([[0.5, 0.4], [1.0, 0.0]]), trace_len=3)
        with pytest.raises(ValueError):
            MarkovSource(pi, good, trace_len=0)

    def test_sample_markov_deterministic(self):
        pi = np.array([0.5, 0.5])
        tr = np.array([[0.9, 0.1], [0.2, 0.8]])
        m = MarkovSource(pi, tr, trace_len=20)
        a = sample_markov(m, make_rng(42))
        b = sample_markov(m, make_rng(42))
        assert np.array_equal(a, b) and a.shape == (20,)

    def test_sample_markov_respects_support(self):
        pi = np.array([1.0, 0.0])
        tr = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = MarkovSource(pi, tr, trace_len=6, support=np.array([10, 99]))
        trace = sample_markov(m, make_rng(0))
        # Deterministic alternation mapped through the support.
        assert np.array_equal(trace, [10, 99, 10, 99, 10, 99])

    def test_sample_markov_refuses_a_zero_mass_row(self):
        # state 1 is entered but has no outgoing transitions
        m = MarkovSource(np.array([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), trace_len=3)
        with pytest.raises(ValueError, match="no outgoing transitions from state 1"):
            sample_markov(m, make_rng(0))
        assert sample_markov(MarkovSource(m.initial, m.transitions, trace_len=2),
                             make_rng(0)).tolist() == [0, 1]

    def test_support_length_mismatch(self):
        with pytest.raises(ValueError):
            MarkovSource(np.array([1.0, 0.0]), np.eye(2), trace_len=2, support=np.array([1]))

    @pytest.mark.parametrize("support,message", [
        ([2.5], "symbols must be integers"),
        ([math.nan], "symbols must be integers"),
        ([5, -1], "support symbols must be non-negative"),
    ])
    def test_support_refuses_what_is_not_a_symbol(self, support, message):
        # a cast would read 2.5 as symbol 2
        k = len(support)
        with pytest.raises(ValueError, match=message):
            MarkovSource(np.full(k, 1 / k), np.eye(k), trace_len=2, support=support)

    def test_holds_read_only_copies(self):
        # the checks hold only if no later write reaches the stored arrays
        pi, tr, support = np.array([1.0, 0.0]), np.eye(2), np.array([3, 7])
        m = MarkovSource(pi, tr, trace_len=2, support=support)
        support[0], pi[0], tr[0, 0] = -5, 0.5, 0.25
        assert m.support.tolist() == [3, 7]
        assert m.initial.tolist() == [1.0, 0.0] and m.transitions[0, 0] == 1.0
        for stored in (m.support, m.initial, m.transitions):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0

    def test_refuses_nan_entries(self):
        # NaN slips through both a `< 0` check and a mass check
        with pytest.raises(ValueError, match="non-finite"):
            MarkovSource(np.array([1.0, 0.0]), np.array([[0.5, 0.5], [np.nan, np.nan]]),
                         trace_len=3)
        with pytest.raises(ValueError, match="non-finite"):
            MarkovSource(np.array([np.nan, 1.0]), np.eye(2), trace_len=3)


class TestPopulationModel:
    def test_single_datum_construction(self):
        # a population holds chains; single data are arrays (oracle.SmallInstance, reid probes)
        prior = CategoricalDistribution.uniform(2)
        dists = (CategoricalDistribution.point_mass(3, 0), CategoricalDistribution.point_mass(3, 2))
        with pytest.raises(ValueError, match="^every data model must be a MarkovSource$"):
            PopulationModel(2, prior, dists)

    def test_conditional_matrix_rows(self):
        # single-datum p(x | u) rows live in oracle.SmallInstance, not in a PopulationModel
        prior = CategoricalDistribution(2, [0.25, 0.75])
        cond = [[0.5, 0.3, 0.2], CategoricalDistribution.point_mass(3, 1).p]
        cm = SmallInstance(prior.p, cond, MechanismKernel.identity(3)).cond
        assert cm.shape == (2, 3)
        assert np.allclose(cm[0], [0.5, 0.3, 0.2]) and np.allclose(cm[1], [0, 1, 0])

    def test_prior_size_mismatch(self):
        chain = MarkovSource(np.array([1.0, 0.0]), np.eye(2), trace_len=2)
        with pytest.raises(ValueError, match="prior must be a distribution over the n users"):
            PopulationModel(2, CategoricalDistribution.uniform(3), (chain, chain))


class TestStreams:
    def test_spawn_streams_deterministic_and_distinct(self):
        a = spawn_streams(99, 3)
        b = spawn_streams(99, 3)
        draws_a = [r.integers(0, 2**63, size=4) for r in a]
        draws_b = [r.integers(0, 2**63, size=4) for r in b]
        for da, db in zip(draws_a, draws_b):
            assert np.array_equal(da, db)
        assert not np.array_equal(draws_a[0], draws_a[1])

    def test_spawn_streams_differ_from_root(self):
        root = make_rng(99).integers(0, 2**63, size=4)
        child = spawn_streams(99, 1)[0].integers(0, 2**63, size=4)
        assert not np.array_equal(root, child)

    def test_zero_count_gives_empty_list(self):
        assert spawn_streams(0, 0) == []


GATE_SIZE = 5  # the alphabet of every entry point below, and the hash modulus P of its GLH
GATE_TABLE = reid.ProfileTable([reid.train_profile([0, 1, 2], GATE_SIZE),
                                reid.train_profile([3, 3], GATE_SIZE)])


def obfuscate_values(xs, out):
    """`reidrisk obfuscate --mechanism rr` of a values file whose x column reads as xs."""
    args = argparse.Namespace(input="values.csv", out=str(out), mechanism="rr", epsilon=1.0,
                              size=GATE_SIZE, g=None, seed=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_read_values_csv", lambda path: (np.zeros(np.size(xs)), xs))
        cli._cmd_obfuscate(args)


class TestOneSymbolGate:
    """Every symbol array passes `alphabet_symbols`: integers on one axis inside [0, size)."""

    ENTRY_POINTS = {
        "estimate_rr": lambda xs, out: estimate_rr(RrBatch(ys=xs), 1.0, GATE_SIZE),
        "rr_sample_batch": lambda xs, out: rr_sample_batch(
            RandomizedResponse(1.0, GATE_SIZE), xs, make_rng(0)),
        "glh_sample_batch": lambda xs, out: glh_sample_batch(  # the hash domain [0, P)
            GeneralLocalHash(1.0, CarterWegman(GATE_SIZE, 2)), xs, make_rng(0)),
        "TraceDataset": lambda xs, out: TraceDataset(GATE_SIZE, (np.array([0]), xs)),
        "train_profile": lambda xs, out: reid.train_profile(xs, GATE_SIZE),
        "ProfileTable.scores": lambda xs, out: GATE_TABLE.scores(xs),
        "ProfileTable.datum_scores": lambda xs, out: GATE_TABLE.datum_scores(xs),
        "ProfileTable.datum_scores-rows": lambda xs, out: GATE_TABLE.datum_scores(
            xs, rows=np.zeros(np.size(xs), dtype=np.int64)),
        "_check_probes": lambda xs, out: reid._check_probes(xs, GATE_TABLE),
        "probe_score_trials": lambda xs, out: reid.probe_score_trials(
            xs, None, GATE_TABLE, 3, make_rng(0)),
        "cli._cmd_obfuscate": obfuscate_values,
    }
    # two symbols each, one per profile of the table, apart from the 0-d and 2-d arrays
    BAD = {
        "0-d": (np.array(1), "symbols must lie on one axis, got shape ()"),
        "2-d": (np.array([[0, 1], [1, 0]]), "symbols must lie on one axis, got shape (2, 2)"),
        "bool": (np.array([True, False]), "symbols must be integers inside the 64-bit range"),
        "object": (np.array([0, 1], dtype=object), "symbols must be integers"),
        "fraction": (np.array([0.0, 1.5]), "symbols must be integers"),
        "negative": (np.array([0, -1]), "symbol -1 outside [0, "),
        "size": (np.array([0, GATE_SIZE]), "symbol 5 outside [0, 5)"),
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_refused(self, entry, bad, tmp_path):
        xs, message = self.BAD[bad]
        # a ValueError (DataError from a dataset) with the gate's message, never an
        # IndexError, AttributeError or NotImplementedError from deeper down
        with pytest.raises(DataError if entry == "TraceDataset" else ValueError) as caught:
            self.ENTRY_POINTS[entry](xs, tmp_path)
        assert message in str(caught.value)

    def test_gate_names_the_array(self):
        assert alphabet_symbols([2.0, 0], 3, "probe").tolist() == [2, 0]
        assert alphabet_symbols(np.array([], dtype=np.uint8), 3, "probe").dtype == np.int64
        for xs, message in (([1, 5, -2, 7], "probe symbol 5 outside [0, 3)"),
                            ([[1]], "probe symbols must lie on one axis, got shape (1, 1)"),
                            (["1"], "probe symbols must be integers inside the 64-bit range")):
            with pytest.raises(ValueError) as caught:
                alphabet_symbols(xs, 3, "probe")
            assert str(caught.value) == message
