"""Tests for data ingest, synthetic populations, experiment config, and the
end-to-end experiment runner (determinism, manifest, failure handling)."""

import json
import math
import os

import numpy as np
import pytest

from reidrisk import mechanisms, pipeline, reid
from reidrisk.pipeline import (
    DataError,
    ExperimentConfig,
    PipelineError,
    SynthesisSpec,
    TraceDataset,
    ingest_checkins,
    run_experiment,
    split_traces,
    synth_population,
    write_synth_checkins,
    zipf_law,
)
from reidrisk.probcore import Alphabet, make_rng


def write_csv(path, rows, header="user_id,timestamp,poi_id"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


class TestIngest:
    def test_orders_by_timestamp_and_sorts_users_and_labels(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(p, [
            ("bob", 3, "cafe"), ("bob", 1, "gym"),
            ("alice", 2, "park"), ("alice", 1, "cafe"), ("bob", 2, "park"),
            ("alice", 3, "gym"),
        ])
        ds = ingest_checkins(p, min_events=2)
        assert ds.user_labels == ("alice", "bob")
        assert ds.alphabet.labels == ("cafe", "gym", "park")
        assert ds.traces[0].tolist() == [0, 2, 1]  # alice: cafe, park, gym
        assert ds.traces[1].tolist() == [1, 2, 0]  # bob: gym, park, cafe
        assert ds.provenance["kept_users"] == 2
        assert ds.provenance["dropped_users"] == 0

    def test_duplicate_timestamps_keep_input_order(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(p, [("u", 5, "a"), ("u", 5, "b"), ("u", 5, "c")])
        ds = ingest_checkins(p, min_events=1)
        assert [ds.alphabet.label_of(int(x)) for x in ds.traces[0]] == ["a", "b", "c"]

    def test_min_events_drops_and_counts(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(p, [("keep", t, "x") for t in range(4)] + [("drop", 0, "x")])
        ds = ingest_checkins(p, min_events=3)
        assert ds.user_labels == ("keep",)
        assert ds.provenance["dropped_users"] == 1
        assert ds.provenance["min_events"] == 3

    def test_nobody_qualifies(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(p, [("u", 0, "x")])
        with pytest.raises(DataError, match="minimum"):
            ingest_checkins(p, min_events=5)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(p, [("u", 0, "x")], header="uid,when,where")
        with pytest.raises(DataError, match="header"):
            ingest_checkins(p)

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = tmp_path / "c.csv"
        with open(p, "w") as fh:
            fh.write("user_id,timestamp,poi_id\nu,0,x\nu,1\n")
        with pytest.raises(DataError, match="line 3"):
            ingest_checkins(p)

    def test_nan_timestamp_rejected_with_line_number(self, tmp_path):
        # a NaN key breaks the sort: 3,c / nan,x / 1,a / 2,b came out as c,x,a,b
        p = tmp_path / "c.csv"
        write_csv(p, [("u", 3, "c"), ("u", "nan", "x"), ("u", 1, "a"), ("u", 2, "b")])
        with pytest.raises(DataError, match="NaN timestamp at line 3"):
            ingest_checkins(p, min_events=1)

    @pytest.mark.parametrize("row", [("", 0, "a"), ("u", "", "a"), ("u", 0, "")],
                             ids=["user_id", "timestamp", "poi_id"])
    def test_empty_fields_rejected(self, tmp_path, row):
        p = tmp_path / "c.csv"
        write_csv(p, [("u", 1, "a"), row])
        with pytest.raises(DataError, match="malformed row at line 3"):
            ingest_checkins(p, min_events=1)


class TestTraceDataset:
    def test_rejects_out_of_alphabet_symbols(self):
        with pytest.raises(DataError, match="leaves the alphabet"):
            TraceDataset(Alphabet(3), (np.array([0, 3]),))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TraceDataset(Alphabet(3), ())
        with pytest.raises(DataError, match="empty trace"):
            TraceDataset(Alphabet(3), (np.array([], dtype=np.int64),))

    @pytest.mark.parametrize("trace", [[0.7, 1.2, 2.9], [0.0, math.nan]], ids=["fraction", "nan"])
    def test_rejects_non_integer_symbols(self, trace):
        # a cast would read [0.7, 1.2, 2.9] as [0, 1, 2]
        with pytest.raises(DataError, match="^user 1 trace holds a non-integer symbol$"):
            TraceDataset(Alphabet(3), (np.array([0, 1]), np.array(trace)))

    def test_holds_read_only_copies(self):
        # the alphabet check holds only if no later write reaches the stored traces
        t = np.array([0, 1, 2])
        ds = TraceDataset(Alphabet(3), (t,))
        t[0] = 99
        assert ds.traces[0].tolist() == [0, 1, 2]
        with pytest.raises(ValueError, match="read-only"):
            ds.traces[0][0] = 99
        for half in split_traces(TraceDataset(Alphabet(3), (np.array([0, 1, 2, 1]),))):
            assert not half.traces[0].flags.writeable


class TestSplit:
    def test_first_half_rounds_up(self):
        ds = TraceDataset(Alphabet(4), (np.arange(5) % 4, np.arange(2) % 4))
        train, evaln = split_traces(ds)
        assert train.traces[0].tolist() == [0, 1, 2]
        assert evaln.traces[0].tolist() == [3, 0]
        assert train.traces[1].tolist() == [0]
        assert evaln.traces[1].tolist() == [1]
        assert train.provenance["half"] == "train"
        assert evaln.provenance["half"] == "eval"

    def test_needs_two_events(self):
        ds = TraceDataset(Alphabet(4), (np.array([1]),))
        with pytest.raises(DataError, match="length 1"):
            split_traces(ds)


class TestSynthesis:
    def test_zipf_law_hand_values(self):
        p = zipf_law(4, 1.0)
        h = 1 + 1 / 2 + 1 / 3 + 1 / 4
        assert np.allclose(p, np.array([1, 1 / 2, 1 / 3, 1 / 4]) / h)
        assert math.isclose(p.sum(), 1.0, rel_tol=1e-12)
        flat = zipf_law(5, 1e-9)
        assert np.allclose(flat, 0.2, atol=1e-6)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthesisSpec(0, 8)
        with pytest.raises(ValueError):
            SynthesisSpec(5, 8, zipf_exponent=0.0)
        with pytest.raises(ValueError):
            SynthesisSpec(5, 8, concentration=-1.0)
        with pytest.raises(ValueError):
            SynthesisSpec(5, 8, support_size=9)
        with pytest.raises(ValueError):
            SynthesisSpec(5, 8, support_size=4, eval_len=0)

    def test_population_and_traces_shape(self):
        spec = SynthesisSpec(7, 20, support_size=5, train_len=6, eval_len=4)
        pop, ds = synth_population(spec, make_rng(11))
        assert pop.n == 7 and ds.n_users == 7
        assert ds.alphabet.size == 20
        for i, t in enumerate(ds.traces):
            assert t.size == 10
            support = set(pop.models[i].support.tolist())
            assert len(support) == 5
            assert set(t.tolist()) <= support
        assert all(m.trace_len == spec.eval_len for m in pop.models)

    def test_determinism(self):
        spec = SynthesisSpec(6, 15, support_size=4, train_len=5, eval_len=5)
        _, a = synth_population(spec, make_rng(9))
        _, b = synth_population(spec, make_rng(9))
        _, c = synth_population(spec, make_rng(10))
        assert all(np.array_equal(x, y) for x, y in zip(a.traces, b.traces))
        assert any(not np.array_equal(x, y) for x, y in zip(a.traces, c.traces))

    def test_concentration_pulls_users_together(self):
        # Very concentrated Dirichlet rows sit near the shared popularity
        # profile; diffuse rows wander. Compare spread of initial laws.
        spec_tight = SynthesisSpec(40, 10, support_size=10, concentration=5000.0)
        spec_loose = SynthesisSpec(40, 10, support_size=10, concentration=0.2)
        pop_t, _ = synth_population(spec_tight, make_rng(4))
        pop_l, _ = synth_population(spec_loose, make_rng(4))
        spread_t = np.std([m.initial for m in pop_t.models], axis=0).mean()
        spread_l = np.std([m.initial for m in pop_l.models], axis=0).mean()
        assert spread_t < spread_l / 5


class TestRoundTrip:
    def test_write_then_ingest_recovers_traces(self, tmp_path):
        labels = tuple(f"poi{i:03d}" for i in range(12))
        rng = make_rng(2)
        traces = tuple(rng.integers(0, 12, size=rng.integers(10, 15)) for _ in range(5))
        ds = TraceDataset(Alphabet(12, labels), traces)
        path = tmp_path / "synth.csv"
        write_synth_checkins(ds, path)
        back = ingest_checkins(path, min_events=1)
        assert back.n_users == 5
        # zero-padded labels keep lexicographic order == index order, but the
        # ingested alphabet only holds labels that actually occur
        seen = sorted({labels[int(x)] for t in traces for x in t})
        assert list(back.alphabet.labels) == seen
        for orig, got in zip(traces, back.traces):
            assert [back.alphabet.label_of(int(x)) for x in got] == \
                [labels[int(x)] for x in orig]


class TestConfig:
    def test_defaults_and_coercion(self):
        cfg = ExperimentConfig(epsilons=[1, 2])
        assert cfg.epsilons == (1.0, 2.0)
        assert isinstance(cfg.epsilons[0], float)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(knowledge="full")
        with pytest.raises(ValueError):
            ExperimentConfig(epsilons=())
        with pytest.raises(ValueError):
            ExperimentConfig(phis=(0,))
        with pytest.raises(ValueError):
            ExperimentConfig(schema_version=2)
        with pytest.raises(ValueError):
            ExperimentConfig(glh_g=1)

    def test_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 5, "zipf_exponent": 2, "epsilons": [0.5]}))
        cfg = ExperimentConfig.from_file(p)
        assert cfg.seed == 5
        assert cfg.zipf_exponent == 2.0  # int is accepted where float is wanted

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 5, "bogus": 1}))
        with pytest.raises(DataError, match="bogus"):
            ExperimentConfig.from_file(p)

    def test_from_file_rejects_wrong_types(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": "five"}))
        with pytest.raises(DataError, match="wrong type"):
            ExperimentConfig.from_file(p)
        p.write_text(json.dumps([1, 2]))
        with pytest.raises(DataError, match="flat JSON object"):
            ExperimentConfig.from_file(p)

    @pytest.mark.parametrize("config", [
        {"g_sweep": [4, 1]}, {"threshold_level": 0}, {"threshold_level": 1.0},
        {"theta_for_g_sweep": 0.0}, {"theta_for_g_sweep": 1.5},
    ], ids=["g_sweep_below_2", "threshold_level_0", "threshold_level_1",
            "theta_for_g_sweep_0", "theta_for_g_sweep_above_1"])
    def test_from_file_rejects_late_failing_values(self, tmp_path, config):
        # refused at load; otherwise only a utility stage, after the attack, would notice
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        with pytest.raises(DataError, match=f"bad config: {next(iter(config))}"):
            ExperimentConfig.from_file(p)

    def test_from_file_wraps_value_errors(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"knowledge": "full"}))
        with pytest.raises(DataError, match="bad config"):
            ExperimentConfig.from_file(p)

    @pytest.mark.parametrize("config", [
        ExperimentConfig(),
        ExperimentConfig(seed=9, threads=2, n_users=30, size=40, zipf_exponent=1.5,
                         concentration=2.5, support_size=5, train_len=7, eval_len=9,
                         checkins_path="visits.csv", min_events=3, epsilons=(0.25, 4.0),
                         glh_g=6, knowledge="max", reid_trials=11, pse_trials=13, pse_k=2,
                         threshold_level=0.1, phis=(3, 8), theta_for_g_sweep=0.25,
                         g_sweep=(2, 3)),
    ], ids=["default", "every_field_moved"])
    def test_from_file_round_trips_to_dict(self, tmp_path, config):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config.to_dict()))
        assert ExperimentConfig.from_file(p) == config

    def test_config_hash_tracks_content(self):
        a = ExperimentConfig(seed=1, epsilons=[1.0])
        b = ExperimentConfig(seed=1, epsilons=(1,))
        c = ExperimentConfig(seed=2, epsilons=[1.0])
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 12


def small_config(**over):
    base = dict(seed=3, threads=1, n_users=12, size=12, support_size=4,
                train_len=8, eval_len=8, epsilons=(0.5, 2.0), g_sweep=(2, 4),
                reid_trials=40, pse_trials=60, pse_k=3, phis=(5, 100))
    base.update(over)
    return ExperimentConfig(**base)


EXPECTED_FILES = ("bounds_sweep.csv", "pse_sweep.csv", "utility_eps.csv", "utility_g.csv")


class TestRunExperiment:
    def test_complete_run_writes_bundle(self, tmp_path):
        res = run_experiment(small_config(), tmp_path / "run")
        assert res.manifest["status"] == "complete"
        assert [s["status"] for s in res.manifest["stages"]] == ["ok"] * 7
        for name in EXPECTED_FILES:
            path = os.path.join(res.out_dir, name)
            assert os.path.exists(path)
            import hashlib
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == res.files[name]
        manifest_on_disk = json.loads((tmp_path / "run" / "MANIFEST.json").read_text())
        assert manifest_on_disk["config_hash"] == res.manifest["config_hash"]

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = small_config()
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        for name in EXPECTED_FILES:
            pa = (tmp_path / "a" / name).read_bytes()
            pb = (tmp_path / "b" / name).read_bytes()
            assert pa == pb, f"{name} differs between identical runs"
        ma = {k: v for k, v in a.manifest.items() if k != "created_utc"}
        mb = {k: v for k, v in b.manifest.items() if k != "created_utc"}
        assert ma == mb

    def test_threading_does_not_change_results(self, tmp_path):
        a = run_experiment(small_config(threads=1), tmp_path / "a")
        b = run_experiment(small_config(threads=2), tmp_path / "b")
        # thread count feeds the config hash in column one; strip it before
        # comparing the actual numbers
        tag_a = a.manifest["config_hash"]
        tag_b = b.manifest["config_hash"]
        for name in EXPECTED_FILES:
            ta = (tmp_path / "a" / name).read_text().replace(tag_a, "TAG")
            tb = (tmp_path / "b" / name).read_text().replace(tag_b, "TAG")
            assert ta == tb, f"{name} differs with thread count"

    def test_stage_failure_leaves_incomplete_manifest(self, tmp_path):
        cfg = small_config(checkins_path=str(tmp_path / "missing.csv"))
        with pytest.raises(PipelineError) as exc:
            run_experiment(cfg, tmp_path / "run")
        assert exc.value.stage == "dataset"
        manifest = json.loads((tmp_path / "run" / "MANIFEST.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["stages"][-1]["status"] == "failed"

    def test_unwritable_report_fails_its_stage(self, tmp_path):
        out = tmp_path / "run"
        (out / "pse_sweep.csv").mkdir(parents=True)
        with pytest.raises(PipelineError) as exc:
            run_experiment(small_config(), out)
        assert exc.value.stage == "attack"
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["stages"][-1]["name"] == "attack"
        assert manifest["stages"][-1]["status"] == "failed"
        assert sorted(manifest["files"]) == ["bounds_sweep.csv"]

    def test_threads_0_counts_cpus_as_the_match_pool(self, tmp_path, monkeypatch):
        # one CPU in the affinity set: the attack stage runs inline, whatever os.cpu_count says
        def no_pool(*args, **kwargs):
            raise AssertionError("the attack stage built a thread pool")

        monkeypatch.setattr(mechanisms, "_match_workers", lambda: 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        res = run_experiment(small_config(threads=0), tmp_path / "run")
        assert res.manifest["status"] == "complete"

    def test_checkins_path_feeds_the_run(self, tmp_path):
        # synthesize, dump to the check-in format, re-run from the file
        spec = SynthesisSpec(10, 10, support_size=4, train_len=8, eval_len=8)
        _, ds = synth_population(spec, make_rng(1))
        data = tmp_path / "data.csv"
        write_synth_checkins(ds, data)
        cfg = small_config(checkins_path=str(data), min_events=2)
        res = run_experiment(cfg, tmp_path / "run")
        assert res.manifest["status"] == "complete"

    def test_one_profile_table_per_run(self, tmp_path, monkeypatch):
        # every (epsilon, mechanism) point of the attack stage scores with the one table
        built = []
        init = reid.ProfileTable.__init__

        def counting_init(self, profiles):
            built.append(len(profiles))
            init(self, profiles)

        monkeypatch.setattr(reid.ProfileTable, "__init__", counting_init)
        res = run_experiment(ExperimentConfig(), tmp_path / "run")
        assert res.manifest["status"] == "complete"
        assert built == [ExperimentConfig().n_users]
