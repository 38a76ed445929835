"""End-to-end tests of the command line front end: exit codes, JSON shapes,
file outputs, and the obfuscate -> estimate and synth -> simulate chains."""

import json
import math
import os

import numpy as np
import pytest

from reidrisk import oracle
from reidrisk.cli import main
from reidrisk.mechanisms import next_prime_above
from reidrisk.probcore import make_rng

# a modulus past the int64-safe limit of about 3.037e9
OVERFLOW_PRIME = next_prime_above(5 * 10 ** 9)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def tiny_config(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({
        "seed": 7, "threads": 1, "n_users": 25, "size": 16, "support_size": 6,
        "train_len": 10, "eval_len": 10, "epsilons": [1.0], "reid_trials": 80,
        "pse_trials": 120, "pse_k": 3, "g_sweep": [2, 4], "phis": [5],
    }))
    return str(p)


class TestUsageErrors:
    def test_no_arguments_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_bounds_needs_exactly_one_of_epsilon_theta(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "10", "--size", "4",
                           "--epsilon", "1", "--theta", "0.5")
        assert code == 1 and "usage error" in err
        code, _, _ = run(capsys, "bounds", "--n", "10", "--size", "4")
        assert code == 1

    def test_obfuscate_requires_out(self, capsys, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("user_idx,x\n0,1\n")
        code, _, err = run(capsys, "obfuscate", "--input", str(p),
                           "--mechanism", "rr", "--epsilon", "1", "--size", "4")
        assert code == 1 and "usage error" in err

    def test_glh_obfuscate_requires_g(self, capsys, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("user_idx,x\n0,1\n")
        code, _, _ = run(capsys, "obfuscate", "--input", str(p),
                         "--mechanism", "glh", "--epsilon", "1", "--size", "4",
                         "--out", str(tmp_path / "o"))
        assert code == 1


class TestDataErrors:
    def test_missing_records_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", "--records",
                           str(tmp_path / "nope.csv"), "--epsilon", "1",
                           "--size", "4", "--out", str(tmp_path / "o"))
        assert code == 2 and "data error" in err

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code == 2 and "bogus_key" in err

    def test_value_outside_alphabet_exits_2(self, capsys, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("user_idx,x\n0,9\n")
        code, _, err = run(capsys, "obfuscate", "--input", str(p),
                           "--mechanism", "rr", "--epsilon", "1", "--size", "4",
                           "--out", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize("rows", [
        "",
        "0,0,5,13,4,1\n",
        "0,13,5,13,4,1\n",
        "0,3,-1,13,4,1\n",
        "0,3,13,13,4,1\n",
        "0,3,5,15,4,1\n",
        "0,3,5,13,4,0\n",
        "0,3,5,13,4,5\n",
        f"0,{OVERFLOW_PRIME - 2},7,{OVERFLOW_PRIME},4,1\n",
    ], ids=["header_only", "a_zero", "a_is_P", "b_negative", "b_is_P", "P_not_prime",
            "y_zero", "y_above_g", "P_overflows_int64"])
    def test_bad_glh_records_exit_2(self, capsys, tmp_path, rows):
        p = tmp_path / "records.csv"
        p.write_text("user_idx,a,b,P,g,y\n" + rows)
        code, _, err = run(capsys, "estimate", "--records", str(p), "--epsilon", "1",
                           "--size", "8", "--out", str(tmp_path / "o"))
        assert code == 2 and "data error" in err and "Traceback" not in err

    @pytest.mark.parametrize("rows", [
        "-1,0.7\n0,0.3\n",
        "4,1.0\n",
        "0,0.5\n0,0.5\n",
        "0,0.5\n1,0.4\n",
        "0,1.5\n1,-0.5\n",
    ], ids=["negative_symbol", "symbol_is_size", "duplicate_symbol", "sum_below_1",
            "probability_outside_0_1"])
    def test_bad_truth_rows_exit_2(self, capsys, tmp_path, rows):
        records = tmp_path / "records.csv"
        records.write_text("user_idx,y\n0,0\n1,1\n2,2\n3,3\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("symbol,p_true\n" + rows)
        code, _, err = run(capsys, "estimate", "--records", str(records), "--epsilon", "1",
                           "--size", "4", "--truth", str(truth), "--out", str(tmp_path / "o"))
        assert code == 2 and "data error" in err and "Traceback" not in err

    BEYOND_INT64 = "99999999999999999999999"

    @pytest.mark.parametrize("name,text,argv", [
        ("records.csv", f"user_idx,y\n{BEYOND_INT64},0\n", ["estimate", "--records"]),
        ("records.csv", f"user_idx,a,b,P,g,y\n{BEYOND_INT64},3,5,13,4,1\n",
         ["estimate", "--records"]),
        ("records.csv", f"user_idx,a,b,P,g,y\n0,3,5,13,{BEYOND_INT64},1\n",
         ["estimate", "--records"]),
        ("values.csv", f"user_idx,x\n{BEYOND_INT64},0\n",
         ["obfuscate", "--mechanism", "rr", "--input"]),
    ], ids=["rr_records", "glh_records", "glh_g", "values"])
    def test_integer_beyond_int64_exits_2(self, capsys, tmp_path, name, text, argv):
        p = tmp_path / name
        p.write_text(text)
        code, _, err = run(capsys, *argv, str(p), "--epsilon", "1", "--size", "4",
                           "--out", str(tmp_path / "o"))
        assert code == 2 and "64-bit" in err and "Traceback" not in err

    @pytest.mark.parametrize("config", [
        {"n_users": True}, {"threshold_level": False}, {"glh_g": True},
        {"epsilons": [1.0, True]},
    ], ids=["int_key", "float_key", "optional_int_key", "list_element"])
    def test_boolean_config_values_exit_2(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run(capsys, "reid", "--config", str(cfg), "--mechanism", "rr",
                           "--epsilon", "1")
        assert code == 2 and "wrong type" in err and "Traceback" not in err

    def test_bad_score_label_exits_2(self, capsys, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("label,score\ng,1.0\nwhat,2.0\n")
        code, _, err = run(capsys, "pse", "--scores", str(p))
        assert code == 2 and "unknown label" in err


class TestBounds:
    def test_json_payload_and_file(self, capsys, tmp_path):
        out = tmp_path / "o"
        code, text, _ = run(capsys, "bounds", "--n", "1024", "--size", "256",
                            "--epsilon", "1.0", "--g", "4", "--out", str(out))
        assert code == 0
        payload = json.loads(text)
        disk = json.loads((out / "bounds.json").read_text())
        assert payload == disk
        assert payload["schema_version"] == 1
        assert payload["alpha_ldp"] == pytest.approx(1.4426950408889634)
        assert payload["fano"]["ldp"]["value"] > 0
        assert payload["n"] == 1024 and payload["size"] == 256

    def test_theta_input_and_row(self, capsys):
        code, text, _ = run(capsys, "bounds", "--n", "100", "--size", "8",
                            "--theta", "0.5", "--row")
        assert code == 0
        payload = json.loads(text[: text.rfind("\n", 0, -1)])
        assert payload["theta_rr"] == pytest.approx(0.5)
        row = text.strip().rsplit("\n", 1)[1]
        assert "0.5" in row


class TestOracleCommand:
    def test_passing_suite_exits_0(self, capsys, tmp_path):
        out = tmp_path / "o"
        code, text, _ = run(capsys, "oracle", "--count", "25", "--seed", "1",
                            "--out", str(out))
        assert code == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["passed"] is True and payload["instances_checked"] == 25

    def test_violation_exits_3(self, capsys, monkeypatch):
        fake = oracle.BoundViolationReport(
            instances_checked=1, checks_run=1,
            violations=(oracle.Violation(0, "demo", 2.0, 1.0),))
        monkeypatch.setattr(oracle, "verify_bound_suite", lambda *a, **k: fake)
        code, text, _ = run(capsys, "oracle", "--count", "1")
        assert code == 3
        assert json.loads(text)["passed"] is False


class TestObfuscateEstimate:
    def write_input(self, tmp_path, xs):
        p = tmp_path / "in.csv"
        with open(p, "w") as fh:
            fh.write("user_idx,x\n")
            for i, x in enumerate(xs):
                fh.write(f"{i},{x}\n")
        return str(p)

    def write_truth(self, tmp_path, p_true):
        p = tmp_path / "truth.csv"
        with open(p, "w") as fh:
            fh.write("symbol,p_true\n")
            for s, v in enumerate(p_true):
                fh.write(f"{s},{v}\n")
        return str(p)

    def test_rr_round_trip_with_thresholding(self, capsys, tmp_path):
        # three of eight symbols ever occur; at a generous budget the
        # estimates land near truth and thresholding zeroes the absentees
        rng = make_rng(0)
        p_true = np.zeros(8)
        p_true[[0, 3, 5]] = (0.5, 0.3, 0.2)
        xs = rng.choice(8, p=p_true, size=4000)
        inp = self.write_input(tmp_path, xs)
        code, text, _ = run(capsys, "obfuscate", "--input", inp, "--mechanism",
                            "rr", "--epsilon", "6", "--size", "8", "--seed", "1",
                            "--out", str(tmp_path / "rec"))
        assert code == 0
        records = text.strip()
        assert os.path.exists(records)
        truth = self.write_truth(tmp_path, p_true)
        code, text, _ = run(capsys, "estimate", "--records", records,
                            "--epsilon", "6", "--size", "8", "--truth", truth,
                            "--out", str(tmp_path / "est"))
        assert code == 0
        rows = [l.split(",") for l in open(text.strip()).read().strip().splitlines()]
        assert rows[0] == ["symbol", "p_true", "p_hat", "thresholded"]
        emp = np.bincount(xs, minlength=8) / xs.size
        for s, (_, _, p_hat, thr) in enumerate(rows[1:]):
            assert abs(float(p_hat) - emp[s]) < 0.05
            if p_true[s] == 0.0:
                assert float(thr) == 0.0

    def test_glh_round_trip_infers_g(self, capsys, tmp_path):
        rng = make_rng(3)
        xs = rng.integers(0, 6, size=800)
        inp = self.write_input(tmp_path, xs)
        code, text, _ = run(capsys, "obfuscate", "--input", inp, "--mechanism",
                            "glh", "--epsilon", "2", "--size", "6", "--g", "4",
                            "--seed", "2", "--out", str(tmp_path / "rec"))
        assert code == 0
        code, text, _ = run(capsys, "estimate", "--records", text.strip(),
                            "--epsilon", "2", "--size", "6", "--no-threshold",
                            "--out", str(tmp_path / "est"))
        assert code == 0
        rows = [l.split(",") for l in open(text.strip()).read().strip().splitlines()]
        p_hat = np.array([float(r[1]) for r in rows[1:]])
        assert math.isclose(p_hat.sum(), 1.0, abs_tol=0.5)  # unbiased, not renormalized


class TestAttackCommands:
    def test_reid_json_and_det(self, capsys, tmp_path, tiny_config):
        out = tmp_path / "o"
        code, text, _ = run(capsys, "reid", "--config", tiny_config,
                            "--mechanism", "rr", "--epsilon", "1.0",
                            "--out", str(out))
        assert code == 0
        payload = json.loads(text)
        assert set(payload) >= {"error_rate", "n", "trials", "mechanism",
                                "epsilon", "config_hash"}
        assert 0.0 <= payload["error_rate"] <= 1.0
        assert payload["n"] == 25 and payload["trials"] == 80
        det = (out / "det.csv").read_text().splitlines()
        assert det[0] == "threshold,far,frr"
        assert len(det) > 2

    def test_reid_clear_release_beats_obfuscated(self, capsys, tiny_config):
        code, text, _ = run(capsys, "reid", "--config", tiny_config,
                            "--mechanism", "none")
        assert code == 0
        clear = json.loads(text)["error_rate"]
        code, text, _ = run(capsys, "reid", "--config", tiny_config,
                            "--mechanism", "rr", "--epsilon", "0.1")
        noisy = json.loads(text)["error_rate"]
        assert clear <= noisy

    def test_pse_simulated(self, capsys, tiny_config):
        code, text, _ = run(capsys, "pse", "--config", tiny_config,
                            "--mechanism", "glh", "--epsilon", "1.5")
        assert code == 0
        payload = json.loads(text)
        assert set(payload) >= {"pse_bits", "raw_bits", "k", "n_genuine",
                                "n_impostor", "below_noise_floor", "convergence"}
        assert payload["k"] == 3
        assert payload["pse_bits"] >= 0.0
        assert len(payload["convergence"]["points"]) == 3

    def test_pse_from_score_file(self, capsys, tmp_path):
        rng = make_rng(5)
        p = tmp_path / "scores.csv"
        with open(p, "w") as fh:
            fh.write("label,score\n")
            for v in rng.normal(3.0, 1.0, size=900):
                fh.write(f"genuine,{v}\n")
            for v in rng.normal(0.0, 1.0, size=900):
                fh.write(f"i,{v}\n")
        code, text, _ = run(capsys, "pse", "--scores", str(p), "--k", "5")
        assert code == 0
        payload = json.loads(text)
        assert payload["pse_bits"] > 1.0  # well separated score laws
        assert payload["n_genuine"] == 900


class TestSynthSimulate:
    def test_synth_then_simulate_from_file(self, capsys, tmp_path, tiny_config):
        data_dir = tmp_path / "data"
        code, text, _ = run(capsys, "synth", "--config", tiny_config,
                            "--out", str(data_dir))
        assert code == 0
        checkins = text.strip()
        assert checkins.endswith("checkins.csv") and os.path.exists(checkins)
        truth = json.loads((data_dir / "synth_truth.json").read_text())
        assert truth["spec"]["n_users"] == 25 and truth["seed"] == 7

        cfg = json.loads(open(tiny_config).read())
        cfg["checkins_path"] = checkins
        cfg["min_events"] = 2
        cfg_path = tmp_path / "cfg2.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code, text, _ = run(capsys, "simulate", "--config", str(cfg_path),
                            "--out", str(out))
        assert code == 0
        manifest = json.loads(open(text.strip()).read())
        assert manifest["status"] == "complete"
        assert (out / "pse_sweep.csv").exists()

    def test_synth_flag_overrides(self, capsys, tmp_path):
        out = tmp_path / "d"
        code, text, _ = run(capsys, "synth", "--n-users", "8", "--size", "10",
                            "--support-size", "4", "--train-len", "6",
                            "--eval-len", "6", "--seed", "3", "--out", str(out))
        assert code == 0
        lines = open(text.strip()).read().strip().splitlines()
        assert lines[0] == "user_id,timestamp,poi_id"
        users = {l.split(",")[0] for l in lines[1:]}
        assert len(users) == 8
        assert len(lines) - 1 == 8 * 12
