"""End-to-end tests of the command line front end: exit codes, JSON shapes,
file outputs, and the obfuscate -> estimate and synth -> simulate chains."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reidrisk import oracle
from reidrisk.cli import main
from reidrisk.mechanisms import next_prime_above
from reidrisk.pipeline import DataError, ExperimentConfig
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

    # options each command does not read: argparse refuses the shared ones and
    # estimate's --g, and pse refuses the options of a simulated run with --scores
    UNREAD = [("oracle", "--config"), ("oracle", "--threads"), ("bounds", "--config"),
              ("bounds", "--threads"), ("bounds", "--seed"), ("obfuscate", "--config"),
              ("obfuscate", "--threads"), ("estimate", "--config"), ("estimate", "--threads"),
              ("estimate", "--seed"), ("estimate", "--g"), ("reid", "--threads"),
              ("pse", "--threads"), ("synth", "--threads")] + [
        ("pse --scores", option) for option in ("--config", "--mechanism", "--epsilon", "--g",
                                                "--trials", "--knowledge")]

    @pytest.mark.parametrize("cmd,option", UNREAD)
    def test_unread_shared_option_exits_1(self, capsys, tmp_path, cmd, option):
        (tmp_path / "values.csv").write_text("user_idx,x\n0,1\n1,3\n")
        (tmp_path / "records.csv").write_text("user_idx,y\n0,1\n1,3\n")
        (tmp_path / "scores.csv").write_text(
            "label,score\n" + "".join(f"g,{v}\ni,{v / 3}\n" for v in range(1, 9)))
        argv = {
            "oracle": ["oracle", "--count", "1"],
            "bounds": ["bounds", "--n", "10", "--size", "4", "--epsilon", "1"],
            "obfuscate": ["obfuscate", "--input", str(tmp_path / "values.csv"), "--mechanism",
                          "rr", "--epsilon", "1", "--size", "4", "--out", str(tmp_path / "o")],
            "estimate": ["estimate", "--records", str(tmp_path / "records.csv"), "--epsilon",
                         "1", "--size", "4", "--out", str(tmp_path / "e")],
            "reid": ["reid", "--mechanism", "rr", "--epsilon", "1", "--trials", "20"],
            "pse": ["pse", "--mechanism", "rr", "--epsilon", "1", "--trials", "20"],
            "pse --scores": ["pse", "--scores", str(tmp_path / "scores.csv")],
            "synth": ["synth", "--n-users", "20", "--size", "16", "--out", str(tmp_path / "s")],
        }[cmd]
        assert main(argv) == 0
        value = {"--config": "missing.json", "--threads": "-5", "--seed": "1", "--g": "3",
                 "--mechanism": "glh", "--epsilon": "7", "--trials": "20",
                 "--knowledge": "max"}[option]
        capsys.readouterr()
        try:
            code = main(argv + [option, value])
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
        assert code == 1
        refusal = (f"--scores takes no {option}" if cmd == "pse --scores"
                   else f"unrecognized arguments: {option} {value}")
        assert refusal in capsys.readouterr().err


class TestParserReuse:
    # an argparse error, a usage error found after parsing, help text, then valid commands
    SEQUENCE = [
        ["bounds", "--n", "10", "--bogus", "1"],
        ["bounds", "--n", "10", "--size", "4"],
        ["bounds", "--help"],
        ["bounds", "--n", "100", "--size", "8", "--theta", "0.5", "--row"],
        ["oracle", "--count", "3", "--seed", "2"],
    ]

    def test_one_process_answers_like_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width in both
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        for argv in self.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            fresh = subprocess.run([sys.executable, "-m", "reidrisk.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert (code, out) == (fresh.returncode, fresh.stdout), argv


class TestColdStart:
    def test_import_leaves_scipy_sparse_unloaded(self):
        # every command pays a cold `import reidrisk.cli`, which loads no scipy module
        # at all; ProfileTable loads scipy.sparse only when it first scores single data
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        probe = ("import sys, reidrisk.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout == "[]\n"


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

    @pytest.mark.parametrize("config,message", [
        ({"beta_min": 0.9}, "unknown config keys: ['beta_min']"),
        ({"zipf_exponent": 10 ** 400}, "config key zipf_exponent lies beyond the float range"),
        ({"n_users": 1}, "n_users must be >= 2"),
        ({"n_users": 0}, "need n_users >= 1"),
        ({"size": 8, "support_size": 9}, "support_size must lie in [1, size]"),
        ({"glh_g": 2 ** 63}, "glh_g must lie in [2, 9223372036854775807]"),
        ({"g_sweep": [4, 2 ** 63]}, "g_sweep values must lie in [2, 9223372036854775807]"),
        ({"reid_trials": 0}, "reid_trials, pse_trials and pse_k must be >= 1"),
        ({"pse_trials": 0}, "reid_trials, pse_trials and pse_k must be >= 1"),
        ({"pse_k": 0}, "reid_trials, pse_trials and pse_k must be >= 1"),
        ({"pse_trials": 5, "pse_k": 5}, "pse_trials must exceed pse_k"),
        ({"checkins_path": "one_user.csv"}, "keeps one user; an attack needs at least 2"),
        # with no glh_g the bounds stage takes e^epsilon + 1 buckets, above MAX_BUCKETS here
        ({"epsilons": [1.0, 44.0]}, "12851600114359308288 hash buckets (epsilon 44.0) exceed"),
        ({"epsilons": [710]}, "inf hash buckets (epsilon 710.0) exceed"),
        ({"epsilons": [math.inf]}, "inf hash buckets (epsilon inf) exceed"),
    ], ids=["beta_min", "int_beyond_float", "one_user", "no_users", "support_beyond_size",
            "glh_g_beyond_max", "g_sweep_beyond_max", "no_reid_trials", "no_pse_trials",
            "pse_k_0", "pse_trials_not_above_k", "checkins_of_one_user", "eps44_buckets",
            "eps710_buckets", "eps_inf_buckets"])
    def test_config_refusal_exits_2(self, capsys, tmp_path, config, message):
        # each was refused only by a stage, if at all: no stage reads beta_min, and
        # a float field's huge int raised OverflowError
        if "checkins_path" in config:
            data = tmp_path / config["checkins_path"]
            data.write_text("user_id,timestamp,poi_id\n" + "".join(
                f"u,{t},p{t % 3}\n" for t in range(12)))
            config = {"checkins_path": str(data)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == 2 and message in err and "Traceback" not in err
        if "checkins_path" in config:  # the file is read by the first stage, which fails
            manifest = json.loads((out / "MANIFEST.json").read_text())
            assert [s["name"] for s in manifest["stages"]] == ["dataset"]
            assert manifest["files"] == {}
        else:
            assert not out.exists()

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
        "0,0.5,junk\n1,0.5\n",
        "0_1,1.0\n",
        "\u0663,1.0\n",
        "0,0.5\n1,0.2_5\n2,0.2_5\n",
        "0,0.5\n1,\u0660.5\n",
    ], ids=["negative_symbol", "symbol_is_size", "duplicate_symbol", "sum_below_1",
            "probability_outside_0_1", "extra_field", "underscore_symbol", "arabic_indic_symbol",
            "underscore_probability", "arabic_indic_probability"])
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

    @pytest.mark.parametrize("name,text,line", [
        ("values.csv", "user_idx,x\n0,1\n\n\n2,x\n", 5),
        ("values.csv", "user_idx,x\n0,1\n\n2,3,4\n", 4),
        ("values.csv", "user_idx,x\n\n0,1,2\n", 3),
        ("values.csv", "user_idx,x\n0,1\n1\n", 3),
        ("values.csv", "user_idx,x\n0,1\n1,2 # x\n", 3),
        ("values.csv", 'user_idx,x\n0,"7"\n', 2),
        ("values.csv", "user_idx,x\n1_000,1\n", 2),
        ("values.csv", "user_idx,x\r\n0,1\r\n\r\n9223372036854775808,0\r\n", 4),
        ("records.csv", "user_idx,y\n0,1\n\n1,2,3\n", 4),
        ("records.csv", "user_idx,a,b,P,g,y\n0,3,5,13,4,1\n\n0,3,5,13,4\n", 4),
        ("records.csv", "user_idx,a,b,P,g,y\n0,3,5,13,4,1\n0,3,5,13,4,1.0\n", 3),
    ], ids=["non_integer_after_empty_lines", "wide_row", "every_row_wide", "narrow_row",
            "trailing_comment", "quoted_value", "digit_separator", "beyond_int64_crlf",
            "rr_wide_row", "glh_narrow_row", "glh_float"])
    def test_refused_row_names_its_line(self, capsys, tmp_path, name, text, line):
        # one data error line naming the file line, even past skipped empty lines
        p = tmp_path / name
        p.write_bytes(text.encode())
        flag = "--input" if name == "values.csv" else "--records"
        cmd = ["obfuscate", "--mechanism", "rr"] if name == "values.csv" else ["estimate"]
        code, _, err = run(capsys, *cmd, flag, str(p), "--epsilon", "1", "--size", "4",
                           "--out", str(tmp_path / "o"))
        assert code == 2 and "Traceback" not in err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert f"line {line}" in err

    @pytest.mark.parametrize("name,text,argv", [
        ("values.csv", "user_idx,x\n", ["obfuscate", "--mechanism", "rr", "--input"]),
        ("values.csv", "user_idx,x\r\n\r\n\r\n", ["obfuscate", "--mechanism", "rr", "--input"]),
        ("records.csv", "user_idx,y\n", ["estimate", "--records"]),
        ("records.csv", "user_idx,a,b,P,g,y\n\n", ["estimate", "--records"]),
    ], ids=["values", "values_empty_lines", "rr_records", "glh_records"])
    def test_header_only_file_refused_without_warning(self, capsys, tmp_path, name, text, argv):
        p = tmp_path / name
        p.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *argv, str(p), "--epsilon", "1", "--size", "4",
                               "--out", str(tmp_path / "o"))
        assert code == 2 and err.startswith("data error: ") and err.count("\n") == 1
        assert not caught

    def test_empty_lines_are_skipped(self, capsys, tmp_path):
        p = tmp_path / "values.csv"
        p.write_text("user_idx,x\n\n0,1\n\n\n1, 2\n\n")
        code, out, _ = run(capsys, "obfuscate", "--input", str(p), "--mechanism", "rr",
                           "--epsilon", "1", "--size", "4", "--out", str(tmp_path / "o"))
        assert code == 0
        lines = pathlib.Path(out.strip()).read_text().splitlines()
        assert lines[0] == "user_idx,y" and [l.split(",")[0] for l in lines[1:]] == ["0", "1"]

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

    @pytest.mark.parametrize("argv", [
        ["bounds", "--n", "10", "--size", "4"],
        ["reid", "--mechanism", "rr"],
        ["obfuscate", "--mechanism", "rr", "--size", "4"],
        ["obfuscate", "--mechanism", "glh", "--size", "4", "--g", "3"],
    ], ids=["bounds", "reid", "obfuscate_rr", "obfuscate_glh"])
    def test_nan_epsilon_exits_2(self, capsys, tmp_path, argv):
        if argv[0] == "obfuscate":
            p = tmp_path / "values.csv"
            p.write_text("user_idx,x\n0,1\n1,3\n")
            argv = argv + ["--input", str(p), "--out", str(tmp_path / "o")]
        code, out, err = run(capsys, *argv, "--epsilon", "nan")
        assert code == 2 and "epsilon" in err and "Traceback" not in err
        assert out == "" and not (tmp_path / "o").exists()

    def test_nan_epsilon_in_config_refused_at_load_inf_kept(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epsilons": [1.0, NaN]}')  # Python's json reads NaN
        out = tmp_path / "run"
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == 2 and "bad config" in err and "epsilons" in err
        assert not out.exists()  # refused before any stage ran
        cfg.write_text('{"epsilons": [Infinity], "glh_g": 4}')
        assert ExperimentConfig.from_file(cfg).epsilons == (math.inf,)
        cfg.write_text('{"epsilons": [Infinity]}')
        with pytest.raises(DataError, match="buckets"):
            ExperimentConfig.from_file(cfg)
        code, text, _ = run(capsys, "bounds", "--n", "10", "--size", "4",
                            "--epsilon", "inf")
        assert code == 0 and json.loads(text)["theta_rr"] == 1.0

    @pytest.mark.parametrize("argv", [
        [cmd, "--mechanism", "glh", "--epsilon", eps]
        for cmd in ("reid", "pse") for eps in ("44", "inf", "710")
    ] + [
        [cmd, "--mechanism", "glh", "--epsilon", "1", "--g", str(10 ** 20)]
        for cmd in ("reid", "pse", "obfuscate")
    ], ids=["reid_eps44", "reid_eps_inf", "reid_eps710", "pse_eps44", "pse_eps_inf",
            "pse_eps710", "reid_g", "pse_g", "obfuscate_g"])
    def test_bucket_count_beyond_int64_exits_2(self, capsys, tmp_path, tiny_config, argv):
        if argv[0] == "obfuscate":
            p = tmp_path / "values.csv"
            p.write_text("user_idx,x\n0,1\n1,3\n")
            argv = argv + ["--size", "4", "--input", str(p), "--out", str(tmp_path / "o")]
        else:
            argv = argv + ["--config", tiny_config]
        code, out, err = run(capsys, *argv)
        assert code == 2 and "buckets" in err and "Traceback" not in err
        assert out == "" and not (tmp_path / "o").exists()

    def test_largest_bucket_count_round_trips(self, capsys, tmp_path):
        # g = 2**63 - 1: the uniform bucket draw's exclusive bound g + 1 is 2**63
        g = 2 ** 63 - 1
        p = tmp_path / "values.csv"
        p.write_text("user_idx,x\n" + "".join(f"{i},{i % 4}\n" for i in range(40)))
        code, text, _ = run(capsys, "obfuscate", "--mechanism", "glh", "--epsilon", "0.5",
                            "--g", str(g), "--size", "4", "--input", str(p), "--seed", "1",
                            "--out", str(tmp_path / "rec"))
        assert code == 0
        rows = [l.split(",") for l in open(text.strip()).read().split()[1:]]
        assert {int(r[4]) for r in rows} == {g}
        assert all(1 <= int(r[5]) <= g for r in rows)
        assert any(int(r[5]) > 2 ** 62 for r in rows)  # some uniform draws span the range
        code, _, _ = run(capsys, "estimate", "--records", text.strip(), "--epsilon", "0.5",
                         "--size", "4", "--out", str(tmp_path / "est"))
        assert code == 0

    def test_nan_checkin_timestamp_exits_2(self, capsys, tmp_path, tiny_config):
        data = tmp_path / "checkins.csv"
        data.write_text("user_id,timestamp,poi_id\nu,3,c\nu,nan,x\nu,1,a\nu,2,b\n")
        cfg = json.loads(pathlib.Path(tiny_config).read_text())
        cfg.update(checkins_path=str(data), min_events=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "reid", "--config", str(cfg_path),
                             "--mechanism", "rr", "--epsilon", "1.0")
        assert code == 2 and "NaN timestamp at line 3" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("score", ["1_0", "\u0661.0", "\uff11.0", "1.0\u00a0"],
                             ids=["underscore", "arabic_indic", "fullwidth", "nonascii_space"])
    def test_bad_score_exits_2(self, capsys, tmp_path, score):
        p = tmp_path / "scores.csv"
        p.write_text(f"label,score\ng,{score}\ni,0.5\n")
        code, _, err = run(capsys, "pse", "--scores", str(p))
        assert code == 2 and "bad score at line 2" in err and "Traceback" not in err

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

    def test_pse_draws_pse_trials(self, capsys, tiny_config):
        code, text, _ = run(capsys, "pse", "--config", tiny_config,
                            "--mechanism", "rr", "--epsilon", "1.0")
        assert code == 0
        payload = json.loads(text)
        # tiny_config sets reid_trials 80 and pse_trials 120; n = 25 users
        assert payload["n_genuine"] == 120 and payload["n_impostor"] == 120 * 24

    def test_trials_and_k_set_only_the_commands_own_fields(self, capsys, tiny_config):
        # tiny_config's pse_k is 3. reid --trials 2 leaves pse_trials as it is, and
        # pse --k sets pse_k, so the config's pse_trials > pse_k check holds for both
        code, text, _ = run(capsys, "reid", "--config", tiny_config, "--epsilon", "1",
                            "--trials", "2")
        assert code == 0 and json.loads(text)["trials"] == 2
        code, text, _ = run(capsys, "pse", "--config", tiny_config, "--epsilon", "1",
                            "--trials", "4", "--k", "2")
        payload = json.loads(text)
        assert code == 0 and payload["n_genuine"] == 4 and payload["k"] == 2

    def test_reid_attacks_the_configured_checkins(self, capsys, tmp_path, tiny_config):
        data = tmp_path / "checkins.csv"
        rows = ["user_id,timestamp,poi_id"]
        for u in range(9):
            events = 12 if u < 7 else 3  # the last two fall below min_events
            rows += [f"user{u},{t},poi{(u * t) % 5}" for t in range(events)]
        data.write_text("\n".join(rows) + "\n")
        cfg = json.loads(pathlib.Path(tiny_config).read_text())
        cfg.update(checkins_path=str(data), min_events=10)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, text, _ = run(capsys, "reid", "--config", str(cfg_path),
                            "--mechanism", "rr", "--epsilon", "1.0")
        assert code == 0
        assert json.loads(text)["n"] == 7

    def test_reid_uses_config_glh_g_unless_g_is_given(self, capsys, tmp_path, tiny_config):
        def det_for(glh_g, *flags):
            cfg = json.loads(pathlib.Path(tiny_config).read_text())
            cfg["glh_g"] = glh_g
            cfg_path = tmp_path / f"cfg{glh_g}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"o{glh_g}{''.join(flags)}"
            code, _, _ = run(capsys, "reid", "--config", str(cfg_path), "--mechanism",
                             "glh", "--epsilon", "2.0", "--out", str(out), *flags)
            assert code == 0
            return (out / "det.csv").read_text()

        two = det_for(2)
        assert two != det_for(64)
        assert det_for(64, "--g", "2") == two

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

    def test_simulate_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # a BLAS product may sum in an order set by its thread count; no score may use one
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        bundles = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            subprocess.run([sys.executable, "-m", "reidrisk.cli", "simulate", "--seed", "3",
                            "--out", str(out)], env=env, check=True, capture_output=True,
                           timeout=300)
            bundles.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert len(bundles[0]) == 4 and bundles[0] == bundles[1]

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

    def test_synth_refuses_a_concentration_that_zeroes_rows(self, capsys, tmp_path):
        # gamma draws this small underflow to all-zero visit or transition rows
        code, text, err = run(capsys, "synth", "--n-users", "50", "--size", "20",
                              "--support-size", "8", "--concentration", "1e-4",
                              "--out", str(tmp_path / "d"))
        assert code == 2 and text == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error:")
        assert "concentration 0.0001" in lines[0]
        assert not (tmp_path / "d").exists()


# Reader property tests: whatever a CSV or config file holds, the CLI answers
# with exit 0, 1 or 2, never lets a traceback through, and prints strict JSON.

_FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture,
                                        HealthCheck.too_slow])

# junk for one corrupted cell: edge integers and floats, odd text
_CELL = st.one_of(
    st.integers(-2, 14).map(str),
    st.sampled_from(["", " 1", "1.5", "nan", "inf", "-inf", "1e308", "-1e308", "0x10",
                     "2147483659", "9223372036854775807", "-9223372036854775809",
                     "99999999999999999999999", "g", "i", '"', '"1,2"', "\x00", "٣"]),
    st.text(max_size=4))


@st.composite
def _csv_text(draw, header, rows):
    """A CSV file of `rows`; half the files are clean, the rest carry corruptions.

    A corrupted file may have a wrong header, and each of its rows may have
    one cell replaced by junk, or one cell too many or too few.
    """
    clean = draw(st.booleans())
    lines = [header if clean else draw(st.sampled_from(
        [header, header, header.upper(), header + ",extra", ""]))]
    for cells in draw(rows):
        cells = [str(c) for c in cells]
        fault = 0 if clean else draw(st.integers(0, 5))
        if fault == 1:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_CELL)
        elif fault == 2:
            cells.pop()
        elif fault == 3:
            cells.append(draw(_CELL))
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


def _rows(*fields):
    return st.lists(st.tuples(*fields), max_size=10)


_SYMBOL = st.integers(0, 3)  # the alphabet of every fuzzed command has 4 symbols
_USER = st.integers(0, 40)


def _glh_rows(prime, g):
    return _rows(_USER, st.integers(1, prime - 1), st.integers(0, prime - 1),
                 st.just(prime), st.just(g), st.integers(1, g))


_GLH_FAMILY = st.tuples(st.sampled_from([7, 13, 2147483659]), st.integers(2, 5))


@st.composite
def _truth_text(draw):
    symbols = draw(st.lists(_SYMBOL, min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(symbols), max_size=len(symbols)))
    rows = [(s, repr(w / sum(weights))) for s, w in zip(symbols, weights)]
    return draw(_csv_text("symbol,p_true", st.just(rows)))


_SCORE = st.one_of(st.floats(-20, 20), st.floats(allow_nan=False, allow_infinity=False))
_CHECKINS = _rows(st.sampled_from("abcd"),
                  st.one_of(st.integers(0, 30), st.floats(0, 30), st.sampled_from(["t1", "t2"])),
                  st.sampled_from("wxyz"))


def _fresh(tmp_path):
    """A new directory per example; truncating a file costs ~50 ms on some file systems."""
    return pathlib.Path(tempfile.mkdtemp(dir=tmp_path))


def _reject_constant(name):
    raise AssertionError(f"{name} printed where JSON was promised")


def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy warning is not a clean exit
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and argv[0] in ("reid", "pse"):
        return json.loads(out.getvalue(), parse_constant=_reject_constant)
    return None


_CONFIG_VALUE = {
    "seed": st.integers(0, 5), "threads": st.integers(0, 2),
    "n_users": st.integers(0, 12), "size": st.integers(1, 12),
    "zipf_exponent": st.floats(0, 3), "concentration": st.floats(0, 3),
    "support_size": st.integers(1, 6), "train_len": st.integers(0, 6),
    "eval_len": st.integers(0, 6), "min_events": st.integers(0, 3),
    "checkins_path": st.sampled_from([None, None, "missing.csv", "."]),
    "epsilons": st.lists(st.floats(0, 5), max_size=2), "glh_g": st.integers(1, 6),
    "knowledge": st.sampled_from(["partial", "max"]),
    "reid_trials": st.integers(0, 12), "pse_trials": st.integers(0, 12),
    "pse_k": st.integers(0, 4), "threshold_level": st.floats(0, 1),
    "phis": st.lists(st.integers(0, 12), max_size=2), "theta_for_g_sweep": st.floats(0, 1),
    "g_sweep": st.lists(st.integers(1, 6), max_size=2),
}
_ODD_VALUE = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.lists(st.integers()),
                       st.sampled_from([-1, 0, 1.5, math.nan, math.inf, "partial"]))


@st.composite
def _config_text(draw):
    config = draw(st.fixed_dictionaries({}, optional=_CONFIG_VALUE))
    fault = draw(st.integers(0, 4))
    if fault == 1:
        config[draw(st.sampled_from(sorted(_CONFIG_VALUE)))] = draw(_ODD_VALUE)
    elif fault == 2:
        config[draw(st.text(max_size=3))] = 1
    elif fault == 3:
        config = draw(st.lists(st.integers(), max_size=2))
    text = json.dumps(config)
    return text[:-1] if fault == 4 else text


class TestReaderProperties:
    @_FUZZ
    @given(text=_csv_text("user_idx,x", _rows(_USER, _SYMBOL)),
           mech=st.sampled_from(["rr", "glh"]))
    def test_values(self, tmp_path, text, mech):
        tmp_path = _fresh(tmp_path)
        p = tmp_path / "values.csv"
        p.write_text(text)
        _exits_cleanly(["obfuscate", "--input", p, "--mechanism", mech, "--epsilon", 1,
                        "--size", 4, "--g", 3, "--out", tmp_path / "o"])

    @_FUZZ
    @given(text=st.one_of(
        _csv_text("user_idx,y", _rows(_USER, _SYMBOL)),
        _GLH_FAMILY.flatmap(lambda fam: _csv_text("user_idx,a,b,P,g,y", _glh_rows(*fam)))))
    def test_records(self, tmp_path, text):
        tmp_path = _fresh(tmp_path)
        p = tmp_path / "records.csv"
        p.write_text(text)
        _exits_cleanly(["estimate", "--records", p, "--epsilon", 1, "--size", 4,
                        "--out", tmp_path / "o"])

    @_FUZZ
    @given(text=_truth_text())
    def test_truth(self, tmp_path, text):
        tmp_path = _fresh(tmp_path)
        records = tmp_path / "records.csv"
        records.write_text("user_idx,y\n0,0\n1,1\n2,3\n")
        p = tmp_path / "truth.csv"
        p.write_text(text)
        _exits_cleanly(["estimate", "--records", records, "--epsilon", 1, "--size", 4,
                        "--truth", p, "--out", tmp_path / "o"])

    @_FUZZ
    @example(text="label,score\ng,0.0\ng,1.7976931347800486e+308\ni,0.0\n")
    @example(text="label,score\ng,1.7976931347800486e+308\ng,-1.7976931347800486e+308\n"
                  "g,0.0\ni,1.7976931347800486e+308\ni,-1.7976931347800486e+308\ni,0.0\n")
    @example(text="label,score\ng,0.0\ng,5e-324\ng,1.0\ni,1e300\ni,2e300\n")
    @given(text=_csv_text("label,score", _rows(
        st.sampled_from(["g", "i", "genuine", "impostor"]), _SCORE)))
    def test_scores(self, tmp_path, text):
        tmp_path = _fresh(tmp_path)
        p = tmp_path / "scores.csv"
        p.write_text(text)
        _exits_cleanly(["pse", "--scores", p, "--k", 1])

    @_FUZZ
    @given(text=_csv_text("user_id,timestamp,poi_id", _CHECKINS),
           min_events=st.integers(0, 3), mech=st.sampled_from(["rr", "glh", "none"]))
    def test_checkins(self, tmp_path, text, min_events, mech):
        tmp_path = _fresh(tmp_path)
        p = tmp_path / "checkins.csv"
        p.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checkins_path": str(p), "min_events": min_events,
                                   "reid_trials": 5}))
        payload = _exits_cleanly(["reid", "--config", cfg, "--mechanism", mech,
                                  "--epsilon", 1])
        if payload is not None:
            assert payload["n"] <= 4  # the attack ran on the file's users a..d

    @_FUZZ
    @example(text='{"n_users": 6, "size": 6, "support_size": 3, "reid_trials": 3, '
                  '"pse_trials": 7, "pse_k": 1}', cmd="pse", mech="rr")
    @given(text=_config_text(), cmd=st.sampled_from(["reid", "pse"]),
           mech=st.sampled_from(["rr", "glh", "none"]))
    def test_config(self, tmp_path, text, cmd, mech):
        tmp_path = _fresh(tmp_path)
        p = tmp_path / "cfg.json"
        p.write_text(text)
        payload = _exits_cleanly([cmd, "--config", p, "--mechanism", mech, "--epsilon", 1])
        if payload is not None:  # the config's population and trial counts apply
            config = json.loads(text)
            if cmd == "reid":
                assert payload["n"] == config.get("n_users", 200)
                assert payload["trials"] == config.get("reid_trials", 500)
            else:
                assert payload["n_genuine"] == config.get("pse_trials", 500)
