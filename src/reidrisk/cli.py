"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 oracle violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import bounds, estimation, oracle, pse, reid
from .mechanisms import (GeneralLocalHash, GlhBatch, RandomizedResponse, _ascii_float,
                         _is_integer_text, glh_sample_batch, read_int_table, read_records,
                         rr_sample_batch, write_records)
from .pipeline import (DataError, ExperimentConfig, PipelineError, _csv_rows, _write_csv,
                       attack_mechanism, attack_setup, run_experiment,
                       synth_population, write_synth_checkins)
from .probcore import SUM_TOL, alphabet_symbols, make_rng, spawn_streams


class UsageError(Exception):
    """Bad flag combination detected after parsing; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


# options several commands share; each command takes only those it reads
_SHARED = {
    "seed": {"type": int, "help": "base RNG seed"},
    "threads": {"type": int, "help": "worker threads"},
    "out": {"help": "output directory"},
    "config": {"help": "experiment config JSON"},
}


_THRESHOLD_LEVEL = 0.05  # estimate's default --threshold-level

# what each mechanism never reads; reid, pse and obfuscate refuse them
_UNREAD_BY_MECHANISM = {"rr": ("g",), "glh": (), "none": ("epsilon", "g")}


@functools.cache  # one tree per process: parse_args leaves the parser unchanged
def _build_parser() -> _Parser:
    top = _Parser(prog="reidrisk",
                  description="re-identification risk toolkit for locally "
                              "obfuscated categorical data")
    sub = top.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    def command(name: str, shared: str, summary: str) -> _Parser:
        p = sub.add_parser(name, help=summary)
        for option in shared.split():
            p.add_argument(f"--{option}", default=None, **_SHARED[option])
        return p

    p = command("bounds", "out", "closed-form information and error bounds")
    p.add_argument("--n", type=int, required=True, help="population size")
    p.add_argument("--size", type=int, required=True, help="alphabet size")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--theta", type=float, default=None,
                   help="information shrink factor instead of epsilon")
    p.add_argument("--g", type=int, default=None, help="hash bucket count")
    p.add_argument("--t", type=int, default=1, help="independent releases")
    p.add_argument("--beta-min", type=float, default=None,
                   help="target floor on attacker error")
    p.add_argument("--row", action="store_true", help="also print a table row")

    p = command("obfuscate", "seed out", "obfuscate a user_idx,x CSV into a record CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--mechanism", choices=["rr", "glh"], required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--g", type=int, default=None)

    p = command("estimate", "out", "estimate the symbol distribution from records")
    p.add_argument("--records", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--threshold-level", type=float, default=None,
                   help=f"significance level (default {_THRESHOLD_LEVEL})")
    p.add_argument("--no-threshold", action="store_true")
    p.add_argument("--truth", default=None, help="optional symbol,p_true CSV")

    p = command("reid", "seed out config", "profile-matching attack on a synthetic population")
    p.add_argument("--mechanism", choices=["rr", "glh", "none"], default="rr")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--knowledge", choices=["partial", "max"], default=None)

    p = command("pse", "seed out config", "score-level identity leakage in bits")
    p.add_argument("--scores", default=None,
                   help="label,score CSV with labels g/i; otherwise simulate")
    p.add_argument("--mechanism", choices=["rr", "glh", "none"], default=None,
                   help="default rr")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="neighbor order")
    p.add_argument("--knowledge", choices=["partial", "max"], default=None)

    p = command("oracle", "seed out",
                "brute-force verification of every bound on random small instances")
    p.add_argument("--count", type=int, default=200)

    command("simulate", "seed threads out config", "run the full experiment bundle into --out")

    p = command("synth", "seed out config", "generate a synthetic check-in dataset into --out")
    p.add_argument("--n-users", type=int, default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--zipf-exponent", type=float, default=None)
    p.add_argument("--concentration", type=float, default=None)
    p.add_argument("--support-size", type=int, default=None)
    p.add_argument("--train-len", type=int, default=None)
    p.add_argument("--eval-len", type=int, default=None)

    return top


def _emit_json(payload: dict, out_dir, name: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text + "\n")


def _refuse_unread(args, reader: str, names) -> None:
    """Usage error naming every option in `names` that was given, since `reader` leaves it unread."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise UsageError(f"{reader} takes no {', '.join(given)}")


def _effective_config(args, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    fields = {}
    if args.seed is not None:
        fields["seed"] = args.seed
    fields.update({k: v for k, v in overrides.items() if v is not None})
    if fields:
        try:
            cfg = dataclasses.replace(cfg, **fields)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
    return cfg


def _cmd_bounds(args) -> int:
    if (args.epsilon is None) == (args.theta is None):
        raise UsageError("give exactly one of --epsilon or --theta")
    rep = bounds.bound_report(n=args.n, size=args.size, epsilon=args.epsilon,
                              theta=args.theta, g=args.g, t=args.t,
                              beta_min=args.beta_min)
    _emit_json(rep.to_dict(), args.out, "bounds.json")
    if args.row:
        print(rep.table_row())
    return 0


def _read_values_csv(path) -> tuple[np.ndarray, np.ndarray]:
    _, table = read_int_table(path, ["user_idx", "x"])
    if not len(table):
        raise DataError("no data rows")
    return table[:, 0], table[:, 1]


def _cmd_obfuscate(args) -> int:
    if args.out is None:
        raise UsageError("obfuscate requires --out")
    _refuse_unread(args, f"--mechanism {args.mechanism}", _UNREAD_BY_MECHANISM[args.mechanism])
    users, xs = _read_values_csv(args.input)
    xs = alphabet_symbols(xs, args.size, "input")
    rng = make_rng(args.seed or 0)
    if args.mechanism == "rr":
        batch = rr_sample_batch(RandomizedResponse(args.epsilon, args.size), xs, rng)
    else:
        if args.g is None:
            raise UsageError("glh requires --g")
        mech = GeneralLocalHash.with_production_family(args.epsilon, args.g, args.size)
        batch = glh_sample_batch(mech, xs, rng)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "records.csv")
    write_records(path, users, batch)
    print(path)
    return 0


def _read_truth_csv(path, size: int) -> np.ndarray:
    """symbol,p_true rows, empty lines skipped; symbols not listed have probability 0."""
    p = np.zeros(size)
    seen = set()
    for lineno, row in _csv_rows(path, ["symbol", "p_true"]):
        try:
            symbol, prob = row
            if not _is_integer_text(symbol):
                raise ValueError(f"not an integer: {symbol!r}")
            symbol, prob = int(symbol), _ascii_float(prob)
        except ValueError as exc:  # not two fields, or either one unreadable
            raise DataError(f"bad truth row at line {lineno}") from exc
        if not 0 <= symbol < size:
            raise DataError(f"truth symbol {symbol} outside [0, {size}) at line {lineno}")
        if symbol in seen:
            raise DataError(f"duplicate truth symbol {symbol} at line {lineno}")
        if not 0.0 <= prob <= 1.0:
            raise DataError(f"truth probability {prob} outside [0, 1] at line {lineno}")
        seen.add(symbol)
        p[symbol] = prob
    if abs(p.sum() - 1.0) > SUM_TOL:
        raise DataError(f"truth probabilities sum to {p.sum():.12g}, not 1")
    return p


def _cmd_estimate(args) -> int:
    if args.out is None:
        raise UsageError("estimate requires --out")
    if args.no_threshold:
        _refuse_unread(args, "--no-threshold", ("threshold_level",))
    _, batch = read_records(args.records)
    n = len(batch.ys)
    if isinstance(batch, GlhBatch):
        est = estimation.estimate_glh(batch, args.epsilon, args.size)
        null_var = estimation.glh_null_variance(args.epsilon, int(batch.g), n)
    else:
        est = estimation.estimate_rr(batch, args.epsilon, args.size)
        null_var = estimation.rr_null_variance(args.epsilon, args.size, n)
    if args.no_threshold:
        thr = est
    else:
        level = _THRESHOLD_LEVEL if args.threshold_level is None else args.threshold_level
        thr = estimation.apply_significance_threshold(est, null_var, level)
    p_true = _read_truth_csv(args.truth, args.size) if args.truth else None
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "estimates.csv")
    truth = [] if p_true is None else [p_true]
    header = ["symbol"] + (["p_true"] if truth else []) + ["p_hat", "thresholded"]
    _write_csv(path, header, zip(range(args.size), *truth, est.p_hat, thr.p_hat))
    print(path)
    return 0


def _attack(args, **overrides):
    """Config, attack setup, mechanism (`--g`, else `glh_g`) and stream for reid and pse.

    The overrides are the config fields the command's own options set.
    """
    _refuse_unread(args, f"--mechanism {args.mechanism}", _UNREAD_BY_MECHANISM[args.mechanism])
    cfg = _effective_config(args, knowledge=args.knowledge, **overrides)
    if args.mechanism != "none" and args.epsilon is None:
        raise UsageError(f"{args.mechanism} requires --epsilon")
    streams = iter(spawn_streams(cfg.seed, 2))
    setup = attack_setup(cfg, streams)
    g = args.g if args.g is not None else cfg.glh_g
    mech = attack_mechanism(args.mechanism, args.epsilon, setup.size, g)
    return cfg, setup, mech, next(streams)


def _cmd_reid(args) -> int:
    cfg, setup, mech, rng = _attack(args, reid_trials=args.trials)
    us, scores = reid.probe_score_trials(setup.probes, mech, setup.table, cfg.reid_trials, rng)
    err = reid.identification_error_rate(us, scores)
    det = reid.far_frr_det(*pse.split_scores(scores, us))
    payload = {"error_rate": err, "n": scores.shape[1], "trials": int(us.size),
               "mechanism": args.mechanism, "epsilon": args.epsilon,
               "config_hash": cfg.config_hash()}
    _emit_json(payload, args.out, "reid.json")
    if args.out:
        _write_csv(os.path.join(args.out, "det.csv"), ["threshold", "far", "frr"],
                   zip(det.thresholds, det.far, det.frr))
    return 0


def _read_scores_csv(path) -> pse.ScoreSample:
    """label,score rows, empty lines skipped: genuine labels g/genuine, impostor i/impostor."""
    gen, imp = [], []
    for lineno, row in _csv_rows(path, ["label", "score"]):
        if len(row) != 2:
            raise DataError(f"malformed row at line {lineno}: {row!r}")
        label = row[0].strip().lower()
        try:
            v = _ascii_float(row[1])
        except ValueError as exc:
            raise DataError(f"bad score at line {lineno}") from exc
        if label in ("g", "genuine"):
            gen.append(v)
        elif label in ("i", "impostor"):
            imp.append(v)
        else:
            raise DataError(f"unknown label {row[0]!r} at line {lineno}")
    if not gen or not imp:
        raise DataError("need both genuine and impostor scores")
    return pse.ScoreSample(np.array(gen), np.array(imp))


# what only a simulated pse reads; with --scores each is a usage error
_SIMULATION_OPTIONS = ("config", "mechanism", "epsilon", "g", "trials", "knowledge")


def _cmd_pse(args) -> int:
    seed = args.seed or 0
    if args.scores:
        _refuse_unread(args, "--scores", _SIMULATION_OPTIONS)
        sample = _read_scores_csv(args.scores)
        extra = {}
        k = args.k if args.k is not None else pse.DEFAULT_K
    else:
        args.mechanism = args.mechanism or "rr"  # unset by default, so --scores can refuse it
        cfg, setup, mech, rng = _attack(args, pse_trials=args.trials, pse_k=args.k)
        sample = pse.harvest_scores(setup.probes, mech, setup.table, cfg.pse_trials, rng)
        extra = {"mechanism": args.mechanism, "epsilon": args.epsilon,
                 "config_hash": cfg.config_hash()}
        k = cfg.pse_k
    est = pse.pse_estimate(sample, k=k, jitter_seed=seed)
    conv = pse.convergence_probe(sample, (0.25, 0.5, 1.0), k=k, seed=seed)
    payload = {"pse_bits": est.bits, "raw_bits": est.raw_bits, "k": est.k,
               "n_genuine": est.n_p, "n_impostor": est.n_q,
               "below_noise_floor": est.below_noise_floor,
               "convergence": {
                   "stable": conv.stable,
                   "points": [{"n_genuine": c.n_genuine,
                               "n_impostor": c.n_impostor,
                               "bits": c.bits} for c in conv.points]},
               **extra}
    _emit_json(payload, args.out, "pse.json")
    return 0


def _cmd_oracle(args) -> int:
    report = oracle.verify_bound_suite(args.count, args.seed or 0)
    _emit_json(report.to_dict(), args.out, "oracle.json")
    return 0 if report.passed else 3


def _cmd_simulate(args) -> int:
    if args.out is None:
        raise UsageError("simulate requires --out")
    cfg = _effective_config(args, threads=args.threads)
    result = run_experiment(cfg, args.out)
    print(os.path.join(result.out_dir, "MANIFEST.json"))
    return 0


def _cmd_synth(args) -> int:
    if args.out is None:
        raise UsageError("synth requires --out")
    cfg = _effective_config(args, n_users=args.n_users, size=args.size,
                            zipf_exponent=args.zipf_exponent,
                            concentration=args.concentration,
                            support_size=args.support_size,
                            train_len=args.train_len, eval_len=args.eval_len)
    spec = cfg.synthesis_spec()
    rng = make_rng(cfg.seed)
    _, dataset = synth_population(spec, rng)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "checkins.csv")
    write_synth_checkins(dataset, path)
    truth = {"spec": dataclasses.asdict(spec), "seed": cfg.seed}
    with open(os.path.join(args.out, "synth_truth.json"), "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    print(path)
    return 0


_HANDLERS = {
    "bounds": _cmd_bounds,
    "obfuscate": _cmd_obfuscate,
    "estimate": _cmd_estimate,
    "reid": _cmd_reid,
    "pse": _cmd_pse,
    "oracle": _cmd_oracle,
    "simulate": _cmd_simulate,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise DataError(f"--seed must be >= 0, got {args.seed}")
        return _HANDLERS[args.cmd](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
