"""The four benchmark workloads.

Each workload makes its inputs from the run seed in `setup`, runs one
operation ("op") per call of `run` with a fresh op seed, and verifies the op's
outputs in `check`, which returns a sha256 digest of them or raises
`CheckFailed`. Only `run` is timed. The program is driven through
`reidrisk.cli.main` or its public library functions, always looked up as
module attributes at call time so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from reidrisk import bounds, cli, pipeline, probcore, reid
from reidrisk.mechanisms import RandomizedResponse


class OpFailed(Exception):
    """The program returned a nonzero exit code."""


class CheckFailed(Exception):
    """The op completed but its output is wrong."""


def _cli(*argv):
    """Run one CLI command in process; return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        lines = err.getvalue().strip().splitlines()
        raise OpFailed(f"exit {code}: {lines[-1] if lines else ''}")
    return out.getvalue()


def _sha256_files(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


class Simulate:
    """`reidrisk simulate` at n_users=2000, size=1000, four budgets, 2 threads."""

    name = "simulate"
    unit = "points"
    CONFIG = {"n_users": 2000, "size": 1000, "epsilons": [0.5, 1, 2, 5], "threads": 2}

    def setup(self, seed, workdir):
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.CONFIG, fh)

    def run(self, op_seed, opdir):
        _cli("simulate", "--config", self.config_path, "--seed", op_seed,
             "--threads", 2, "--out", opdir)
        return {"dir": opdir, "units": 2 * len(self.CONFIG["epsilons"])}

    def check(self, out, op_seed):
        with open(os.path.join(out["dir"], "MANIFEST.json")) as fh:
            status = json.load(fh)["status"]
        _require(status == "complete", f"run status {status!r}")
        path = os.path.join(out["dir"], "pse_sweep.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) == out["units"], f"{len(rows)} pse_sweep rows")
        for r in rows:
            where = f"eps={r['epsilon']} {r['mechanism']}"
            _require(float(r["pse_bits"]) <= float(r["alpha_bound"]),
                     f"pse_bits above alpha_bound at {where}")
            floor = max(float(r["fano_ldp"]), float(r["fano_mech"]))
            _require(float(r["error_rate"]) >= floor,
                     f"error_rate below the Fano floor at {where}")
        return _sha256_files(path)


class Aggregate:
    """obfuscate (rr, glh g=4) then estimate --truth, on 1e5 Zipf symbols."""

    name = "aggregate"
    unit = "records"
    N, SIZE, G, EPSILON = 10 ** 5, 1000, 4, 1.0

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        law = 1.0 / np.arange(1, self.SIZE + 1)
        xs = rng.choice(self.SIZE, size=self.N, p=law / law.sum())
        self.values = os.path.join(workdir, "values.csv")
        with open(self.values, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["user_idx", "x"])
            w.writerows(zip(range(self.N), xs.tolist()))
        self.p_true = np.bincount(xs, minlength=self.SIZE) / self.N
        self.truth = os.path.join(workdir, "truth.csv")
        with open(self.truth, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["symbol", "p_true"])
            w.writerows((s, repr(float(p))) for s, p in enumerate(self.p_true))

    def run(self, op_seed, opdir):
        out = {"units": 0}
        for mech in ("rr", "glh"):
            rec_dir = os.path.join(opdir, mech + "_records")
            est_dir = os.path.join(opdir, mech + "_est")
            extra = ["--g", self.G] if mech == "glh" else []
            _cli("obfuscate", "--input", self.values, "--mechanism", mech,
                 "--epsilon", self.EPSILON, "--size", self.SIZE, *extra,
                 "--seed", op_seed, "--out", rec_dir)
            records = os.path.join(rec_dir, "records.csv")
            _cli("estimate", "--records", records, "--epsilon", self.EPSILON,
                 "--size", self.SIZE, "--truth", self.truth, "--out", est_dir)
            out[mech] = (records, os.path.join(est_dir, "estimates.csv"))
            out["units"] += 2 * self.N
        return out

    def _independent_p_hat(self, mech, records, xs):
        """Debiased estimate at symbols xs from a count over every record."""
        t = math.exp(-self.EPSILON)
        if mech == "rr":
            _, ys = records.T
            counts = np.array([(ys == x).sum() for x in xs])
            keep = 1.0 / (1.0 + (self.SIZE - 1) * t)
            leak = t * keep
            return (counts / self.N - leak) / (keep - leak)
        _, a, b, prime, g, ys = records.T
        _require(int(prime.max()) * self.SIZE < 2 ** 62, "hash modulus too large")
        counts = np.array([((((a * x + b) % prime) % g + 1) == ys).sum() for x in xs])
        g = self.G
        contrast = (g - 1) * (1.0 - t) / (g * (1.0 + (g - 1) * t))
        return (counts / self.N - 1.0 / g) / contrast

    def check(self, out, op_seed):
        rng = np.random.default_rng(op_seed)
        xs = np.concatenate(([0], rng.choice(self.SIZE, size=4, replace=False)))
        for mech in ("rr", "glh"):
            records_path, est_path = out[mech]
            records = np.loadtxt(records_path, delimiter=",", skiprows=1,
                                 dtype=np.int64, ndmin=2)
            _require(records.shape[0] == self.N, f"{mech}: {records.shape[0]} records")
            _require(np.array_equal(records[:, 0], np.arange(self.N)),
                     f"{mech}: user_idx column altered")
            with open(est_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            _require(len(rows) == self.SIZE, f"{mech}: {len(rows)} estimate rows")
            p_true = np.array([float(r["p_true"]) for r in rows])
            _require(np.allclose(p_true, self.p_true, rtol=0, atol=1e-12),
                     f"{mech}: p_true column differs from the truth file")
            want = self._independent_p_hat(mech, records, xs)
            got = np.array([float(rows[x]["p_hat"]) for x in xs])
            _require(np.allclose(got, want, rtol=0, atol=1e-12),
                     f"{mech}: p_hat at {xs.tolist()} is {got.tolist()}, "
                     f"independent count gives {want.tolist()}")
        return _sha256_files(out["rr"][1], out["glh"][1])


class AttackTrace:
    """Markov profiles, trace scoring under RR at eps 1 and 10, error and DET."""

    name = "attack_trace"
    unit = "scores"
    N_USERS, SIZE, EVAL_LEN, TRIALS, EPSILONS = 1000, 1000, 16, 25, (1.0, 10.0)
    CHECKED_TRIALS = 3

    def setup(self, seed, workdir):
        spec = pipeline.SynthesisSpec(n_users=self.N_USERS, size=self.SIZE,
                                      eval_len=self.EVAL_LEN)
        population, dataset = pipeline.synth_population(spec, probcore.make_rng(seed))
        self.population = population
        self.train = pipeline.split_traces(dataset)[0].traces

    def run(self, op_seed, opdir):
        profiles = [reid.train_profile(t, self.SIZE, owner=i)
                    for i, t in enumerate(self.train)]
        out = {"units": 0, "budgets": []}
        for eps, stream in zip(self.EPSILONS,
                               probcore.spawn_streams(op_seed, len(self.EPSILONS))):
            mech = RandomizedResponse(eps, self.SIZE)
            with _capture_releases() as releases:
                us, scores = reid.simulate_score_trials(self.population, mech,
                                                        profiles, self.TRIALS, stream)
            err = float((np.argmax(scores, axis=1) != us).mean())
            rows = np.arange(us.size)
            mask = np.ones_like(scores, dtype=bool)
            mask[rows, us] = False
            reid.far_frr_det(scores[rows, us], scores[mask])
            out["budgets"].append((eps, us, scores, err, releases))
            out["units"] += scores.size * self.EVAL_LEN
        return out

    def _log_likelihood(self, user, release):
        """log2 likelihood of a release from the user's raw transition counts."""
        train = self.train[user].tolist()
        floor = reid.DEFAULT_FLOOR
        first = train.count(release[0]) / len(train)
        total = math.log2(first if first > 0 else floor)
        pairs = list(zip(train[:-1], train[1:]))
        for src, dst in zip(release[:-1], release[1:]):
            out_of_src = sum(1 for s, _ in pairs if s == src)
            hits = pairs.count((src, dst))
            total += math.log2(hits / out_of_src if hits else floor)
        return total

    def check(self, out, op_seed):
        rng = np.random.default_rng(op_seed)
        h = hashlib.sha256()
        for eps, us, scores, err, releases in out["budgets"]:
            ys = np.concatenate(releases) if releases else np.empty(0, dtype=np.int64)
            _require(ys.size == self.TRIALS * self.EVAL_LEN,
                     f"eps={eps}: captured {ys.size} released symbols")
            ys = ys.reshape(self.TRIALS, self.EVAL_LEN)
            for t in range(self.CHECKED_TRIALS):
                users = [int(us[t])] + rng.choice(self.N_USERS, 3, replace=False).tolist()
                for u in users:
                    want = self._log_likelihood(u, ys[t].tolist())
                    _require(abs(scores[t, u] - want) <= 1e-9,
                             f"eps={eps}: score[{t},{u}] = {scores[t, u]!r}, "
                             f"independent log-likelihood {want!r}")
            alpha = bounds.pie_bound_composed(
                bounds.pie_bound_rr(eps, self.N_USERS, self.SIZE), self.EVAL_LEN)
            floor = bounds.fano_lower_bound(alpha, n=self.N_USERS).value
            _require(err >= floor, f"eps={eps}: error {err} below Fano floor {floor}")
            h.update(us.tobytes())
            h.update(scores.tobytes())
        return h.hexdigest()


@contextlib.contextmanager
def _capture_releases():
    """Collect the symbols `simulate_score_trials` releases through RR.

    The releases are taken where `reid` calls `rr_sample_batch`, in call order;
    the check needs them to recompute scores independently.
    """
    inner = reid.rr_sample_batch
    releases = []

    def capture(*args, **kwargs):
        batch = inner(*args, **kwargs)
        releases.append(np.asarray(batch.ys))
        return batch

    reid.rr_sample_batch = capture
    try:
        yield releases
    finally:
        reid.rr_sample_batch = inner


class Verify:
    """`reidrisk oracle --count 1000` and `reidrisk bounds` on the acceptance-1 table."""

    name = "verify"
    unit = "instances"
    COUNT = 1000
    # population, alphabet, and published (alpha_ldp, alpha_rr) per epsilon
    N, SIZE = 1_370_637, 10_500_393
    TABLE = {0.1: (0.014, 2.0e-7), 1.0: (1.4, 3.3e-6), 10.0: (14.0, 0.043)}

    def setup(self, seed, workdir):
        pass

    def run(self, op_seed, opdir):
        oracle_text = _cli("oracle", "--count", self.COUNT, "--seed", op_seed)
        bound_texts = [_cli("bounds", "--n", self.N, "--size", self.SIZE,
                            "--epsilon", eps) for eps in self.TABLE]
        return {"units": self.COUNT, "oracle": oracle_text, "bounds": bound_texts}

    def check(self, out, op_seed):
        report = json.loads(out["oracle"])
        _require(report["passed"] and report["violations"] == [],
                 f"oracle violations: {report['violations'][:3]}")
        _require(report["instances_checked"] == self.COUNT,
                 f"oracle checked {report['instances_checked']} instances")
        for (eps, targets), text in zip(self.TABLE.items(), out["bounds"]):
            rep = json.loads(text)
            for key, want in zip(("alpha_ldp", "alpha_rr"), targets):
                _require(abs(rep[key] / want - 1.0) <= 0.05,
                         f"eps={eps}: {key} {rep[key]} vs published {want}")
        h = hashlib.sha256(out["oracle"].encode())
        for text in out["bounds"]:
            h.update(text.encode())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (Simulate, Aggregate, AttackTrace, Verify)}
