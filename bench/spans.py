"""Span tracing of the reidrisk layers, from outside the package.

`Tracer.install` replaces each target function with a timing wrapper in every
loaded `reidrisk` module that holds it, including names another module
imported by value (`cli.run_experiment`, `pse.simulate_score_trials`, ...).
`Tracer.uninstall` puts the originals back. Each call records a span (name,
start, end, parent, thread id) and adds its work counts; spans stay in memory
until the run summarises them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict


def _scores(result, population, *args, **kwargs):
    # one score = one user x one released symbol; a trace release has trace_len
    symbols = getattr(population.models[0], "trace_len", 1)
    return {"scores": int(result[1].size) * int(symbols)}


def _knn(result, p_samples, q_samples, *args, **kwargs):
    return {"samples": len(p_samples) + len(q_samples),
            "below_noise_floor": int(result.below_noise_floor)}


# span name -> work counts of one call, from (result, *args, **kwargs)
TARGETS = {
    "estimation.glh_counts": lambda r, batch, size: {"cells": len(batch) * int(size)},
    "estimation.estimate_rr": lambda r, *a, **k: {"records": r.n},
    "mechanisms.rr_sample_batch": lambda r, *a, **k: {"records": len(r.ys)},
    "mechanisms.glh_sample_batch": lambda r, *a, **k: {"records": len(r.ys)},
    "mechanisms.write_records": lambda r, path, user_idx, batch: {"records": len(batch.ys)},
    "mechanisms.read_records": lambda r, *a, **k: {"records": len(r[1].ys)},
    "reid.train_profile": lambda r, *a, **k: {"users": 1},
    "reid.simulate_score_trials": _scores,
    "reid.far_frr_det": lambda r, gen, imp: {"scores": len(gen) + len(imp)},
    "pse.harvest_scores": lambda r, *a, **k: {},
    "pse.knn_kl_estimate": _knn,
    "pipeline.synth_population": lambda r, spec, rng: {"users": spec.n_users},
    "pipeline.run_experiment": lambda r, *a, **k: {},
    "probcore.sample_markov": lambda r, *a, **k: {"traces": 1},
    "bounds.bound_report": lambda r, *a, **k: {},
    "oracle.verify_bound_suite": lambda r, count, *a, **k: {"instances": int(count),
                                                            "checks": r.checks_run},
    "cli.main": lambda r, *a, **k: {},
}

LAYERS = ("estimation", "mechanisms", "reid", "pse", "pipeline", "probcore",
          "bounds", "oracle", "cli")

# The span a per-layer metric reads is the metric name without its last part.

# metric -> (work count, scale, unit): summed span time over summed work
UNIT_COSTS = {
    "estimation.glh_counts.ns_per_cell": ("cells", 1e9, "ns/cell"),
    "estimation.estimate_rr.ns_per_record": ("records", 1e9, "ns/record"),
    "mechanisms.glh_sample_batch.ns_per_record": ("records", 1e9, "ns/record"),
    "mechanisms.rr_sample_batch.ns_per_record": ("records", 1e9, "ns/record"),
    "mechanisms.write_records.ns_per_record": ("records", 1e9, "ns/record"),
    "mechanisms.read_records.ns_per_record": ("records", 1e9, "ns/record"),
    "reid.train_profile.us_per_user": ("users", 1e6, "us/user"),
    "reid.simulate_score_trials.ns_per_score": ("scores", 1e9, "ns/score"),
    "reid.far_frr_det.ns_per_score": ("scores", 1e9, "ns/score"),
    "pse.knn_kl_estimate.ns_per_sample": ("samples", 1e9, "ns/sample"),
    "pipeline.synth_population.s": ("calls", 1.0, "s/call"),
    "probcore.sample_markov.us_per_trace": ("traces", 1e6, "us/trace"),
    "bounds.bound_report.us_per_call": ("calls", 1e6, "us/call"),
    "oracle.verify_bound_suite.ms_per_instance": ("instances", 1e3, "ms/instance"),
}

# work of one op, the base of a unit cost; the last part names the count
WORK_COUNTS = ("estimation.glh_counts.cells", "mechanisms.write_records.records",
               "mechanisms.read_records.records", "reid.simulate_score_trials.scores",
               "pse.knn_kl_estimate.samples", "oracle.verify_bound_suite.checks")

# self seconds per op
SELF_TIMES = ("pse.harvest_scores.self_s", "pipeline.run_experiment.self_s", "cli.main.self_s")

# metrics of the layers only `simulate` runs; no other workload reports them
SIMULATE_ONLY = ("pse.harvest_scores.self_s", "pse.knn_kl_estimate.ns_per_sample",
                 "pse.knn_kl_estimate.samples", "pse.knn_kl_estimate.failed",
                 "pse.knn_kl_estimate.below_noise_floor", "pipeline.run_experiment.self_s",
                 "pipeline.attack_pool.busy_ratio", "pse.self_s", "pipeline.self_s")


class Tracer:
    """Wraps the target functions and collects spans and counts in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, thread id]
        self.counts = defaultdict(lambda: defaultdict(int))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._main_tid = threading.get_ident()
        self._saved = []         # (module, attribute, original)

    def _stack(self):
        if threading.get_ident() == self._main_tid:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a pool thread's first span hangs under the span the main thread is in
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append([name, time.perf_counter(), None, parent,
                                     threading.get_ident()])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                with tracer._lock:
                    tracer.counts[name]["failed"] += 1
                raise
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                stack.pop()
            work = count(result, *args, **kwargs)
            with tracer._lock:
                tracer.counts[name]["calls"] += 1
                for key, val in work.items():
                    tracer.counts[name][key] += val
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "reidrisk" or n.startswith("reidrisk."))]
        for name, count in TARGETS.items():
            mod_name, attr = name.split(".")
            original = getattr(sys.modules["reidrisk." + mod_name], attr)
            traced = self._wrap(name, original, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self):
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def take(self):
        """Return (spans, counts) recorded since the last take, and reset."""
        spans, counts = self.spans, self.counts
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        return spans, counts


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans, main_tid):
    """Inclusive and self seconds per span name, and pool thread busy time.

    A span's self time is its duration minus the part of it that the union of
    its child spans covers; children running in parallel threads count once.
    """
    children = defaultdict(list)
    for name, start, end, parent, tid in spans:
        if parent is not None:
            children[parent].append((start, end))
    incl, self_s = defaultdict(float), defaultdict(float)
    pool = defaultdict(list)
    for idx, (name, start, end, parent, tid) in enumerate(spans):
        incl[name] += end - start
        self_s[name] += end - start - _covered(children[idx], start, end)
        if tid != main_tid and parent is not None and spans[parent][4] == main_tid:
            pool[tid].append((start, end))
    busy_ratio = None
    if pool:
        lo = min(s for iv in pool.values() for s, _ in iv)
        hi = max(e for iv in pool.values() for _, e in iv)
        busy = sum(_covered(iv, lo, hi) for iv in pool.values())
        busy_ratio = busy / (len(pool) * (hi - lo)) if hi > lo else None
    return incl, self_s, busy_ratio


def per_layer(ops, setup, main_tid):
    """Per-layer metrics of the traced ops, as {name: (value, unit)}.

    Unit costs are summed span time over summed work of every completed
    traced op, plus the traced set-up for layers that run in set-up. Self
    times are means per completed traced op. Work counts are those of the
    first completed traced op, so they repeat exactly for a seed. The k-NN
    failure tallies cover every traced op, failed ones included. A layer that
    did not run reports 0.
    """
    traced = [op for op in ops if op["traced"]]
    done = [op for op in traced if op["error"] is None]
    incl, self_s, counts = defaultdict(float), defaultdict(float), defaultdict(int)
    busy = []
    for op in [setup] + done:
        op_incl, op_self, op_busy = summarize(op["spans"], main_tid)
        for name, v in op_incl.items():
            incl[name] += v
        for name, c in op["counts"].items():
            for key, v in c.items():
                counts[name, key] += v
        if op is not setup:
            for name, v in op_self.items():
                self_s[name] += v
            if op_busy is not None:
                busy.append(op_busy)
    n = max(len(done), 1)
    first = done[0]["counts"] if done else {}

    m = {}
    for metric, (key, scale, unit) in UNIT_COSTS.items():
        span = metric.rsplit(".", 1)[0]
        m[metric] = (scale * incl[span] / counts[span, key] if counts[span, key] else 0.0, unit)
    for metric in WORK_COUNTS:
        span, key = metric.rsplit(".", 1)
        m[metric] = (first.get(span, {}).get(key, 0), key + "/op")
    for metric in SELF_TIMES:
        m[metric] = (self_s[metric.rsplit(".", 1)[0]] / n, "s/op")
    for key in ("failed", "below_noise_floor"):
        m["pse.knn_kl_estimate." + key] = (
            sum(op["counts"].get("pse.knn_kl_estimate", {}).get(key, 0) for op in traced), "count")
    m["pipeline.attack_pool.busy_ratio"] = (statistics.mean(busy) if busy else 0.0, "ratio")
    for layer in LAYERS:
        total = sum(v for name, v in self_s.items() if name.split(".")[0] == layer)
        m[layer + ".self_s"] = (total / n, "s/op")
    untraced = [op["wall"] for op in ops if op["error"] is None and not op["traced"]]
    if done and untraced:
        overhead = statistics.median(op["wall"] for op in done) - statistics.median(untraced)
    else:
        overhead = 0.0
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.spans"] = (len(done[0]["spans"]) if done else 0, "spans/op")
    m["trace.ops_completed"] = (len(done), "count")
    return m
