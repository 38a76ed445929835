"""Benchmark for reidrisk: one workload per call, metrics on stdout.

    python3 bench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

Runs ops of the workload back to back (a closed loop with one client) until
`--seconds` have passed, checks every op's output, and prints a report
followed by one JSON line: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. `--workload all` runs every workload in
turn, each in its own process. See bench/README.md.
"""

import os

# BLAS gets one thread; the only compute threads are simulate's pool of two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5

END_TO_END = {  # name -> unit; a work unit is workload.unit (README.md)
    "op_p50_s": "s", "op_tail_s": "s", "work_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def _import_program():
    """Import reidrisk from this checkout's src/, or exit 2 when it is absent."""
    sys.path.insert(0, SRC)
    try:
        import reidrisk
    except ImportError as exc:
        sys.exit(f"cannot import reidrisk from {SRC}: {exc}")
    if not os.path.abspath(reidrisk.__file__).startswith(SRC + os.sep):
        sys.exit(f"reidrisk imported from {reidrisk.__file__}, not from {SRC}")


def machine_record():
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")} | {"simulate_pool": 2},
    }


def timed_setup(workload, seed, workdir):
    """Median over SETUP_REPS of a cold interpreter's import plus input generation."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import reidrisk.cli"], check=True,
                       env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT)
        t1 = time.perf_counter()
        workload.setup(seed, workdir)
        times.append(t1 - t0 + time.perf_counter() - t1)
    return statistics.median(times)


def tail(walls):
    """Highest percentile with at least ten completed ops above it: (value, pct)."""
    walls = sorted(walls)
    k = max(0, len(walls) - 11)
    return walls[k], 100.0 * (k + 1) / len(walls)


def run_ops(workload, seed, seconds, trace, workdir, tracer):
    """Closed loop of ops until the deadline; with tracing, every other op is traced.

    The first op warms caches and lazy imports before the clock starts. It is
    checked and counted like every op, but its wall time is not reported.
    Garbage is collected before each op, outside its timing, so no op pays
    for the previous op's objects.
    """
    from workloads import CheckFailed, OpFailed
    op_seeds = random.Random(seed)
    ops = []
    deadline = None
    while deadline is None or time.perf_counter() < deadline:
        op = {"seed": op_seeds.randrange(2 ** 31), "traced": trace and len(ops) % 2 == 1,
              "error": None, "check_failed": False}
        opdir = tempfile.mkdtemp(dir=workdir, prefix="op-")
        gc.collect()
        if op["traced"]:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.run(op["seed"], opdir)
            op["wall"] = time.perf_counter() - t0
        except OpFailed as exc:
            op["error"] = str(exc)
        except Exception as exc:  # every failure is recorded, none retried
            op["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if op["traced"]:
                tracer.uninstall()
                op["spans"], op["counts"] = tracer.take()
        if op["error"] is None:
            try:
                op["digest"] = workload.check(out, op["seed"])
                op["units"] = out["units"]
            except CheckFailed as exc:
                op["error"] = f"check: {exc}"
                op["check_failed"] = True
        shutil.rmtree(opdir)
        ops.append(op)
        if deadline is None:
            deadline = time.perf_counter() + seconds
    return ops


def end_to_end(ops, setup_s):
    done = [op for op in ops if op["error"] is None and not op["traced"]]
    if not done:
        sys.exit("no untraced op completed; no timing to report")
    walls = [op["wall"] for op in done]
    tail_s, tail_pct = tail(walls)
    metrics = {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "work_per_s": sum(op["units"] for op in done) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return metrics, {"completed": len(done), "tail_pct": tail_pct}


def report_line(name, value, unit, note=""):
    print(f"  {name:<44} {value:>16.6g} {unit:<12} {note}".rstrip())


def run_one(args):
    _import_program()
    from spans import SIMULATE_ONLY, Tracer, per_layer
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    main_tid = threading.get_ident()
    print(f"reidrisk benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as workdir:
        tracer = Tracer()
        if args.trace:
            # one extra, traced set-up, so layers that run in set-up show
            tracer.install()
            try:
                workload.setup(args.seed, workdir)
            finally:
                tracer.uninstall()
            setup = dict(zip(("spans", "counts"), tracer.take()))
        setup_s = timed_setup(workload, args.seed, workdir)
        ops = run_ops(workload, args.seed, args.seconds, bool(args.trace), workdir, tracer)

    failed = [op for op in ops if op["error"] is not None]
    print(f"ops: {len(ops)} attempted, {len(failed)} failed")
    for i, op in enumerate(ops):
        mode = "warm-up " if i == 0 else "traced  " if op["traced"] else "untraced"
        if op["error"] is None:
            print(f"  seed={op['seed']:<10} {mode} {op['wall']:.4f} s  sha256={op['digest']}")
        else:
            print(f"  seed={op['seed']:<10} {mode} FAILED {op['error']}")

    e2e, info = end_to_end(ops[1:], setup_s)
    print("end-to-end:")
    for name, value in e2e.items():
        note = ""
        if name == "op_p50_s":
            note = f"({info['completed']} completed untraced ops)"
        elif name == "op_tail_s":
            note = f"(p{info['tail_pct']:.0f} of {info['completed']} completed ops)"
        elif name == "work_per_s":
            note = f"({workload.unit} per second)"
        report_line(name, value, END_TO_END[name], note)
    report_line("failed_ratio", len(failed) / max(len(ops), 1), "ratio",
                f"({len(failed)} of {len(ops)} attempted)")
    if args.trace:
        layer = per_layer(ops[1:], setup, main_tid)
        if args.workload != "simulate":
            layer = {k: v for k, v in layer.items() if k not in SIMULATE_ONLY}
        print("per-layer (traced ops):")
        for name, (value, unit) in layer.items():
            report_line(name, value, unit)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": not any(op["check_failed"] for op in ops),
                      "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))


def run_all(args):
    """Run every workload in its own process, so peak RSS stays per workload."""
    from workloads import WORKLOADS
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            sys.exit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = val
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["simulate", "aggregate", "attack_trace", "verify", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload == "all":
        _import_program()
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
