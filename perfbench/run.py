"""The relhur benchmark.

    python3 perfbench/run.py --workload {bound,quadrature} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
Load model: closed loop, one client; operations run one after another.

--trace 0 first starts one untimed interpreter that imports relhur.cli (it
warms the file cache and writes the bytecode caches), then runs every
operation of the workload in a fresh interpreter (child.py), in a fixed
number of rounds that --seconds sets (workloads.planned_rounds); the round
count does not depend on how fast the program runs, so two commits are
compared with the same estimator.  Every second round runs the operations
in reverse order, so each operation's samples lie far apart in time:

    wall_s       sum over operations of the fastest wall time of the fresh
                 process, start-up and import included: what a user waits for
    compute_s    the same operations without start-up and import, timed in
                 the same processes around relhur.cli.run or the library call
    setup_s      median time for a fresh interpreter to `import relhur.cli`;
                 each operation's process gives one sample, so the samples
                 are interleaved with the operations
    peak_rss_mb  largest resident set of any operation's process

wall_s and compute_s take each operation's fastest round, not its median:
on a shared 2-vCPU host the same code runs up to 2x slower in bursts of
seconds to minutes, and the fastest round discards the samples a burst
slowed down.  Every sample is kept in the results file.

--trace 1 runs the operations in this process, alternating an untraced
pass with one traced by tracing.Tracer for a fixed number of rounds, and
adds `python -X importtime` samples.  It reports the per-layer metrics,
op.<name>.s (untraced in-process time of each operation) and
trace.overhead_s (traced minus untraced pass time).

Every output is checked (workloads.py).  A nonzero exit, a traceback, an
exception or a failed check is a failed operation; failed_frac = failed /
attempted is printed, and the last line of stdout is one JSON object with
correct, attempted, failed and metrics.  Each run also writes
perfbench/results/<workload>-seed<N>-trace<T>.json with the environment,
the parameters, every sample and, when traced, the spans.
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from ops import run_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 90
IMPORTTIME_SAMPLES = 3
IMPORT_METRICS = {"import.relhur_s": "relhur", "import.numpy_s": "numpy",
                  "import.scipy_integrate_s": "scipy.integrate",
                  "import.scipy_linalg_s": "scipy.linalg"}


def child_env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(spec):
    """Run one operation in a fresh interpreter; return (result, wall_s)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}, \
            time.perf_counter() - start
    wall = time.perf_counter() - start
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = {"error": f"exit {proc.returncode}, no result: "
                           f"{proc.stderr.strip()[-300:]}"}
    if (proc.returncode != 0 or "Traceback" in proc.stderr) \
            and not result.get("error"):
        result["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return result, wall


def judge(op, code, text, payload, error):
    """Failure reason for one execution of op, or None."""
    if error:
        return error
    if code != 0:
        return f"exit code {code}"
    try:
        return op.check(text, payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def warm_up():
    subprocess.run([sys.executable, "-c", "import relhur.cli"],
                   capture_output=True, env=child_env(), cwd=ROOT,
                   timeout=CHILD_TIMEOUT_S)


def timed_run(ops, rounds):
    samples = {op.name: [] for op in ops}
    failures = []
    warm_up()
    for i in range(rounds):
        for op in (ops if i % 2 == 0 else ops[::-1]):
            res, wall = run_child(op.spec)
            samples[op.name].append({"wall_s": wall, **{
                k: res.get(k) for k in ("import_s", "compute_s", "maxrss_kb")}})
            reason = judge(op, res.get("code"), res.get("stdout"),
                           res.get("payload"), res.get("error"))
            if reason:
                failures.append(f"{op.name}: {reason}")

    def per_op_sum(key):
        return sum(min((s[key] for s in runs if s[key] is not None), default=0.0)
                   for runs in samples.values())

    setup = [s["import_s"] for runs in samples.values() for s in runs
             if s["import_s"] is not None]
    rss = [s["maxrss_kb"] or 0 for runs in samples.values() for s in runs]
    metrics = {
        "wall_s": (per_op_sum("wall_s"), "s"),
        "compute_s": (per_op_sum("compute_s"), "s"),
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }
    attempted = rounds * len(ops)
    return metrics, attempted, failures, {"rounds": rounds, "samples": samples}


def in_process_pass(ops, tracer):
    """One pass over ops in this process; returns per-op times and outputs."""
    times, outputs = {}, []
    for op in ops:
        scope = tracer.op(op.name) if tracer else contextlib.nullcontext()
        error, code, text, payload = None, None, None, None
        t0 = time.perf_counter()
        with scope:
            try:
                code, text, payload = run_op(op.spec)
            except Exception as exc:  # a failed operation, not a crash
                error = f"{type(exc).__name__}: {exc}"
        times[op.name] = time.perf_counter() - t0
        outputs.append((op, code, text, payload, error))
    return times, outputs


def importtime_sample():
    """First-import cumulative seconds per package, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import relhur.cli"], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        key = "relhur" if name.startswith("relhur.") else name
        cumulative[key] = max(cumulative.get(key, 0), int(parts[1]) * 1e-6)
    return {metric: cumulative.get(pkg, 0.0)
            for metric, pkg in IMPORT_METRICS.items()}


def traced_run(ops, rounds):
    from tracing import Tracer

    untraced, traced, layer_runs, op_times, outputs = [], [], [], [], []
    spans, absent = [], []
    for i in range(rounds):
        # alternate which pass goes first, so one-time costs do not all
        # land on the same side of the overhead
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            tracer = Tracer() if with_trace else None
            if tracer:
                tracer.install()
            try:
                times, outs = in_process_pass(ops, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            outputs += outs
            if tracer:
                traced.append(sum(times.values()))
                layer_runs.append(tracer.metrics())
                spans.append(tracer.spans)
                absent = tracer.absent
            else:
                untraced.append(sum(times.values()))
                op_times.append(times)
    failures = [f"{op.name}: {reason}" for op, *out in outputs
                if (reason := judge(op, *out))]

    metrics = {}
    for key in layer_runs[0]:
        unit = ("count" if key.endswith(("_calls", ".calls", ".evals"))
                else "ratio" if key.endswith("_ratio") else "s")
        metrics[key] = (statistics.median(r[key] for r in layer_runs), unit)
    imports = [importtime_sample() for _ in range(IMPORTTIME_SAMPLES)]
    for key in IMPORT_METRICS:
        metrics[key] = (statistics.median(s[key] for s in imports), "s")
    for name in workloads.all_op_names():
        metrics[f"op.{name}.s"] = (
            statistics.median(t.get(name, 0.0) for t in op_times), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s")
    return metrics, len(outputs), failures, {
        "rounds": rounds, "untraced_pass_s": untraced, "traced_pass_s": traced,
        "absent_layers": absent, "importtime": imports,
        "span_fields": ["id", "parent", "op", "layer", "start", "end"],
        "spans": spans}


def environment(seed):
    import numpy
    import relhur
    import scipy

    commit = None  # a checkout without git history has none to record
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError):
        pass
    return {"backend": getattr(relhur, "BACKEND", None),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "seed": seed, "commit": commit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "relhur" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'relhur'} is missing",
              file=sys.stderr)
        return 2
    # the defaults a user gets, here and in every child: one thread and
    # whatever kernel the install built
    for var in ("REL_HUR_THREADS", "REL_HUR_PURE"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import relhur

    if Path(relhur.__file__).resolve().parent != SRC / "relhur":
        print(f"relhur imported from {relhur.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    ops = workloads.make_ops(args.workload, args.seed)
    env = environment(args.seed)
    run = traced_run if args.trace else timed_run
    rounds = workloads.planned_rounds(args.workload, args.seconds, args.trace)
    metrics, attempted, failures, detail = run(ops, rounds)

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "operations": [{"name": op.name, **op.spec} for op in ops],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "attempted": attempted, "failures": failures, **detail}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {detail['rounds']}  backend {env['backend']}  "
          f"(comparable only within one backend)")
    for reason in failures:
        print(f"FAILED {reason}")
    if detail.get("absent_layers"):
        print(f"absent layers (metrics read 0): {', '.join(detail['absent_layers'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'failed_frac':40s} {len(failures) / attempted:14.6g} ratio "
          f"({len(failures)} of {attempted})")
    print(f"results written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
