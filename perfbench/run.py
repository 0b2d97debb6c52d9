"""legcurves benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tables-prime --seed 1 --seconds 30 --trace 0

Run from the repository root; legcurves is imported from ./src.  The
run is a closed loop with one caller: the workload's actions execute in
order, each after the previous one returns, and whole passes over the
action list repeat until --seconds have gone by (at least one pass).
Every action's output is checked; any failure makes `correct` false.

--trace 0 reports the end-to-end metrics (medians over passes):
  wall_s        wall time of one pass over the workload
  setup_s       fresh interpreter to first timed call (import + inputs),
                median of several fresh processes
  peak_rss_mb   peak resident memory of this process
  curves_per_s  curves counted or checked per second
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see tracing.py) plus
trace_overhead_s.  Spans are written to .perfbench-out/ at the root.

Human-readable results, per-action times, fail_frac and machine facts
go to stderr; the last stderr line starting with "perfbench-detail" is
the same data as JSON.  The last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "curves_per_s": "1/s"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate inputs, then exit (used to "
                         "time set-up in a fresh interpreter)")
    return ap.parse_args(argv)


def _load(workload, seed):
    if not (SRC / "legcurves" / "__init__.py").is_file():
        sys.stderr.write(f"legcurves sources not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads
    try:
        return workloads, workloads.build(workload, seed)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        sys.exit(2)


def _setup_seconds(workload, seed):
    """Median wall time of fresh interpreters that import legcurves and
    build this workload's inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_pass(workloads, actions, tracer=None):
    """One pass over the actions; returns its wall time, per-metric
    seconds, curves, and failures."""
    clock = time.perf_counter
    by_metric = {}
    by_action = []
    failures = []
    curves = 0
    failed = 0
    t_pass = clock()
    for i, action in enumerate(actions):
        workloads.reset_caches()
        if tracer is not None:
            tracer.call_id = i
        t0 = clock()
        try:
            result = action.call()
            err = None
        except (Exception, SystemExit) as exc:
            err = f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        by_metric[action.metric] = by_metric.get(action.metric, 0.0) + dt
        by_action.append(dt)
        bad = [err] if err else action.check(result)
        if not action.curves:
            bad.append("checked no curves")
        if bad:
            failed += 1
            failures += [f"{action.label}: {msg}" for msg in bad[:3]]
        curves += action.curves
    workloads.reset_caches()
    return {"wall": clock() - t_pass, "by_metric": by_metric,
            "by_action": by_action,
            "curves": curves, "attempted": len(actions), "failed": failed,
            "failures": failures}


def _git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts():
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "legcurves").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "git_rev": _git_rev(),
            "src_sha256": digest.hexdigest()[:16]}


def _median_by_metric(passes):
    keys = sorted({k for p in passes for k in p["by_metric"]})
    return {k: statistics.median(p["by_metric"].get(k, 0.0) for p in passes)
            for k in keys}


def _write_spans(tracer, workload, seed):
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
        for name, t0, t1, parent, call in tracer.spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                 "parent": parent, "call": call}) + "\n")


def _end_to_end(args, workloads, actions):
    setup_s = _setup_seconds(args.workload, args.seed)
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        passes.append(run_pass(workloads, actions))
    walls = [p["wall"] for p in passes]
    curves = passes[0]["curves"]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "curves_per_s": statistics.median(curves / w for w in walls),
    }
    return metrics, END_TO_END_UNITS, passes, []


def _traced(args, workloads, actions):
    """Untraced and traced passes alternate, so both sample the same
    stretch of machine time; trace_overhead_s is the difference of their
    median walls.  Returns metrics, units, untraced and traced passes."""
    import tracing
    tracer = tracing.Tracer()
    untraced, traced, per_pass = [], [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < args.seconds:
        if len(untraced) == len(traced):
            untraced.append(run_pass(workloads, actions))
            continue
        tracer.install()
        try:
            before = tracer.snapshot()
            p = run_pass(workloads, actions, tracer)
            per_pass.append(tracing.pass_metrics(
                tracer, before, tracer.snapshot(), p["wall"]))
        finally:
            tracer.uninstall()
        traced.append(p)
    metrics = {k: statistics.median(m[k] for m in per_pass)
               for k in per_pass[0]}
    metrics["trace_overhead_s"] = (
        metrics["trace.wall_s"]
        - statistics.median(p["wall"] for p in untraced))
    metrics.update(tracing.mul_probe())
    _write_spans(tracer, args.workload, args.seed)
    return metrics, {k: _layer_unit(k) for k in metrics}, untraced, traced


def main(argv=None):
    args = _parse_args(argv)
    workloads, actions = _load(args.workload, args.seed)
    if args.setup_only:
        return 0
    measure = _traced if args.trace else _end_to_end
    metrics, units, timed, traced = measure(args, workloads, actions)

    checked = timed + traced
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    failures = [f for p in checked for f in p["failures"]]
    correct = failed == 0 and attempted > 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(checked),
        "pass_walls": [p["wall"] for p in timed],
        "actions": {a.label: statistics.median(p["by_action"][i]
                                               for p in timed)
                    for i, a in enumerate(actions)},
        "action_s": _median_by_metric(timed),
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        "machine": machine_facts(),
    }
    _report(metrics, units, detail)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "_ns_" in name:
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _report(metrics, units, detail):
    err = sys.stderr
    m = detail["machine"]
    err.write(f"# {detail['workload']} seed={detail['seed']} "
              f"trace={detail['trace']} passes={detail['passes']} | "
              f"{m['cpu_model']} x{m['affinity']} python {m['python']} "
              f"rev {m['git_rev'] or 'unknown'}\n")
    for label, secs in detail["actions"].items():
        err.write(f"#   {secs:8.3f} s  {label}\n")
    for k, v in metrics.items():
        err.write(f"{k:36s} {v:14.6g} {units[k]}\n")
    for k, v in detail["action_s"].items():
        err.write(f"{k:36s} {v:14.6g} s\n")
    err.write(f"{'fail_frac':36s} {detail['fail_frac']:14.6g} 1\n")
    for f in detail["failures"]:
        err.write(f"FAIL {f}\n")
    err.write("perfbench-detail " + json.dumps(detail) + "\n")


if __name__ == "__main__":
    sys.exit(main())
