"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads tables-prime,oracles]
        [--trace 0|1] [--out summary.json] [--against perfbench/baseline.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, with
the run length from BENCHMARK.json.  For each metric it reports the
median, the quartiles (statistics.quantiles, n=4), the sample count and
the spread (q3 - q1) / median; an end-to-end spread is set against the
metric's bound.  Per-action times and fail_frac come from each run's
detail line.  --out merges the summary into a JSON file shaped like
perfbench/baseline.json; --against compares each end-to-end median with
that file's and fails when one is worse by more than its bound.  The
exit status is 1 when a run failed, counts did not repeat for a repeated
seed, or a median is out of bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETAIL = "perfbench-detail "


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarise(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = next(json.loads(line[len(DETAIL):])
                  for line in reversed(proc.stderr.splitlines())
                  if line.startswith(DETAIL))
    return proc.returncode, result, detail


def _print(name, s, flag=""):
    spread = s["spread"] if s["spread"] is not None else 0.0
    print(f"  {name:28s} median {s['median']:.6g} [{s['q1']:.6g}, "
          f"{s['q3']:.6g}] n={s['n']} spread {spread:.4f} {flag}", flush=True)


def _repeat_check(runs):
    """Counts must repeat exactly between runs of the same seed."""
    bad = []
    by_seed = {}
    for seed, result in runs:
        by_seed.setdefault(seed, []).append(result["metrics"])
    for seed, group in by_seed.items():
        for k, v in group[0].items():
            if v["unit"] in ("count", "bytes") and \
                    any(g[k]["value"] != v["value"] for g in group[1:]):
                bad.append(f"seed {seed}: {k} differs between runs")
    return bad


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=_seeds, required=True,
                    help="e.g. 1-10, or 3,3 to check that counts repeat")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path,
                    help="merge the summary into this JSON file")
    ap.add_argument("--against", type=Path,
                    help="compare medians with a summary written by --out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    key = "per_layer" if args.trace else "end_to_end"
    against = json.loads(args.against.read_text()) if args.against else None
    out = (json.loads(args.out.read_text())
           if args.out and args.out.exists() else {"workloads": {}})
    ok = True
    for workload in args.workloads.split(","):
        metrics, actions, units, runs, fails = {}, {}, {}, [], []
        fail_frac = []
        for seed in args.seeds:
            rc, result, detail = run_one(workload, seed,
                                         bench["run_seconds"], args.trace)
            runs.append((seed, result))
            out["machine"] = detail["machine"]
            if rc or not result["correct"]:
                fails.append({"seed": seed, "failures": detail["failures"]})
            for k, v in result["metrics"].items():
                metrics.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
            for k, v in detail["action_s"].items():
                actions.setdefault(k, []).append(v)
            fail_frac.append(detail["fail_frac"])
            print(f"{workload} seed={seed} rc={rc} "
                  f"correct={result['correct']} "
                  + " ".join(f"{k}={result['metrics'][k]['value']:.4g}"
                             for k in bounds if k in result["metrics"]),
                  flush=True)
        entry = out["workloads"].setdefault(workload, {})
        entry[key] = {k: {"unit": units[k], **summarise(v)}
                      for k, v in metrics.items()}
        entry[key + "_seeds"] = args.seeds
        if not args.trace:
            entry["per_action"] = {k: {"unit": "s", **summarise(v)}
                                   for k, v in actions.items()}
            entry["fail_frac"] = {"unit": "1", **summarise(fail_frac)}
        fails += [{"repeat": msg} for msg in _repeat_check(runs)]
        ok = ok and not fails
        for k, s in entry[key].items():
            if args.trace and k not in ("trace.wall_s", "trace_overhead_s"):
                continue
            flag = ""
            if k in bounds and k != "setup_s" and s["n"] > 1:
                flag = ("steady" if s["spread"] < bounds[k] / 3 else
                        "within bound" if s["spread"] <= bounds[k] else
                        "SPREAD OVER BOUND")
            if against and k in bounds:
                base = against["workloads"][workload]["end_to_end"][k]
                change = s["median"] / base["median"] - 1
                worse = change if better[k] == "lower" else -change
                flag += (f" vs baseline {change:+.3f}"
                         + (" WORSE THAN BOUND" if worse > bounds[k] else ""))
                ok = ok and worse <= bounds[k]
            _print(k, s, flag)
        if not args.trace:
            for k, s in entry["per_action"].items():
                _print(k, s)
            _print("fail_frac", entry["fail_frac"])
        for f in fails:
            print(f"  FAILED {f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
