#!/usr/bin/env python3
"""Steadiness report: run each workload N times, alternating workloads, and
print each end-to-end metric's median and quartile spread, host-corrected
and raw, and the failed and attempted operations of all its runs.

    python3 e2ebench/steadiness.py --runs 10 --first-seed 1 --seconds 35

Run i uses seed first_seed + i on every workload. The spread of a metric is
(Q3 - Q1) / median over its N values, with the quartiles of
statistics.quantiles(values, n=4); it is compared with the metric's bound
in BENCHMARK.json. A run that fails or prints no result stops the report.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) \S+(?: \(raw (\S+) \S+\))?$")


def spread(values):
    """(Q3 - Q1) / median, the run-to-run spread the bounds are checked against."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds):
    """One untraced run: {metric: (corrected, raw or None)} and the probe median."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed (exit {proc.returncode})")
    values = {}
    probe_us = None
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            values[m.group(1)] = (float(m.group(2)), float(m.group(3)) if m.group(3) else None)
        if line.startswith("meta "):
            probe_us = json.loads(line[5:])["probe_median_us"]
    return {"metrics": values, "probe_us": probe_us, "attempted": result["attempted"],
            "failed": result["failed"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(w, args.first_seed + i, seconds)
            runs[w].append(r)
            values = ", ".join(f"{k} {v[0]:.6g}" for k, v in r["metrics"].items())
            print(f"run {i + 1}/{args.runs} {w}: failed {r['failed']}, "
                  f"probe {r['probe_us']:.3f} us, {values}", file=sys.stderr, flush=True)

    print(f"{args.runs} runs of {seconds} s per workload, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}; spread = (Q3 - Q1) / median")
    print(f"{'workload':<10} {'metric':<18} {'median':>11} {'spread':>7} {'raw median':>11} "
          f"{'raw spread':>10} {'bound':>6}")
    for w in workloads:
        probes = [r["probe_us"] for r in runs[w]]
        for name in bounds:
            vals = [r["metrics"][name][0] for r in runs[w]]
            raws = [r["metrics"][name][1] for r in runs[w]]
            raw_cols = (f"{statistics.median(raws):>11.6g} {spread(raws):>10.3f}"
                        if None not in raws else f"{'-':>11} {'-':>10}")
            print(f"{w:<10} {name:<18} {statistics.median(vals):>11.6g} {spread(vals):>7.3f} "
                  f"{raw_cols} {bounds[name]:>6}")
        print(f"{w:<10} {'(probe_us)':<18} {statistics.median(probes):>11.6g} "
              f"{spread(probes):>7.3f}")
        print(f"{w:<10} {'(operations)':<18} {sum(r['failed'] for r in runs[w])} failed of "
              f"{sum(r['attempted'] for r in runs[w])} attempted")


if __name__ == "__main__":
    main()
