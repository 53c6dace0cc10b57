#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (README.md in this directory).

    python3 e2ebench/run.py --workload lm_sync --seed 1 --seconds 35 --trace 0
    python3 e2ebench/run.py --self-test

Run from the repository root. The benchmark binary sets the thread pool
size of each workload itself (YF_THREADS) and refuses a workload whose
threads would exceed the CPUs available. The first call configures and builds the
library and the benchmark from source into .bench_build/e2ebench (or
$CARGO_TARGET_DIR/e2ebench); later calls rebuild only what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. That line is checked against BENCHMARK.json before it is printed:
a metric set or unit that does not match fails the run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2ebench"


def build(targets) -> None:
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)


def git_sha() -> str:
    """YF_GIT_SHA or GITHUB_SHA when set, else the checkout's HEAD, else 'unknown'."""
    sha = os.environ.get("YF_GIT_SHA") or os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def expected_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line: str, trace: bool) -> str:
    """Returns an error message, or '' when `line` is a well-formed result."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return (f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
                f"units {units}")
    return ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=["lm_sync", "cnn_async", "lm_serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the unit tests of the benchmark's own code")
    args = ap.parse_args()

    try:
        if args.self_test:
            build(["e2ebench_test"])
            return subprocess.run([str(build_dir() / "e2ebench_test")]).returncode
        if args.workload is None:
            ap.error("--workload is required")
        binary = "e2ebench_traced" if args.trace else "e2ebench"
        build([binary])
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(build_dir() / binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    error = check_result(lines[-1], bool(args.trace))
    if error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
