#!/usr/bin/env python3
"""RMRLS end-to-end benchmark runner (see perfbench/README.md).

Run one workload (builds the benchmark from source first, into
.bench_build/ at the repository root):

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 \
        --trace 0 [--out results.jsonl] [--spans spans.jsonl]

The last line of standard output is the run's JSON result. With --out, the
result is also appended to a JSONL file together with the run's settings.

Compare two result files (end-to-end deltas per workload, per-layer deltas
of the traced runs, each with its base):

    python3 perfbench/run.py compare base.jsonl new.jsonl
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_DIR = BUILD_DIR / "run"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("paper-cold", "deep-search", "orbit-batch", "serve-mix")
RUN_TIMEOUT_S = 170


def build():
    """Configures once and (re)builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return BINARY.exists()


def run(args):
    if not build():
        return 1
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.relpath(RUN_DIR, ROOT)]
    if args.spans:
        cmd += ["--spans", os.path.abspath(args.spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        print("run.py: benchmark exited %d without a result" % done.returncode,
              file=sys.stderr)
        return 1
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "result": json.loads(lines[-1])}
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(lines[-1], flush=True)
    return done.returncode


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(
                    rec["result"])
    return runs


def medians(results):
    values = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def compare(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(args.base), load(args.new)
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            key = (workload, trace)
            if key not in base or key not in new:
                continue
            b, n = medians(base[key]), medians(new[key])
            title = "per-layer (traced)" if trace else "end-to-end"
            print("== %s, %s: medians of %d base and %d new runs" %
                  (workload, title, len(base[key]), len(new[key])))
            rows = sorted(b) if trace else [m for m in e2e if m in b]
            if trace:
                # Self time first: it answers "which layer regressed".
                rows.sort(key=lambda k: (not k.endswith(".self_us_per_op"), k))
            for name in rows:
                if name not in n:
                    continue
                flag = ""
                if b[name] != 0:
                    delta = (n[name] - b[name]) / abs(b[name])
                    rel = "%+8.2f%% of base" % (100 * delta)
                    m = e2e.get(name)
                    if m and not trace:
                        worse = delta if m["better"] == "lower" else -delta
                        if worse > m["bound"]:
                            flag = "  REGRESSION (bound %.0f%%)" % (
                                100 * m["bound"])
                            worst = 1
                else:
                    rel = "   (base is 0)"
                print("  %-42s base %14.6g  new %14.6g  %s%s" %
                      (name, b[name], n[name], rel, flag))
    return worst


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new")
        return compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", help="append the result to this JSONL file")
    p.add_argument("--spans", help="traced run: write every span here")
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
