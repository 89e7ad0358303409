#!/usr/bin/env python3
"""Sensitivity self-test: does the benchmark's gate catch a known slowdown?

    python3 perfbench/selftest/sensitivity.py [--seconds S] [--pairs N]

Injects a calibrated busy-wait into every check call of the IMS query
modules (rmdbench --check-delay-ns, a wrapper around the library's module
factory; no library code changes) and runs baseline and delayed runs in
alternation. The delay is sized so that the waits alone add twice the
unit_ms bound to an ims-corpus pass. The test passes when

  - ims-corpus reports a regression beyond the bound on unit_ms and
    work_per_cpu_s, and
  - reduce-corpus, which makes no query calls, stays within the bound.

Exits 0 when both hold, 1 otherwise.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def run(workload, seconds, seed, delay_ns):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0",
         "--check-delay-ns", str(delay_ns)],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} run failed:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, lines


def regression(name, better, base, delayed):
    """How much worse the delayed median is, as a share of the base."""
    b, d = statistics.median(base[name]), statistics.median(delayed[name])
    return (d - b) / b if better == "lower" else (b - d) / b


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    gated = ["unit_ms", "work_per_cpu_s"]
    bound = max(metrics[name]["bound"] for name in gated)

    # Calibrate on one baseline run: checks and raw wall time per pass.
    _, lines = run("ims-corpus", args.seconds, 1, 0)
    raw = {l.split()[0]: float(l.split()[2]) for l in lines if " = " in l}
    checks = raw["query.bitvector.check_calls"]
    pass_ms = 1327e3 / raw["ims_loops_per_s"]
    delay_ns = math.ceil(2 * bound * pass_ms * 1e6 / checks)
    print(f"calibration: {checks:.0f} checks in a {pass_ms:.1f} ms pass; "
          f"injecting {delay_ns} ns per check")

    ok = True
    for workload, expect_regression in (("ims-corpus", True),
                                        ("reduce-corpus", False)):
        base = {name: [] for name in gated}
        delayed = {name: [] for name in gated}
        for pair in range(args.pairs):
            # Alternate which side runs first.
            order = [(0, base), (delay_ns, delayed)]
            if pair % 2:
                order.reverse()
            for delay, into in order:
                got, _ = run(workload, args.seconds, pair + 2, delay)
                for name in gated:
                    into[name].append(got[name])
        for name in gated:
            worse = regression(name, metrics[name]["better"], base, delayed)
            bites = worse > metrics[name]["bound"]
            verdict = bites == expect_regression
            ok &= verdict
            print(f"{workload:14s} {name:17s} worse by {100 * worse:+6.1f}% "
                  f"(bound {100 * metrics[name]['bound']:.0f}%): "
                  f"{'regression' if bites else 'within bound'} -> "
                  f"{'as expected' if verdict else 'UNEXPECTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
