#!/usr/bin/env python3
"""Build the rmd benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--corpus-seed N]
                             [--check-delay-ns N]

Run from anywhere; the repository root is the parent of this directory.
The first run configures and builds `rmdbench` and `rmdserved` into
$CARGO_TARGET_DIR (default `.bench_build`) under the root; later runs only
rebuild what changed. The human-readable metric lines and a `meta` line
with the run metadata come first; the last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}, where `metrics`
holds BENCHMARK.json's end-to-end metrics (--trace 0) or its per-layer
metrics (--trace 1). A traced run also writes its spans as Chrome
trace-event JSON to `.bench_out/` under the root.

Exit status: 0 when every correctness check passed, 1 when one failed
(the result line then says "correct": false), 2 when the benchmark could
not be built or set up (no result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no rmd sources under {ROOT / 'src'}; nothing to build")
    cmake = shutil.which("cmake") or fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    steps.append([cmake, "--build", str(build_dir), "--target", "rmdbench",
                  "rmdserved", "-j", jobs])
    for step in steps:
        try:
            # Build chatter goes to stderr; stdout carries only results.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def source_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    for top in ("src", "machines", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def select_metrics(spec, measured, traced):
    """The metrics BENCHMARK.json names for this kind of run. A per-layer
    metric of a layer the workload does not exercise reads 0."""
    out = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            if not traced:
                fail(f"the workload did not measure {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: measured in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=4903)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=4903)
    parser.add_argument("--check-delay-ns", type=int, default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)

    cmd = [str(build_dir / "rmdbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--corpus-seed", str(args.corpus_seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--check-delay-ns", str(args.check_delay_ns),
           "--machines-dir", str(ROOT / "machines"),
           "--server-binary", str(build_dir / "rmd" / "server" / "rmdserved"),
           "--commit", git_commit(),
           "--source-digest", source_digest()]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-json",
                str(out_dir / f"{args.workload}-seed{args.seed}.trace.json")]

    # The library reads these knobs from the environment; a run measures
    # the default configuration only.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RMD_")}
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"rmdbench exited with status {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("rmdbench printed no result line")

    for line in lines[:-1]:
        print(line)
    metrics = select_metrics(spec, result["metrics"], args.trace == 1)
    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
