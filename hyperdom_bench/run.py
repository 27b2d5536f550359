#!/usr/bin/env python3
"""Builds the repository benchmark and runs one of its workloads.

Run from the repository root:

  python3 hyperdom_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 hyperdom_bench/run.py --smoke [--binary PATH]

The first form builds hyperdom_bench with CMake into $CARGO_TARGET_DIR
(default .bench_build), runs the workload in a fresh process, echoes the
binary's output and prints, as the last line, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the BENCHMARK.json end_to_end list (--trace 0) or its
per_layer list (--trace 1; trace files go to <build>/trace/<workload>/). A
per-layer metric of a layer the workload does not have (server.* on
sharded_highd, shard.* off it, store.* off mixed_write) reads 0. It exits
non-zero without a result line when the build fails, the binary fails to
report, or a listed metric is missing or has another unit; with a result line
whose "correct" is false when an answer was wrong.

--smoke runs `hyperdom_bench --workload=all --smoke` once (every workload in
its own process, at tiny sizes, traced) and checks that each end-to-end metric
is printed by every workload, each per-layer metric by at least one, all with
their units, and that each correctness check ran.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
# The binary needs --seconds plus a few seconds of set-up and checks.
SLACK_SECONDS = 120


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds only the benchmark target."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "hyperdom_bench", "-j", "4"])
    for step in steps:
        # Build logs go to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "hyperdom_bench"


def run_binary(args, timeout):
    """Runs the binary; returns its exit code and its stdout lines. On a
    timeout it kills the binary and any workload process it started."""
    with subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"{' '.join(args[1:])} did not finish within {timeout} s")
    return proc.returncode, out.splitlines()


def select(result, wanted, absent_is_zero):
    """The listed metrics, unit-checked, in BENCHMARK.json order."""
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and absent_is_zero:
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["value"] is None:
            fail(f"{result['workload']} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def smoke(spec, binary, trace_root):
    code, lines = run_binary(
        [str(binary), "--workload=all", "--seed=1", "--smoke",
         f"--trace={trace_root}"], SLACK_SECONDS)
    results = {}
    for line in lines:
        print(line)
        if line.startswith("{"):
            result = json.loads(line)
            results[result["workload"]] = result
    seen = set()
    for w in spec["workloads"]:
        name = w["name"]
        result = results.get(name)
        if result is None:
            fail(f"{name} printed no result")
        if not result["correct"]:
            fail(f"{name}: a correctness check failed")
        select(result, spec["end_to_end"], absent_is_zero=False)
        layers = select(result, spec["per_layer"], absent_is_zero=True)
        seen.update(k for k in layers if k in result["metrics"])
        checks = set(result["checks"])
        needed = {"setup", "reference", "timed_criterion"}
        needed |= ({"model_rows", "model_queries"} if name == "mixed_write"
                   else {"window"})
        if name != "sharded_highd":
            needed.add("span_join")
        if not needed <= checks:
            fail(f"{name}: checks {sorted(needed - checks)} did not run")
        for trace_file in ("layers.json", "setup.trace.json",
                           "window.trace.json"):
            if not (trace_root / name / trace_file).is_file():
                fail(f"{name}: no {trace_file}")
    if code != 0:
        fail(f"--workload=all exited with code {code}")
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in seen]
    if missing:
        fail(f"no workload reports {missing}")
    print(f"smoke ok: {len(spec['workloads'])} workloads, "
          f"{len(spec['end_to_end'])} end-to-end and "
          f"{len(spec['per_layer'])} per-layer metrics")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", type=Path,
                        help="use this hyperdom_bench instead of building")
    args = parser.parse_args()

    spec = json.loads(SPEC_PATH.read_text())
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = args.binary or build(build_dir)
    trace_root = binary.parent / "trace"
    if args.smoke:
        smoke(spec, binary, trace_root)
        return 0

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown --workload {args.workload!r}")
    seconds = args.seconds or spec["run_seconds"]
    traced = args.trace == 1
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={seconds}"]
    if traced:
        command.append(f"--trace={trace_root / args.workload}")
    code, lines = run_binary(command, seconds + SLACK_SECONDS)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{args.workload} printed no result (exit code {code})")
    metrics = select(result, spec["per_layer" if traced else "end_to_end"],
                     absent_is_zero=traced)
    correct = code == 0 and result["correct"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
