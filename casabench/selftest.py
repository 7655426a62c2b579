#!/usr/bin/env python3
"""Self-test: every workload once at a reduced size, untraced and traced,
with the same output checks as a full run; then the benchmark in a bare
directory, where it must fail without printing a result.

    python3 casabench/selftest.py

Exits 0 when every check holds; finishes in well under 30 s on 2 cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "wide", "live-login")


def fail(message: str) -> None:
    print(f"selftest: FAIL {message}", file=sys.stderr)
    sys.exit(1)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "casabench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def check_output(proc: subprocess.CompletedProcess, expected: dict, positive: bool, what: str) -> dict:
    if proc.returncode != 0:
        fail(f"{what}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{what}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    if list(metrics) != list(expected):
        fail(f"{what}: metrics {list(metrics)}, BENCHMARK.json lists {list(expected)}")
    for name, metric in metrics.items():
        value = metric["value"]
        if metric["unit"] != expected[name] or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{what}: {name} = {metric}")
        if positive and value <= 0:
            fail(f"{what}: end-to-end metric {name} is {value}")
    return result


def main() -> int:
    sys.path.insert(0, HERE)
    import harness
    import layers

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail(f"BENCHMARK.json workloads {[w['name'] for w in spec['workloads']]}")
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", layers.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != table:
            fail(f"BENCHMARK.json {key} differs from the benchmark's own table")
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    started = time.perf_counter()
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            proc = run_bench(ROOT, workload, trace)
            result = check_output(proc, units[trace], positive=trace == 0, what=f"{workload} trace={trace}")
            print(f"selftest: {workload:10s} trace={trace} ok, {result['attempted']} operations, "
                  f"{time.perf_counter() - t0:.1f} s")

    bare = os.path.join(ROOT, ".casabench", f"selftest-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "casabench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench(bare, "sweep", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("a directory without the program's sources still produced a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"selftest: bare directory refused, exit {proc.returncode}")
    print(f"selftest: PASS in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
