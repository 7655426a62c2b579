#!/usr/bin/env python3
"""Compare a base revision with the working tree on one casabench workload.

    python3 tools/ab.py BASE_REV --workload W [--pairs N] [--seconds T] [--seed S0] [--quick] [--out PATH]

Checks out BASE_REV and the working tree as it stands (a commit of it, with
untracked files that are not ignored, made through a scratch index, so no
branch, index or file moves) with `git worktree`, as
`.casabench/ab-<pid>/parent` and `.casabench/ab-<pid>/change`: both sides
run from fresh trees at the same depth, with paths of the same length.  It
then runs `casabench/run.py --workload W --seed S --seconds T --trace 0` N
times in each tree, alternating: the base runs first in odd-numbered pairs,
and pair k uses seed S0 + k - 1 on both sides.  Each side runs its own
casabench and its own `src/`.  Writes one JSON object (to PATH, or standard
output): the machine, Python and numpy, the base SHA, every run's result
line with its `correct` and `failed` flags, and per end-to-end metric of
BENCHMARK.json each side's q1, median and q3 (numpy linear percentiles) and
the pairs the working tree won (ties count for neither).  An existing PATH
for the same base keeps its other workloads, so one file can hold several.  Both
worktrees are removed at the end.  Exits 1 unless every run was correct
with no failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True).stdout.strip()


def working_tree_commit() -> str:
    """A commit, on top of HEAD, of the working tree as it stands, untracked
    files that are not ignored included; neither the index nor a branch moves."""
    with tempfile.TemporaryDirectory() as scratch:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(scratch, "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "--all", env=env)
        tree = git("write-tree", env=env)
    who = {"GIT_AUTHOR_NAME": "ab", "GIT_AUTHOR_EMAIL": "ab@localhost"}
    who |= {"GIT_COMMITTER_NAME": "ab", "GIT_COMMITTER_EMAIL": "ab@localhost"}  # a checkout may have no identity
    return git("commit-tree", tree, "-p", "HEAD", "-m", "working tree", env={**os.environ, **who})


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    except OSError:
        names = []
    return names[0] if names else platform.processor() or platform.machine()


def run_once(tree: str, args, seed: int) -> dict:
    """One casabench run in tree: its result line, or a failed result."""
    cmd = [sys.executable, "casabench/run.py", "--workload", args.workload, "--seed", str(seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", "0"] + (["--quick"] if args.quick else [])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each tree imports its own src/
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if proc.returncode != 0:
        result["correct"] = False
        result["stderr_tail"] = proc.stderr.strip().splitlines()[-3:]
    values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {**result, "metrics": values, "exit_code": proc.returncode}


def quartiles(values: list[float]) -> dict:
    if not values:
        return {"q1": None, "median": None, "q3": None}
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"q1": q1, "median": median, "q3": q3}


def summary(runs: list[dict], spec: dict) -> dict:
    """Per-metric quartiles per side and pairs won, over the pairs where both sides ran correctly."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["seed"], {})[run["side"]] = run
    both = [p for p in pairs.values() if len(p) == 2 and all(r["correct"] for r in p.values())]
    out = {}
    for name, (unit, better, bound) in spec.items():
        parent = [p["parent"]["metrics"][name] for p in both]
        change = [p["change"]["metrics"][name] for p in both]
        sign = 1.0 if better == "higher" else -1.0
        q_parent, q_change = quartiles(parent), quartiles(change)
        out[name] = {
            "unit": unit,
            "better": better,
            "bound": bound,
            "parent": q_parent,
            "change": q_change,
            "change_over_parent": q_change["median"] / q_parent["median"] if q_parent["median"] else None,
            "parent_iqr": q_parent["q3"] - q_parent["q1"] if parent else None,
            "pairs_won_by_change": sum(sign * (c - b) > 0 for b, c in zip(parent, change)),
            "pairs_compared": len(both),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("base_rev")
    parser.add_argument("--workload", required=True, choices=["sweep", "wide", "live-login"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--quick", action="store_true", help="casabench's reduced sizes")
    parser.add_argument("--out", help="JSON file to write (default: standard output)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}
    base_sha = git("rev-parse", "--verify", args.base_rev + "^{commit}")
    top = os.path.join(ROOT, ".casabench", f"ab-{os.getpid()}")
    sides = [("parent", base_sha), ("change", working_tree_commit())]
    added, runs = [], []
    try:
        for side, sha in sides:
            git("worktree", "add", "--detach", os.path.join(top, side), sha)
            added.append(os.path.join(top, side))
        for k in range(args.pairs):
            seed = args.seed + k
            for order, (side, _) in enumerate(sides if k % 2 == 0 else sides[::-1]):
                result = run_once(os.path.join(top, side), args, seed)
                runs.append({"seed": seed, "side": side, "ran_first": order == 0, **result})
                print(f"ab: pair {k + 1} {side} seed {seed}: correct {result['correct']}", file=sys.stderr)
    finally:
        for worktree in added:
            git("worktree", "remove", "--force", worktree)
        if os.path.isdir(top):
            os.rmdir(top)
    report = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            report = json.load(fh)
        if report.get("parent_sha") != base_sha:
            report = {}
    dirty = git("status", "--porcelain", "--untracked-files=no")
    report.update(
        machine={"cpu": cpu_name(), "logical_cpus": os.cpu_count(), "os": platform.platform()},
        python=platform.python_version(),
        numpy=np.__version__,
        parent_sha=base_sha,
        change=f"the working tree over {git('rev-parse', 'HEAD')}" + (", with uncommitted changes" if dirty else ""),
        command="python3 casabench/run.py --workload W --seed S --seconds T --trace 0",
        method="alternating parent/change pairs, parent first in odd-numbered pairs, one seed per pair; "
        "quartiles are numpy linear percentiles",
    )
    report.setdefault("workloads", {})[args.workload] = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "quick": args.quick,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "metrics": summary(runs, spec),
        "runs": runs,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if all(r["correct"] and not r["failed"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
