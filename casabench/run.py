#!/usr/bin/env python3
"""casa-mini benchmark: one workload per run, every metric by name and unit.

    python3 casabench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports casa_mini from the checkout's
`src/` and writes only under `.casabench/` there.  The last line of standard
output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones (harness.END_TO_END);
with --trace 1 they are the per-layer ones (layers.PER_LAYER), taken from
traced rounds that alternate with untraced ones, and the spans and counts
are written to .casabench/traces/<workload>-seed<seed>.json.  --quick runs
a reduced size; selftest.py runs every workload that way.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 175  # a run that has not finished by then is killed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "wide", "live-login"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes and one set-up")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "casa_mini", "__init__.py")):
        print(f"casabench: no casa_mini package under {SRC}", file=sys.stderr)
        return 2
    signal.alarm(DEADLINE_S)
    sys.path.insert(0, SRC)
    # worker subprocesses import casa_mini from the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    import harness
    import live
    import virtual

    workloads = {
        "sweep": virtual.run_sweep,
        "wide": virtual.run_wide,
        "live-login": live.run_live_login,
    }
    run = harness.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        root=ROOT,
    )
    try:
        workloads[args.workload](run)
    except AssertionError as exc:  # harness.CheckFailed, reference.Mismatch
        print(f"casabench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": {}}))
        return 1
    finally:
        run.cleanup()
    if run.trace:
        print(f"casabench: trace written to {run.dump_trace()}", file=sys.stderr)
    if run.calibration_s:
        print(
            f"casabench: machine speed {run.speed():.4f} of the reference, from "
            f"{len(run.calibration_s)} calibration samples",
            file=sys.stderr,
        )
    print(json.dumps({"correct": True, **run.result()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
