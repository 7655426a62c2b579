#!/usr/bin/env python3
"""Digest the virtual facility's outputs, to check that a change keeps them.

    python3 tools/sim_digest.py [--seed 9] [--quick]

Prints one JSON object with:

- `sweep_sha256`: SHA-256 of the worker-scaling study's CSV
  (`bench.run_sweep(BenchConfig(seed))`) followed by each of its task
  streams, in (n, run) order;
- `wide_sha256`: `bench.job_sha256`, the SHA-256 of the task stream and
  merged histograms, of one `wide`-shaped job (16 files of 10,000 events
  in 100-event chunks, read from local paths, under the adaptive policy
  with up to 1,200 workers, one task per worker), which tier-1 pins for
  seed 9;
- `wide_retained`: the gc-tracked objects that job's finished facility
  retains, after `gc.collect()`, against a baseline taken just before it
  was made: the total and the count of each type (most first).

Two checkouts whose virtual facilities behave the same print the same two
digests.  `--quick` runs the sweep at two points of two repeats and a
`wide` job of 2 files of 5,000 events with up to 80 workers, in a few
seconds.  The dataset is generated in a temporary directory.  It imports
casa_mini from the `src/` beside it, so running it from two checkouts
compares them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
from collections import Counter
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from casa_mini import bench  # noqa: E402
from casa_mini.types import DatasetSpec  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--quick", action="store_true", help="small shapes, for CI")
    return parser.parse_args(argv)


def wide_config(seed: int, quick: bool) -> bench.BenchConfig:
    """casabench's `wide` shape."""
    if quick:
        return bench.BenchConfig(
            seed=seed, n_files=2, events_per_file=5000, chunk_size=100, tasks_per_worker=1, n_max=80,
            dataset_name="wide",
        )
    return bench.BenchConfig(
        seed=seed, n_files=16, events_per_file=10000, chunk_size=100, tasks_per_worker=1, n_max=1200,
        dataset_name="wide",
    )


def wide_digest(cfg: bench.BenchConfig, root: str) -> tuple[str, dict]:
    """The digest of one wide job's task stream and merged histograms, and
    what its finished facility retains."""
    ctx = bench.make_context(cfg, root)
    paths = [os.path.join(root, "store", url.split("//store/", 1)[1]) for url in ctx.dataset.files]
    dataset = DatasetSpec(name=cfg.dataset_name, files=tuple(paths), n_events_total=cfg.total_events)
    gc.collect()
    before = Counter(type(o).__name__ for o in gc.get_objects())
    facility = bench.make_facility(ctx, bench.adaptive_policy(cfg))
    job = facility.run_job(bench.BENCH_PIPELINE, dataset, cfg.chunk_size, ctx.events_per_file)
    gc.collect()
    after = Counter(type(o).__name__ for o in gc.get_objects())
    after["Counter"] -= 1  # the baseline itself
    retained = dict((after - before).most_common())
    if job.state != "done":
        raise SystemExit(f"wide job ended {job.state}: {job.error}")
    return bench.job_sha256(job, facility.state.events), {"total": sum(retained.values()), "by_type": retained}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sweep_cfg = bench.BenchConfig(seed=args.seed)
    if args.quick:
        sweep_cfg = replace(sweep_cfg, sweep=(2, 4), repeats=2)
    with tempfile.TemporaryDirectory(prefix="sim-digest-") as root:
        wide_sha, retained = wide_digest(wide_config(args.seed, args.quick), root)
        out = {"seed": args.seed, "quick": args.quick, "sweep_sha256": bench.run_sweep(sweep_cfg, root).sha256()}
    out.update(wide_sha256=wide_sha, wide_retained=retained)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
