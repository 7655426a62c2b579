#!/usr/bin/env python3
"""Time small jobs on a live facility at a chosen chunking.

    python3 tools/live_chunking.py --chunk-size 5000 --events-per-file 40000 --files 2 --cores 8 --seed 701

Starts a facility in this process (authd, ingress, data proxy) over a
seeded dataset in a temporary directory, logs one user in, whose dedicated
worker has --cores task threads, and runs --jobs jobs of the bench pipeline
after one cold job.  It prints one JSON object: the median job time
(submit to done, as a client sees it) and the median time from a job's
first TaskStart to its first TaskEnd in the scheduler's task stream, both
in milliseconds; the AssignTask frames and the runs of tasks the scheduler
sent per timed job; how many engine passes of each number of chunks the
timed jobs ran (the chunks of one pass share its start and end); and the
cold job's time in milliseconds and the blocks the proxy read from the
origin for it, which no timed job reads.  It imports casa_mini from the
`src/` beside it, so running it from two checkouts compares them.
"""

from __future__ import annotations

import argparse
import asyncio
import csv
import io
import json
import os
import statistics
import sys
import tempfile
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
os.environ["PYTHONPATH"] = sys.path[0]  # the worker processes import the same sources

from casa_mini import authd, bench, client  # noqa: E402
from casa_mini.launcher import Facility, FacilityConfig  # noqa: E402
from casa_mini.scheduler import service  # noqa: E402
from casa_mini.scheduler.state import ClusterState  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--chunk-size", type=int, default=5000)
    parser.add_argument("--events-per-file", type=int, default=40000)
    parser.add_argument("--files", type=int, default=2)
    parser.add_argument("--cores", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args(argv)


def _record(frames: list, passes: dict) -> None:
    """Record each AssignTask frame's job and number of runs in `frames`,
    and group each merged result's chunk by (job, pass start, pass end) in
    `passes`."""
    assign_frames, complete_task = service.assign_frames, ClusterState.complete_task

    def assigning(runs, token):
        sent = assign_frames(runs, token)
        frames.extend((part[0][0].job_id, len(part)) for part, _ in sent)  # the tool runs one job at a time
        return sent

    def completing(self, worker_id, job_id, chunk_id, result, now):
        passes.setdefault((job_id, result.t_start, result.t_end), []).append(chunk_id)
        return complete_task(self, worker_id, job_id, chunk_id, result, now)

    service.assign_frames, ClusterState.complete_task = assigning, completing


async def _measure(args, root: str) -> dict:
    frames, passes = [], {}
    _record(frames, passes)
    private_pem, public_pem = authd.generate_idp_keypair()
    cfg = bench.BenchConfig(
        seed=args.seed,
        n_files=args.files,
        events_per_file=args.events_per_file,
        chunk_size=args.chunk_size,
        dataset_name="chunking",
    )
    dataset, epf = bench.generate_dataset(cfg, root)
    facility = Facility(
        FacilityConfig(
            idp_public_key_pem=public_pem,
            data_root=root,
            run_dir=os.path.join(root, "run"),
            scheduler_base_port=0,
            dedicated_cores=args.cores,
        )
    )
    try:
        addresses = await facility.start()
        now = time.time()
        assertion = authd.sign_assertion(private_pem, "user", ["cms"], now, now + 600)
        reply = await client.login(addresses["authd"], assertion)
        paths = []
        for name in ("ca_cert", "user_cert", "user_key"):
            paths.append(os.path.join(root, f"{name}.pem"))
            with open(paths[-1], "w") as fh:
                fh.write(reply[name])
        session = client.SchedulerClient(tuple(reply["ingress"]), reply["sni_hostname"], *paths)
        try:
            job_s, job_ids = [], []
            for i in range(args.jobs + 1):  # the first job reads a cold cache and is reported alone
                start = time.perf_counter()
                job_id = await session.submit_job(
                    bench.BENCH_PIPELINE, dataset.name, list(dataset.files), epf, cfg.chunk_size
                )
                status = await session.wait_job(job_id, timeout=60)
                if status["state"] != "done":
                    raise RuntimeError(f"job {job_id} ended {status['state']}")
                if i:
                    job_s.append(time.perf_counter() - start)
                    job_ids.append(job_id)
                else:
                    cold_s = time.perf_counter() - start
                    cold_fetches = facility.proxy.stats()["origin_fetches"]
            rows = list(csv.DictReader(io.StringIO(await session.task_stream_csv())))
        finally:
            await session.aclose()
    finally:
        await facility.stop()
    first_task_s = []
    for job_id in job_ids:
        mine = [row for row in rows if row["detail"] == job_id]
        first_start = min(float(row["t"]) for row in mine if row["kind"] == "TaskStart")
        first_task_s.append(min(float(row["t"]) for row in mine if row["kind"] == "TaskEnd") - first_start)
    timed = set(job_ids)
    sizes = Counter(len(chunks) for (job_id, _, _), chunks in passes.items() if job_id in timed)
    return {
        "job_ms": statistics.median(job_s) * 1e3,
        "first_task_ms": statistics.median(first_task_s) * 1e3,
        "assign_frames_per_job": sum(job_id in timed for job_id, _ in frames) / len(job_ids),
        "runs_sent_per_job": sum(n for job_id, n in frames if job_id in timed) / len(job_ids),
        "pass_chunks": {str(n): sizes[n] for n in sorted(sizes)},
        "cold_job_ms": cold_s * 1e3,
        "cold_origin_fetches": cold_fetches,
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    with tempfile.TemporaryDirectory() as root:
        print(json.dumps(asyncio.run(_measure(args, root))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
