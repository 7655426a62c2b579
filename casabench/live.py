"""The live workload: `live-login`.

A real facility runs in this process: authd, the SNI ingress, one scheduler
per user behind mutual TLS, the data proxy and its origin over TCP.  Each
user's dedicated worker is a subprocess with `dedicated_cores = nproc`.  The
benchmark is the identity provider and the analysts: it signs assertions,
logs in, and drives one client connection at a time through the ingress.
"""

from __future__ import annotations

import asyncio
import csv
import io
import os
import time

from casa_mini import authd, bench, client
from casa_mini.launcher import Facility, FacilityConfig

import layers
import reference
from harness import Run, check, local_paths

JOB_TIMEOUT = 60.0
SMALL_JOBS = 3  # jobs each live-login user submits after its first


class Idp:
    """The identity provider: one key pair, assertions signed on demand."""

    def __init__(self):
        self.private_pem, self.public_pem = authd.generate_idp_keypair()

    def assertion(self, subject: str) -> dict:
        now = time.time()
        return authd.sign_assertion(self.private_pem, subject, ["cms"], now, now + 600.0)


async def _start_facility(idp: Idp, root: str):
    cfg = FacilityConfig(
        idp_public_key_pem=idp.public_pem,
        data_root=root,
        run_dir=os.path.join(root, "run"),
        scheduler_base_port=0,
        dedicated_cores=len(os.sched_getaffinity(0)),  # nproc
    )
    facility = Facility(cfg)
    try:
        addresses = await facility.start()
    except BaseException:
        await facility.stop()
        raise
    return facility, addresses


def _session(reply: dict, directory: str) -> client.SchedulerClient:
    """The analyst's client: credentials from the login reply, written to
    disk, and one TLS connection through the SNI ingress."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, key in (("ca.pem", "ca_cert"), ("cert.pem", "user_cert"), ("key.pem", "user_key")):
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            fh.write(reply[key])
        paths.append(path)
    return client.SchedulerClient(tuple(reply["ingress"]), reply["sni_hostname"], *paths)


async def _job(run: Run, session, dataset, epf: list, chunk_size: int, want: reference.Expected) -> dict:
    """Submit one job, wait for it as a client does, check its result."""
    job_id = await session.submit_job(reference.PIPELINE, dataset.name, list(dataset.files), epf, chunk_size)
    status = await session.wait_job(job_id, timeout=JOB_TIMEOUT)
    run.attempted += 1
    if status["state"] != "done":
        run.failed += 1
        return status
    want.check(status["n_events_in"], status["n_events_pass"], reference.histograms_of_status(status))
    return status


def _busy_seconds(stream_csv: str, job_ids: set) -> float:
    """Worker busy time of the given jobs: TaskEnd minus TaskStart per chunk,
    from the scheduler's exported task stream."""
    starts, busy = {}, 0.0
    for row in csv.DictReader(io.StringIO(stream_csv)):
        if row["detail"] not in job_ids:
            continue
        key = (row["detail"], row["chunk_id"])
        if row["kind"] == "TaskStart":
            starts[key] = float(row["t"])
        elif row["kind"] == "TaskEnd":
            busy += float(row["t"]) - starts.pop(key)
    return busy


async def _live_login(run: Run) -> None:
    cfg = bench.BenchConfig(seed=run.seed, n_files=2, events_per_file=2000, chunk_size=1000, dataset_name="small")
    idp = Idp()
    facility = None
    try:
        for _ in range(run.setups):
            if facility is not None:
                await facility.stop()
                facility = None
            root = run.fresh_dir()
            assertion = idp.assertion("setup")
            start = time.perf_counter()
            dataset, epf = bench.generate_dataset(cfg, root)
            facility, addresses = await _start_facility(idp, root)
            reply = await client.login(addresses["authd"], assertion)
            run.setup_s.append(time.perf_counter() - start)
            run.attempted += 1
        await facility.teardown_cluster(reply["cluster_id"])
        want = reference.expected(local_paths(root, dataset.files), cfg.chunk_size)

        started, rounds = time.perf_counter(), 0
        while run.keep_going(started, rounds):
            traced = run.traced_round(rounds)
            before = facility.proxy.stats()
            # nothing has read the data before the first user's first job
            expect_fetches = before["origin_fetches"] if rounds else want.blocks
            assertion = idp.assertion(f"user{rounds}")
            if traced:
                layers.install(run.tracer)
            start = time.perf_counter()
            try:
                reply = await client.login(addresses["authd"], assertion)
                run.attempted += 1
                session = _session(reply, os.path.join(root, f"user{rounds}"))
                try:
                    statuses = [await _job(run, session, dataset, epf, cfg.chunk_size, want)]
                    first = time.perf_counter()
                    for _ in range(SMALL_JOBS):
                        job_start = time.perf_counter()
                        statuses.append(await _job(run, session, dataset, epf, cfg.chunk_size, want))
                        if not traced:
                            run.job_s.append(time.perf_counter() - job_start)
                    if traced:
                        stream = await session.task_stream_csv()
                finally:
                    await session.aclose()
                await facility.teardown_cluster(reply["cluster_id"])
            finally:
                end = time.perf_counter()
                run.tracer.uninstall()
            rounds += 1
            after = facility.proxy.stats()
            check(
                after["origin_fetches"] == expect_fetches,
                f"{after['origin_fetches']} blocks fetched from the origin; the range reads "
                f"of the small jobs cover {want.blocks}, and only the first job is cold",
            )
            run.rates.append((traced, sum(s["n_events_in"] for s in statuses) / (end - start)))
            if traced:
                for key in ("cache_hits", "origin_fetches"):
                    run.tracer.counts[f"data_proxy.{key}"] += after[key] - before[key]
                run.tracer.counts["worker.busy_s"] += _busy_seconds(stream, {s["job_id"] for s in statuses})
                run.traced_logins += 1
                run.traced_jobs += len(statuses)
                run.traced_tasks += sum(s["done"] for s in statuses)
            else:
                run.first_result_s.append(first - start)
    finally:
        if facility is not None:
            await facility.stop()


def run_live_login(run: Run) -> None:
    """Fresh users, one after another: log in, first histograms, a few more
    small jobs, tear the cluster down."""
    asyncio.run(_live_login(run))
