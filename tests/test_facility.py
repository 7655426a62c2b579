import asyncio
import collections
import json
import logging
import os
import signal
import socket
import ssl
import struct
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from casa_mini import cacf, client, launcher, wire
from casa_mini.batchsim import JobSpec
from casa_mini.bench import BenchConfig, generate_dataset
from casa_mini.data_proxy import LocalOrigin, ProxyClient, SyncDataProxy
from casa_mini.engine.pipeline import KernelPipeline, run_pipeline
from casa_mini.launcher import Facility, FacilityConfig, reap
from casa_mini.scheduler.state import ScalePolicy
from casa_mini.sim import SimParams, VirtualFacility
from casa_mini.tokens import mint_token
from casa_mini.types import ColumnBatch
from casa_mini.zygote import Zygote, ZygoteError

from .conftest import idle_worker_config, make_assertion, run_async, stat_fields

PIPELINE = [
    {"define": ["pt", "sqrt(px*px+py*py)"]},
    {"filter": "pt>20"},
    {"hist": ["h_pt", "pt", 30, 0, 300]},
]

FAST_DELAYS = {"s0": 0.2, "c": 0.1, "jitter": 0.0, "seed": 1}


def small_facility(idp_keys, tmp_path, **overrides):
    cfg_b = BenchConfig(n_files=2, events_per_file=200, chunk_size=50, dataset_name="mini")
    dataset, epf = generate_dataset(cfg_b, str(tmp_path))
    _, public_pem = idp_keys
    overrides.setdefault("scheduler_base_port", 0)
    cfg = FacilityConfig(
        idp_public_key_pem=public_pem,
        data_root=str(tmp_path),
        run_dir=str(tmp_path / "run"),
        delay_model=dict(FAST_DELAYS),
        heartbeat_timeout=5.0,
        **overrides,
    )
    return Facility(cfg), dataset, epf


def write_client_creds(reply: dict, directory: str) -> dict:
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, key in (("ca.pem", "ca_cert"), ("cert.pem", "user_cert"), ("key.pem", "user_key")):
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            fh.write(reply[key])
        paths[name.split(".")[0]] = path
    return paths


def scheduler_client(reply: dict, cred_paths: dict) -> client.SchedulerClient:
    return client.SchedulerClient(
        tuple(reply["ingress"]), reply["sni_hostname"], cred_paths["ca"], cred_paths["cert"], cred_paths["key"]
    )


async def forked(record, timeout=30.0):
    """The cluster's dedicated worker once its watch has forked it: the login
    does not wait for the fork."""
    deadline = time.monotonic() + timeout
    while record.dedicated_worker is None:
        assert time.monotonic() < deadline, "dedicated worker not forked"
        await asyncio.sleep(0.002)
    return record.dedicated_worker


def oracle_histograms(dataset, root: str, pipeline_json):
    local = [f.replace("root://origin.sim//store/", os.path.join(root, "store") + "/") for f in dataset.files]
    pipeline = KernelPipeline.from_json(pipeline_json)
    wanted = sorted(pipeline.input_columns())
    cols = {n: np.concatenate([cacf.read_columns_path(p)[n] for p in local]) for n in wanted}
    (result,) = run_pipeline(ColumnBatch(cols), pipeline).results
    return result


def test_login_provision_and_dedicated_worker(idp_keys, tmp_path, caplog):
    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            assert reply["cluster_id"] == "alice-1"
            assert reply["sni_hostname"] == "alice-1.dask.local"
            record = facility.clusters["alice-1"]
            assert record.bundle.subject == "alice"

            creds = write_client_creds(reply, str(tmp_path / "alice"))
            sc = scheduler_client(reply, creds)
            # the login did not wait for the dedicated worker: a job submitted
            # while it registers waits in the queue for it
            job_id = await sc.submit_job(PIPELINE, "mini", list(dataset.files), epf, chunk_size=50)
            await record.service.wait_worker("alice-1-dedicated", 30)
            dedicated = record.service.state.workers["alice-1-dedicated"]
            assert dedicated.arrived and dedicated.n_cores == min(8, len(os.sched_getaffinity(0)))
            status = await sc.wait_job(job_id, timeout=30)
            assert status["state"] == "done"
            # served entirely by the dedicated worker: the batch system saw nothing
            assert len(facility.batch_sim.jobs) == 0
            oracle = oracle_histograms(dataset, str(tmp_path), PIPELINE)
            assert status["histograms"][0]["counts"] == [int(c) for c in oracle.histograms[0].counts]
            assert status["n_events_pass"] == oracle.n_events_pass

            # second login: same cluster, idempotent
            again = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            assert again["cluster_id"] == "alice-1"
            assert len(facility.clusters) == 1
            sc.close()
        finally:
            await facility.stop()

    run_async(scenario())
    # stop() ends the watch over the registered dedicated worker before it reaps the worker
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert not any("dedicated worker" in m for m in warnings), warnings


def test_the_dedicated_worker_runs_a_task_thread_per_host_cpu_up_to_eight():
    assert FacilityConfig().dedicated_cores == min(8, len(os.sched_getaffinity(0)))


def test_cluster_whose_dedicated_worker_dies_fails_at_once_and_leaves_nothing(idp_keys, tmp_path, caplog):
    with socket.create_server(("127.0.0.1", 0)) as sock:
        sched_port = sock.getsockname()[1]  # free again, for the cluster's scheduler

    async def refused() -> bool:
        try:
            _, writer = await asyncio.open_connection("127.0.0.1", sched_port)
        except ConnectionRefusedError:
            return True
        writer.close()
        return False

    async def scenario():
        # a worker config with 0 cores makes the dedicated worker exit before it registers
        facility, dataset, epf = small_facility(
            idp_keys, tmp_path, dedicated_cores=0, scheduler_base_port=sched_port
        )
        addrs = await facility.start()
        try:
            start = time.monotonic()
            reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            assert reply["cluster_id"] == "alice-1"  # the login returns once the worker is forked
            while facility.clusters or facility._tasks._tasks:  # until the cluster is down and released
                assert time.monotonic() - start < 2.0  # not REGISTER_TIMEOUT
                await asyncio.sleep(0.005)
            assert len(facility.sni.routes) == 0
            assert await refused()

            # a job queued before the worker's exit is seen fails with the reason
            bob = await facility.provision_cluster(facility.auth.login(make_assertion(idp_keys, sub="bob")))
            job_id = bob.service.state.submit_job(PIPELINE, dataset, 50, 0.0, events_per_file=epf)
            status = await bob.service.wait_job(job_id, timeout=2.0)
            assert status["state"] == "failed"
            assert status["error"] == f"dedicated worker for {bob.cluster_id} exited with code 1"
            assert facility.clusters == {} and len(facility.sni.routes) == 0
        finally:
            await facility.stop()
        assert len(facility.sni.routes) == 0
        assert await refused()

    run_async(scenario())
    reasons = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any("dedicated worker for alice-1 exited with code 1" in m for m in reasons), reasons


def test_a_dedicated_worker_that_dies_after_it_registered_takes_its_cluster_down(idp_keys, tmp_path):
    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)  # no batch workers: fixed_n=0
        addrs = await facility.start()
        try:
            await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            record = facility.clusters["alice-1"]
            await record.service.wait_worker("alice-1-dedicated", 30)
            start = time.monotonic()
            (await forked(record)).kill()
            # submitted before the exit is seen: the dedicated worker was the one worker to run it
            job_id = record.service.state.submit_job(PIPELINE, dataset, 50, 0.0, events_per_file=epf)
            status = await record.service.wait_job(job_id, timeout=2.0)
            assert status["state"] == "failed"  # not left running on a cluster with no worker
            assert status["error"] == f"dedicated worker for alice-1 exited with code {-signal.SIGKILL}"
            while facility.clusters or facility._tasks._tasks:  # until the cluster is down and released
                assert time.monotonic() - start < 2.0
                await asyncio.sleep(0.005)
            assert len(facility.sni.routes) == 0
            assert not (tmp_path / "run" / "clusters" / "alice-1").exists()
        finally:
            await facility.stop()

    run_async(scenario())


def silent_dedicated_worker(facility, port: int) -> None:
    """Point the facility's dedicated workers at `port`, which never
    answers: each waits in its TLS handshake and never registers."""
    worker_config = facility._worker_config

    def config(bundle, worker_id, n_cores):
        body = worker_config(bundle, worker_id, n_cores)
        if worker_id.endswith("-dedicated"):
            body["ingress"] = ["127.0.0.1", port]
        return body

    facility._worker_config = config


def test_a_dedicated_worker_that_never_registers_fails_the_waiting_job(idp_keys, tmp_path, silent_port, monkeypatch):
    monkeypatch.setattr(launcher, "REGISTER_TIMEOUT", 0.5)

    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        silent_dedicated_worker(facility, silent_port)
        addrs = await facility.start()
        try:
            start = time.monotonic()
            reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            record = facility.clusters["alice-1"]
            sc = scheduler_client(reply, write_client_creds(reply, str(tmp_path / "alice")))
            job_id = await sc.submit_job(PIPELINE, "mini", list(dataset.files), epf, chunk_size=50)
            status = await sc.wait_job(job_id, timeout=30)
            elapsed = time.monotonic() - start
            sc.close()
            assert status["state"] == "failed"
            assert status["error"] == "dedicated worker for alice-1 did not register"
            assert 0.5 <= elapsed < 5.0
            await record.watch
            assert facility.clusters == {} and len(facility.sni.routes) == 0
            assert record.dedicated_worker.returncode == -signal.SIGTERM
        finally:
            await facility.stop()

    run_async(scenario())


def test_teardown_or_stop_while_the_dedicated_worker_registers_is_quiet(idp_keys, tmp_path, silent_port, caplog):
    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path)
        silent_dedicated_worker(facility, silent_port)
        addrs = await facility.start()
        try:
            replies = [
                await client.login(addrs["authd"], make_assertion(idp_keys, sub=sub)) for sub in ("alice", "bob")
            ]
            alice, bob = (facility.clusters[reply["cluster_id"]] for reply in replies)
            for record in (alice, bob):
                await forked(record)
            await facility.teardown_cluster(alice.cluster_id)
            assert alice.watch.cancelled()
            assert alice.dedicated_worker.returncode == -signal.SIGTERM
            assert not bob.watch.done()
        finally:
            await facility.stop()
        assert bob.watch.cancelled()
        assert bob.dedicated_worker.returncode == -signal.SIGTERM
        assert facility.clusters == {} and facility._tasks._tasks == set()
        assert facility.zygote.workers == {}

    run_async(scenario())
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warnings == []


def hold_forks(facility) -> dict[str, asyncio.Event]:
    """Hold each fork the facility asks of its zygote until the test sets the
    event of its log name (<cluster-id>-dedicated for a dedicated worker)."""
    spawn = facility.zygote.spawn
    gates: dict[str, asyncio.Event] = collections.defaultdict(asyncio.Event)

    async def held(config, log_path):
        await gates[os.path.basename(log_path).removesuffix(".log")].wait()
        return await spawn(config, log_path)

    facility.zygote.spawn = held
    return gates


async def login(addrs, idp_keys, sub: str) -> dict:
    return await asyncio.wait_for(client.login(addrs["authd"], make_assertion(idp_keys, sub=sub)), 10)


def test_the_login_replies_while_the_dedicated_worker_forks(idp_keys, tmp_path):
    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        gates = hold_forks(facility)
        addrs = await facility.start()
        try:
            reply = await login(addrs, idp_keys, "alice")
            bob = await login(addrs, idp_keys, "bob")  # the provisioning lock does not span alice's fork
            alice = facility.clusters["alice-1"]
            assert alice.dedicated_worker is None and facility.clusters[bob["cluster_id"]].dedicated_worker is None
            sc = scheduler_client(reply, write_client_creds(reply, str(tmp_path / "alice")))
            job_id = await sc.submit_job(PIPELINE, "mini", list(dataset.files), epf, chunk_size=50)
            await asyncio.sleep(0.2)
            status = await sc.job_status(job_id)
            assert (status["state"], status["assigned"], status["queued"]) == ("running", 0, 8)
            gates["alice-1-dedicated"].set()
            status = await sc.wait_job(job_id, timeout=30)
            sc.close()
            assert status["state"] == "done"
            oracle = oracle_histograms(dataset, str(tmp_path), PIPELINE)
            assert status["histograms"][0]["counts"] == [int(c) for c in oracle.histograms[0].counts]
        finally:
            await facility.stop()  # bob's fork is still held
        assert facility.zygote.workers == {}

    run_async(scenario())


def test_a_dedicated_worker_that_cannot_be_forked_takes_its_cluster_down(idp_keys, tmp_path, caplog):
    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        refuse = asyncio.Event()

        async def spawn(config, log_path):
            await refuse.wait()
            raise ZygoteError("fork: Resource temporarily unavailable")

        facility.zygote.spawn = spawn
        addrs = await facility.start()
        try:
            reply = await login(addrs, idp_keys, "alice")
            assert reply["cluster_id"] == "alice-1"
            record = facility.clusters["alice-1"]
            job_id = record.service.state.submit_job(PIPELINE, dataset, 50, 0.0, events_per_file=epf)
            refuse.set()
            status = await record.service.wait_job(job_id, timeout=5.0)
            assert status["state"] == "failed"
            assert status["error"] == "dedicated worker for alice-1 not forked: fork: Resource temporarily unavailable"
            await record.watch
            assert facility.clusters == {} and len(facility.sni.routes) == 0
            assert record.dedicated_worker is None
        finally:
            await facility.stop()

    run_async(scenario())
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any("dedicated worker for alice-1 not forked" in m for m in warnings), warnings


@pytest.mark.parametrize("end", ["teardown", "stop"])
def test_teardown_or_stop_while_a_fork_is_held_leaves_no_process(idp_keys, tmp_path, silent_port, caplog, end):
    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path)
        silent_dedicated_worker(facility, silent_port)
        gates = hold_forks(facility)
        addrs = await facility.start()
        try:
            replies = [await login(addrs, idp_keys, sub) for sub in ("alice", "bob")]
            alice, bob = (facility.clusters[reply["cluster_id"]] for reply in replies)
            gates[f"{bob.cluster_id}-dedicated"].set()
            bob_worker = await forked(bob)  # forked, and never registers
            if end == "teardown":
                await facility.teardown_cluster(alice.cluster_id)  # its fork still held
                await facility.teardown_cluster(bob.cluster_id)
                assert facility.zygote.workers == {}
                gates["alice-1-dedicated"].set()  # a cancelled watch asks for no fork
                await asyncio.sleep(0.05)
        finally:
            await facility.stop()
        # bob's watch reaped its worker: the zygote's close would have killed it
        assert bob_worker.returncode == -signal.SIGTERM
        assert alice.dedicated_worker is None and alice.watch.cancelled()
        assert facility.clusters == {} and facility.zygote.workers == {}

    run_async(scenario())
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warnings == []


def test_batch_scale_out_completes_job(idp_keys, tmp_path):
    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            creds = write_client_creds(reply, str(tmp_path / "alice"))
            sc = scheduler_client(reply, creds)
            await sc.scale_request(mode="fixed", fixed_n=2)
            job_id = await sc.submit_job(PIPELINE, "mini", list(dataset.files), epf, chunk_size=50)
            status = await sc.wait_job(job_id, timeout=45)
            assert status["state"] == "done"
            assert len(facility.batch_sim.jobs) >= 1  # scale-out actually used the batch system
            oracle = oracle_histograms(dataset, str(tmp_path), PIPELINE)
            assert status["histograms"][0]["counts"] == [int(c) for c in oracle.histograms[0].counts]
            await sc.scale_request(mode="fixed", fixed_n=0)
            sc.close()
        finally:
            await facility.stop()

    run_async(scenario())


def test_a_killed_batch_worker_leaves_alike_live_and_virtual(idp_keys, tmp_path):
    """One dataset, one batch worker killed while it holds chunks: the live
    facility (SIGKILL of its process) and the virtual one (a kill plan) each
    requeue its chunks at once, record the same WorkerDown, and merge the
    same histograms, bit for bit."""
    facility, dataset, epf = small_facility(idp_keys, tmp_path)

    # virtual: w0001 starts at t=3 (s0 + c) and holds 4 chunks of 5 s each at t=5
    data_key = b"d" * 32
    proxy = SyncDataProxy(LocalOrigin(str(tmp_path), "fed"), data_key, clock=lambda: 0.0)
    virtual = VirtualFacility(
        proxy,
        mint_token(data_key, "alice", "data", exp=1e9),
        "",
        ScalePolicy(mode="fixed", fixed_n=2),
        params=SimParams(rate=10.0),
    )
    virtual.kill_worker_at("w0001", 5.0)
    virtual_job = virtual.run_job(PIPELINE, dataset, 50, epf)
    events = virtual.state.events
    down = next(e for e in events if e.kind == "WorkerDown")
    assert (down.worker_id, down.t, down.detail) == ("w0001", 5.0, "connection closed")
    held = {e.chunk_id for e in events[: events.index(down)] if e.worker_id == "w0001" and e.kind == "TaskStart"}
    assert len(held) == 4 and not [e for e in events if e.kind == "TaskEnd" and e.worker_id == "w0001"]

    async def live():
        await facility.start()
        try:
            reply = await client.login(facility.addresses["authd"], make_assertion(idp_keys, sub="alice"))
            sc = scheduler_client(reply, write_client_creds(reply, str(tmp_path / "alice")))
            service = facility.clusters[reply["cluster_id"]].service
            await sc.scale_request(mode="fixed", fixed_n=2)  # the dedicated worker and w0001
            await service.wait_worker("w0001", 30)
            worker = facility._batch_procs[service.state.workers["w0001"].batch_handle]
            worker.send_signal(signal.SIGSTOP)  # it takes chunks and runs none of them
            try:
                job_id = await sc.submit_job(PIPELINE, "mini", list(dataset.files), epf, chunk_size=50)
                assert service.state.workers["w0001"].running  # assigned at the submission
            finally:
                worker.kill()
            status = await sc.wait_job(job_id, timeout=30)
            downs = [(e.worker_id, e.detail) for e in service.state.events if e.kind == "WorkerDown"]
            sc.close()
            return status, downs
        finally:
            await facility.stop()

    status, downs = run_async(live())
    assert status["state"] == virtual_job.state == "done"
    assert downs[0] == ("w0001", "connection closed")
    assert status["histograms"] == virtual_job.status()["histograms"]
    oracle = oracle_histograms(dataset, str(tmp_path), PIPELINE)
    assert status["histograms"][0]["counts"] == [int(c) for c in oracle.histograms[0].counts]


def test_no_batch_worker_starts_after_stop(idp_keys, tmp_path):
    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path)
        await facility.start()
        started = []
        stopping = []
        start_worker = facility.batch_sim.on_start

        def on_start(job, t):
            started.append(job.handle)
            start_worker(job, t)
            if not stopping:
                # Begin the stop here. Its first step cancels the batch service's
                # timers, and runs before the timer of the second start, which the
                # sim asks for only after this call. A stop begun once a poll saw
                # this start could come after a stalled loop had run that timer.
                stopping.append(asyncio.ensure_future(facility.stop()))

        facility.batch_sim.on_start = on_start
        facility.batch_sim.delay.s0, facility.batch_sim.delay.c = 0.0, 0.5
        token = mint_token(facility.keys.batch, "alice", "batch", exp=time.time() + 600)
        now = facility.batch_service.clock()
        first = facility.batch_sim.submit(JobSpec(batch_token=token), now)  # due at now + 0.5
        second = facility.batch_sim.submit(JobSpec(batch_token=token), now)  # due at now + 1.0
        try:
            deadline = time.time() + 5.0
            while facility.batch_sim.jobs[first].state != "Running" and time.time() < deadline:
                await asyncio.sleep(0.01)
            assert started == [first]  # a start that comes due is woken for
        finally:
            await (stopping[0] if stopping else facility.stop())
        await asyncio.sleep(facility.batch_sim.jobs[second].start_at - time.time() + 0.3)
        assert started == [first]
        assert facility.batch_sim.jobs[second].state == "Starting"
        assert facility._batch_procs == {}
        assert not os.path.exists(os.path.join(facility.run_dir, "logs", f"batch-job-{second}.log"))

    run_async(scenario())


def test_the_facility_listens_for_its_five_services_only(idp_keys, tmp_path):
    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path)
        try:
            return await facility.start()
        finally:
            await facility.stop()

    # no ingress admin listener: the launcher registers each cluster's route in process
    assert set(run_async(scenario())) == {"authd", "ingress", "batch", "data_proxy", "origin"}


def test_teardown_removes_the_clusters_tls_files_and_a_re_login_runs_a_job(idp_keys, tmp_path):
    cred_dir = tmp_path / "run" / "clusters" / "alice-1"

    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            await login(addrs, idp_keys, "alice")
            assert sorted(os.listdir(cred_dir)) == sorted(wire.TLS_FILES)
            assert os.stat(cred_dir).st_mode & 0o777 == 0o700
            await facility.teardown_cluster("alice-1")
            assert not cred_dir.exists()
            reply = await login(addrs, idp_keys, "alice")
            assert reply["cluster_id"] == "alice-1"  # the same cluster id, provisioned afresh
            sc = scheduler_client(reply, write_client_creds(reply, str(tmp_path / "alice")))
            job_id = await sc.submit_job(PIPELINE, "mini", list(dataset.files), epf, chunk_size=50)
            status = await sc.wait_job(job_id, timeout=30)
            sc.close()
        finally:
            await facility.stop()
        return dataset, status

    dataset, status = run_async(scenario())
    assert not cred_dir.exists()  # stop() tore the cluster down
    assert status["state"] == "done"
    oracle = oracle_histograms(dataset, str(tmp_path), PIPELINE)
    assert status["histograms"][0]["counts"] == [int(c) for c in oracle.histograms[0].counts]


def test_a_failed_provisioning_leaves_no_cluster_route_or_file(idp_keys, tmp_path):
    async def scenario(port: int):
        facility, _, _ = small_facility(idp_keys, tmp_path, scheduler_base_port=port)
        addrs = await facility.start()
        try:
            with pytest.raises(wire.RequestError) as failed:
                await login(addrs, idp_keys, "alice")
            assert failed.value.code == "provision_failed"
            assert facility.clusters == {} and len(facility.sni.routes) == 0
        finally:
            await facility.stop()

    with socket.create_server(("127.0.0.1", 0)) as taken:  # the scheduler's port is in use
        run_async(scenario(taken.getsockname()[1]))
    assert os.listdir(tmp_path / "run" / "clusters") == []


def test_two_users_two_routes_and_isolation(idp_keys, tmp_path):
    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            alice = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            bob = await client.login(addrs["authd"], make_assertion(idp_keys, sub="bob"))
            assert len(facility.sni.routes) == 2
            assert alice["sni_hostname"] != bob["sni_hostname"]
            assert alice["ingress"] == bob["ingress"]  # one shared address

            # bob's certs cannot reach alice's scheduler: wrong CA on both sides
            bob_creds = write_client_creds(bob, str(tmp_path / "bob"))
            imposter = client.SchedulerClient(
                tuple(alice["ingress"]),
                alice["sni_hostname"],
                bob_creds["ca"],
                bob_creds["cert"],
                bob_creds["key"],
            )
            with pytest.raises((ssl.SSLError, ConnectionError, OSError)):
                await imposter.job_status("job-0001")
        finally:
            await facility.stop()

    run_async(scenario())


def test_teardown_cluster(idp_keys, tmp_path):
    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            creds = write_client_creds(reply, str(tmp_path / "alice"))
            await facility.teardown_cluster("alice-1")
            assert len(facility.sni.routes) == 0
            # SNI connect is now closed without a backend
            sc = scheduler_client(reply, creds)
            with pytest.raises((ssl.SSLError, ConnectionError, OSError, asyncio.IncompleteReadError)):
                await sc.job_status("job-0001")
            with pytest.raises(KeyError, match="unknown cluster"):
                await facility.teardown_cluster("alice-1")
        finally:
            await facility.stop()

    run_async(scenario())


def test_stop_reaps_dedicated_worker(idp_keys, tmp_path):
    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            worker = await forked(facility.clusters["alice-1"])
            assert worker.returncode is None
        finally:
            await facility.stop()
        # returncode is set only by a wait: stop() itself reaped the process
        assert worker.returncode is not None

    run_async(scenario())


def test_a_teardown_cancels_every_batch_job_however_soon_after_the_scale_out(idp_keys, tmp_path):
    """A scale-out tick, then a teardown 0 to 20 event-loop iterations later:
    each time, every batch job the tick asked for ends Cancelled and no slot
    stays committed."""

    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path)
        sim = facility.batch_sim
        await facility.start()
        try:
            for offset in range(21):
                bundle = facility.auth.login(make_assertion(idp_keys, sub=f"user{offset}"))
                service = (await facility.provision_cluster(bundle)).service
                service.policy.fixed_n = 4  # the dedicated worker and three batch workers
                service.autoscaler.tick(service.clock())
                for _ in range(offset):
                    await asyncio.sleep(0)
                await facility.teardown_cluster(bundle.cluster_id)
                assert sim.committed == 0, offset
                assert [job.state for job in sim.jobs.values()] == ["Cancelled"] * 3 * (offset + 1), offset
        finally:
            await facility.stop()

    run_async(scenario())


def test_a_re_login_renews_the_tokens_scale_out_presents(idp_keys, tmp_path):
    """A login after the first login's tokens expired returns the same
    cluster, clears the back-off of a scale-out refused meanwhile, and its
    batch workers present the new batch token.  Its scheduler holds the new
    data token, and no batch job carries one."""

    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path, token_ttl=0.5)
        facility.batch_sim.delay.s0 = 60.0  # the jobs stay Starting: no worker process
        addrs = await facility.start()
        try:
            first = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            await asyncio.sleep(0.7)
            service = facility.clusters[first["cluster_id"]].service
            service.policy.fixed_n = 2  # the dedicated worker and one batch worker
            service.autoscaler.tick(service.clock())  # refused: the expired token; scale-out backs off
            assert [e.detail for e in service.state.events if e.kind == "WorkerDown"] == [
                "batch submit failed: token expired"
            ]
            again = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            assert again["cluster_id"] == first["cluster_id"] and again["batch_token"] != first["batch_token"]
            assert facility.clusters[again["cluster_id"]].service is service
            service.policy.fixed_n = 3  # the dedicated worker and two batch workers
            service.autoscaler.tick(service.clock())  # within the back-off, which the login cleared
            jobs = list(facility.batch_sim.jobs.values())
            assert [job.state for job in jobs] == ["Starting"] * 2
            assert {job.spec.batch_token for job in jobs} == {again["batch_token"]}
            assert service.data_token == again["data_token"] != first["data_token"]
            assert [job.spec.worker_config.get("data_token") for job in jobs] == [None] * 2
            assert {e.detail for e in service.state.events if e.kind == "WorkerDown"} == {
                "batch submit failed: token expired"
            }
        finally:
            await facility.stop()

    run_async(scenario())


def test_a_re_login_renews_the_data_token_of_a_running_worker(idp_keys, tmp_path):
    """Once the login's tokens have expired, a job fails with the proxy's
    refusal; after a re-login, the same dedicated worker runs the next job
    to the first job's histograms, with the token its next AssignTask carries."""
    ttl = 2.0

    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path, token_ttl=ttl)
        addrs = await facility.start()
        try:
            first = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            expires = time.monotonic() + ttl  # the tokens were minted before the reply
            sc = scheduler_client(first, write_client_creds(first, str(tmp_path / "alice")))

            async def run_job():
                job_id = await sc.submit_job(PIPELINE, "mini", list(dataset.files), epf, chunk_size=50)
                return await sc.wait_job(job_id, timeout=30)

            statuses = [await run_job()]
            assert time.monotonic() < expires, "the first job outlived the tokens"
            worker = facility.clusters["alice-1"].dedicated_worker
            await asyncio.sleep(expires - time.monotonic() + 0.1)
            statuses.append(await run_job())  # no re-login yet
            again = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            assert again["data_token"] != first["data_token"]
            statuses.append(await run_job())
            assert facility.clusters["alice-1"].dedicated_worker is worker  # the same process, renewed
            sc.close()
        finally:
            await facility.stop()
        return statuses

    done, expired, renewed = run_async(scenario())
    assert done["state"] == "done"
    assert (expired["state"], expired["error"]) == ("failed", "data token rejected: token expired")
    assert renewed["state"] == "done"
    assert renewed["histograms"] == done["histograms"]


def test_no_file_or_batch_job_holds_the_data_token(idp_keys, tmp_path):
    """After a login and a scale-out whose batch worker registers, the data
    token is in no file under run_dir and no batch job's worker config, and
    the only files under run_dir are the cluster's TLS files and the worker
    logs: each worker's config reaches it in its fork request."""

    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            service = facility.clusters["alice-1"].service
            assert service.data_token == reply["data_token"]
            sc = scheduler_client(reply, write_client_creds(reply, str(tmp_path / "alice")))
            await sc.scale_request(mode="fixed", fixed_n=2)  # the dedicated worker and w0001
            for worker_id in ("alice-1-dedicated", "w0001"):
                await service.wait_worker(worker_id, 30)
            sc.close()
            configs = [job.spec.worker_config for job in facility.batch_sim.jobs.values()]
            assert len(configs) == 1 and "data_token" not in configs[0]
            token = reply["data_token"].encode()
            run_dir = tmp_path / "run"
            files = [path for path in run_dir.rglob("*") if path.is_file()]
            assert {str(path.relative_to(run_dir)) for path in files} == {
                *(f"clusters/alice-1/{name}" for name in wire.TLS_FILES),
                "logs/alice-1-dedicated.log",
                "logs/batch-job-1.log",
            }
            assert [path for path in files if path.suffix == ".json" or token in path.read_bytes()] == []
        finally:
            await facility.stop()

    run_async(scenario())


def test_stop_after_fetch_logs_no_error(idp_keys, tmp_path, caplog):
    clients = []

    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        token = mint_token(facility.keys.data, "alice", "data", exp=time.time() + 600)
        clients.append(ProxyClient(addrs["data_proxy"]))
        try:
            (data,) = await asyncio.to_thread(clients[0].fetch, "/store/mini/part00.cacf", [(0, 64)], token)
            assert data[:4] == b"CACF"
        finally:
            await facility.stop()

    try:
        run_async(scenario())  # the loop closes while a worker's proxy connection is open
    finally:
        for proxy_client in clients:
            proxy_client.close()
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [], [r.getMessage() for r in errors]


def test_reap_kills_worker_that_ignores_sigterm(tmp_path, silent_port):
    async def scenario():
        zygote = Zygote()
        zygote.start()
        try:
            proc = await zygote.spawn(idle_worker_config(tmp_path, silent_port), str(tmp_path / "worker.log"))
            os.kill(proc.pid, signal.SIGSTOP)  # a stopped process does not act on SIGTERM
            while stat_fields(proc.pid)[0] != "T":
                await asyncio.sleep(0.005)
            started = time.monotonic()
            returncode = await reap(proc, timeout=0.2)
            return returncode, time.monotonic() - started
        finally:
            await zygote.close()

    returncode, elapsed = run_async(scenario())
    assert returncode == -signal.SIGKILL
    assert elapsed >= 0.2


def test_worker_exits_nonzero_without_scheduler(tmp_path, idp_keys):
    # point a worker at a dead address: 3 connection attempts then exit 1
    from casa_mini import certs

    ca = certs.make_ca("dead-ca")
    user = certs.make_user_cert(ca, "alice")
    paths = {}
    for name, text in (("ca.pem", ca.cert_pem), ("cert.pem", user.cert_pem), ("key.pem", user.key_pem)):
        path = tmp_path / name
        path.write_text(text)
        paths[name.split(".")[0]] = str(path)
    config = {
        "worker_id": "w1",
        "ingress": ["127.0.0.1", 1],  # nothing listens here
        "sni": "x.dask.local",
        "ca": paths["ca"],
        "cert": paths["cert"],
        "key": paths["key"],
        "proxy": None,
        "n_cores": 2,
    }
    config_path = tmp_path / "worker.json"
    config_path.write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "casa_mini.worker", str(config_path)],
        capture_output=True,
        timeout=30,
    )
    assert proc.returncode == 1


def test_worker_that_exits_on_bad_config_leaves_traceback_in_its_log(idp_keys, tmp_path):
    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path)
        await facility.start()
        finished = []
        facility.batch_sim.finish = lambda handle, now: finished.append(handle)
        bad = {"worker_id": "w0001", "ingress": ["127.0.0.1", 1], "sni": "x.dask.local"}  # no credentials
        try:
            facility._start_batch_worker(SimpleNamespace(handle=7, spec=SimpleNamespace(worker_config=bad)), 0.0)
            assert await asyncio.wait_for(facility._batch_tasks[7], 30) == 1
            assert finished == [7]
        finally:
            await facility.stop()

    run_async(scenario())
    text = (tmp_path / "run" / "logs" / "batch-job-7.log").read_text()
    assert "Traceback" in text and "KeyError: 'ca'" in text


def test_task_fails_cleanly_on_rejected_data_token(tmp_path):
    """The executor gives a proxy token rejection as the task's TokenError
    outcome, which task_failure reports as "data token rejected: ...", not transient."""
    import numpy as np

    from casa_mini import cacf as cacf_mod
    from casa_mini.data_proxy import OriginServer, DataProxyServer
    from casa_mini.tokens import TokenError
    from casa_mini.types import FileChunk, TaskSpec
    from casa_mini.worker import DataPath, execute_run, task_failure

    os.makedirs(tmp_path / "store" / "d", exist_ok=True)
    cacf_mod.write_dataset_file({"pt": np.arange(100.0)}, str(tmp_path / "store" / "d" / "f.cacf"))

    async def scenario():
        origin = OriginServer(str(tmp_path), "fed")
        origin_addr = await origin.start("127.0.0.1", 0)
        proxy = DataProxyServer(origin_addr, "fed", b"k" * 32)
        proxy_addr = await proxy.start("127.0.0.1", 0)
        spec = TaskSpec(
            job_id="job-1",
            chunk=FileChunk(file="root://origin//store/d/f.cacf", start=0, len=50, chunk_id=0),
            pipeline=tuple(PIPELINE),
        )
        proxy_client = ProxyClient(proxy_addr)
        data = DataPath(proxy_client.fetch, "expired.token")
        (outcome,) = await asyncio.to_thread(execute_run, [spec], data)
        assert isinstance(outcome, TokenError)
        assert task_failure(outcome) == (f"data token rejected: {outcome}", False)
        proxy_client.close()
        assert origin.local.fetches == 0
        await proxy.close()
        await origin.close()

    run_async(scenario())


def test_worker_keeps_headers_and_proxy_connection_across_tasks(tmp_path, monkeypatch):
    from casa_mini.data_proxy import DataProxyServer, OriginServer
    from casa_mini.types import FileChunk, TaskSpec
    from casa_mini.worker import DataPath, execute_run

    os.makedirs(tmp_path / "store" / "d", exist_ok=True)
    for name in ("a", "b"):
        cacf.write_dataset_file(
            {"px": np.arange(100.0), "py": np.ones(100)}, str(tmp_path / "store" / "d" / f"{name}.cacf")
        )
    header_reads = []
    read_header = cacf.read_header
    monkeypatch.setattr(cacf, "read_header", lambda read: header_reads.append(1) or read_header(read))

    async def scenario():
        origin = OriginServer(str(tmp_path), "fed")
        proxy = DataProxyServer(await origin.start("127.0.0.1", 0), "fed", b"k" * 32)
        proxy_addr = await proxy.start("127.0.0.1", 0)
        token = mint_token(b"k" * 32, "alice", "data", exp=time.time() + 600)
        specs = [
            TaskSpec(
                job_id="job-1",
                chunk=FileChunk(file=f"root://origin//store/d/{name}.cacf", start=start, len=50, chunk_id=i),
                pipeline=tuple(PIPELINE),
            )
            for i, (name, start) in enumerate([("a", 0), ("a", 50), ("b", 0), ("b", 50)])
        ]
        proxy_client = ProxyClient(proxy_addr)
        data = DataPath(proxy_client.fetch, token)
        try:
            # one thread, as a task thread runs one task after another
            results = await asyncio.to_thread(lambda: [execute_run([s], data)[0] for s in specs])
            assert len(proxy_client._socks) == 1
        finally:
            proxy_client.close()
            await proxy.close()
            await origin.close()
        return results

    results = run_async(scenario())
    assert len(header_reads) == 2  # one per file, not one per task
    assert [r.n_events_in for r in results] == [50] * 4
    assert sum(r.n_events_pass for r in results) == 2 * int(np.count_nonzero(np.hypot(np.arange(100.0), 1.0) > 20))


def test_worker_header_cache_is_bounded(tmp_path, monkeypatch):
    from casa_mini import worker
    from casa_mini.types import FileChunk, TaskSpec

    paths = []
    for name in ("a", "b"):
        paths.append(str(tmp_path / f"{name}.cacf"))
        cacf.write_dataset_file({"px": np.arange(10.0), "py": np.ones(10)}, paths[-1])
    header_reads = []
    read_header = cacf.read_header
    monkeypatch.setattr(cacf, "read_header", lambda read: header_reads.append(1) or read_header(read))
    monkeypatch.setattr(worker, "HEADER_CACHE_FILES", 1)
    data = worker.DataPath(None)
    for i, path in enumerate([paths[0], paths[0], paths[1], paths[0]]):
        spec = TaskSpec(job_id="job-1", chunk=FileChunk(file=path, start=0, len=10, chunk_id=i), pipeline=tuple(PIPELINE))
        assert worker.execute_run([spec], data)[0].n_events_in == 10
    assert len(header_reads) == 3  # b pushed a out
    assert list(data._files) == [paths[0]]


def test_data_path_opens_each_local_file_once(tmp_path, opened_paths):
    from casa_mini import worker
    from casa_mini.types import FileChunk, TaskSpec

    paths = []
    for name in ("a", "b"):
        paths.append(str(tmp_path / f"{name}.cacf"))
        cacf.write_dataset_file({"px": np.arange(100.0), "py": np.ones(100)}, paths[-1])
    data = worker.DataPath(None)
    for i in range(20):
        chunk = FileChunk(file=paths[i % 2], start=10 * (i // 2), len=10, chunk_id=i)
        spec = TaskSpec(job_id="job-1", chunk=chunk, pipeline=tuple(PIPELINE))
        assert worker.execute_run([spec], data)[0].n_events_in == 10
    assert opened_paths == paths


def test_kept_files_stay_within_the_descriptor_limit(tmp_path):
    """120 local files through one DataPath in a process allowed 64 descriptors."""
    script = f"""
import resource
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
import numpy as np
from casa_mini import cacf, worker
from casa_mini.types import FileChunk, TaskSpec
data = worker.DataPath(None)
for i in range(120):
    path = {str(tmp_path)!r} + f"/f{{i}}.cacf"
    cacf.write_dataset_file({{"px": np.arange(10.0), "py": np.ones(10)}}, path)
    spec = TaskSpec("job-1", FileChunk(path, 0, 10, i), tuple({PIPELINE!r}))
    assert worker.execute_run([spec], data)[0].n_events_in == 10
print(len(data._files), worker.HEADER_CACHE_FILES)
"""
    src = os.path.dirname(os.path.dirname(cacf.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in [src, os.environ.get("PYTHONPATH")] if p)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["16", "16"]


def test_evicted_file_stays_open_for_a_read_in_flight(tmp_path, monkeypatch):
    """Task thread 1 has file a's reader when task thread 2 pushes a out of
    a one-file cache; thread 1's read still gets a's bytes."""
    from concurrent.futures import ThreadPoolExecutor

    from casa_mini import worker
    from casa_mini.types import FileChunk, TaskSpec

    columns = {"a": {"px": np.arange(40.0), "py": np.ones(40)}, "b": {"px": np.arange(40.0) + 25, "py": np.ones(40)}}
    paths = {}
    for name, cols in columns.items():
        paths[name] = str(tmp_path / f"{name}.cacf")
        cacf.write_dataset_file(cols, paths[name])
    monkeypatch.setattr(worker, "HEADER_CACHE_FILES", 1)
    read_chunk = cacf.read_chunk
    a_may_read = threading.Event()

    def gated_read_chunk(read, chunk, wanted, header=None):
        if chunk.file == paths["a"] and chunk.start == 0:
            assert a_may_read.wait(10)
        return read_chunk(read, chunk, wanted, header=header)

    monkeypatch.setattr(cacf, "read_chunk", gated_read_chunk)
    data = worker.DataPath(None)
    pipeline = KernelPipeline.from_json(PIPELINE)

    def task(name: str, start: int):
        spec = TaskSpec(job_id="j", chunk=FileChunk(file=paths[name], start=start, len=20, chunk_id=0), pipeline=tuple(PIPELINE))
        got = worker.execute_run([spec], data)[0]
        piece = ColumnBatch({n: v[start : start + 20] for n, v in columns[name].items()})
        (want,) = run_pipeline(piece, pipeline).results
        assert [h.to_dict() for h in got.histograms] == [h.to_dict() for h in want.histograms]

    with ThreadPoolExecutor(2) as pool:
        first = pool.submit(task, "a", 0)  # opens a, then waits to read it
        deadline = time.monotonic() + 10
        while paths["a"] not in data._files and time.monotonic() < deadline:
            time.sleep(0.001)
        pool.submit(task, "b", 0).result()  # b pushes a out
        for name, start in [("a", 20), ("b", 20)]:  # and the two files keep trading places
            pool.submit(task, name, start).result()
        assert list(data._files) == [paths["b"]]
        a_may_read.set()
        first.result(timeout=10)


def test_remote_chunk_without_a_proxy_fails_its_task(opened_paths):
    from casa_mini import worker
    from casa_mini.types import FileChunk, TaskSpec

    cfg = worker.WorkerConfig({"ingress": ["127.0.0.1", 1], "sni": "x", "ca": "c", "cert": "c", "key": "k"})
    agent = worker.WorkerAgent(cfg)  # no "proxy" in its config
    sent = []

    async def send(*msgs):
        sent.extend(msgs)

    agent._send = send  # of one run's reports
    url = "root://origin//store/d/f.cacf"
    spec = TaskSpec(job_id="job-1", chunk=FileChunk(file=url, start=0, len=10, chunk_id=0), pipeline=tuple(PIPELINE))
    try:
        run_async(agent._run([spec]))
    finally:
        agent._pool.shutdown()
    # not read as /store/d/f.cacf from the worker's own disk
    assert [path for path in opened_paths if path.endswith(".cacf")] == []
    assert [msg.kind for msg in sent] == ["TaskFailed"]
    assert url in sent[0].body["reason"] and sent[0].body["transient"] is False


def test_a_lost_proxy_connection_is_a_transient_failure():
    from casa_mini import worker
    from casa_mini.types import FileChunk, TaskSpec

    closed = socket.create_server(("127.0.0.1", 0))
    port = closed.getsockname()[1]
    closed.close()  # nothing listens there now
    cfg = {"ingress": ["127.0.0.1", 1], "sni": "x", "ca": "c", "cert": "c", "key": "k", "proxy": ["127.0.0.1", port]}
    agent = worker.WorkerAgent(worker.WorkerConfig(cfg))
    sent = []

    async def send(*msgs):
        sent.extend(msgs)

    agent._send = send
    chunk = FileChunk(file="root://origin//store/d/f.cacf", start=0, len=10, chunk_id=3)
    try:
        run_async(agent._run([TaskSpec(job_id="job-1", chunk=chunk, pipeline=tuple(PIPELINE))]))
    finally:
        agent._proxy.close()
        agent._pool.shutdown()
    assert [(msg.kind, msg.body["chunk_id"], msg.body["transient"]) for msg in sent] == [("TaskFailed", 3, True)]


def test_a_pass_that_raises_is_run_again_chunk_by_chunk(tmp_path, monkeypatch):
    from casa_mini import worker
    from casa_mini.scheduler.state import ClusterState
    from casa_mini.types import DatasetSpec

    path = str(tmp_path / "a.cacf")
    cacf.write_dataset_file({"px": np.arange(25.0), "py": np.ones(25)}, path)
    state = ClusterState()  # told 30 events: the last chunk runs past the file's 25
    state.submit_job(PIPELINE, DatasetSpec("d", (path,), 30), 10, 0.0, events_per_file=[30])
    state.worker_arrived("w1", 0.0, n_cores=1)
    given = state.schedule_step(0.0, join_runs=True)
    assert [joins for _, _, joins in given] == [False, True, True]  # one run, whose pass raises
    specs = [spec for _, spec, _ in given]
    passes = []
    engine = worker.run_pipeline
    monkeypatch.setattr(worker, "run_pipeline", lambda batch, p, n, ids: passes.append(ids) or engine(batch, p, n, ids))
    data = worker.DataPath(None)
    outcomes = worker.execute_run(specs, data)
    assert passes == [[0], [1]]  # then each chunk alone, and the last one's read raises
    assert isinstance(outcomes[2], cacf.CacfError) and "chunk out of range" in str(outcomes[2])
    for spec, outcome in zip(specs[:2], outcomes):
        (alone,) = worker.execute_run([spec], data)
        assert outcome.to_dict() | {"t_start": 0, "t_end": 0} == alone.to_dict() | {"t_start": 0, "t_end": 0}


def test_a_run_that_is_not_one_span_is_run_chunk_by_chunk(tmp_path):
    """A run with a gap, or across two files, is not read as one span: each
    chunk gets the result it gets alone."""
    from casa_mini import worker
    from casa_mini.types import FileChunk, TaskSpec

    paths = [str(tmp_path / "a.cacf"), str(tmp_path / "b.cacf")]
    for offset, path in zip((0.0, 100.0), paths):
        cacf.write_dataset_file({"px": np.arange(100.0) * 2.5 + offset, "py": np.ones(100)}, path)
    data = worker.DataPath(None)
    for second in (FileChunk(paths[0], 50, 10, 5), FileChunk(paths[1], 10, 10, 1)):
        specs = [TaskSpec("job-1", chunk, tuple(PIPELINE)) for chunk in (FileChunk(paths[0], 0, 10, 0), second)]
        outcomes = worker.execute_run(specs, data)
        for spec, outcome in zip(specs, outcomes):
            (alone,) = worker.execute_run([spec], data)
            assert [h.to_dict() for h in outcome.histograms] == [h.to_dict() for h in alone.histograms]
        assert outcomes[1].n_events_pass == 10


def test_worker_runs_adjacent_chunks_of_one_assignment_in_one_pass(tmp_path, monkeypatch):
    """Two adjacent chunks of one file in one AssignTask: one engine pass and
    one proxy request for their columns, and two TaskDone results equal, bit
    for bit, to two single-chunk runs and, merged, to casabench's reference."""
    from casa_mini import worker
    from casa_mini.data_proxy import DataProxyServer, OriginServer
    from casa_mini.engine.hist import merge_histograms
    from casa_mini.engine.pipeline import TaskResult
    from casa_mini.types import FileChunk, TaskSpec, assignment

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)), "casabench"))
    import reference

    os.makedirs(tmp_path / "store" / "d")
    path = str(tmp_path / "store" / "d" / "f.cacf")
    rng = np.random.default_rng(5)
    cacf.write_dataset_file({name: rng.normal(0, 30, 2000) for name in ("eta", "px", "py")}, path)
    segments = []
    engine = worker.run_pipeline
    monkeypatch.setattr(worker, "run_pipeline", lambda batch, p, lengths, ids: segments.append(lengths) or engine(batch, p, lengths, ids))
    token = mint_token(b"k" * 32, "alice", "data", exp=time.time() + 600)
    specs = [
        TaskSpec("job-1", FileChunk("root://origin//store/d/f.cacf", 1000 * i, 1000, i), tuple(reference.PIPELINE))
        for i in range(2)
    ]

    async def scenario():
        origin = OriginServer(str(tmp_path), "fed")
        proxy = DataProxyServer(await origin.start("127.0.0.1", 0), "fed", b"k" * 32)
        proxy_addr = await proxy.start("127.0.0.1", 0)
        requests = []
        fetch = proxy.fetch
        proxy.fetch = lambda path, ranges, token: requests.append(ranges) or fetch(path, ranges, token)
        cfg = {"worker_id": "w1", "ingress": ["127.0.0.1", 1], "sni": "x", "ca": "c", "cert": "c", "key": "k"}
        agent = worker.WorkerAgent(worker.WorkerConfig({**cfg, "proxy": list(proxy_addr)}))  # the data token comes with the AssignTask
        sent = []

        async def send(*msgs):
            sent.extend(msgs)

        agent._send = send
        client = ProxyClient(proxy_addr)
        try:
            agent._assign(assignment([specs], token))
            deadline = time.monotonic() + 10
            while len(sent) < 2 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            seen = (list(segments), list(requests))
            data = worker.DataPath(client.fetch, token)
            alone = [await asyncio.to_thread(worker.execute_run, [spec], data) for spec in specs]
        finally:
            await agent._tasks.close()
            agent._proxy.close()
            agent._pool.shutdown()
            client.close()
            await proxy.close()
            await origin.close()
        return sent, seen, alone

    sent, (passes, requests), alone = run_async(scenario())
    assert passes == [[1000, 1000]]  # one engine pass of two segments
    assert requests == [[[0, cacf.HEADER_PREFIX]], requests[1]] and len(requests[1]) == 3  # the header, then one for the span
    assert [(msg.kind, msg.body["chunk_id"]) for msg in sent] == [("TaskDone", 0), ("TaskDone", 1)]
    results = [TaskResult.from_dict(msg.body["result"]) for msg in sent]
    for got, (want,) in zip(results, alone):
        assert (got.chunk_id, got.n_events_in, got.n_events_pass) == (want.chunk_id, want.n_events_in, want.n_events_pass)
        assert [h.to_dict() for h in got.histograms] == [h.to_dict() for h in want.histograms]
    merged = {h.name: merge_histograms(h, other) for h, other in zip(results[0].histograms, results[1].histograms)}
    reference.expected([path], 1000).check(
        sum(r.n_events_in for r in results), sum(r.n_events_pass for r in results), reference.histograms_of(merged)
    )


def test_a_worker_runs_the_runs_it_is_sent_one_pass_each_all_at_once(tmp_path, monkeypatch):
    """Two files of eight 5,000-event chunks, a free 8-core worker: the
    scheduler's eight runs of two, one core each, run as eight engine passes
    of two segments, all eight in flight at once."""
    from casa_mini import worker
    from casa_mini.scheduler.state import ClusterState
    from casa_mini.types import DatasetSpec, assignment

    paths = [str(tmp_path / f"{name}.cacf") for name in "ab"]
    for path in paths:
        cacf.write_dataset_file({"px": np.arange(40_000.0), "py": np.ones(40_000)}, path)
    state = ClusterState()
    state.submit_job(PIPELINE, DatasetSpec("d", tuple(paths), 80_000), 5000, 0.0, events_per_file=[40_000] * 2)
    state.worker_arrived("w1", 0.0, n_cores=8)
    runs = []
    for _, spec, joins in state.schedule_step(0.0, join_runs=True):
        if joins:
            runs[-1].append(spec)
        else:
            runs.append([spec])
    assert state.workers["w1"].in_use == 8
    segments = []
    in_flight = threading.Barrier(8, timeout=10)  # each pass waits until eight are in flight
    engine = worker.run_pipeline

    def passing(batch, pipeline, lengths, ids):
        segments.append(lengths)
        in_flight.wait()
        return engine(batch, pipeline, lengths, ids)

    monkeypatch.setattr(worker, "run_pipeline", passing)
    cfg = {"worker_id": "w1", "ingress": ["127.0.0.1", 1], "sni": "x", "ca": "c", "cert": "c", "key": "k", "n_cores": 8}
    agent = worker.WorkerAgent(worker.WorkerConfig(cfg))
    sent = []

    async def send(*msgs):
        sent.extend(msgs)

    async def scenario():
        agent._assign(assignment(runs, ""))  # local files: no token read
        deadline = time.monotonic() + 20
        while len(sent) < 16 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await agent._tasks.close()

    agent._send = send
    try:
        run_async(scenario())
    finally:
        agent._pool.shutdown()
    assert segments == [[5000, 5000]] * 8
    assert sorted((msg.kind, msg.body["chunk_id"]) for msg in sent) == [("TaskDone", i) for i in range(16)]


def test_a_live_worker_gets_a_small_job_in_one_assignment_and_one_pass_per_file(idp_keys, tmp_path, monkeypatch):
    """A 2-file, 4-chunk job on a 2-core dedicated worker goes out in one
    AssignTask and runs as two engine passes, one per file, each on its own
    task thread (the chunks of one pass share its start and end times)."""
    from casa_mini.scheduler import service

    frames = []
    assign_frames = service.assign_frames

    def framing(runs, token):
        frames.append([[s.chunk.chunk_id for s in run] for run in runs])
        return assign_frames(runs, token)

    monkeypatch.setattr(service, "assign_frames", framing)

    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path, dedicated_cores=2)
        addrs = await facility.start()
        try:
            reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            state = facility.clusters["alice-1"].service.state
            passes = {}
            complete = state.complete_task

            def recording(worker_id, job_id, chunk_id, result, now):
                passes.setdefault((result.t_start, result.t_end), []).append(chunk_id)
                return complete(worker_id, job_id, chunk_id, result, now)

            state.complete_task = recording
            sc = scheduler_client(reply, write_client_creds(reply, str(tmp_path / "alice")))
            job_id = await sc.submit_job(PIPELINE, "mini", list(dataset.files), epf, chunk_size=100)
            status = await sc.wait_job(job_id, timeout=30)
            sc.close()
        finally:
            await facility.stop()
        return dataset, status, passes

    dataset, status, passes = run_async(scenario())
    assert status["state"] == "done"
    oracle = oracle_histograms(dataset, str(tmp_path), PIPELINE)
    assert status["histograms"][0]["counts"] == [int(c) for c in oracle.histograms[0].counts]
    assert frames == [[[0, 1], [2, 3]]]  # one AssignTask of two runs
    assert sorted(sorted(ids) for ids in passes.values()) == [[0, 1], [2, 3]]


def test_stop_after_login_and_batch_submit_logs_no_error(idp_keys, tmp_path, caplog):
    socks = []

    def request(addr, msg: wire.WireMessage) -> wire.WireMessage:
        """One request on a fresh blocking connection, which is left open."""
        sock = socket.create_connection(tuple(addr), timeout=10)
        socks.append(sock)
        sock.sendall(wire.encode(msg))
        with sock.makefile("rb") as reply:
            (length,) = struct.unpack(">I", reply.read(4))
            return wire.raise_on_err(wire.decode(reply.read(length)))

    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        facility.batch_sim.delay.s0 = 60.0  # the submitted job stays Starting: no worker process
        addrs = await facility.start()
        try:
            login = wire.WireMessage("Login", {"assertion": make_assertion(idp_keys)})
            reply = (await asyncio.to_thread(request, addrs["authd"], login)).body
            submit = wire.WireMessage("SubmitBatchJob", JobSpec(batch_token=reply["batch_token"]).to_dict())
            handle = (await asyncio.to_thread(request, addrs["batch"], submit)).body["handle"]
            assert facility.batch_sim.jobs[handle].state == "Starting"
        finally:
            await facility.stop()

    try:
        run_async(scenario())  # the loop closes while both connections are open
    finally:
        for sock in socks:
            sock.close()
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [], [r.getMessage() for r in errors]


def test_batch_worker_that_exits_returns_its_slot(idp_keys, tmp_path, silent_port):
    procs = []

    async def wait_for(condition, timeout=20.0):
        deadline = time.monotonic() + timeout
        while not condition():
            assert time.monotonic() < deadline, "timed out"
            await asyncio.sleep(0.02)

    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path, slot_pool=1)
        sim = facility.batch_sim
        await facility.start()
        try:
            # Two batch workers that never reach a scheduler, so only its exit
            # ends each job.  (A scheduler that saw a worker's connection close
            # would cancel its job too, and ask for a replacement.)
            token = mint_token(facility.keys.batch, "alice", "batch", exp=time.time() + 600)
            spec = JobSpec(worker_config=idle_worker_config(tmp_path, silent_port), batch_token=token)
            first, second = (sim.submit(spec, facility.batch_service.clock()) for _ in range(2))
            await wait_for(lambda: first in facility._batch_procs)
            assert sim.jobs[second].state == "Queued" and list(sim._waiting) == [second]
            assert sim.committed == 1

            procs.append(facility._batch_procs[first])
            procs[0].kill()
            await wait_for(lambda: sim.jobs[first].state == "Done")
            assert sim.jobs[second].state in ("Starting", "Running")  # promoted into the freed slot
            assert list(sim._waiting) == [] and sim.committed == 1

            await wait_for(lambda: second in facility._batch_procs)
            procs.append(facility._batch_procs[second])
            procs[1].kill()
            await wait_for(lambda: sim.jobs[second].state == "Done")
            assert sim.committed == 0 and sim.in_use == 0
        finally:
            await facility.stop()

    run_async(scenario())  # stop() reaps every worker process
    assert [proc.returncode for proc in procs] == [-signal.SIGKILL] * 2


def test_worker_compiles_each_distinct_pipeline_once(tmp_path, monkeypatch):
    from casa_mini import worker
    from casa_mini.types import FileChunk, TaskSpec

    path = str(tmp_path / "a.cacf")
    cacf.write_dataset_file({"px": np.arange(40.0), "py": np.ones(40)}, path)
    built = []
    from_json = KernelPipeline.from_json
    monkeypatch.setattr(KernelPipeline, "from_json", classmethod(lambda cls, spec: built.append(1) or from_json(spec)))
    data = worker.DataPath(None)
    other = [{"define": ["pt", "px+py"]}, {"hist": ["h_pt", "pt", 10, 0, 100]}]

    def run(job_id, chunk_id, pipeline=PIPELINE):
        chunk = FileChunk(file=path, start=10 * chunk_id, len=10, chunk_id=chunk_id)
        return worker.execute_run([TaskSpec(job_id=job_id, chunk=chunk, pipeline=tuple(pipeline))], data)[0]

    # job-2 sends an equal copy of job-1's pipeline, as a later AssignTask does
    results = [run(job_id, i, json.loads(json.dumps(PIPELINE))) for job_id in ("job-1", "job-2") for i in range(4)]
    assert len(built) == 1  # eight tasks of two jobs that run one pipeline, one KernelPipeline
    assert [r.n_events_in for r in results] == [10] * 8
    assert sum(r.n_events_pass for r in results[:4]) == int(np.count_nonzero(np.hypot(np.arange(40.0), 1.0) > 20))
    assert [r.n_events_pass for r in results[4:]] == [r.n_events_pass for r in results[:4]]

    monkeypatch.setattr(worker, "PIPELINE_CACHE_SPECS", 1)
    for job_id, pipeline in (("job-3", other), ("job-4", other), ("job-5", PIPELINE)):
        run(job_id, 0, pipeline)
    assert len(built) == 3  # other once for two jobs, then PIPELINE again: other pushed it out
    assert len(data._pipelines) == 1
    run("job-6", 1)
    assert len(built) == 3  # PIPELINE is the one kept
