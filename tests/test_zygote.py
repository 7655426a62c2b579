"""Every worker process is forked by the facility's zygote."""

import asyncio
import contextlib
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from casa_mini import client, wire, zygote

from .conftest import idle_worker_config, make_assertion, run_async, stat_fields
from .test_facility import (
    PIPELINE,
    forked,
    oracle_histograms,
    request_batch_worker,
    scheduler_client,
    silent_workers,
    small_facility,
    write_client_creds,
)


def alive(pid: int) -> bool:
    """Neither gone nor a zombie."""
    try:
        return stat_fields(pid)[0] != "Z"
    except FileNotFoundError:
        return False


def record_forks(monkeypatch) -> list:
    """Every WorkerProcess the facility gets from its zygote, in order."""
    forked = []

    class Recorded(zygote.WorkerProcess):
        def __init__(self, *args):
            super().__init__(*args)
            forked.append(self)

    monkeypatch.setattr(zygote, "WorkerProcess", Recorded)
    return forked


async def wait_for(condition, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.002)


def idle_batch_workers(idp_keys, tmp_path, port: int):
    """A facility whose batch workers are due at once and wait, each in its
    TLS handshake with `port`, until they are killed."""
    facility, _, _ = small_facility(idp_keys, tmp_path)
    facility.batch_sim.delay.s0, facility.batch_sim.delay.c = 0.0, 0.0
    silent_workers(facility, port, batch=True)
    return facility


async def provisioned(facility, idp_keys, sub: str = "alice"):
    return await facility.provision_cluster(facility.auth.login(make_assertion(idp_keys, sub=sub)))


def test_dedicated_worker_is_a_child_of_the_zygote_and_clusters_share_none(idp_keys, tmp_path):
    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            alice = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            bob = await client.login(addrs["authd"], make_assertion(idp_keys, sub="bob"))
            alice, bob = facility.clusters[alice["cluster_id"]], facility.clusters[bob["cluster_id"]]
            for record in (alice, bob):
                await forked(record)
            assert alice.dedicated_worker.pid != bob.dedicated_worker.pid
            for record in (alice, bob):
                assert int(stat_fields(record.dedicated_worker.pid)[1]) == facility.zygote.pid
                await record.service.wait_worker(f"{record.cluster_id}-dedicated", 30)
                assert record.service.state.workers[f"{record.cluster_id}-dedicated"].arrived
            # each cluster's worker is its own process: killing alice's leaves bob's
            alice.dedicated_worker.kill()
            assert await asyncio.wait_for(alice.dedicated_worker.wait(), 10) == -signal.SIGKILL
            assert alive(bob.dedicated_worker.pid) and bob.dedicated_worker.returncode is None
        finally:
            await facility.stop()

    run_async(scenario())


def test_zygote_holds_no_cluster_file_and_runs_no_blas_thread(idp_keys, tmp_path, capfd):
    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            warmup = facility.zygote._warmup
            assert os.stat(warmup).st_mode & 0o777 == 0o700
            for sub in ("alice", "bob"):
                reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub=sub))
                await forked(facility.clusters[reply["cluster_id"]])
            assert not os.path.exists(warmup)  # removed once loaded, before the first fork
            fd_dir = f"/proc/{facility.zygote.pid}/fd"
            targets = [os.readlink(os.path.join(fd_dir, fd)) for fd in os.listdir(fd_dir)]
            with open(f"/proc/{facility.zygote.pid}/status") as fh:
                threads = int(fh.read().split("Threads:")[1].split()[0])
            with open(f"/proc/{facility.zygote.pid}/environ", "rb") as fh:
                environ = [entry.decode() for entry in fh.read().split(b"\0")]
        finally:
            await facility.stop()
        return warmup, targets, threads, environ

    warmup, targets, threads, environ = run_async(scenario())
    clusters = os.path.realpath(tmp_path / "run" / "clusters")
    assert targets and not [t for t in targets if t.startswith((clusters, warmup))], targets
    assert threads == 1
    assert "warm-up failed" not in capfd.readouterr().err
    # OpenBLAS stops its pool before each fork, so only the environment shows
    # that the zygote never starts one (before its first fork) and its workers never restart one
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert f"{name}=1" in environ


def test_warm_tls_runs_a_handshake_on_minted_material_and_removes_it():
    directory = zygote.mint_warmup()
    assert sorted(os.listdir(directory)) == sorted(wire.TLS_FILES)
    zygote.warm_tls(directory)
    assert not os.path.exists(directory)


def test_a_zygote_whose_warm_up_fails_logs_it_and_its_worker_runs_a_job(idp_keys, tmp_path, monkeypatch, capfd):
    unreadable = tmp_path / "warm-up"

    def garbage() -> str:
        unreadable.mkdir()
        for name in wire.TLS_FILES:
            (unreadable / name).write_text("not PEM\n")
        return str(unreadable)

    monkeypatch.setattr(zygote, "mint_warmup", garbage)

    async def scenario():
        facility, dataset, epf = small_facility(idp_keys, tmp_path)
        addrs = await facility.start()
        try:
            reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            sc = scheduler_client(reply, write_client_creds(reply, str(tmp_path / "alice")))
            job_id = await sc.submit_job(PIPELINE, "mini", list(dataset.files), epf, chunk_size=50)
            await facility.clusters["alice-1"].service.wait_worker("alice-1-dedicated", 30)
            status = await sc.wait_job(job_id, timeout=30)
            sc.close()
        finally:
            await facility.stop()
        return dataset, status

    dataset, status = run_async(scenario())
    assert "casa_mini.zygote: TLS warm-up failed; forking without it" in capfd.readouterr().err
    assert not unreadable.exists()
    assert status["state"] == "done"
    oracle = oracle_histograms(dataset, str(tmp_path), PIPELINE)
    assert status["histograms"][0]["counts"] == [int(c) for c in oracle.histograms[0].counts]


def test_no_warm_up_directory_outlives_its_zygote(idp_keys, tmp_path):
    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path)
        await facility.start()
        try:
            killed = facility.zygote._warmup
            os.kill(facility.zygote.pid, signal.SIGKILL)  # long before it has imported the worker
            await wait_for(lambda: facility.zygote.pid is None)
            assert not os.path.exists(killed)
            facility.zygote.start()
            stopped = facility.zygote._warmup
        finally:
            await facility.stop()
        return stopped

    assert not os.path.exists(run_async(scenario()))


def test_a_batch_job_too_large_to_fork_ends_done_and_kills_no_other_worker(
    idp_keys, tmp_path, silent_port, monkeypatch, caplog
):
    forks = record_forks(monkeypatch)

    async def scenario():
        facility = idle_batch_workers(idp_keys, tmp_path, silent_port)
        worker_config = facility._worker_config

        def config(bundle, worker_id, n_cores):  # the first batch worker's is too long to send
            body = worker_config(bundle, worker_id, n_cores)
            return {**body, "padding": "x" * zygote.MAX_MESSAGE} if worker_id == "w0001" else body

        facility._worker_config = config
        sim = facility.batch_sim
        addrs = await facility.start()
        try:
            reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub="bob"))
            record = facility.clusters[reply["cluster_id"]]
            bob = await forked(record)
            zygote_pid = facility.zygote.pid
            handle = request_batch_worker(record)
            await wait_for(lambda: sim.jobs[handle].state == "Done")
            assert forks == [bob] and facility._batch_procs == {}
            assert not (tmp_path / "run" / "logs" / f"batch-job-{handle}.log").exists()  # refused before the fork
            assert facility.zygote.pid == zygote_pid
            assert alive(bob.pid) and bob.returncode is None
            nxt = request_batch_worker(record)  # and the zygote forks on
            await wait_for(lambda: nxt in facility._batch_procs)
            assert len(forks) == 2 and facility.zygote.pid == zygote_pid
        finally:
            await facility.stop()

    run_async(scenario())
    refused = [r.getMessage() for r in caplog.records if "no worker process" in r.getMessage()]
    assert len(refused) == 1 and f"exceeds {zygote.MAX_MESSAGE}" in refused[0], refused


def test_a_batch_job_no_cluster_submitted_holds_its_slot_and_forks_nothing(
    idp_keys, tmp_path, silent_port, monkeypatch, caplog
):
    """Mallory's SubmitBatchJob names Alice's TLS files, her SNI hostname and
    a proxy address of Mallory's choosing: the job takes a slot and gives it
    back as it starts, with no process, and Alice's scheduler hears from no
    new worker."""
    forks = record_forks(monkeypatch)

    async def scenario():
        facility, _, _ = small_facility(idp_keys, tmp_path)
        sim = facility.batch_sim
        sim.delay.s0, sim.delay.c = 0.05, 0.0
        addrs = await facility.start()
        batch = client.BatchClient(addrs["batch"])
        try:
            alice = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            record = facility.clusters[alice["cluster_id"]]
            await record.service.wait_worker("alice-1-dedicated", 30)
            mallory = await client.login(addrs["authd"], make_assertion(idp_keys, sub="mallory"))
            dedicated = [record.dedicated_worker, await forked(facility.clusters[mallory["cluster_id"]])]
            ca, _, _, cert, key = (str(tmp_path / "run" / "clusters" / "alice-1" / name) for name in wire.TLS_FILES)
            config = {
                "worker_id": "a-intruder",
                "ingress": list(addrs["ingress"]),
                "sni": alice["sni_hostname"],
                "ca": ca,
                "cert": cert,
                "key": key,
                "proxy": ["127.0.0.1", silent_port],  # where the worker would send Alice's data token
                "n_cores": 1,
            }
            body = {"n_cores": 1, "worker_config": config, "worker_id": "alice-1-dedicated"}
            handle = (await batch.call("SubmitBatchJob", {**body, "batch_token": mallory["batch_token"]}))["handle"]
            assert sim.jobs[handle].state == "Starting" and sim.committed == 1
            await wait_for(lambda: sim.jobs[handle].state == "Done", timeout=5.0)
            assert sim.committed == 0 and sim.in_use == 0
            assert forks == dedicated
            assert not (tmp_path / "run" / "logs" / f"batch-job-{handle}.log").exists()
            assert list(record.service.state.workers) == ["alice-1-dedicated"]
            assert [e.worker_id for e in record.service.state.events if e.kind == "WorkerUp"] == ["alice-1-dedicated"]
        finally:
            batch.close()
            await facility.stop()
        return handle

    handle = run_async(scenario())
    assert f"batch job {handle}: no worker process: no cluster submitted it" in caplog.messages


def test_a_cancel_of_another_users_batch_job_is_refused_and_its_worker_runs_on(idp_keys, tmp_path, silent_port):
    async def scenario():
        facility = idle_batch_workers(idp_keys, tmp_path, silent_port)
        sim = facility.batch_sim
        addrs = await facility.start()
        batch = client.BatchClient(addrs["batch"])
        try:
            alice = await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            mallory = await client.login(addrs["authd"], make_assertion(idp_keys, sub="mallory"))
            handle = request_batch_worker(facility.clusters[alice["cluster_id"]])
            await wait_for(lambda: handle in facility._batch_procs)
            proc = facility._batch_procs[handle]
            codes = []
            for token in ({}, {"batch_token": mallory["batch_token"]}):
                with pytest.raises(wire.RequestError) as refused:
                    await batch.call("Cancel", {"handle": handle, **token})
                codes.append(refused.value.code)
            assert codes == ["bad_token", "batch_error"]
            await asyncio.sleep(0.05)
            assert sim.jobs[handle].state == "Running" and sim.in_use == 1
            assert facility._batch_procs[handle] is proc and proc.returncode is None and alive(proc.pid)
            assert await batch.cancel(handle, alice["batch_token"]) == "Cancelled"  # the owner's token does
            assert await asyncio.wait_for(proc.wait(), 10) == -signal.SIGTERM
        finally:
            batch.close()
            await facility.stop()

    run_async(scenario())


def test_a_zygote_that_dies_with_a_request_unread_is_handled_quietly(tmp_path, caplog):
    async def scenario():
        zyg = zygote.Zygote()
        zyg.start()
        pid = zyg.pid
        try:
            os.kill(pid, signal.SIGSTOP)  # it reads no request from here on
            spawn = asyncio.ensure_future(zyg.spawn({"worker_id": "w"}, str(tmp_path / "w.log")))
            await wait_for(lambda: zyg._replies and not zyg._outbox)  # sent, and never to be read
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(zygote.ZygoteError, match="exited"):
                await asyncio.wait_for(spawn, 10)
            assert zyg.pid is None and not os.path.exists(f"/proc/{pid}")
        finally:
            await zyg.close()

    run_async(scenario())
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


def test_sigkilled_batch_worker_returns_its_slot_within_50ms(idp_keys, tmp_path, silent_port):
    async def scenario():
        facility = idle_batch_workers(idp_keys, tmp_path, silent_port)
        sim = facility.batch_sim
        finished = {}
        finish = sim.finish

        def recording(handle, now):
            finished[handle] = time.monotonic()
            return finish(handle, now)

        sim.finish = recording
        await facility.start()
        try:
            record = await provisioned(facility, idp_keys)
            await record.service.wait_worker("alice-1-dedicated", 30)  # its handshake is not timed below
            handles = [request_batch_worker(record) for _ in range(2)]
            await wait_for(lambda: all(h in facility._batch_procs for h in handles))
            assert sim.committed == 2 and sim.in_use == 2
            # the second kill comes right after the first slot came back
            for handle in handles:
                killed = time.monotonic()
                facility._batch_procs[handle].kill()
                await wait_for(lambda: handle in finished, timeout=5.0)
                assert finished[handle] - killed <= 0.05
                assert sim.jobs[handle].state == "Done"
            assert sim.committed == 0 and sim.in_use == 0
        finally:
            await facility.stop()

    run_async(scenario())


def test_cancel_before_the_fork_reply_kills_the_worker(idp_keys, tmp_path, silent_port, monkeypatch):
    forks = record_forks(monkeypatch)

    async def scenario():
        facility = idle_batch_workers(idp_keys, tmp_path, silent_port)
        sim = facility.batch_sim
        await facility.start()
        record = await provisioned(facility, idp_keys)
        await forked(record)  # forks[0]
        zygote_pid = facility.zygote.pid
        os.kill(zygote_pid, signal.SIGSTOP)  # it replies to nothing until SIGCONT
        try:
            handle = request_batch_worker(record)
            await wait_for(lambda: facility.zygote._replies)  # the fork is asked for
            assert sim.cancel(handle, facility.batch_service.clock()) == "Cancelled"
            os.kill(zygote_pid, signal.SIGCONT)
            await wait_for(lambda: len(forks) == 2)
            assert await asyncio.wait_for(forks[1].wait(), 10) == -signal.SIGKILL
            assert sim.committed == 0 and facility._batch_procs == {}
        finally:
            os.kill(zygote_pid, signal.SIGCONT)
            await facility.stop()

    run_async(scenario())
    assert len(forks) == 2 and not alive(forks[1].pid)


def test_stop_while_a_fork_is_in_flight_leaves_no_process(idp_keys, tmp_path, silent_port, monkeypatch):
    forks = record_forks(monkeypatch)

    async def scenario():
        facility = idle_batch_workers(idp_keys, tmp_path, silent_port)
        await facility.start()
        record = await provisioned(facility, idp_keys)
        await forked(record)  # forks[0]
        zygote_pid = facility.zygote.pid
        os.kill(zygote_pid, signal.SIGSTOP)
        try:
            request_batch_worker(record)
            await wait_for(lambda: facility.zygote._replies)
            stopping = asyncio.ensure_future(facility.stop())
            await asyncio.sleep(0.1)
            assert not stopping.done()  # it waits for the fork it asked for
        finally:
            os.kill(zygote_pid, signal.SIGCONT)
        await asyncio.wait_for(stopping, 30)
        assert facility._batch_procs == {} and facility.zygote.workers == {}
        return zygote_pid

    zygote_pid = run_async(scenario())
    assert len(forks) == 2 and forks[1].returncode == -signal.SIGKILL
    assert not [proc for proc in forks if alive(proc.pid)]
    assert not os.path.exists(f"/proc/{zygote_pid}")  # reaped, not only dead


def test_zygote_death_kills_its_workers_and_the_next_login_gets_a_new_one(idp_keys, tmp_path, silent_port):
    pids = []

    async def scenario():
        facility = idle_batch_workers(idp_keys, tmp_path, silent_port)
        sim = facility.batch_sim
        addrs = await facility.start()
        try:
            await client.login(addrs["authd"], make_assertion(idp_keys, sub="alice"))
            dedicated = await forked(facility.clusters["alice-1"])
            handle = request_batch_worker(facility.clusters["alice-1"])
            await wait_for(lambda: handle in facility._batch_procs)
            batch = facility._batch_procs[handle]
            first = facility.zygote.pid
            pids.extend([first, dedicated.pid, batch.pid])

            os.kill(first, signal.SIGKILL)
            for proc in (dedicated, batch):
                assert await asyncio.wait_for(proc.wait(), 10) == -signal.SIGKILL
                assert not alive(proc.pid)
            # the worker's exit ends its job, unless the cluster, down with its dedicated worker, cancelled it first
            await wait_for(lambda: sim.jobs[handle].state in ("Done", "Cancelled"))
            assert sim.committed == 0 and sim.in_use == 0
            assert not os.path.exists(f"/proc/{first}")  # the facility reaped it

            reply = await client.login(addrs["authd"], make_assertion(idp_keys, sub="bob"))
            bob = await forked(facility.clusters[reply["cluster_id"]])  # by a new zygote
            second = facility.zygote.pid
            assert second not in (None, first)
            assert int(stat_fields(bob.pid)[1]) == second
            pids.extend([second, bob.pid])
        finally:
            await facility.stop()

    run_async(scenario())
    assert len(pids) == 5
    assert [pid for pid in pids if alive(pid)] == []
    assert [pid for pid in (pids[0], pids[3]) if os.path.exists(f"/proc/{pid}")] == []


def test_worker_dies_with_its_zygote_even_unknown_to_the_facility(tmp_path, silent_port):
    # The zygote is driven over a bare socketpair, so no Zygote object kills
    # the worker through its pidfd: only the kernel can, when the zygote dies.
    ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    proc = subprocess.Popen(
        [sys.executable, "-m", "casa_mini.zygote", str(theirs.fileno()), zygote.mint_warmup()],
        pass_fds=[theirs.fileno()],
        env={**os.environ, **zygote.BLAS_THREADS},
        stdin=subprocess.DEVNULL,
    )
    theirs.close()
    pidfd = None
    try:
        config = idle_worker_config(tmp_path, silent_port)
        ours.send(json.dumps({"config": config, "log": str(tmp_path / "idle.log")}).encode())
        data, fds, _, _ = socket.recv_fds(ours, zygote.MAX_MESSAGE, 1)
        pid, pidfd = json.loads(data)["pid"], fds[0]
        assert alive(pid) and int(stat_fields(pid)[1]) == proc.pid
        proc.kill()
        proc.wait(10)
        deadline = time.monotonic() + 5
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not alive(pid)
    finally:
        proc.kill()
        proc.wait(10)
        if pidfd is not None:
            with contextlib.suppress(ProcessLookupError):
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)  # a worker left behind
            os.close(pidfd)
        ours.close()
