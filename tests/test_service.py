"""The networked scheduler: pushed job completion and worker registration,
message checks, the traffic on the worker link, and background tasks.  Each
test runs a SchedulerService behind mutual TLS, a client, and a scripted
worker connection."""

import asyncio
import csv
import io
import logging
import ssl
import time

import numpy as np
import pytest

from casa_mini import cacf, certs, wire
from casa_mini.wire import server_ssl_context
from casa_mini.batchsim import CANCELLED, STARTING, BatchSim, JobSpec
from casa_mini.client import SchedulerClient
from casa_mini.engine.hist import Histogram
from casa_mini.engine.pipeline import TaskResult
from casa_mini.scheduler.service import SchedulerService
from casa_mini.scheduler import state as state_module
from casa_mini.scheduler.state import MAX_JOB_CHUNKS, ScalePolicy
from casa_mini.tokens import mint_token

from .conftest import run_async

HOST = "alice-1.dask.local"
PIPELINE = [{"hist": ["h_pt", "pt", 10, 0, 100]}]


@pytest.fixture()
def tls(tmp_path):
    ca = certs.make_ca("service-test-ca")
    paths = {}
    for name, pair in (("host", certs.make_host_cert(ca, HOST)), ("user", certs.make_user_cert(ca, "alice"))):
        for part, text in (("cert", pair.cert_pem), ("key", pair.key_pem)):
            path = tmp_path / f"{name}-{part}.pem"
            path.write_text(text)
            paths[f"{name}_{part}"] = str(path)
    ca_path = tmp_path / "ca.pem"
    ca_path.write_text(ca.cert_pem)
    paths["ca"] = str(ca_path)
    data = tmp_path / "f.cacf"
    cacf.write_dataset_file({"pt": np.arange(200.0)}, str(data))
    paths["data"] = str(data)
    return paths


def batch_worker(worker_id: str) -> JobSpec:
    return JobSpec(worker_id=worker_id)


class Rig:
    """A started service, a client connected to it, and a dataset of one
    200-event file.  Its batch system starts no job: a test connects the
    batch workers it wants."""

    def __init__(self, tls, batch: BatchSim | None = None, worker_spec=batch_worker, **kwargs):
        self.tls = tls
        self.batch = batch or BatchSim()
        self.service = SchedulerService("alice-1", self.batch, worker_spec, **kwargs)

    async def __aenter__(self):
        ctx = server_ssl_context(self.tls["host_cert"], self.tls["host_key"], self.tls["ca"])
        self.addr = await self.service.start("127.0.0.1", 0, ctx)
        self.client = SchedulerClient(self.addr, HOST, self.tls["ca"], self.tls["user_cert"], self.tls["user_key"])
        return self

    async def __aexit__(self, *exc):
        await self.client.aclose()
        await self.service.close()

    async def submit(self, chunk_size: int = 200, pipeline: list = PIPELINE) -> str:
        return await self.client.submit_job(pipeline, "d", [self.tls["data"]], [200], chunk_size)

    async def connect(self) -> "ScriptedWorker":
        ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        ctx.load_verify_locations(self.tls["ca"])
        ctx.load_cert_chain(self.tls["user_cert"], self.tls["user_key"])
        reader, writer = await asyncio.open_connection(*self.addr, ssl=ctx, server_hostname=HOST)
        return ScriptedWorker(reader, writer)

    async def worker(self, worker_id: str) -> "ScriptedWorker":
        w = await self.connect()
        reply = await w.request("WorkerHello", {"worker_id": worker_id, "n_cores": 4})
        assert reply.body["worker_id"] == worker_id
        return w


def done_body(task: dict, histograms=()) -> dict:
    """A TaskDone for an assigned task, with the given result histograms."""
    chunk = task["chunk"]
    result = TaskResult(chunk["chunk_id"], chunk["len"], 0, list(histograms))
    return {"job_id": task["job_id"], "chunk_id": chunk["chunk_id"], "result": result.to_dict()}


class ScriptedWorker:
    """A worker connection driven by the test: it reports what it is told,
    and keeps every message the service sent it."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.received: list[wire.WireMessage] = []
        self.assigned: list[dict] = []

    async def _read(self) -> wire.WireMessage:
        msg = await wire.read_message(self.reader)
        self.received.append(msg)
        if msg.kind == "AssignTask":
            self.assigned.extend(task for run in msg.body["runs"] for task in run)
        return msg

    async def report(self, kind: str, body: dict) -> None:
        """Send a report, which the service answers only to refuse it."""
        await wire.send_message(self.writer, wire.WireMessage(kind, body))

    async def request(self, kind: str, body: dict) -> wire.WireMessage:
        """Send a message and return its reply, past any AssignTask."""
        await self.report(kind, body)
        while (msg := await self._read()).kind == "AssignTask":
            pass
        return msg

    async def next_task(self) -> dict:
        while not self.assigned:
            msg = await self._read()
            assert msg.kind == "AssignTask", msg
        return self.assigned.pop(0)

    async def done(self, task: dict) -> None:
        await self.report("TaskDone", done_body(task))

    def close(self):
        self.writer.close()


def test_wait_job_returns_when_the_job_finishes(tls):
    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.worker("w1")
            lags = []
            for _ in range(5):
                job_id = await rig.submit()
                task = await w.next_task()
                waiting = asyncio.ensure_future(rig.client.wait_job(job_id, timeout=10))
                await asyncio.sleep(0.05)
                assert not waiting.done()
                await w.done(task)
                status = await waiting
                lags.append(time.time() - status["finished_at"])
                assert status["state"] == "done"
            w.close()
            assert max(lags) < 0.03, lags

    run_async(scenario())


@pytest.mark.parametrize("events_per_file", [[0], [-5], [5, -5]])
def test_a_job_with_no_events_or_a_negative_count_is_refused(tls, events_per_file):
    """Such a job would have no chunk to end it, and a client would wait on it for ever."""

    async def scenario():
        async with Rig(tls) as rig:
            files = [rig.tls["data"]] * len(events_per_file)
            with pytest.raises(wire.RequestError) as refused:
                await rig.client.submit_job(PIPELINE, "d", files, events_per_file, 10)
            assert refused.value.code == "scheduler_error"
            assert rig.service.state.jobs == {}

    run_async(scenario())


def test_a_job_of_too_many_chunks_is_refused_before_it_is_planned(tls, monkeypatch):
    """Its chunks are counted file by file from the claimed event counts; a
    job one chunk over MAX_JOB_CHUNKS is refused and none of it is planned."""

    def plan_chunks(*args, **kwargs):
        raise AssertionError("a refused job is not planned")

    monkeypatch.setattr(state_module, "plan_chunks", plan_chunks)

    async def scenario():
        async with Rig(tls) as rig:
            events = [MAX_JOB_CHUNKS * 10 - 5, 6]  # ceil(n / 10) chunks: MAX_JOB_CHUNKS, then 1
            with pytest.raises(wire.RequestError) as refused:
                await rig.client.submit_job(PIPELINE, "d", [rig.tls["data"]] * 2, events, 10)
            assert refused.value.code == "scheduler_error"
            assert f"job of {MAX_JOB_CHUNKS + 1} chunks exceeds {MAX_JOB_CHUNKS}" in str(refused.value)
            assert rig.service.state.jobs == {}

    run_async(scenario())


def test_task_stream_is_its_own_request(tls):
    """TaskStream gives the task stream as CSV, with the job's TaskStart and
    TaskEnd rows, and leaves the scale policy alone; a ScaleRequest only sets
    the policy, whatever else its body holds."""

    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.worker("w1")
            job_id = await rig.submit(chunk_size=100)
            for _ in range(2):
                await w.done(await w.next_task())
            assert (await rig.client.wait_job(job_id, timeout=10))["state"] == "done"
            policy = vars(rig.service.policy).copy()
            text = await rig.client.task_stream_csv()
            assert vars(rig.service.policy) == policy
            assert await rig.client.scale_request(export="task_stream") == {"mode": policy["mode"], "fixed_n": 0}
            w.close()
            return job_id, text

    job_id, text = run_async(scenario())
    rows = list(csv.DictReader(io.StringIO(text)))
    tasks = sorted((r["kind"], r["worker_id"], r["chunk_id"], r["detail"]) for r in rows if r["kind"].startswith("Task"))
    assert tasks == [(kind, "w1", chunk_id, job_id) for kind in ("TaskEnd", "TaskStart") for chunk_id in "01"]


def test_wait_on_finished_job_returns_at_once(tls):
    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.worker("w1")
            job_id = await rig.submit()
            await w.done(await w.next_task())
            status = await asyncio.wait_for(rig.service.wait_job(job_id, 5.0), 0.05)
            assert status["state"] == "done"
            w.close()

    run_async(scenario())


def test_wait_on_closed_cluster_returns_failed(tls):
    async def scenario():
        async with Rig(tls) as rig:
            job_id = await rig.submit()  # no worker: the job stays queued
            waiting = asyncio.ensure_future(rig.client.wait_job(job_id, timeout=30))
            await asyncio.sleep(0.1)
            assert not waiting.done()
            closed_at = time.monotonic()
            await rig.service.close()
            status = await asyncio.wait_for(waiting, 1.0)
            assert time.monotonic() - closed_at < 1.0
            assert status["state"] == "failed"
            assert status["error"] == "cluster closed"
            assert rig.service._waiters == {}

    run_async(scenario())


def test_wait_job_times_out_at_its_deadline_with_one_request(tls):
    async def scenario():
        async with Rig(tls) as rig:
            job_id = await rig.submit()
            sent = []
            request = rig.client.request

            async def counted(msg):
                sent.append(msg.kind)
                return await request(msg)

            rig.client.request = counted
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                await rig.client.wait_job(job_id, timeout=0.3)
            assert 0.3 <= time.monotonic() - start < 0.5
            assert sent == ["WaitJob"]
            assert (await rig.client.job_status(job_id))["state"] == "running"

    run_async(scenario())


def test_cancelled_wait_leaves_the_client_usable(tls, caplog):
    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.worker("w1")
            job_id = await rig.submit()
            waiting = asyncio.ensure_future(rig.client.wait_job(job_id, timeout=30))
            await asyncio.sleep(0.05)
            waiting.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiting
            # the owed WaitJob reply is not taken for the next request's
            second = await rig.submit()
            assert second != job_id
            await w.done(await w.next_task())
            assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            w.close()

    run_async(scenario())
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [], [r.getMessage() for r in errors]


def test_done_events_are_dropped_once_fired(tls):
    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.worker("w1")
            for _ in range(3):
                job_id = await rig.submit()
                waiting = asyncio.ensure_future(rig.client.wait_job(job_id, timeout=10))
                await w.done(await w.next_task())
                assert (await waiting)["state"] == "done"
            assert rig.service._waiters == {}
            w.close()

    run_async(scenario())


def test_wait_worker_is_woken_by_its_hello(tls):
    async def scenario():
        async with Rig(tls) as rig:
            waiting = asyncio.ensure_future(rig.service.wait_worker("w1", 5.0))
            await asyncio.sleep(0.05)
            assert not waiting.done()
            w = await rig.worker("w1")
            await asyncio.wait_for(waiting, 0.05)
            await rig.service.wait_worker("w1", 0.0)  # already there
            with pytest.raises(TimeoutError):
                await rig.service.wait_worker("w2", 0.05)
            w.close()

    run_async(scenario())


def test_task_reports_use_the_connection_worker(tls):
    async def scenario():
        async with Rig(tls) as rig:
            a = await rig.worker("wA")
            b = await rig.worker("wB")
            job_id = await rig.submit(chunk_size=100)  # two chunks, one each
            task_a, task_b = await a.next_task(), await b.next_task()
            # a report on wA's connection is about wA: a failure of wB's chunk is ignored, as a stale one is
            await a.report("TaskFailed", {"job_id": job_id, "chunk_id": task_b["chunk"]["chunk_id"], "reason": "x"})
            # wA's claim of wB's chunk is refused, and the chunk stays wB's
            reply = await a.request("TaskDone", done_body(task_b))
            assert reply.kind == "Err" and "wA" in reply.body["message"]
            # a malformed result fails no chunk its sender does not hold
            bad = {**done_body(task_b), "result": {"chunk_id": 1}}
            assert (await a.request("TaskDone", bad)).kind == "Err"
            job = rig.service.state.jobs[job_id]
            assert job.assigned == {0: "wA", 1: "wB"} and not job.failed
            await a.done(task_a)
            await b.done(task_b)
            assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            a.close()
            b.close()

    run_async(scenario())


def test_worker_gets_only_its_hello_reply_tasks_and_refusals(tls):
    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.worker("w1")
            job_id = await rig.submit(chunk_size=50)  # four chunks, all assigned to w1's four cores
            await w.report("Heartbeat", {})
            for _ in range(4):
                task = await w.next_task()
                await w.done(task)
                await w.report("Heartbeat", {})
            assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            # replies come in order, so once this refusal is read every earlier report's reply would have been
            assert (await w.request("TaskDone", {**done_body(task), "chunk_id": 99})).kind == "Err"
            kinds = [msg.kind for msg in w.received]
            assert kinds == ["Ok", "AssignTask", "Err"], kinds  # the four tasks in one AssignTask
            assert sum(map(len, w.received[1].body["runs"])) == 4
            assert w.received[0].body == {"worker_id": "w1"}  # no job status, no histogram
            w.close()
            for _ in range(100):
                if not rig.service._worker_conns:
                    break
                await asyncio.sleep(0.01)
            assert rig.service._worker_conns == {}

    run_async(scenario())


def test_a_requested_worker_runs_the_cores_its_hello_says(tls):
    async def scenario():
        async with Rig(tls) as rig:
            rig.service.state.expect_worker(rig.service.clock(), worker_id="w1")  # as a dedicated worker is
            w = await rig.connect()
            assert (await w.request("WorkerHello", {"worker_id": "w1", "n_cores": 2})).kind == "Ok"
            assert rig.service.state.workers["w1"].n_cores == 2
            await rig.submit(chunk_size=50)  # four chunks: two runs of two, one per core
            assert [[t["chunk"]["chunk_id"] for t in run] for run in (await w._read()).body["runs"]] == [[0, 1], [2, 3]]
            w.close()

    run_async(scenario())


def test_a_worker_with_no_core_or_no_hello_is_refused(tls):
    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.connect()
            reply = await w.request("WorkerHello", {"worker_id": "w1", "n_cores": 0})
            assert reply.kind == "Err" and "core" in reply.body["message"]
            assert rig.service.state.workers == {}
            # the connection has not said a WorkerHello that was taken, so its reports are refused
            reply = await w.request("Heartbeat", {})
            assert reply.kind == "Err" and "WorkerHello" in reply.body["message"]
            w.close()

    run_async(scenario())


def padded(n_bytes: int) -> list:
    """PIPELINE with its expression padded by n_bytes of spaces."""
    return [{"hist": ["h_pt", "pt" + " " * n_bytes, 10, 0, 100]}]


def test_an_assignment_carries_each_pipeline_once(tls, monkeypatch):
    """A pipeline larger than MAX_FRAME / n_cores reaches a worker given
    n_cores of its tasks at once, in one AssignTask, and the job finishes."""
    monkeypatch.setattr(wire, "MAX_FRAME", 64 * 1024)

    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.worker("w1")  # 4 cores
            job_id = await rig.submit(chunk_size=50, pipeline=padded(24 * 1024))  # 4 chunks
            tasks = [await asyncio.wait_for(w.next_task(), 5) for _ in range(4)]
            assert [msg.kind for msg in w.received] == ["Ok", "AssignTask"]
            assert len(w.received[1].body["pipelines"]) == 1
            for task in tasks:
                await w.done(task)
            assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            w.close()

    run_async(scenario())


def test_an_assignment_past_the_frame_limit_is_split_or_its_task_failed(tls, monkeypatch):
    """Tasks that do not fit one AssignTask go in several; a task that does
    not fit one alone fails, and its job with it, instead of hanging."""
    monkeypatch.setattr(wire, "MAX_FRAME", 64 * 1024)

    async def split():
        async with Rig(tls) as rig:
            # queued before any worker, so that one dispatch gives w1 both
            jobs = [await rig.submit(pipeline=padded(40 * 1024)) for _ in range(2)]
            w = await rig.worker("w1")
            tasks = [await asyncio.wait_for(w.next_task(), 5) for _ in jobs]
            assert [msg.kind for msg in w.received] == ["Ok", "AssignTask", "AssignTask"]
            for task in tasks:
                await w.done(task)
            for job_id in jobs:
                assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            w.close()

    async def refused():
        async with Rig(tls) as rig:
            job_id = await rig.submit(pipeline=padded(40 * 1024))
            monkeypatch.setattr(wire, "MAX_FRAME", 32 * 1024)
            w = await rig.worker("w1")
            status = await rig.client.wait_job(job_id, timeout=5)
            assert status["state"] == "failed"
            assert [msg.kind for msg in w.received] == ["Ok"]
            w.close()

    run_async(split())
    run_async(refused())


def test_every_assignment_frame_carries_the_current_data_token(tls, monkeypatch):
    """Each AssignTask frame carries the service's data token as it is at that
    dispatch: both frames of a split dispatch, and after a renewal between two
    dispatches, the new token in the next frame."""
    monkeypatch.setattr(wire, "MAX_FRAME", 64 * 1024)

    async def scenario():
        async with Rig(tls, data_token="first") as rig:
            # queued before any worker, so that one dispatch gives w1 both, in two frames
            jobs = [await rig.submit(pipeline=padded(40 * 1024)) for _ in range(2)]
            w = await rig.worker("w1")
            tasks = [await asyncio.wait_for(w.next_task(), 5) for _ in jobs]
            rig.service.data_token = "second"  # a re-login
            jobs.append(await rig.submit())
            tasks.append(await asyncio.wait_for(w.next_task(), 5))
            assigned = [msg.body["token"] for msg in w.received if msg.kind == "AssignTask"]
            assert assigned == ["first", "first", "second"]
            for task in tasks:
                await w.done(task)
            for job_id in jobs:
                assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            w.close()

    run_async(scenario())


def test_assign_frames_split_between_runs_and_cut_only_a_run_too_large_alone(monkeypatch):
    from casa_mini.scheduler.service import assign_frames
    from casa_mini.types import FileChunk, TaskSpec, assignment

    token = "t" * 158  # a data token's length

    def task(i):
        return TaskSpec("job-1", FileChunk("f", 10 * i, 10, i), tuple(PIPELINE))

    def size(runs):  # of the payload, less the length prefix
        return len(wire.encode(wire.WireMessage("AssignTask", assignment(runs, token)))) - 4

    def sent(runs):  # each frame's runs, as chunk ids, and whether it has a frame
        frames = assign_frames(runs, token)
        return [([[s.chunk.chunk_id for s in r] for r in part], frame is not None) for part, frame in frames]

    runs = [[task(0)], [task(1), task(2), task(3)], [task(4), task(5)]]
    # the longest run fits a frame alone, no two runs do: halving the six tasks would cut it
    monkeypatch.setattr(wire, "MAX_FRAME", size(runs[1:2]))
    assert sent(runs) == [([[0]], True), ([[1, 2, 3]], True), ([[4, 5]], True)]
    # a run whose frame alone is too large is cut in two
    monkeypatch.setattr(wire, "MAX_FRAME", size([[task(1), task(2)]]))
    assert sent(runs) == [([[0]], True), ([[1]], True), ([[2, 3]], True), ([[4, 5]], True)]
    # and a task whose frame alone is too large has none
    monkeypatch.setattr(wire, "MAX_FRAME", size([[task(0)]]) - 1)
    assert sent(runs[:1]) == [([[0]], False)]


def test_a_transient_task_failure_sends_its_chunk_out_again(tls):
    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.worker("w1")
            job_id = await rig.submit(chunk_size=200)  # one chunk
            task = await w.next_task()
            failed = {"job_id": job_id, "chunk_id": 0, "reason": "proxy connection closed"}
            await w.report("TaskFailed", {**failed, "transient": True})
            again = await asyncio.wait_for(w.next_task(), 5)  # no other worker: the same one
            assert again == task
            await w.done(again)
            assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            # a failure not marked transient (the field must be true) fails its chunk at once
            job_id = await rig.submit(chunk_size=200)
            await w.next_task()
            await w.report("TaskFailed", {**failed, "job_id": job_id, "reason": "bad", "transient": "yes"})
            assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "failed"
            w.close()

    run_async(scenario())


@pytest.mark.parametrize(
    "result",
    [
        {"histograms": [Histogram("h_pt", 3, 0.0, 100.0).to_dict()]},  # does not merge with chunk 0's
        {"histograms": "not a list"},  # malformed
    ],
    ids=["mismatched", "malformed"],
)
def test_result_that_cannot_be_merged_fails_its_job(tls, result):
    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.worker("w1")
            job_id = await rig.submit(chunk_size=100)  # two chunks
            first, second = await w.next_task(), await w.next_task()
            await w.report("TaskDone", done_body(first, [Histogram("h_pt", 10, 0.0, 100.0)]))
            body = done_body(second)
            body["result"].update(result)
            assert (await w.request("TaskDone", body)).kind == "Err"
            status = await asyncio.wait_for(rig.client.wait_job(job_id, timeout=1), 1.0)
            assert (status["state"], status["done"], status["failed"]) == ("failed", 1, 1)
            assert rig.service.state.jobs[job_id].assigned == {}
            w.close()

    run_async(scenario())


def test_failing_background_task_is_logged(tls, caplog):
    async def scenario():
        async with Rig(tls) as rig:

            async def broken(now):
                raise RuntimeError("dispatch broke")

            rig.service._dispatch = broken
            w = await rig.worker("w1")  # WorkerHello starts a dispatch
            await asyncio.sleep(0.05)
            w.close()

    with caplog.at_level(logging.ERROR):
        run_async(scenario())
    logged = [r for r in caplog.records if r.name.startswith("casa_mini") and r.exc_info]
    assert any("dispatch broke" in str(r.exc_info[1]) for r in logged), caplog.text


def test_close_cancels_background_tasks(tls):
    async def scenario():
        rig = Rig(tls)
        async with rig:
            started = asyncio.Event()

            async def slow(now):
                started.set()
                await asyncio.sleep(60)

            rig.service._dispatch = slow
            w = await rig.worker("w1")
            await started.wait()
            pending = set(rig.service._tasks._tasks)
            w.close()
        assert pending and all(t.done() for t in pending)

    run_async(scenario())


def test_close_ends_open_connections(tls, caplog):
    async def scenario():
        async with Rig(tls) as rig:
            job_id = await rig.submit()
            conn = await rig.connect()
            assert (await conn.request("WaitJob", {"job_id": job_id, "timeout": 0})).kind == "Ok"
            await rig.service.close()
            # the handler has ended and closed the connection
            assert await asyncio.wait_for(conn.reader.read(), 5) == b""
            conn.close()

    run_async(scenario())
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [], [r.getMessage() for r in errors]


def test_close_during_a_handshake_is_quiet(tls, caplog):
    """A peer that has sent its ClientHello and no more, as a worker still
    starting when its cluster is taken down, is dropped by close() without
    an error, in asyncio's debug mode too."""
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.load_verify_locations(tls["ca"])
    ctx.load_cert_chain(tls["user_cert"], tls["user_key"])
    outgoing = ssl.MemoryBIO()
    tls_client = ctx.wrap_bio(ssl.MemoryBIO(), outgoing, server_hostname=HOST)
    with pytest.raises(ssl.SSLWantReadError):
        tls_client.do_handshake()
    client_hello = outgoing.read()

    async def scenario():
        asyncio.get_running_loop().set_debug(True)
        service = SchedulerService("alice-1", BatchSim(), batch_worker)
        addr = await service.start("127.0.0.1", 0, server_ssl_context(tls["host_cert"], tls["host_key"], tls["ca"]))
        reader, writer = await asyncio.open_connection(*addr)
        writer.write(client_hello)
        assert await asyncio.wait_for(reader.read(1), 5)  # the server's reply: the handshake is under way
        await service.close()
        while await asyncio.wait_for(reader.read(65536), 5):  # until the server closes the connection
            pass
        writer.close()

    run_async(scenario())
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [], [r.getMessage() for r in errors]


def test_chunks_of_a_worker_whose_connection_closes_go_to_another(tls):
    async def scenario():
        async with Rig(tls) as rig:
            w1 = await rig.worker("w1")
            w2 = await rig.worker("w2")
            job_id = await rig.submit()  # one chunk, which goes to w1
            task = await w1.next_task()
            w1.close()
            moved = await asyncio.wait_for(w2.next_task(), 1.0)
            assert moved == task
            await w2.done(moved)
            assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            assert "w1" not in rig.service.state.workers
            downs = [(e.worker_id, e.detail) for e in rig.service.state.events if e.kind == "WorkerDown"]
            assert downs == [("w1", "connection closed")]
            w2.close()

    run_async(scenario())


async def until(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.01)


def test_silent_batch_worker_is_dropped_with_its_batch_job_and_connection(tls):
    async def scenario():
        async with Rig(tls, policy=ScalePolicy(mode="fixed"), heartbeat_timeout=0.5) as rig:
            state, batch = rig.service.state, rig.batch
            await rig.client.scale_request(mode="fixed", fixed_n=1)  # asks for batch worker w0001
            assert state.workers["w0001"].batch_handle == 1
            w = await rig.worker("w0001")  # and never sends a Heartbeat
            # the next tick past the timeout drops it and closes its connection
            assert await asyncio.wait_for(w.reader.read(), 5) == b""
            w.close()
            downs = [(e.worker_id, e.detail) for e in state.events if e.kind == "WorkerDown"]
            assert downs == [("w0001", "heartbeat timeout")]
            # its batch job ends; the replacement is a new one
            assert [(j.handle, j.state) for j in batch.jobs.values()] == [(1, CANCELLED), (2, STARTING)]
            assert state.workers["w0002"].batch_handle == 2
            assert "w0001" not in rig.service._worker_conns

    run_async(scenario())


def test_each_requested_batch_worker_has_its_batch_job_as_the_tick_returns(tls):
    """A scale-out tick submits every batch job it asks for, with no await
    in between, so a close() that comes at any time after it finds each
    job's handle and cancels it."""

    async def scenario():
        async with Rig(tls) as rig:
            service = rig.service
            service.policy.fixed_n = 3
            assert service.autoscaler.tick(service.clock()) == 3
            workers = list(service.state.workers.values())
            assert [(w.worker_id, w.batch_handle) for w in workers] == [("w0001", 1), ("w0002", 2), ("w0003", 3)]
            jobs = rig.batch.jobs
            assert [(jobs[w.batch_handle].state, jobs[w.batch_handle].spec.worker_id) for w in workers] == [
                (STARTING, w.worker_id) for w in workers
            ]
        assert [j.state for j in jobs.values()] == [CANCELLED] * 3 and rig.batch.committed == 0
        assert service.state.workers == {}

    run_async(scenario())


def test_a_refused_scale_out_submit_drops_its_worker_and_the_ticks_go_on(tls):
    """A batch token that has expired: each requested worker is recorded and
    dropped again with the batch system's reason, nothing raises out of the
    tick, and the service's tick loop goes on asking, after a back-off."""
    key = b"b" * 32
    expired = mint_token(key, "alice", "batch", exp=time.time() - 1.0)

    def worker_spec(worker_id):
        return JobSpec(worker_id=worker_id, batch_token=expired)

    async def scenario():
        async with Rig(tls, BatchSim(batch_key=key), worker_spec) as rig:
            service = rig.service
            service.policy.fixed_n = 1
            assert service.autoscaler.tick(service.clock()) == 1
            assert service.state.workers == {} and rig.batch.jobs == {}
            stream = list(csv.DictReader(io.StringIO(await rig.client.task_stream_csv())))
            rows = [(r["kind"], r["worker_id"], r["detail"]) for r in stream if r["kind"] != "ScaleDecision"]
            assert rows == [
                ("WorkerUp", "w0001", "requested"),
                ("WorkerDown", "w0001", "batch submit failed: token expired"),
            ]
            # the tick loop asks again once AUTOSCALE_INTERVAL has passed, and is refused again
            await until(lambda: [e for e in service.state.events if e.worker_id == "w0002" and e.kind == "WorkerDown"])
            assert service.state.events[-1].detail == "batch submit failed: token expired"
            assert rig.batch.jobs == {}

    run_async(scenario())


# ---- what a live worker's core counts: a run of adjacent chunks -------------------


async def assignment_of(w: ScriptedWorker) -> list[dict]:
    """The tasks of the next AssignTask the worker reads, run by run."""
    await asyncio.wait_for(w.next_task(), 5)
    msg = w.received[-1]
    assert msg.kind == "AssignTask"
    w.assigned.clear()
    return [task for run in msg.body["runs"] for task in run]


def chunk_ids(tasks: list[dict]) -> list[int]:
    return [task["chunk"]["chunk_id"] for task in tasks]


def test_a_free_worker_gets_a_small_job_in_one_assignment(tls):
    """Eight chunks, one free 4-core worker: a share of two chunks per core,
    so all eight go out at once as four runs of two (four at the parent)."""

    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.worker("w1")
            job_id = await rig.submit(chunk_size=25)
            tasks = await assignment_of(w)
            assert chunk_ids(tasks) == list(range(8))
            assert [chunk_ids(run) for run in w.received[-1].body["runs"]] == [[0, 1], [2, 3], [4, 5], [6, 7]]
            worker = rig.service.state.workers["w1"]
            assert (len(worker.running), worker.in_use, worker.capacity) == (8, 4, 0)
            for task in tasks:
                await w.done(task)
            assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            assert (worker.running, worker.in_use, worker.capacity) == ({}, 0, 4)
            w.close()

    run_async(scenario())


def test_an_eight_core_worker_is_sent_the_scheduler_runs(tls):
    """Two files of eight 5,000-event chunks, one free 8-core worker: a
    share of two, so one AssignTask of eight runs of two, one core each,
    and a run's core is free once its last chunk is done."""

    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.connect()
            assert (await w.request("WorkerHello", {"worker_id": "w1", "n_cores": 8})).kind == "Ok"
            files = ["root://origin//store/d/a.cacf", "root://origin//store/d/b.cacf"]
            job_id = await rig.client.submit_job(PIPELINE, "d", files, [40_000, 40_000], 5000)
            tasks = await assignment_of(w)
            runs = [chunk_ids(run) for run in w.received[-1].body["runs"]]
            assert runs == [[i, i + 1] for i in range(0, 16, 2)]
            worker = rig.service.state.workers["w1"]
            assert (len(worker.running), worker.in_use) == (16, 8)
            in_use = []
            for task in tasks:
                await w.done(task)
                await until(lambda: task["chunk"]["chunk_id"] not in rig.service.state.jobs[job_id].assigned)
                in_use.append(worker.in_use)
            assert in_use == [8 - (i + 1) // 2 for i in range(16)]  # 8, 7, 7, 6, 6, ..., 1, 1, 0
            assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            w.close()

    run_async(scenario())


def test_two_free_workers_share_a_small_job_a_chunk_per_core(tls):
    """Eight chunks, eight free cores on two workers: a share of one, so no
    chunk joins a run and the chunks are dealt out in turn."""

    async def scenario():
        async with Rig(tls) as rig:
            w1, w2 = await rig.worker("w1"), await rig.worker("w2")
            job_id = await rig.submit(chunk_size=25)
            given = {"w1": await assignment_of(w1), "w2": await assignment_of(w2)}
            assert {wid: chunk_ids(tasks) for wid, tasks in given.items()} == {"w1": [0, 2, 4, 6], "w2": [1, 3, 5, 7]}
            for tasks, w in zip(given.values(), (w1, w2)):
                for task in tasks:
                    await w.done(task)
            assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            w1.close()
            w2.close()

    run_async(scenario())


def test_a_retried_chunk_does_not_join_a_run_on_the_worker_it_failed_on(tls):
    async def scenario():
        async with Rig(tls) as rig:
            w = await rig.worker("w1")
            job_id = await rig.submit(chunk_size=25)
            tasks = await assignment_of(w)  # runs 0-1, 2-3, 4-5 and 6-7
            # the run 0-1 fails for a transient reason, its reports in one write as a worker sends them
            failed = [
                wire.WireMessage(
                    "TaskFailed",
                    {"job_id": job_id, "chunk_id": i, "reason": "proxy connection closed", "transient": True},
                )
                for i in (0, 1)
            ]
            w.writer.write(b"".join(map(wire.encode, failed)))
            await w.writer.drain()
            # one core is free again: chunk 0 retries on it, and chunk 1, a retry too, does not join it
            assert chunk_ids(await assignment_of(w)) == [0]
            await w.done(tasks[0])
            assert chunk_ids(await assignment_of(w)) == [1]
            for task in tasks[1:]:
                await w.done(task)
            assert (await rig.client.wait_job(job_id, timeout=5))["state"] == "done"
            retried = [e.chunk_id for e in rig.service.state.events if e.detail.startswith("retried")]
            assert sorted(retried) == [0, 1]
            w.close()

    run_async(scenario())


def test_every_chunk_of_a_joined_run_is_requeued_when_its_worker_drops(tls):
    async def scenario():
        async with Rig(tls) as rig:
            w1 = await rig.worker("w1")
            job_id = await rig.submit(chunk_size=25)
            assert chunk_ids(await assignment_of(w1)) == list(range(8))  # four joined chunks among them
            w1.close()
            await until(lambda: "w1" not in rig.service.state.workers)
            w2 = await rig.worker("w2")
            tasks = await assignment_of(w2)
            assert chunk_ids(tasks) == list(range(8))
            for task in tasks:
                await w2.done(task)
            status = await rig.client.wait_job(job_id, timeout=5)
            assert (status["state"], status["done"], status["n_events_in"]) == ("done", 8, 200)
            starts = [e.worker_id for e in rig.service.state.events if e.kind == "TaskStart"]
            assert starts == ["w1"] * 8 + ["w2"] * 8
            w2.close()

    run_async(scenario())
