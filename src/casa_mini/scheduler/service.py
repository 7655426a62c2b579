"""Networked scheduler: the ClusterState behind mutual TLS.

One asyncio event loop owns all state mutation; connection handlers never
touch the state concurrently.  Workers and clients both connect to the same
port (normally through the SNI ingress) with certificates minted by the
cluster CA; the peer certificate's CN is the caller identity.  A worker
says its cores in its WorkerHello, and from then on its connection names it:
its reports (Heartbeat, TaskDone, TaskFailed) carry no worker id.  They are
one-way, as in dask.distributed: it is sent only the Ok to its WorkerHello,
AssignTask, and Err to refuse one.  A client's WaitJob with timeout 0 is its
status poll.
Each dispatch sends a worker one AssignTask with the cluster's data token,
each job's pipeline once and every run of tasks that dispatch gave it
(`types.assignment`); runs whose frame would exceed MAX_FRAME are split over
as many AssignTasks as need be.
The dispatch asks ClusterState.schedule_step to join runs of adjacent chunks
of one file, one core each, and the worker runs each run it is sent as one
engine pass on one task thread, so a small job goes out at once.
Scale-out is the virtual facility's: the Autoscaler submits and cancels
batch jobs on the facility's BatchSim with no await, and close() drops
every worker still held, so no batch job outlives its cluster.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import ssl
import time

from .. import wire
from ..batchsim import BatchSim
from ..engine.pipeline import TaskResult
from ..types import DatasetSpec, TaskSpec, assignment
from .state import (
    AUTOSCALE_INTERVAL,
    DEFAULT_CORES,
    HEARTBEAT_TIMEOUT,
    Autoscaler,
    ClusterState,
    ScalePolicy,
    SchedulerError,
    WorkerState,
    events_to_csv,
)

log = logging.getLogger(__name__)

# Longest a WaitJob is held before the current status is sent back; a client
# that wants to wait longer asks again.  It bounds how long a handler serves
# a client that has gone away.
MAX_WAIT = 10.0
# Longest close() lets the requests it finds in progress send their replies.
CLOSE_GRACE = 1.0


def _peer_cn(writer: asyncio.StreamWriter) -> str:
    cert = writer.get_extra_info("peercert") or {}
    for rdn in cert.get("subject", ()):
        for key, value in rdn:
            if key == "commonName":
                return value
    return ""


def assign_frames(runs: list[list[TaskSpec]], token: str) -> list[tuple[list[list[TaskSpec]], bytes | None]]:
    """One worker's runs of tasks as encoded AssignTask frames: one for all,
    or else those of each half of the runs.  Only a run too large for a frame
    alone is cut in two, down to a task alone, whose frame is None if still so."""
    try:
        return [(runs, wire.encode(wire.WireMessage("AssignTask", assignment(runs, token))))]
    except wire.FrameTooLarge:
        if len(runs) == 1:
            (run,) = runs
            if len(run) == 1:
                return [(runs, None)]
            runs = [run[: len(run) // 2], run[len(run) // 2 :]]
    half = len(runs) // 2
    return assign_frames(runs[:half], token) + assign_frames(runs[half:], token)


class SchedulerService:
    """TLS front end over ClusterState, scaling out onto the facility's
    BatchSim; worker_spec(worker_id) is the JobSpec of a batch worker, and
    data_token, which a re-login renews, goes out in every AssignTask."""

    def __init__(
        self,
        cluster_id: str,
        batch: BatchSim,
        worker_spec,
        policy: ScalePolicy | None = None,
        clock=time.time,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
        data_token: str = "",
    ):
        self.state = ClusterState(cluster_id)
        self.data_token = data_token
        self.policy = policy or ScalePolicy(mode="fixed", fixed_n=0)
        self.clock = clock
        self.heartbeat_timeout = heartbeat_timeout
        self.autoscaler = Autoscaler(self.state, self.policy, batch, worker_spec, self._release)
        # worker_id -> its connection's writer, and the lock every send on it holds
        self._worker_conns: dict[str, tuple[asyncio.StreamWriter, asyncio.Lock]] = {}
        self._server: asyncio.AbstractServer | None = None
        self._ssl: ssl.SSLContext | None = None
        self._conns = wire.ConnectionTasks()
        self._answering: set[asyncio.Task] = set()  # handlers between a request and its reply
        self._tasks = wire.BackgroundTasks()
        self._closed = False
        # ("job", job_id) or ("worker", worker_id) -> event set when that job
        # leaves "running" or that worker arrives; popped when set.
        self._waiters: dict[tuple[str, str], asyncio.Event] = {}

    # ---- lifecycle ---------------------------------------------------------

    async def start(self, host: str, port: int, ssl_context: ssl.SSLContext) -> tuple[str, int]:
        # Each handler runs its connection's TLS handshake, not the server's
        # accept: close() cancels a handshake in progress quietly, where an
        # accept-time one that the peer left would be logged as an error.
        self._ssl = ssl_context
        self._server = await asyncio.start_server(self._conns.wrap(self._handle), host, port)
        self._tasks.spawn(self._tick_loop())
        addr = self._server.sockets[0].getsockname()
        return addr[0], addr[1]

    async def close(self, reason: str = "cluster closed") -> None:
        """Stop serving.  Every worker is dropped with `reason`, so its batch
        job is cancelled, and every unfinished job fails with it; every
        waiter wakes: a client waiting on a job gets its failed status.
        Requests in progress send their replies, then every connection ends."""
        self._closed = True
        await self._tasks.close()
        now = self.clock()
        for worker_id in list(self.state.workers):  # no tick or request asks for more from here on
            self.autoscaler.drop_worker(worker_id, now, reason)
        self.state.fail_unfinished(now, reason)
        answering = list(self._answering)
        for event in self._waiters.values():
            event.set()
        self._waiters.clear()
        if answering:
            await asyncio.wait(answering, timeout=CLOSE_GRACE)
        await self._conns.close(self._server)

    def _release(self, w: WorkerState, now: float) -> None:
        """A dropped worker's connection closes."""
        conn = self._worker_conns.pop(w.worker_id, None)
        if conn is not None:
            conn[0].close()

    async def _tick_loop(self) -> None:
        while True:
            await asyncio.sleep(AUTOSCALE_INTERVAL)
            now = self.clock()
            for worker_id in self.state.reap_lost_workers(now, self.heartbeat_timeout):
                self.autoscaler.drop_worker(worker_id, now, "heartbeat timeout")
            self.autoscaler.tick(now)
            await self._dispatch(now)

    # ---- dispatch -------------------------------------------------------------

    async def _dispatch(self, now: float) -> None:
        """Send each worker the runs of tasks this schedule_step gave it, in
        queue order, in one write of its AssignTask frames.  A task whose
        frame alone exceeds MAX_FRAME fails rather than stays assigned."""
        given: dict[str, list[list[TaskSpec]]] = {}
        for worker_id, spec, joins in self.state.schedule_step(now, join_runs=True):
            if joins:
                given[worker_id][-1].append(spec)
            else:
                given.setdefault(worker_id, []).append([spec])
        for worker_id, runs in given.items():
            writer, lock = self._worker_conns.get(worker_id, (None, None))
            if writer is None:
                continue
            frames = []
            for part, frame in assign_frames(runs, self.data_token):
                if frame is not None:
                    frames.append(frame)
                    continue
                ((spec,),) = part
                reason = f"assignment exceeds the {wire.MAX_FRAME}-byte frame limit"
                if self.state.fail_task(worker_id, spec.job_id, spec.chunk.chunk_id, reason, now) != "running":
                    self._wake(("job", spec.job_id))
            if not frames:
                continue
            try:
                async with lock:
                    writer.write(b"".join(frames))
                    await writer.drain()
            except (ConnectionError, RuntimeError) as exc:
                log.warning("assign to %s failed: %s", worker_id, exc)

    def _wake(self, key: tuple[str, str]) -> None:
        event = self._waiters.pop(key, None)
        if event is not None:
            event.set()

    async def _wait(self, key: tuple[str, str], timeout: float) -> None:
        """Wait, at most `timeout` seconds, until `_wake(key)` or close()."""
        if self._closed:
            return
        event = self._waiters.setdefault(key, asyncio.Event())
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    async def wait_job(self, job_id: str, timeout: float = MAX_WAIT) -> dict:
        """A job's status as soon as it leaves "running", or its current
        status after `timeout` seconds."""
        job = self.state.jobs.get(job_id)
        if job is None:
            raise SchedulerError(f"unknown job {job_id!r}")
        if job.state == "running" and timeout > 0:
            await self._wait(("job", job_id), timeout)
        return job.status()

    async def wait_worker(self, worker_id: str, timeout: float) -> None:
        """Return once the worker has said WorkerHello; raise TimeoutError
        if it has not within `timeout` seconds."""
        w = self.state.workers.get(worker_id)
        if w is None or not w.arrived:
            await self._wait(("worker", worker_id), timeout)
            w = self.state.workers.get(worker_id)
        if w is None or not w.arrived:
            raise TimeoutError(f"worker {worker_id} did not register within {timeout}s")

    # ---- connection handling -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        worker_id: str | None = None
        conn = (writer, asyncio.Lock())
        task = asyncio.current_task()
        try:
            try:
                await writer.start_tls(self._ssl)
            except (ssl.SSLError, ConnectionError):  # a peer refused or gone mid-handshake is not served
                return
            identity = _peer_cn(writer)
            while not self._closed:
                try:
                    msg = await wire.read_message(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if self._closed:  # a request that arrives during close() is not served
                    break
                self._answering.add(task)
                try:
                    reply = await self._one_message(msg, identity, worker_id)
                    if msg.kind == "WorkerHello" and reply.kind == "Ok":  # before the dispatch it spawned runs
                        worker_id = reply.body["worker_id"]
                        self._worker_conns[worker_id] = conn
                    if reply is not None:
                        async with conn[1]:
                            await wire.send_message(writer, reply)
                except (wire.FrameTooLarge, ConnectionError):  # or the peer left mid-wait
                    break
                finally:
                    self._answering.discard(task)
        except wire.WireError as exc:
            log.warning("scheduler: closing connection from %r: %s", identity, exc)
        finally:
            if worker_id is not None and self._worker_conns.get(worker_id) is conn:
                del self._worker_conns[worker_id]
                if not self._closed:  # its chunks go back to the queue, to be dispatched at once
                    now = self.clock()
                    self.autoscaler.drop_worker(worker_id, now, "connection closed")
                    self._tasks.spawn(self._dispatch(now))
            writer.close()

    async def _one_message(self, msg: wire.WireMessage, identity: str, bound: str | None) -> wire.WireMessage | None:
        """Serve one message: its reply, or None for an accepted worker
        report.  `bound` is the worker this connection registered as, if any:
        the one each report on it is about."""
        now = self.clock()
        try:
            if msg.kind == "WorkerHello":
                worker_id = self.state.worker_arrived(
                    msg.body.get("worker_id"), now, n_cores=int(msg.body.get("n_cores", DEFAULT_CORES))
                )
                self._wake(("worker", worker_id))
                self._tasks.spawn(self._dispatch(now))
                return wire.ok({"worker_id": worker_id})
            if msg.kind in ("Heartbeat", "TaskDone", "TaskFailed") and bound is None:
                raise SchedulerError("no WorkerHello on this connection")
            if msg.kind == "Heartbeat":
                self.state.heartbeat(bound, now)
                return None
            if msg.kind in ("TaskDone", "TaskFailed"):
                job_id, chunk_id = msg.body["job_id"], int(msg.body["chunk_id"])
                refusal = None
                if msg.kind == "TaskDone":
                    try:
                        result = TaskResult.from_dict(msg.body["result"])
                        job_state = self.state.complete_task(bound, job_id, chunk_id, result, now)
                    except (KeyError, TypeError, ValueError) as exc:  # fails the chunk if this worker holds it
                        refusal = wire.err("scheduler_error", str(exc))
                        job_state = self.state.fail_task(bound, job_id, chunk_id, f"bad result: {exc}", now)
                    self._tasks.spawn(self._dispatch(now))
                else:
                    reason, transient = msg.body.get("reason", ""), msg.body.get("transient") is True
                    job_state = self.state.fail_task(bound, job_id, chunk_id, reason, now, transient)
                    if transient:  # a requeued chunk goes out again at once
                        self._tasks.spawn(self._dispatch(now))
                if job_state != "running":
                    self._wake(("job", job_id))
                return refusal
            if msg.kind == "SubmitJob":
                ds = msg.body["dataset"]
                dataset = DatasetSpec(
                    name=ds["name"],
                    files=tuple(ds["files"]),
                    n_events_total=sum(ds["events_per_file"]),
                )
                job_id = self.state.submit_job(
                    msg.body["pipeline"],
                    dataset,
                    int(msg.body.get("chunk_size", 5000)),
                    now,
                    events_per_file=[int(x) for x in ds["events_per_file"]],
                    identity=identity,
                )
                self.autoscaler.tick(now)
                self._tasks.spawn(self._dispatch(now))
                return wire.ok({"job_id": job_id})
            if msg.kind == "WaitJob":  # with timeout 0, the status poll
                job_id = msg.body["job_id"]
                if job_id not in self.state.jobs:
                    return wire.err("unknown_job", f"unknown job {job_id!r}")
                timeout = min(float(msg.body.get("timeout", MAX_WAIT)), MAX_WAIT)
                return wire.ok(await self.wait_job(job_id, timeout))
            if msg.kind == "TaskStream":
                return wire.ok({"task_stream_csv": events_to_csv(self.state.events)})
            if msg.kind == "ScaleRequest":
                changes = {"mode": msg.body.get("mode", self.policy.mode)}
                for key in ("fixed_n", "tasks_per_worker"):
                    if key in msg.body:
                        changes[key] = int(msg.body[key])
                dataclasses.replace(self.policy, **changes)  # a policy that breaks its checks raises here
                for key, value in changes.items():  # in place: the autoscaler holds this policy
                    setattr(self.policy, key, value)
                self.autoscaler.tick(now)
                return wire.ok({"mode": self.policy.mode, "fixed_n": self.policy.fixed_n})
            return wire.err("bad_request", f"unsupported kind {msg.kind}")
        except (SchedulerError, KeyError, TypeError, ValueError) as exc:
            return wire.err("scheduler_error", str(exc))
