"""Virtual-clock facility: scheduler, batch system, and simulated workers
advancing deterministically from one event loop.

Simulated compute charges chunk_len / rate virtual seconds per task against a
worker's single execution timeline (`rate` is the per-worker event rate; a
worker's cores bound how many tasks it holds, not its throughput).  A virtual
worker is its scheduler WorkerState: its running chunks, in the order they
were assigned, are its queue, the oldest on its timeline and the rest
waiting their turn.  Task *results* come from really evaluating the
pipeline on the chunk, read by the live worker's own DataPath with remote
files read through the facility data proxy.  That keeps the scaling study
analytic and the merged histograms oracle-checkable at the same time.  The
first task of a file runs the job's chunks of that file through the live
worker's run_span (one read, one segmented engine pass); the other chunks'
outcomes wait for their own tasks, so the per-call cost of the engine is
paid once per file, not once per chunk.

Scale-out is the live scheduler's: the Autoscaler submits and cancels
each worker's batch job on this facility's BatchSim, and a worker arrives
when its job starts.

Tasks and workers fail as live ones do: a chunk's error goes through the
worker's task_failure to ClusterState.fail_task, so its job ends `failed`.  A
killed worker is a process exit: its batch job finishes and its connection
closes at the kill time, and it leaves through the same Autoscaler.drop_worker
as every other departure (reason "connection closed"), which requeues its
chunks.  A simulated worker never goes silent, so no heartbeat is recorded.

Same seed, same submissions: identical event order, identical task stream.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass

from .batchsim import BatchSim, DelayModel, JobSpec
from .data_proxy import SyncDataProxy
from .engine.pipeline import TaskResult, run_pipeline
from .scheduler.state import (
    AUTOSCALE_INTERVAL,
    DEFAULT_CORES,
    Autoscaler,
    ClusterState,
    JobState,
    ScalePolicy,
)
from .types import DatasetSpec, FileChunk, passes
from .worker import DataPath, run_span, task_failure

# Passes whose unused results are kept; a job has about one open pass per
# file, and a pass dropped past this is run again for its chunks left.
PASS_CACHE = 64


class VirtualLoop:
    """Deterministic event heap: (time, insertion seq) ordering."""

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, object]] = []
        self._seq = 0

    def schedule_at(self, t: float, fn) -> None:
        if t < self.now:
            raise ValueError(f"cannot schedule into the past ({t} < {self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn))

    def schedule(self, delay: float, fn) -> None:
        self.schedule_at(self.now + delay, fn)

    def run(self, max_time: float = 1e9) -> None:
        while self._heap:
            t, _, fn = heapq.heappop(self._heap)
            if t > max_time:
                raise RuntimeError(f"virtual run exceeded {max_time} s")
            self.now = t
            fn()


@dataclass
class SimParams:
    rate: float = 4000.0  # per-worker events/s in simulated compute
    n_cores: int = DEFAULT_CORES


class VirtualFacility:
    """One per-user cluster plus batch scale-out on a virtual clock."""

    def __init__(
        self,
        proxy: SyncDataProxy,
        data_token: str,
        batch_token: str,
        policy: ScalePolicy,
        delay: DelayModel | None = None,
        slots: int = 200,
        params: SimParams | None = None,
        batch_key: bytes | None = None,
    ):
        self.loop = VirtualLoop()
        self.batch_token = batch_token
        self.params = params or SimParams()
        self.state = ClusterState()
        self.batch = BatchSim(
            delay=delay or DelayModel(),
            slots=slots,
            batch_key=batch_key,
            on_start=self._on_batch_start,
        )
        self.batch.wake = lambda t: self.loop.schedule_at(t, lambda: self.batch.advance(t))
        self.autoscaler = Autoscaler(self.state, policy, self.batch, self._worker_spec)
        self.data = DataPath(proxy.fetch, data_token)  # the live worker's data path
        # (job_id, first chunk_id of a pass) -> outcomes not yet handed out, least recently used first
        self._results: OrderedDict[tuple[str, int], dict[int, TaskResult | Exception]] = OrderedDict()
        self._spans: dict[str, dict[int, tuple[FileChunk, ...]]] = {}  # job_id -> chunk_id -> its pass
        self._kill_plan: list[tuple[float, str]] = []

    # ---- batch plumbing ----------------------------------------------------

    def _worker_spec(self, worker_id: str) -> JobSpec:
        return JobSpec(self.params.n_cores, worker_id, self.batch_token)

    def _on_batch_start(self, job, t: float) -> None:
        worker_id = job.spec.worker_id
        if worker_id not in self.state.workers:
            return  # cancelled before it started
        self.state.worker_arrived(worker_id, t, n_cores=job.spec.n_cores)
        self._dispatch(t)

    # ---- failure injection --------------------------------------------------

    def kill_worker_at(self, worker_id: str, t: float) -> None:
        self._kill_plan.append((t, worker_id))

    def _kill(self, worker_id: str, now: float) -> None:
        """The worker's process dies, as a SIGKILL does in the live facility:
        its batch job finishes and its connection closes, both at `now`, so
        its chunks are requeued and dispatched at once."""
        w = self.state.workers.get(worker_id)
        if w is None or not w.arrived:
            return  # not started, or already gone
        self.batch.finish(w.batch_handle, now)
        self.autoscaler.drop_worker(worker_id, now, "connection closed")
        self._dispatch(now)

    # ---- task execution ------------------------------------------------------

    def _dispatch(self, now: float) -> None:
        for worker_id, spec, _ in self.state.schedule_step(now):
            key = (spec.job_id, spec.chunk.chunk_id)
            if next(iter(self.state.workers[worker_id].running)) == key:  # the worker was idle
                self._start(worker_id, key, now)

    def _start(self, worker_id: str, key: tuple[str, int], now: float) -> None:
        """Charge the chunk to the worker's timeline from now."""
        job_id, chunk_id = key
        duration = self.state.jobs[job_id].chunks[chunk_id].len / self.params.rate
        self.loop.schedule(duration, lambda: self._complete(worker_id, key, now))

    def _complete(self, worker_id: str, key: tuple[str, int], started: float) -> None:
        now = self.loop.now
        w = self.state.workers.get(worker_id)
        if w is None or key not in w.running:
            return  # the worker was dropped, and its chunks requeued
        job_id, chunk_id = key
        outcome = self._execute(self.state.jobs[job_id], chunk_id)
        if isinstance(outcome, TaskResult):
            outcome.t_start, outcome.t_end = started, now
            self.state.complete_task(worker_id, job_id, chunk_id, outcome, now)
        else:  # as SchedulerService takes a live worker's TaskFailed
            reason, transient = task_failure(outcome)
            self.state.fail_task(worker_id, job_id, chunk_id, reason, now, transient)
        if w.running:  # its oldest chunk is the next on its timeline
            self._start(worker_id, next(iter(w.running)), now)
        self._dispatch(now)

    def _execute(self, job: JobState, chunk_id: int) -> TaskResult | Exception:
        """The chunk's result or error from its engine pass, which the pass's
        first task runs; each other chunk's outcome is kept until its own task
        runs (a kill before that leaves it kept), and handed out once."""
        span = self._span_of(job, chunk_id)
        key = (job.job_id, span[0].chunk_id)
        outcomes = self._results.pop(key, {})
        if chunk_id not in outcomes:  # a first task, or a retry
            outcomes = self._run_pass(job, span)
        outcome = outcomes.pop(chunk_id)
        if outcomes:
            self._results[key] = outcomes  # now the most recently used
            if len(self._results) > PASS_CACHE:
                self._results.popitem(last=False)
        return outcome

    def _span_of(self, job: JobState, chunk_id: int) -> tuple[FileChunk, ...]:
        """The chunks of the engine pass that runs chunk_id."""
        spans = self._spans.get(job.job_id)
        if spans is None:
            spans = self._spans[job.job_id] = {c.chunk_id: span for span in passes(job.chunks.values()) for c in span}
        return spans[chunk_id]

    def _run_pass(self, job: JobState, span: tuple[FileChunk, ...]) -> dict[int, TaskResult | Exception]:
        """run_span's outcomes for the span's chunks not yet done, by chunk id."""
        outcomes = run_span(span, job.pipeline, self.data, run_pipeline)
        return {c.chunk_id: o for c, o in zip(span, outcomes) if c.chunk_id not in job.done}

    # ---- driving --------------------------------------------------------------

    def _tick(self) -> None:
        now = self.loop.now
        self.autoscaler.tick(now)
        self._dispatch(now)
        if self.state.total_queued() or self.state.total_assigned():
            self.loop.schedule(AUTOSCALE_INTERVAL, self._tick)

    def run_job(
        self,
        pipeline_json: list,
        dataset: DatasetSpec,
        chunk_size: int,
        events_per_file: list[int],
        max_time: float = 1e6,
    ):
        """Submit one job at t=0 and run the facility until it settles."""
        job_id = self.state.submit_job(
            pipeline_json, dataset, chunk_size, now=self.loop.now, events_per_file=events_per_file
        )
        for t, worker_id in sorted(self._kill_plan):
            self.loop.schedule_at(t, lambda w=worker_id: self._kill(w, self.loop.now))
        self.loop.schedule_at(self.loop.now, self._tick)
        try:
            self.loop.run(max_time=max_time)
        finally:
            self.data.close()
            self._results.clear()
            self._spans.clear()
        return self.state.jobs[job_id]
