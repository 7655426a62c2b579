"""Per-user cluster brain, as a pure state machine.

All mutations take an explicit `now` so the same code runs under the
virtual-clock facility and the wall-clock TLS service; both serialize every
mutation through a single logical owner (event loop), so no locking happens
here.

Scheduling discipline: tasks leave the queue FIFO by (job order, chunk id);
among workers with spare cores the one with the fewest cores in use wins,
worker_id breaking ties.  Workers are recorded when they are *requested*
(their WorkerUp in the task stream; the Autoscaler submits each one's batch
job in the same call, on either facility), and become assignable when they
arrive, with the cores they say they run; the gap from that WorkerUp to
their first TaskStart is the per-worker stall the benchmark profiles
(bench.stall_report reads both from the task stream).  A chunk whose task
failed for a transient reason is queued again, at most TASK_RETRIES times,
and goes to a worker other than the one it failed on where another is free.

A core runs a run of chunks until its last chunk is released; schedule_step
says which run each task starts or continues.  A virtual worker charges each
chunk to its one timeline, so there every run is one chunk.  A live worker
runs each run it is sent as one engine pass on one task thread, so the live
service asks schedule_step to join runs: a chunk that continues the run just
given to a worker joins it, within PASS_EVENTS and a fair share of the queue.

No event scans every worker or every job (a step that joins runs sums the
free cores once): the choice of worker pops a heap of (cores in use,
worker_id) entries, pushed whenever a worker arrives or its running set
changes and dropped when popped out of date, in the spirit of the idle and
saturated worker sets of dask.distributed; the queued and assigned totals
the autoscaler reads are counters kept at each mutation.
"""

from __future__ import annotations

import csv
import heapq
import io
import logging
import math
from dataclasses import dataclass, field, replace

from ..batchsim import BatchError, BatchSim
from ..cacf import plan_chunks
from ..engine.pipeline import KernelPipeline, TaskResult
from ..tokens import TokenError
from ..types import PASS_EVENTS, DatasetSpec, FileChunk, TaskSpec

log = logging.getLogger(__name__)

DEFAULT_CORES = 4
HEARTBEAT_TIMEOUT = 10.0
AUTOSCALE_INTERVAL = 1.0
# While the batch system refuses submits, scale-out waits AUTOSCALE_INTERVAL
# after the first refusal, twice as long after each further one, up to this.
SUBMIT_BACKOFF_MAX = 64.0
# Times a chunk whose task failed for a transient reason (its worker lost
# the data proxy or the proxy its origin) is queued again before it fails.
TASK_RETRIES = 2


class SchedulerError(ValueError):
    pass


@dataclass
class ScalePolicy:
    mode: str = "adaptive"  # "adaptive" | "fixed"
    fixed_n: int = 0
    tasks_per_worker: int = 4
    n_min: int = 0
    n_max: int = 50
    idle_timeout: float = 30.0

    def __post_init__(self):
        if self.mode not in ("adaptive", "fixed"):
            raise SchedulerError(f"unknown scale mode {self.mode!r}")
        if self.tasks_per_worker < 1:
            raise SchedulerError("tasks_per_worker must be >= 1")
        if self.n_min > self.n_max:
            raise SchedulerError("n_min must be <= n_max")


def autoscale_target(queued: int, running: int, policy: ScalePolicy) -> int:
    """clamp(ceil((queued+running)/rho), n_min, n_max)."""
    desired = math.ceil((queued + running) / policy.tasks_per_worker)
    return max(policy.n_min, min(policy.n_max, desired))


@dataclass
class WorkerState:
    worker_id: str
    last_heartbeat: float
    n_cores: int = 0  # as the worker's first hello says
    # (job_id, chunk_id) -> the set of its run's running chunks, or None; in the order assigned
    running: dict = field(default_factory=dict)
    in_use: int = 0  # cores in use: one per run that holds a running chunk
    arrived: bool = False
    idle_since: float = 0.0
    batch_handle: int | None = None

    @property
    def capacity(self) -> int:
        return self.n_cores - self.in_use


@dataclass
class TaskStreamEvent:
    kind: str  # WorkerUp | WorkerDown | TaskStart | TaskEnd | ScaleDecision
    worker_id: str
    chunk_id: int | None
    t: float
    detail: str = ""


def events_to_csv(events: list[TaskStreamEvent]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kind", "worker_id", "chunk_id", "t", "detail"])
    for e in events:
        writer.writerow([e.kind, e.worker_id, "" if e.chunk_id is None else e.chunk_id, repr(e.t), e.detail])
    return out.getvalue()


@dataclass
class JobState:
    job_id: str
    seq: int
    pipeline_spec: tuple  # the pipeline's JSON, which every TaskSpec carries
    pipeline: KernelPipeline  # parsed and checked once, at submission
    dataset: DatasetSpec
    chunks: dict[int, FileChunk]
    submitted_at: float
    queued: set = field(default_factory=set)
    assigned: dict = field(default_factory=dict)  # chunk_id -> worker_id
    done: set = field(default_factory=set)
    failed: set = field(default_factory=set)
    merged: dict = field(default_factory=dict)  # hist name -> Histogram
    retried: dict = field(default_factory=dict)  # chunk_id -> (transient failures, worker of the last)
    n_events_in: int = 0
    n_events_pass: int = 0
    finished_at: float | None = None  # when its last chunk was done or failed
    error: str = ""  # the first chunk failure's reason

    @property
    def state(self) -> str:
        if self.failed and not self.queued and not self.assigned:
            return "failed"
        if self.finished_at is not None:
            return "done"
        return "running"

    def settle(self, now: float) -> str:
        """Stamp finished_at once no chunk is queued or assigned; the state."""
        if self.finished_at is None and not self.queued and not self.assigned:
            self.finished_at = now
        return self.state

    def status(self) -> dict:
        body = {
            "job_id": self.job_id,
            "state": self.state,
            "queued": len(self.queued),
            "assigned": len(self.assigned),
            "done": len(self.done),
            "failed": len(self.failed),
            "n_events_in": self.n_events_in,
            "n_events_pass": self.n_events_pass,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }
        if self.state == "failed":
            body["error"] = self.error
        if self.state == "done":
            body["histograms"] = [self.merged[name].to_dict() for name in sorted(self.merged)]
        return body


class ClusterState:
    def __init__(self, cluster_id: str = "cluster"):
        self.cluster_id = cluster_id
        self.workers: dict[str, WorkerState] = {}
        self.jobs: dict[str, JobState] = {}
        self.events: list[TaskStreamEvent] = []
        self._queue: list[tuple[int, int, str]] = []  # (job_seq, chunk_id, job_id)
        # (in_use, worker_id) of every worker with a spare core, plus
        # out-of-date entries that are dropped when popped
        self._free: list[tuple[int, str]] = []
        self._n_queued = 0
        self._n_assigned = 0
        self._job_seq = 0
        self._worker_seq = 0

    # ---- workers ----------------------------------------------------------

    def _offer(self, w: WorkerState) -> None:
        """Record that `w` arrived or its running set changed: push its entry
        if it can take a task, and rebuild the heap from the live workers once
        it holds more than twice as many entries as there are workers."""
        if w.arrived and w.capacity > 0:
            heapq.heappush(self._free, (w.in_use, w.worker_id))
        if len(self._free) > 2 * len(self.workers):
            self._free = [(v.in_use, v.worker_id) for v in self.workers.values() if v.arrived and v.capacity > 0]
            heapq.heapify(self._free)

    def _pop_free(self) -> WorkerState | None:
        """The arrived worker with a spare core and the fewest cores in use,
        lowest worker_id first; its entry leaves the heap."""
        while self._free:
            in_use, worker_id = heapq.heappop(self._free)
            w = self.workers.get(worker_id)
            if w is not None and w.arrived and w.in_use == in_use and w.capacity > 0:
                return w
        return None

    def expect_worker(self, now: float, worker_id: str | None = None) -> str:
        """Record a requested worker, by default the next wNNNN; it becomes
        assignable once it arrives."""
        if not worker_id:
            self._worker_seq += 1
            worker_id = f"w{self._worker_seq:04d}"
        if worker_id in self.workers:
            raise SchedulerError(f"worker {worker_id!r} already known")
        self.workers[worker_id] = WorkerState(worker_id=worker_id, last_heartbeat=now)
        self.events.append(TaskStreamEvent("WorkerUp", worker_id, None, now, "requested"))
        return worker_id

    def worker_arrived(self, worker_id: str | None, now: float, n_cores: int) -> str:
        """WorkerHello: activate a requested worker, or direct-register a new
        one, with the cores it says it runs; a worker already arrived keeps
        the count of its first hello."""
        if n_cores < 1:
            raise SchedulerError(f"a worker needs at least one core, not {n_cores}")
        if worker_id is None or worker_id not in self.workers:
            worker_id = self.expect_worker(now, worker_id=worker_id)
        w = self.workers[worker_id]
        if not w.arrived:
            w.n_cores = n_cores
        w.arrived = True
        w.last_heartbeat = max(w.last_heartbeat, now)
        w.idle_since = now
        self._offer(w)
        return worker_id

    def heartbeat(self, worker_id: str, now: float) -> None:
        w = self.workers.get(worker_id)
        if w is None:
            raise SchedulerError(f"heartbeat from unknown worker {worker_id!r}")
        w.last_heartbeat = max(w.last_heartbeat, now)

    def remove_worker(self, worker_id: str, now: float, reason: str) -> list[int]:
        """Drop a worker, requeueing whatever it was running; only
        Autoscaler.drop_worker calls it, so that the worker is also released."""
        w = self.workers.pop(worker_id, None)
        if w is None:
            return []
        requeued = []
        for job_id, chunk_id in sorted(w.running):
            job = self.jobs[job_id]
            if job.assigned.get(chunk_id) == worker_id:
                del job.assigned[chunk_id]
                job.queued.add(chunk_id)
                self._n_assigned -= 1
                self._n_queued += 1
                heapq.heappush(self._queue, (job.seq, chunk_id, job_id))
                requeued.append(chunk_id)
        self.events.append(TaskStreamEvent("WorkerDown", worker_id, None, now, reason))
        return requeued

    def reap_lost_workers(self, now: float, timeout: float = HEARTBEAT_TIMEOUT) -> list[str]:
        """The arrived workers silent for longer than `timeout`; the caller
        drops each with Autoscaler.drop_worker."""
        return sorted(wid for wid, w in self.workers.items() if w.arrived and now - w.last_heartbeat > timeout)

    def n_supplied(self) -> int:
        """Workers requested or alive; the autoscaler's notion of supply."""
        return len(self.workers)

    def idle_workers(self, now: float, idle_timeout: float) -> list[str]:
        """The arrived workers with a batch job that have run nothing for
        `idle_timeout`: those scale-down may drop.  A worker the batch
        system did not start for the autoscaler (a cluster's dedicated
        worker) is never one of them."""
        return sorted(
            wid
            for wid, w in self.workers.items()
            if w.batch_handle is not None and w.arrived and not w.running and now - w.idle_since >= idle_timeout
        )

    # ---- jobs -------------------------------------------------------------

    def submit_job(
        self,
        pipeline_json: list,
        dataset: DatasetSpec,
        chunk_size: int,
        now: float,
        events_per_file: list[int] | None = None,
        identity: str = "",
    ) -> str:
        pipeline = KernelPipeline.from_json(pipeline_json)  # a malformed pipeline is refused here, not by each task
        chunks = plan_chunks(dataset, chunk_size, events_per_file=events_per_file)
        if not chunks:  # a job with no chunk would never end
            raise SchedulerError(f"dataset {dataset.name!r} has no events")
        self._job_seq += 1
        job_id = f"job-{self._job_seq:04d}"
        job = JobState(
            job_id=job_id,
            seq=self._job_seq,
            pipeline_spec=tuple(pipeline_json),
            pipeline=pipeline,
            dataset=dataset,
            chunks={c.chunk_id: c for c in chunks},
            submitted_at=now,
        )
        job.queued = set(job.chunks)
        self._n_queued += len(job.queued)
        self.jobs[job_id] = job
        for c in chunks:
            heapq.heappush(self._queue, (job.seq, c.chunk_id, job_id))
        log.info("job %s: %d chunks over %d files (by %s)", job_id, len(chunks), len(dataset.files), identity)
        return job_id

    def total_queued(self) -> int:
        return self._n_queued

    def total_assigned(self) -> int:
        return self._n_assigned

    def fail_unfinished(self, now: float, reason: str = "cluster closed") -> None:
        """Fail every queued and assigned chunk (the cluster is going away);
        `reason` is each such job's error unless it has one already."""
        for job in self.jobs.values():
            if job.state == "running":
                job.failed |= job.queued | set(job.assigned)
                job.queued.clear()
                job.assigned.clear()
                job.error = job.error or reason
                job.settle(now)
        self._n_queued = self._n_assigned = 0

    # ---- scheduling -------------------------------------------------------

    def schedule_step(self, now: float, join_runs: bool = False) -> list[tuple[str, TaskSpec, bool]]:
        """Give queued chunks, in queue order, to workers with a spare core:
        a (worker_id, task, joins) per task, joins if it continues the previous task's run.

        With join_runs, a chunk that continues the run just given to a worker
        (same job and file, the next adjacent chunk) joins that run without a
        core of its own while the run stays within PASS_EVENTS events and a
        fair share of ceil(queued chunks / free cores) chunks, both reckoned
        at the start of the step.  A retried chunk never joins a run."""
        assignments: list[tuple[str, TaskSpec, bool]] = []
        # the run just given: its set of running chunks (None where no chunk can join, as on a virtual
        # worker), its worker, chunks and events, and (job, file, end) of its last chunk
        share, run_chunks, run = 0, 0, None
        if join_runs and self._n_queued:
            free = sum(w.capacity for w in self.workers.values() if w.arrived)
            share = -(-self._n_queued // free) if free else 0
            run_worker, run_events, run_end = None, 0, None
        while self._queue:
            seq, chunk_id, job_id = self._queue[0]
            job = self.jobs[job_id]
            if chunk_id not in job.queued:
                heapq.heappop(self._queue)  # stale entry (completed elsewhere or re-pushed)
                continue
            chunk = job.chunks[chunk_id]
            if (
                run_chunks < share
                and run_end == (job_id, chunk.file, chunk.start)
                and run_events + chunk.len <= PASS_EVENTS
                and chunk_id not in job.retried
            ):
                worker = run_worker
                run.add((job_id, chunk_id))
                run_chunks, run_events = run_chunks + 1, run_events + chunk.len
                run_end = (job_id, chunk.file, chunk.start + chunk.len)
            else:
                worker = self._pop_free()
                if worker is None:
                    break
                if chunk_id in job.retried and worker.worker_id == job.retried[chunk_id][1]:
                    other = self._pop_free()  # a retry goes to another worker where one is free
                    if other is not None:
                        self._offer(worker)
                        worker = other
                worker.in_use += 1
                self._offer(worker)
                if share:  # else no chunk can join
                    run = {(job_id, chunk_id)}
                    run_worker, run_chunks, run_events = worker, 1, chunk.len
                    run_end = (job_id, chunk.file, chunk.start + chunk.len)
            heapq.heappop(self._queue)
            job.queued.remove(chunk_id)
            job.assigned[chunk_id] = worker.worker_id
            self._n_queued -= 1
            self._n_assigned += 1
            worker.running[job_id, chunk_id] = run
            self.events.append(TaskStreamEvent("TaskStart", worker.worker_id, chunk_id, now, job_id))
            spec = TaskSpec(job_id=job_id, chunk=chunk, pipeline=job.pipeline_spec)
            assignments.append((worker.worker_id, spec, run_chunks > 1))  # a run's second chunk on joins it
        return assignments

    def complete_task(self, worker_id: str, job_id: str, chunk_id: int, result: TaskResult, now: float) -> str:
        job = self.jobs.get(job_id)
        if job is None:
            raise SchedulerError(f"unknown job {job_id!r}")
        if chunk_id in job.done:
            log.info("duplicate completion for %s chunk %d ignored", job_id, chunk_id)
            return job.state
        owner = job.assigned.get(chunk_id)
        if owner != worker_id:
            raise SchedulerError(
                f"chunk {chunk_id} of {job_id} is not assigned to worker {worker_id!r}"
            )
        for h in result.histograms:  # before any change, so a mismatch changes nothing
            job.merged.get(h.name, h).check_spec(h)
        del job.assigned[chunk_id]
        self._n_assigned -= 1
        job.done.add(chunk_id)
        job.n_events_in += result.n_events_in
        job.n_events_pass += result.n_events_pass
        for h in result.histograms:
            if h.name in job.merged:
                job.merged[h.name].add(h)
            else:  # the job's own copy, which later results are added into
                job.merged[h.name] = replace(h, counts=h.counts.copy())
        self._release(worker_id, job_id, chunk_id, now)
        self.events.append(TaskStreamEvent("TaskEnd", worker_id, chunk_id, now, job_id))
        return job.settle(now)

    def fail_task(
        self, worker_id: str, job_id: str, chunk_id: int, reason: str, now: float, transient: bool = False
    ) -> str:
        """A task failed.  A transient failure queues the chunk again, up to
        TASK_RETRIES times, for a worker other than this one where another
        is free; any other failure fails the chunk."""
        job = self.jobs.get(job_id)
        if job is None:
            raise SchedulerError(f"unknown job {job_id!r}")
        if job.assigned.get(chunk_id) == worker_id:
            del job.assigned[chunk_id]
            self._n_assigned -= 1
            self._release(worker_id, job_id, chunk_id, now)
            retries = job.retried.get(chunk_id, (0, ""))[0]
            if transient and retries < TASK_RETRIES:
                job.retried[chunk_id] = (retries + 1, worker_id)
                job.queued.add(chunk_id)
                self._n_queued += 1
                heapq.heappush(self._queue, (job.seq, chunk_id, job_id))
                outcome = "retried"
            else:
                job.failed.add(chunk_id)
                job.error = job.error or reason
                outcome = "failed"
            self.events.append(TaskStreamEvent("TaskEnd", worker_id, chunk_id, now, f"{outcome}: {reason}"))
            log.warning("task %s/%d %s on %s: %s", job_id, chunk_id, outcome, worker_id, reason)
        return job.settle(now)

    def _release(self, worker_id: str, job_id: str, chunk_id: int, now: float) -> None:
        worker = self.workers.get(worker_id)
        if worker is not None:
            key = (job_id, chunk_id)
            if key in worker.running:
                run = worker.running.pop(key)
                if run is not None:
                    run.discard(key)
                if not run:  # the run's last chunk: its core is free
                    worker.in_use -= 1
            if not worker.running:
                worker.idle_since = now
            self._offer(worker)

    def record_scale_decision(self, target: int, queued: int, running: int, now: float) -> None:
        self.events.append(
            TaskStreamEvent(
                "ScaleDecision", "", None, now, f"target={target} queued={queued} running={running}"
            )
        )


class Autoscaler:
    """Drives worker supply toward the policy target on the facility's
    BatchSim, and is the one way a worker leaves the cluster.

    Both facilities build it with worker_spec(worker_id) -> JobSpec.  A
    request records the worker and submits its batch job in one call, so it
    has its batch handle at once; a refused submit (an expired batch token,
    say) drops it again and never raises out of tick, and no worker is
    requested until a back-off has passed: AUTOSCALE_INTERVAL, doubled with
    each further refusal up to SUBMIT_BACKOFF_MAX, and cleared by an
    accepted submit or by reset_backoff (renewed credentials).  Every departure
    (scale-down, a closed connection, a heartbeat timeout, a refused submit,
    a killed virtual worker) goes through drop_worker, which requeues the
    worker's chunks, records its WorkerDown, cancels its batch job and calls
    release(worker, now), if given: the live service closes its connection.
    Scale-down touches only workers with a batch job that are idle past the
    policy's idle_timeout; every worker counts as supply.
    """

    def __init__(self, state: ClusterState, policy: ScalePolicy, batch: BatchSim, worker_spec, release=None):
        self.state = state
        self.policy = policy
        self.batch = batch
        self.worker_spec = worker_spec  # (worker_id) -> JobSpec
        self.release = release
        self._last_target: int | None = None
        self._backoff = 0.0  # the wait after the last refused submit, 0 once one is accepted
        self._retry_at = -math.inf  # no worker is requested before then

    def _request_worker(self, now: float) -> bool:
        """Record a new worker and submit its batch job; False if the batch
        system refused it."""
        worker_id = self.state.expect_worker(now)
        spec = self.worker_spec(worker_id)
        try:
            self.state.workers[worker_id].batch_handle = self.batch.submit(spec, now)
        except (TokenError, BatchError) as exc:
            log.warning("batch submit for %s failed: %s", worker_id, exc)
            self.drop_worker(worker_id, now, f"batch submit failed: {exc}")
            self._backoff = min(max(2 * self._backoff, AUTOSCALE_INTERVAL), SUBMIT_BACKOFF_MAX)
            self._retry_at = now + self._backoff
            return False
        self._backoff = 0.0
        return True

    def reset_backoff(self) -> None:
        """The cluster's credentials were renewed: the next tick may request workers."""
        self._backoff, self._retry_at = 0.0, -math.inf

    def drop_worker(self, worker_id: str, now: float, reason: str) -> list[int]:
        """Remove a worker and end what it holds; the chunk ids requeued."""
        w = self.state.workers.get(worker_id)
        if w is None:
            return []
        requeued = self.state.remove_worker(worker_id, now, reason)
        if w.batch_handle is not None:
            self.batch.cancel(w.batch_handle, now)
        if self.release is not None:
            self.release(w, now)
        log.info("worker %s down (%s); %d chunks requeued", worker_id, reason, len(requeued))
        return requeued

    def tick(self, now: float) -> int:
        queued = self.state.total_queued()
        running = self.state.total_assigned()
        if self.policy.mode == "fixed":
            target = self.policy.fixed_n
        else:
            target = autoscale_target(queued, running, self.policy)
        if target != self._last_target:
            self.state.record_scale_decision(target, queued, running, now)
            self._last_target = target
        supply = self.state.n_supplied()
        if target > supply:
            for _ in range(target - supply):
                if now < self._retry_at or not self._request_worker(now):
                    break
        elif target < supply:
            spare = supply - target
            for worker_id in self.state.idle_workers(now, self.policy.idle_timeout)[:spare]:
                self.drop_worker(worker_id, now, "scaled down")
        return target
