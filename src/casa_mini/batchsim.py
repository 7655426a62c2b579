"""HTCondor-like batch system, simulated.

Worker jobs are admitted against a slot pool and start after a seeded delay:
the k-th submission of a wave (submissions landing in the same autoscale
tick) starts s0 + c*k after it arrived, so scale-up bursts stagger — the
linear-in-wave-index stall the benchmark measures.  The discrete-event core
is clock-agnostic: submit() schedules a start, advance(to) fires the starts
due, and after each operation the sim asks its driver's wake(t), once per
time, to advance it at its earliest pending start.  A BatchJob is the one
record of its job: its state and the times it was submitted, due to start,
started and ended.  No event scans the jobs: slots in use and committed are
counters each transition updates, and pending starts sit in a
(start_at, handle) heap whose entries are dropped once their job is no
longer Starting.

A JobSpec is a job's cores, its worker id and its batch token, which
submit() checks.  The batch system takes no requests from the network: each
cluster's autoscaler submits and cancels its workers' jobs in process.
BatchService drives a BatchSim on wall time, the virtual facility on its
own clock.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import random
from collections import deque
from dataclasses import dataclass

from . import tokens

QUEUED = "Queued"
STARTING = "Starting"
RUNNING = "Running"
CANCELLED = "Cancelled"
DONE = "Done"

DEFAULT_SLOTS = 200
WAVE_WINDOW = 1.0  # one autoscale evaluation tick


class BatchError(ValueError):
    pass


@dataclass
class DelayModel:
    s0: float = 2.0
    c: float = 1.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.s0 < 0 or self.c < 0:
            raise BatchError("delays must be non-negative")


@dataclass
class JobSpec:
    n_cores: int = 4
    worker_id: str = ""  # the worker a cluster's autoscaler asked for
    batch_token: str = ""

    def __post_init__(self):
        if self.n_cores <= 0:
            raise BatchError("n_cores must be positive")


@dataclass
class BatchJob:
    handle: int
    spec: JobSpec
    state: str
    submitted_at: float
    start_at: float | None = None
    started_at: float | None = None
    ended_at: float | None = None


class BatchSim:
    """Deterministic discrete-event core; single-threaded by construction."""

    def __init__(
        self,
        delay: DelayModel | None = None,
        slots: int = DEFAULT_SLOTS,
        batch_key: bytes | None = None,
        on_start=None,
        on_stop=None,
    ):
        self.delay = delay or DelayModel()
        self.total_slots = slots
        self.token_gate = tokens.TokenGate(batch_key, "batch") if batch_key is not None else None
        self.on_start = on_start  # fn(job, now)
        self.on_stop = on_stop  # fn(job, now)
        self.wake = None  # fn(t), set by the driver: call advance at time t
        self.jobs: dict[int, BatchJob] = {}
        self.clock = 0.0
        self._next_handle = 0
        self._rng = random.Random(self.delay.seed)
        self._wave_key: int | None = None
        self._wave_count = 0
        self._waiting: deque[int] = deque()  # queued handles, FIFO
        self._starts: list[tuple[float, int]] = []  # (start_at, handle) of Starting jobs
        self.in_use = 0  # jobs Running
        self.committed = 0  # jobs Starting or Running
        self._woken: set[float] = set()  # wake times not yet advanced past

    # ---- operations --------------------------------------------------------

    def submit(self, spec: JobSpec, now: float) -> int:
        if self.token_gate is not None:
            self.token_gate.check(spec.batch_token, now)
        self.clock = max(self.clock, now)
        self._next_handle += 1
        handle = self._next_handle
        job = BatchJob(handle=handle, spec=spec, state=QUEUED, submitted_at=now)
        self.jobs[handle] = job
        if self.committed < self.total_slots:
            self._schedule_start(job, now)
        else:
            self._waiting.append(handle)
        self._wake_next()
        return handle

    def _schedule_start(self, job: BatchJob, now: float) -> None:
        wave_key = math.floor(now / WAVE_WINDOW)
        if wave_key != self._wave_key:
            self._wave_key = wave_key
            self._wave_count = 0
        self._wave_count += 1
        delay = self.delay.s0 + self.delay.c * self._wave_count
        if self.delay.jitter:
            delay *= 1.0 + self.delay.jitter * self._rng.uniform(-1.0, 1.0)
        job.state = STARTING
        job.start_at = now + delay
        self.committed += 1
        heapq.heappush(self._starts, (job.start_at, job.handle))

    def _next_start(self) -> tuple[float, int] | None:
        """The earliest (start_at, handle) of a job still Starting."""
        while self._starts and self.jobs[self._starts[0][1]].state != STARTING:
            heapq.heappop(self._starts)  # cancelled before it started
        return self._starts[0] if self._starts else None

    def next_event_time(self) -> float | None:
        start = self._next_start()
        return start[0] if start else None

    def _wake_next(self) -> None:
        """Ask the driver, once per time, to advance at the earliest start."""
        t = self.next_event_time() if self.wake is not None else None
        if t is not None and t not in self._woken:
            self._woken.add(t)
            self.wake(t)

    def advance(self, to: float) -> None:
        """Start every job due to start by `to`, in time order."""
        if to < self.clock:
            raise BatchError(f"time cannot move backwards ({to} < {self.clock})")
        while (start := self._next_start()) is not None and start[0] <= to:
            heapq.heappop(self._starts)
            job = self.jobs[start[1]]
            self.clock = max(self.clock, job.start_at)
            self.in_use += 1
            job.state = RUNNING
            job.started_at = job.start_at
            if self.on_start is not None:
                self.on_start(job, job.start_at)
        self.clock = max(self.clock, to)
        self._woken = {t for t in self._woken if t > to}
        self._wake_next()

    def cancel(self, handle: int, now: float) -> str:
        job = self.jobs.get(handle)
        if job is None:
            raise BatchError(f"unknown job handle {handle}")
        self.clock = max(self.clock, now)
        if job.state in (CANCELLED, DONE):
            return job.state  # idempotent
        prev = job.state
        job.state = CANCELLED
        job.ended_at = now
        job.start_at = None
        if prev == QUEUED:
            self._waiting.remove(handle)
        else:
            self.committed -= 1
            if prev == RUNNING:
                self.in_use -= 1
        if prev == RUNNING and self.on_stop is not None:
            self.on_stop(job, now)
        self._promote_waiting(now)  # a no-op unless a slot was freed
        self._wake_next()
        return job.state

    def finish(self, handle: int, now: float) -> str:
        """A running worker exited on its own (shutdown or crash)."""
        job = self.jobs.get(handle)
        if job is None:
            raise BatchError(f"unknown job handle {handle}")
        if job.state != RUNNING:
            return job.state
        job.state = DONE
        job.ended_at = now
        self.in_use -= 1
        self.committed -= 1
        self._promote_waiting(now)
        self._wake_next()
        return job.state

    def _promote_waiting(self, now: float) -> None:
        while self._waiting and self.committed < self.total_slots:
            handle = self._waiting.popleft()
            self._schedule_start(self.jobs[handle], now)


class BatchService:
    """Drives a BatchSim on wall time: the sim's wake(t) becomes a loop timer
    that advances it at t, and close() cancels the timers still pending, so
    no job starts after it."""

    def __init__(self, sim: BatchSim, clock):
        self.sim = sim
        self.clock = clock
        self._timers: dict[float, asyncio.TimerHandle] = {}  # by wake time
        sim.wake = self._wake

    def close(self) -> None:
        self.sim.wake = None
        for timer in self._timers.values():
            timer.cancel()

    def _wake(self, t: float) -> None:
        self._timers[t] = asyncio.get_running_loop().call_later(t - self.clock(), self._advance, t)

    def _advance(self, t: float) -> None:
        self._timers.pop(t, None)
        # a timer may fire a little early, and a submit may have moved the sim's clock past t
        self.sim.advance(max(t, self.sim.clock))
