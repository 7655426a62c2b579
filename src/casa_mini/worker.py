"""Worker agent: joins its cluster over mTLS, executes assigned tasks.

Runs as `run(config)` in a process forked by the facility's zygote
(`casa_mini.zygote`), whose fork request carries the config the facility
built from the worker's cluster; nothing reads a worker config from a file.
The scheduler sends one AssignTask per dispatch: each job's pipeline once
and every run of tasks that dispatch gave this worker (adjacent chunks of one
file of one job, one core each).  The worker runs each run as sent through
`run_span`, as the virtual facility does (one read of its span, one segmented
engine pass), on one of its task threads, one per logical core, so heartbeats
keep flowing.  The WorkerHello says the worker's cores (its task threads),
and from then on the connection names the worker to the scheduler, so no
report carries its id.  Each task gets its own TaskDone, or a TaskFailed
whose reason and transience come from `task_failure`.
Reports get no reply unless the scheduler refuses one, with an Err the
worker logs.  A task's chunk reaches its pipeline through DataPath, which
the virtual facility (`sim`) uses too: remote files come from the caching
proxy with the data token the last AssignTask carried (the config holds
none), over one kept connection per task thread; the reader and header of
every file read and each distinct pipeline compiled are kept while it
runs.
"""

from __future__ import annotations

import asyncio
import json
import logging
import resource
import ssl
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from . import cacf, wire
from .data_proxy import OriginUnavailable, ProxyClient, ProxyError, parse_remote_url, range_reader
from .engine.pipeline import KernelPipeline, TaskResult, run_pipeline
from .tokens import TokenError
from .types import ColumnBatch, FileChunk, TaskSpec, assigned

log = logging.getLogger(__name__)

RETRIES = 3
RETRY_DELAY = 0.5
# Files (reader and header) a worker keeps, least recently used dropped first; a local
# file's reader holds a descriptor, so they take at most a quarter of the process's limit.
_NOFILE = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
HEADER_CACHE_FILES = 4096 if _NOFILE == resource.RLIM_INFINITY else min(4096, _NOFILE // 4)
PIPELINE_CACHE_SPECS = 64  # distinct pipeline specs a worker keeps compiled, likewise
HEARTBEAT_INTERVAL = 2.0
# Failures a retry may not meet, reported as transient in TaskFailed: the
# proxy or its origin could not be reached.
TRANSIENT_ERRORS = (ConnectionError, TimeoutError, OriginUnavailable)


class WorkerConfig:
    def __init__(self, raw: dict):
        self.worker_id = raw.get("worker_id")
        self.ingress = (raw["ingress"][0], int(raw["ingress"][1]))
        self.sni = raw["sni"]
        self.ca = raw["ca"]
        self.cert = raw["cert"]
        self.key = raw["key"]
        self.proxy = (raw["proxy"][0], int(raw["proxy"][1])) if raw.get("proxy") else None
        self.n_cores = int(raw.get("n_cores", 4))
        for name in ("ca", "cert", "key"):
            if not getattr(self, name):
                raise ValueError(f"worker config missing credential {name!r}")
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")


class DataPath:
    """The one way from a TaskSpec to its compiled pipeline and its columns,
    kept across tasks; the live worker and the virtual facility each keep one.
    Both read the columns of a span of adjacent chunks of one file at a time.

    A root:// chunk is read through a proxy's `fetch(path, ranges, token)`
    with `token` as it is at each fetch (`data_proxy.range_reader`); with no
    `fetch`, it is refused rather than looked for on local disk.  A local
    path is read from local disk.  Each file's reader (a local one holds
    the file's descriptor until no task reads through it) and CACF
    header are kept, at most HEADER_CACHE_FILES of them: dataset files are
    immutable, as the proxy's block cache also assumes.  Each distinct
    pipeline is parsed and compiled once and kept by its spec, so jobs that
    run the same pipeline share one, at most PIPELINE_CACHE_SPECS of them.
    """

    def __init__(self, fetch: Callable[[str, list[tuple[int, int]], str], list[bytes]] | None, token: str = ""):
        self.fetch = fetch
        self.token = token
        self._lock = threading.Lock()
        self._files: OrderedDict[str, tuple[cacf.RangesReader, cacf.CacfHeader]] = OrderedDict()
        self._pipelines: OrderedDict[str, KernelPipeline] = OrderedDict()

    def reader(self, url: str) -> cacf.RangesReader:
        remote = parse_remote_url(url)
        if remote is None:
            return cacf.local_range_reader(url)
        if self.fetch is None:
            raise ProxyError(f"no data proxy to read {url}")
        return range_reader(lambda path, ranges, _: self.fetch(path, ranges, self.token), remote.path, "")

    def _cached(self, cache: OrderedDict, key: str, make, limit: int):
        """cache[key], made by make(key) on a miss; least recently used dropped past limit."""
        with self._lock:
            value = cache.get(key)
            if value is not None:
                cache.move_to_end(key)
                return value
        value = make(key)
        with self._lock:
            cache[key] = value
            if len(cache) > limit:
                cache.popitem(last=False)
        return value

    def pipeline(self, spec: TaskSpec) -> KernelPipeline:
        """The task's compiled pipeline."""
        key = json.dumps(spec.pipeline, sort_keys=True)
        return self._cached(
            self._pipelines, key, lambda _: KernelPipeline.from_json(list(spec.pipeline)), PIPELINE_CACHE_SPECS
        )

    def read(self, span: Sequence[FileChunk], pipeline: KernelPipeline) -> ColumnBatch:
        """The columns the pipeline reads of a span of adjacent chunks of one
        file (one engine pass), in one vectored read; ValueError for a span
        that is not."""
        first = span[0]
        for prev, chunk in zip(span, span[1:]):
            if chunk.file != first.file or chunk.start != prev.start + prev.len:
                raise ValueError(f"chunks {prev.chunk_id} and {chunk.chunk_id} are not adjacent chunks of one file")
        whole = FileChunk(file=first.file, start=first.start, len=sum(c.len for c in span), chunk_id=first.chunk_id)
        read, header = self._cached(self._files, first.file, self._open, HEADER_CACHE_FILES)
        return cacf.read_chunk(read, whole, sorted(pipeline.input_columns()), header=header)

    def _open(self, url: str) -> tuple[cacf.RangesReader, cacf.CacfHeader]:
        read = self.reader(url)
        return read, cacf.read_header(cacf.one_range(read))

    def close(self) -> None:
        """Drop every kept file, which a task still reading it closes when done."""
        self._files = OrderedDict()  # a _cached call in flight keeps the old map


def run_span(
    span: Sequence[FileChunk], pipeline: KernelPipeline, data: DataPath, engine
) -> list[TaskResult | Exception]:
    """Each chunk's result or error, in order, from one read of a span of
    adjacent chunks of one file and one segmented pass of `engine`, the
    caller's run_pipeline.  A pass that raises is run again chunk by chunk,
    so each chunk ends as it would alone."""
    try:
        return engine(data.read(span, pipeline), pipeline, [c.len for c in span], [c.chunk_id for c in span]).results
    except Exception as exc:
        if len(span) == 1:
            return [exc]
    return [outcome for chunk in span for outcome in run_span([chunk], pipeline, data, engine)]


def task_failure(exc: Exception) -> tuple[str, bool]:
    """A failed task's reason, and whether a retry on another worker may succeed."""
    reason = f"data token rejected: {exc}" if isinstance(exc, TokenError) else str(exc)
    return reason, isinstance(exc, TRANSIENT_ERRORS)


def execute_run(specs: Sequence[TaskSpec], data: DataPath) -> list[TaskResult | Exception]:
    """run_span's outcomes for a run of tasks, each result stamped with the run's times."""
    t_start = time.time()
    try:
        outcomes = run_span([spec.chunk for spec in specs], data.pipeline(specs[0]), data, run_pipeline)
    except Exception as exc:  # the job's pipeline does not compile
        return [exc] * len(specs)
    t_end = time.time()
    for result in [outcome for outcome in outcomes if isinstance(outcome, TaskResult)]:
        result.t_start, result.t_end = t_start, t_end
    return outcomes


class WorkerAgent:
    def __init__(self, cfg: WorkerConfig):
        self.cfg = cfg
        self.worker_id = cfg.worker_id or ""
        self._pool = ThreadPoolExecutor(max_workers=cfg.n_cores, thread_name_prefix="task")
        self._proxy = ProxyClient(cfg.proxy) if cfg.proxy else None
        self._data = DataPath(self._proxy.fetch if self._proxy else None)
        self._tasks = wire.BackgroundTasks()
        self._send_lock = asyncio.Lock()
        self._writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        reader, writer = await asyncio.open_connection(
            *self.cfg.ingress,
            ssl=wire.client_ssl_context(self.cfg.ca, self.cfg.cert, self.cfg.key),
            server_hostname=self.cfg.sni,
        )
        await wire.send_message(
            writer,
            wire.WireMessage("WorkerHello", {"worker_id": self.worker_id or None, "n_cores": self.cfg.n_cores}),
        )
        return reader, writer

    async def _send(self, *msgs: wire.WireMessage) -> None:
        """Send the messages in one write."""
        async with self._send_lock:
            self._writer.write(b"".join(map(wire.encode, msgs)))
            await self._writer.drain()

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(HEARTBEAT_INTERVAL)
            await self._send(wire.WireMessage("Heartbeat", {}))

    def _assign(self, body: dict) -> None:
        """Start an AssignTask's runs, each as sent on its own task thread, with its data token."""
        self._data.token = body["token"]
        for run in assigned(body):
            self._tasks.spawn(self._run(run))

    async def _run(self, specs: Sequence[TaskSpec]) -> None:
        """Run one run of tasks on a task thread and report each task."""
        loop = asyncio.get_running_loop()
        outcomes = await loop.run_in_executor(self._pool, execute_run, specs, self._data)
        reports = []
        for spec, outcome in zip(specs, outcomes):
            reply = {"job_id": spec.job_id, "chunk_id": spec.chunk.chunk_id}
            if isinstance(outcome, TaskResult):
                reports.append(wire.WireMessage("TaskDone", {**reply, "result": outcome.to_dict()}))
                continue
            reason, transient = task_failure(outcome)
            reports.append(wire.WireMessage("TaskFailed", {**reply, "reason": reason, "transient": transient}))
        await self._send(*reports)

    async def _session(self, reader: asyncio.StreamReader) -> None:
        heartbeat = self._tasks.spawn(self._heartbeat_loop())
        try:
            while True:
                msg = await wire.read_message(reader)
                if msg.kind == "Ok":  # the reply to WorkerHello
                    self.worker_id = msg.body["worker_id"]
                elif msg.kind == "AssignTask":
                    self._assign(msg.body)
                elif msg.kind == "Err":
                    log.warning("scheduler error: %s", msg.body)
        finally:
            heartbeat.cancel()

    async def run(self) -> int:
        try:
            return await self._serve()
        finally:
            await self._tasks.close()
            self._data.close()
            if self._proxy is not None:
                self._proxy.close()
            self._pool.shutdown(wait=False, cancel_futures=True)

    async def _serve(self) -> int:
        while True:
            conn = None
            for attempt in range(1, RETRIES + 1):
                try:
                    conn = await self._connect()
                    break
                except (ConnectionError, OSError, ssl.SSLError) as exc:
                    log.warning("connect attempt %d/%d failed: %s", attempt, RETRIES, exc)
                    await asyncio.sleep(RETRY_DELAY)
            if conn is None:
                log.error("giving up after %d connection attempts", RETRIES)
                return 1
            reader, writer = conn
            self._writer = writer
            try:
                await self._session(reader)
            except (asyncio.IncompleteReadError, ConnectionError, ssl.SSLError) as exc:
                log.warning("scheduler connection lost: %s; reconnecting", exc)
                await asyncio.sleep(RETRY_DELAY)
            finally:
                writer.close()


def run(config: dict) -> int:
    """Run a worker with `config` until it gives up on its scheduler; its exit code."""
    logging.basicConfig(level=logging.INFO, format="%(asctime)s worker %(message)s")
    return asyncio.run(WorkerAgent(WorkerConfig(config)).run())

