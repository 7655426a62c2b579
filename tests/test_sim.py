import asyncio
import csv
import io
import os

import numpy as np
import pytest

from casa_mini import sim, worker
from casa_mini.bench import (
    BENCH_PIPELINE,
    BenchConfig,
    adaptive_policy,
    fixed_policy,
    job_sha256,
    make_context,
    make_facility,
    run_once,
    run_sweep,
)
from casa_mini.data_proxy import DataProxyServer, OriginServer, ProxyClient
from casa_mini.engine.hist import merge_histograms
from casa_mini.engine.pipeline import KernelPipeline, run_pipeline
from casa_mini.scheduler.state import events_to_csv
from casa_mini.sim import VirtualLoop
from casa_mini.types import PASS_EVENTS, DatasetSpec, FileChunk, TaskSpec, passes
from casa_mini.worker import DataPath, execute_run

from .conftest import local_files_for, run_async


def small_ctx(tmp_path, **overrides):
    cfg = BenchConfig(n_files=2, events_per_file=10_000, chunk_size=1000, **overrides)
    return cfg, make_context(cfg, str(tmp_path))


def test_virtual_loop_ordering_and_past_rejection():
    loop = VirtualLoop()
    seen = []
    loop.schedule_at(2.0, lambda: seen.append("b"))
    loop.schedule_at(1.0, lambda: seen.append("a"))
    loop.schedule_at(2.0, lambda: seen.append("c"))  # same time: insertion order
    loop.run()
    assert seen == ["a", "b", "c"]
    assert loop.now == 2.0
    with pytest.raises(ValueError):
        loop.schedule_at(1.0, lambda: None)


def test_one_header_read_per_file(tmp_path, monkeypatch):
    cfg, ctx = small_ctx(tmp_path)  # 2 files of 10 chunks each
    reads = []
    fetch = ctx.proxy.fetch

    def counted(path, ranges, *args):
        reads.append((path, [offset for offset, _ in ranges]))
        return fetch(path, ranges, *args)

    monkeypatch.setattr(ctx.proxy, "fetch", counted)
    job, _ = run_once(ctx, fixed_policy(3, cfg))
    assert job.state == "done"
    header_paths = sorted(path for path, offsets in reads if offsets == [0])
    assert header_paths == ["/store/bench/part00.cacf", "/store/bench/part01.cacf"]
    # apart from the headers, one request per file, for the pipeline's 3 input columns
    assert len(reads) == 2 + len(job.dataset.files)
    assert sorted(len(offsets) for _, offsets in reads) == [1, 1, 3, 3]


def test_each_job_pipeline_is_parsed_once(tmp_path, monkeypatch):
    cfg, ctx = small_ctx(tmp_path)
    parsed = []
    from_json = KernelPipeline.from_json.__func__

    def counting_from_json(cls, data):
        parsed.append(data)
        return from_json(cls, data)

    monkeypatch.setattr(KernelPipeline, "from_json", classmethod(counting_from_json))
    job, _ = run_once(ctx, fixed_policy(3, cfg))
    assert job.state == "done"
    assert parsed == [BENCH_PIPELINE]  # at submission; every file pass reuses it


def _record_passes(monkeypatch) -> list:
    """The chunk ids of every engine pass the virtual facility runs from now on."""
    passed = []

    def recording_run_pipeline(batch, pipeline, lengths=None, chunk_ids=None):
        passed.append(list(chunk_ids))
        return run_pipeline(batch, pipeline, lengths, chunk_ids)

    monkeypatch.setattr(sim, "run_pipeline", recording_run_pipeline)
    return passed


def test_one_engine_pass_per_file_gives_the_per_chunk_results(tmp_path, monkeypatch):
    cfg, ctx = small_ctx(tmp_path)  # 2 files of 10 chunks each
    passed = _record_passes(monkeypatch)
    job, facility = run_once(ctx, fixed_policy(3, cfg))
    assert job.state == "done"
    assert passed == [list(range(10)), list(range(10, 20))]
    assert facility._results == {} and facility._spans == {}  # dropped when run_job returns
    # the merged result equals per-chunk runs of the same chunks
    data = DataPath(ctx.proxy.fetch, ctx.data_token)
    pipeline = KernelPipeline.from_json(BENCH_PIPELINE)
    merged = {}
    for chunk in job.chunks.values():
        (alone,) = run_pipeline(data.read([chunk], pipeline), pipeline).results
        for h in alone.histograms:
            merged[h.name] = merge_histograms(merged[h.name], h) if h.name in merged else h
    assert {name: h.to_dict() for name, h in merged.items()} == {name: h.to_dict() for name, h in job.merged.items()}


def test_a_chunk_rerun_after_a_kill_reuses_its_pass(tmp_path, monkeypatch):
    cfg, ctx = small_ctx(tmp_path)
    passed = _record_passes(monkeypatch)
    job, facility = run_once(ctx, fixed_policy(3, cfg), kill_plan=[(5.0, "w0001")])
    assert job.state == "done"
    on_w1 = [e for e in facility.state.events if e.worker_id == "w0001"]
    lost = {e.chunk_id for e in on_w1 if e.kind == "TaskStart"} - {e.chunk_id for e in on_w1 if e.kind == "TaskEnd"}
    assert lost and lost <= job.done  # w0001 died holding them, and other workers ran them
    assert passed == [list(range(10)), list(range(10, 20))]  # from the passes already run


def test_a_pass_dropped_from_the_cache_runs_again_for_the_chunks_left(tmp_path, monkeypatch):
    cfg, ctx = small_ctx(tmp_path)
    kept, _ = run_once(ctx, fixed_policy(3, cfg))
    monkeypatch.setattr(sim, "PASS_CACHE", 0)  # every pass is dropped once its first result is handed out
    passed = _record_passes(monkeypatch)
    job, _ = run_once(ctx, fixed_policy(3, cfg))
    assert job.state == "done"
    assert sorted(map(tuple, passed)) == [tuple(range(10))] * 10 + [tuple(range(10, 20))] * 10  # a pass per task
    assert (job.n_events_in, job.n_events_pass) == (kept.n_events_in, kept.n_events_pass)
    assert {n: h.to_dict() for n, h in job.merged.items()} == {n: h.to_dict() for n, h in kept.merged.items()}


def test_passes_split_at_files_gaps_and_the_event_bound():
    a = [FileChunk("a", start, 1000, i) for i, start in enumerate(range(0, 5000, 1000))]
    gap = FileChunk("a", 6000, 1000, 5)
    b = [FileChunk("b", 0, PASS_EVENTS - 1, 6), FileChunk("b", PASS_EVENTS - 1, 2, 7), FileChunk("b", PASS_EVENTS + 1, 1, 8)]
    big = FileChunk("c", 0, 2 * PASS_EVENTS, 9)
    assert list(passes([*a, gap, *b, big])) == [tuple(a), (gap,), (b[0],), (b[1], b[2]), (big,)]


def _local_job(tmp_path):
    """A call that runs one job on a virtual facility over 2 local files of 10 chunks each."""
    cfg, ctx = small_ctx(tmp_path)
    files = tuple(local_files_for(ctx, str(tmp_path)))
    dataset = DatasetSpec(name=ctx.dataset.name, files=files, n_events_total=cfg.total_events)
    facility = make_facility(ctx, fixed_policy(3, cfg))
    return lambda: facility.run_job(BENCH_PIPELINE, dataset, cfg.chunk_size, ctx.events_per_file)


def test_each_local_file_is_opened_once_per_job(tmp_path, opened_paths):
    run_job = _local_job(tmp_path)
    opened_paths.clear()  # count only the job's own opens
    job = run_job()
    assert job.state == "done" and len(job.done) == 20
    assert sorted(p for p in opened_paths if p.endswith(".cacf")) == sorted(job.dataset.files)


def test_run_job_closes_every_file_it_opened(tmp_path):
    run_job = _local_job(tmp_path)
    baseline = len(os.listdir("/proc/self/fd"))
    assert run_job().state == "done"
    assert len(os.listdir("/proc/self/fd")) == baseline


def test_worker_and_virtual_facility_give_a_task_the_same_result(tmp_path):
    cfg, ctx = small_ctx(tmp_path)
    facility = make_facility(ctx, fixed_policy(1, cfg))
    job_id = facility.state.submit_job(BENCH_PIPELINE, ctx.dataset, cfg.chunk_size, 0.0, ctx.events_per_file)
    chunk = facility.state.jobs[job_id].chunks[13]
    assert chunk == FileChunk(file=ctx.dataset.files[1], start=3000, len=1000, chunk_id=13)
    spec = TaskSpec(job_id=job_id, chunk=chunk, pipeline=tuple(BENCH_PIPELINE))
    virtual = facility._execute(facility.state.jobs[job_id], 13)  # from the pass over the file's 10 chunks

    async def live():
        # the worker's own path: a networked proxy in front of the same files
        origin = OriginServer(str(tmp_path), ctx.proxy.origin.cred)
        proxy = DataProxyServer(await origin.start("127.0.0.1", 0), ctx.proxy.origin.cred, ctx.keys.data, clock=lambda: 0.0)
        proxy_client = ProxyClient(await proxy.start("127.0.0.1", 0))
        try:
            data = DataPath(proxy_client.fetch, ctx.data_token)
            (result,) = await asyncio.to_thread(execute_run, [spec], data)
            return result
        finally:
            proxy_client.close()
            await proxy.close()
            await origin.close()

    result = run_async(live())
    assert (result.chunk_id, result.n_events_in, result.n_events_pass) == (13, 1000, virtual.n_events_pass)
    assert 0 < result.t_start <= result.t_end
    assert 0 < virtual.n_events_pass < 1000
    assert [h.to_dict() for h in result.histograms] == [h.to_dict() for h in virtual.histograms]
    assert len(virtual.histograms) == len(BENCH_PIPELINE) - 2  # every hist step


def _two_file_job(tmp_path, pipeline=BENCH_PIPELINE, claimed=2600, local=False, complete=None):
    """A virtual job over two 2,000-event files in chunks of 500, whose
    manifest claims `claimed` events for the second (at 2,600, chunks 8 and 9
    lie past its end), its failed chunks' TaskEnd details, and the facility.
    complete(worker_id, chunk_id, result, now) sees every result the facility merges."""
    cfg = BenchConfig(n_files=2, events_per_file=2000, chunk_size=500)
    ctx = make_context(cfg, str(tmp_path))
    files = tuple(local_files_for(ctx, str(tmp_path))) if local else ctx.dataset.files
    dataset = DatasetSpec(name=ctx.dataset.name, files=files, n_events_total=2000 + claimed)
    facility = make_facility(ctx, fixed_policy(3, cfg))
    if complete is not None:
        merge = facility.state.complete_task

        def recording(worker_id, job_id, chunk_id, result, now):
            complete(worker_id, chunk_id, result, now)
            return merge(worker_id, job_id, chunk_id, result, now)

        facility.state.complete_task = recording
    job = facility.run_job(pipeline, dataset, cfg.chunk_size, [2000, claimed])  # raises for no chunk
    failed = {e.chunk_id: e.detail for e in facility.state.events if e.kind == "TaskEnd" and e.detail.startswith("failed")}
    return ctx, job, failed, facility


def test_chunks_past_the_end_of_a_file_fail_and_the_rest_of_the_job_is_merged(tmp_path):
    ctx, job, failed, _ = _two_file_job(tmp_path)
    assert job.state == "failed"
    assert job.failed == {8, 9} and job.done == set(range(8))
    assert failed == {
        8: "failed: chunk out of range: [2000, 2500) in a 2000-event file",
        9: "failed: chunk out of range: [2500, 2600) in a 2000-event file",
    }
    data = DataPath(ctx.proxy.fetch, ctx.data_token)
    pipeline = KernelPipeline.from_json(BENCH_PIPELINE)
    merged = {}
    for chunk_id in sorted(job.done):
        chunk = job.chunks[chunk_id]
        (alone,) = run_pipeline(data.read([chunk], pipeline), pipeline).results
        for h in alone.histograms:
            merged[h.name] = merge_histograms(merged[h.name], h) if h.name in merged else h
    assert {name: h.to_dict() for name, h in merged.items()} == {name: h.to_dict() for name, h in job.merged.items()}


def test_a_failed_job_reports_when_it_ended_and_why(tmp_path):
    """The stale-manifest job's status: `failed`, stamped at its last chunk's
    end, with the reason of its first failed chunk."""
    _, job, failed, facility = _two_file_job(tmp_path)
    ends = [e for e in facility.state.events if e.kind == "TaskEnd"]
    first_failure = next(e.detail for e in ends if e.detail.startswith("failed: "))
    status = job.status()
    assert (status["state"], status["finished_at"]) == ("failed", max(e.t for e in ends))
    assert status["error"] == first_failure.removeprefix("failed: ")
    assert status["error"].startswith("chunk out of range: ")


def test_a_pipeline_reading_a_missing_column_fails_every_chunk(tmp_path):
    pipeline = [*BENCH_PIPELINE, {"hist": ["h_mass", "mass", 10, 0, 100]}]
    _, job, failed, _ = _two_file_job(tmp_path, pipeline, claimed=2000)
    assert job.state == "failed" and job.failed == set(range(8)) and not job.done
    assert set(failed.values()) == {"failed: unknown column mass"}


def test_a_transient_task_error_retries_the_chunk(tmp_path, monkeypatch):
    """An engine pass over chunk 3 that loses its connection once: the chunk
    is retried, its retry runs the pass again, and the job merges as a clean one."""
    _, clean, _, _ = _two_file_job(tmp_path / "clean", claimed=2000)
    flaky = {3}

    def dropping_run_pipeline(batch, pipeline, lengths=None, chunk_ids=None):
        if flaky & set(chunk_ids):
            if chunk_ids == [3]:  # the chunk run alone, after its span's pass raised
                flaky.clear()
            raise ConnectionError("connection reset")
        return run_pipeline(batch, pipeline, lengths, chunk_ids)

    monkeypatch.setattr(sim, "run_pipeline", dropping_run_pipeline)
    _, job, failed, facility = _two_file_job(tmp_path / "flaky", claimed=2000)
    ends = [e.detail for e in facility.state.events if e.kind == "TaskEnd" and e.chunk_id == 3]
    assert ends == ["retried: connection reset", job.job_id]
    assert job.state == "done" and job.done == set(range(8)) and not failed
    assert {n: h.to_dict() for n, h in job.merged.items()} == {n: h.to_dict() for n, h in clean.merged.items()}


def test_live_worker_reports_what_the_virtual_facility_records(tmp_path):
    """The same chunks through a live WorkerAgent: a TaskFailed, not
    transient, for each chunk the virtual job failed, with the reason its
    TaskEnd gives, and a TaskDone result equal to each virtual one."""
    virtual, merged_by = {}, {}

    def complete(worker_id, chunk_id, result, now):
        virtual[chunk_id] = result
        merged_by[chunk_id] = (worker_id, now)

    _, job, failed, facility = _two_file_job(tmp_path, local=True, complete=complete)
    assert sorted(failed) == [8, 9] and sorted(virtual) == sorted(job.done)
    # each result is stamped with the start of its run on the timeline of
    # the worker its TaskEnd row names (its dispatch, or that worker's
    # previous TaskEnd if later) and its completion, and merged as that worker's
    started, free_at = {}, {}
    for e in facility.state.events:
        if e.kind == "TaskStart":
            started[e.chunk_id] = e.t
        elif e.kind == "TaskEnd":
            if e.chunk_id in virtual:
                r = virtual[e.chunk_id]
                assert (r.t_start, r.t_end) == (max(started[e.chunk_id], free_at.get(e.worker_id, 0.0)), e.t)
                assert merged_by[e.chunk_id] == (e.worker_id, r.t_end)
            free_at[e.worker_id] = e.t
    cfg = worker.WorkerConfig({"worker_id": "w1", "ingress": ["127.0.0.1", 1], "sni": "x", "ca": "c", "cert": "c", "key": "k"})
    agent = worker.WorkerAgent(cfg)  # local files, so no proxy
    sent = []

    async def send(*msgs):
        sent.extend(msgs)

    async def live():
        for span in passes(job.chunks.values()):  # the virtual facility's passes
            await agent._run([TaskSpec(job.job_id, chunk, tuple(BENCH_PIPELINE)) for chunk in span])

    agent._send = send
    try:
        run_async(live())
    finally:
        agent._pool.shutdown()
    reports = {msg.body["chunk_id"]: msg for msg in sent}
    assert sorted(reports) == list(range(10))
    refused = {c: msg.body for c, msg in reports.items() if msg.kind == "TaskFailed"}
    assert {c: f"failed: {body['reason']}" for c, body in refused.items()} == failed
    assert all(body["transient"] is False for body in refused.values())
    unstamped = {"t_start": 0.0, "t_end": 0.0}
    live_results = {c: msg.body["result"] | unstamped for c, msg in reports.items() if msg.kind == "TaskDone"}
    assert live_results == {c: r.to_dict() | unstamped for c, r in virtual.items()}


def test_single_worker_throughput_matches_rate(tmp_path):
    cfg, ctx = small_ctx(tmp_path)
    job, facility = run_once(ctx, fixed_policy(1, cfg))
    assert job.state == "done"
    rows = list(csv.DictReader(io.StringIO(events_to_csv(facility.state.events))))
    starts = [float(r["t"]) for r in rows if r["kind"] == "TaskStart"]
    ends = [float(r["t"]) for r in rows if r["kind"] == "TaskEnd"]
    busy = max(ends) - min(starts)
    throughput = cfg.total_events / busy
    assert throughput == pytest.approx(cfg.rate, rel=0.01)  # within 1%


def test_worker_never_exceeds_core_count(tmp_path):
    cfg, ctx = small_ctx(tmp_path)
    job, facility = run_once(ctx, fixed_policy(3, cfg))
    rows = list(csv.DictReader(io.StringIO(events_to_csv(facility.state.events))))
    running: dict[str, int] = {}
    for row in rows:
        if row["kind"] == "TaskStart":
            running[row["worker_id"]] = running.get(row["worker_id"], 0) + 1
            assert running[row["worker_id"]] <= cfg.n_cores
        elif row["kind"] == "TaskEnd":
            running[row["worker_id"]] -= 1


def test_chunk_exclusivity_from_stream(tmp_path):
    # no chunk ever runs on two workers at once
    cfg, ctx = small_ctx(tmp_path)
    job, facility = run_once(ctx, fixed_policy(4, cfg), kill_plan=[(6.0, "w0002")])
    rows = list(csv.DictReader(io.StringIO(events_to_csv(facility.state.events))))
    owner: dict[str, str] = {}
    for row in rows:
        if row["kind"] == "TaskStart":
            assert row["chunk_id"] not in owner, f"chunk {row['chunk_id']} double-assigned"
            owner[row["chunk_id"]] = row["worker_id"]
        elif row["kind"] == "TaskEnd":
            owner.pop(row["chunk_id"], None)
        elif row["kind"] == "WorkerDown":
            owner = {c: w for c, w in owner.items() if w != row["worker_id"]}


def test_kill_and_requeue_preserves_results(tmp_path):
    cfg, ctx = small_ctx(tmp_path)
    clean, _ = run_once(ctx, fixed_policy(3, cfg))
    injected, facility = run_once(ctx, fixed_policy(3, cfg), kill_plan=[(5.0, "w0001")])
    assert injected.state == "done"
    # a kill is a closed connection at the kill time, as in the live facility, not a heartbeat timeout
    downs = [(e.worker_id, e.t, e.detail) for e in facility.state.events if e.kind == "WorkerDown"]
    assert downs == [("w0001", 5.0, "connection closed")]
    for name in clean.merged:
        assert np.array_equal(clean.merged[name].counts, injected.merged[name].counts)
        assert clean.merged[name].n_filled == injected.merged[name].n_filled
    # the failure run takes longer than the clean one
    assert injected.finished_at > clean.finished_at


def _batch_start(facility, worker_id):
    """When the worker's batch job was due to start and when it started."""
    job = next(j for j in facility.batch.jobs.values() if j.spec.worker_id == worker_id)
    return job.start_at, job.started_at


def test_job_promoted_when_a_worker_dies_starts(tmp_path):
    # one slot: w0002 waits until w0001's process dies at t=4, then starts
    # s0 + c = 3 s later, without a later submit to wake the batch system
    cfg, ctx = small_ctx(tmp_path, slots=1)
    job, facility = run_once(ctx, fixed_policy(2, cfg), kill_plan=[(4.0, "w0001")])
    assert job.state == "done"
    assert _batch_start(facility, "w0002") == (7.0, 7.0)


def test_job_promoted_by_a_scale_down_cancel_starts(tmp_path):
    # one slot: at t=4 the cluster scales down to one worker by cancelling
    # w0001, whose slot goes to w0002; nothing is submitted after that
    cfg, ctx = small_ctx(tmp_path, slots=1)
    facility = make_facility(ctx, fixed_policy(2, cfg))

    def scale_down():
        facility.autoscaler.policy.fixed_n = 1
        facility.autoscaler.drop_worker("w0001", facility.loop.now, "scaled down")

    facility.loop.schedule_at(4.0, scale_down)
    job = facility.run_job(BENCH_PIPELINE, ctx.dataset, cfg.chunk_size, ctx.events_per_file, max_time=1000.0)
    assert job.state == "done"
    assert _batch_start(facility, "w0002") == (7.0, 7.0)
    assert len(facility.batch.jobs) == 2


def test_fixed_policy_replaces_dead_worker(tmp_path):
    cfg, ctx = small_ctx(tmp_path)
    job, facility = run_once(ctx, fixed_policy(2, cfg), kill_plan=[(5.0, "w0001")])
    assert job.state == "done"
    ups = [e for e in facility.state.events if e.kind == "WorkerUp"]
    assert len(ups) == 3  # two originals plus one replacement


def test_identical_runs_identical_streams(tmp_path):
    cfg, ctx = small_ctx(tmp_path)
    _, f1 = run_once(ctx, fixed_policy(5, cfg))
    _, f2 = run_once(ctx, fixed_policy(5, cfg))
    assert events_to_csv(f1.state.events) == events_to_csv(f2.state.events)


def test_scale_decision_events_present(tmp_path):
    cfg, ctx = small_ctx(tmp_path)
    _, facility = run_once(ctx, fixed_policy(2, cfg))
    decisions = [e for e in facility.state.events if e.kind == "ScaleDecision"]
    assert decisions and decisions[0].detail.startswith("target=2")


# SweepResult.sha256 of the seed-9 worker-scaling study, as
# tools/sim_digest.py prints it (sweep_sha256).
# Both hold only virtual times and counts, so the digest changes only when
# the published study's schedule does.
SEED_9_SWEEP_SHA256 = "f947e547b7a86030d6ce4293448d5e054e5ecce934f6cfae4de73ee12302db2f"


def test_the_published_sweep_keeps_its_schedule(tmp_path):
    result = run_sweep(BenchConfig(seed=9), str(tmp_path))
    assert len(result.streams) == 30  # 6 points of 5 runs
    assert result.sha256() == SEED_9_SWEEP_SHA256


# bench.job_sha256 of the seed-9 `wide` job, as tools/sim_digest.py prints it
# (wide_sha256): every one of its 1,200 workers goes through the scale-out
# request path, so the digest changes when that path's order of batch submits
# or task-stream rows does.
SEED_9_WIDE_SHA256 = "1ccf789791aa3f72c8e58e3dd286d3832a78103230bd24a35088fe19d313c115"


def test_the_wide_job_keeps_its_schedule(tmp_path):
    cfg = BenchConfig(
        seed=9, n_files=16, events_per_file=10000, chunk_size=100, tasks_per_worker=1, n_max=1200, dataset_name="wide"
    )
    ctx = make_context(cfg, str(tmp_path))
    dataset = DatasetSpec(name="wide", files=tuple(local_files_for(ctx, str(tmp_path))), n_events_total=cfg.total_events)
    facility = make_facility(ctx, adaptive_policy(cfg))
    job = facility.run_job(BENCH_PIPELINE, dataset, cfg.chunk_size, ctx.events_per_file)
    assert job.state == "done"
    assert len(facility.batch.jobs) == 1200
    assert job_sha256(job, facility.state.events) == SEED_9_WIDE_SHA256
