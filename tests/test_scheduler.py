import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casa_mini.batchsim import CANCELLED, STARTING, BatchSim, JobSpec
from casa_mini.bench import stall_report
from casa_mini.engine.hist import HistError, Histogram
from casa_mini.engine.pipeline import TaskResult
from casa_mini.scheduler.state import (
    AUTOSCALE_INTERVAL,
    SUBMIT_BACKOFF_MAX,
    Autoscaler,
    ClusterState,
    ScalePolicy,
    TASK_RETRIES,
    SchedulerError,
    autoscale_target,
    events_to_csv,
)
from casa_mini.tokens import mint_token
from casa_mini.types import PASS_EVENTS, DatasetSpec

PIPELINE = [{"hist": ["h", "pt", 2, 0, 10]}]


def _dataset(n_files=2, events=100):
    return (
        DatasetSpec(name="d", files=tuple(f"f{i}" for i in range(n_files)), n_events_total=n_files * events),
        [events] * n_files,
    )


def _submit(state, chunk_size=50, n_files=2, events=100):
    ds, epf = _dataset(n_files, events)
    return state.submit_job(PIPELINE, ds, chunk_size, now=0.0, events_per_file=epf)


def batch_worker(worker_id):
    return JobSpec(worker_id=worker_id)


def _result(chunk_id, n=50, counts=(1, 0)):
    h = Histogram(name="h", n_bins=2, lo=0.0, hi=10.0, counts=np.array(counts, dtype=np.uint64))
    h.n_filled = int(sum(counts))
    return TaskResult(chunk_id=chunk_id, n_events_in=n, n_events_pass=int(sum(counts)), histograms=[h])


def test_submit_benchmark_arithmetic():
    state = ClusterState()
    ds = DatasetSpec(name="bench", files=tuple(f"f{i}" for i in range(18)), n_events_total=450_000)
    job_id = state.submit_job(PIPELINE, ds, 5000, now=0.0, events_per_file=[25_000] * 18)
    assert len(state.jobs[job_id].queued) == 90


def test_submit_bad_pipeline_rejected():
    state = ClusterState()
    ds, epf = _dataset()
    with pytest.raises(Exception):
        state.submit_job([{"filter": "1"}], ds, 50, 0.0, events_per_file=epf)


def test_a_dataset_with_no_events_is_refused():
    state = ClusterState()
    ds = DatasetSpec(name="d", files=("root://o//a.cacf",), n_events_total=0)
    with pytest.raises(SchedulerError, match="no events"):
        state.submit_job(PIPELINE, ds, 10, 0.0, events_per_file=[0])
    for events in ([-5], [5, -5]):
        ds = DatasetSpec(name="d", files=tuple(f"f{i}" for i in range(len(events))), n_events_total=sum(events))
        with pytest.raises(ValueError, match="negative"):
            state.submit_job(PIPELINE, ds, 10, 0.0, events_per_file=events)
    assert state.jobs == {} and state.total_queued() == 0


def test_schedule_three_tasks_one_worker():
    state = ClusterState()
    ds, epf = _dataset(n_files=1, events=150)
    state.submit_job(PIPELINE, ds, 50, 0.0, events_per_file=epf)
    state.worker_arrived("w1", 1.0, n_cores=4)
    assignments = state.schedule_step(1.0)
    assert [w for w, _, _ in assignments] == ["w1", "w1", "w1"]
    assert len(state.workers["w1"].running) == 3


def test_schedule_tiebreak_lowest_worker_id():
    state = ClusterState()
    ds, epf = _dataset(n_files=1, events=50)
    state.submit_job(PIPELINE, ds, 50, 0.0, events_per_file=epf)
    state.worker_arrived("w2", 1.0, n_cores=4)
    state.worker_arrived("w1", 1.0, n_cores=4)
    assignments = state.schedule_step(1.0)
    assert assignments[0][0] == "w1"


def test_schedule_no_workers():
    state = ClusterState()
    _submit(state)
    assert state.schedule_step(1.0) == []


def test_schedule_fifo_across_jobs():
    state = ClusterState()
    j1 = _submit(state, chunk_size=100, n_files=1)  # 1 chunk
    j2 = _submit(state, chunk_size=100, n_files=1)
    state.worker_arrived("w1", 1.0, n_cores=1)
    ((_, first, _),) = state.schedule_step(1.0)
    assert first.job_id == j1
    state.complete_task("w1", j1, 0, _result(0, n=100), 2.0)
    ((_, second, _),) = state.schedule_step(2.0)
    assert second.job_id == j2


def test_respects_core_limit():
    state = ClusterState()
    _submit(state, chunk_size=10)  # 20 chunks
    state.worker_arrived("w1", 0.0, n_cores=4)
    assignments = state.schedule_step(0.0)
    assert len(assignments) == 4
    assert state.schedule_step(0.0) == []  # full


def test_complete_flow_and_merge():
    state = ClusterState()
    job_id = _submit(state, chunk_size=100, n_files=2)  # 2 chunks
    state.worker_arrived("w1", 0.0, n_cores=4)
    state.schedule_step(0.0)
    state.complete_task("w1", job_id, 0, _result(0, n=100, counts=(1, 2)), 1.0)
    assert state.jobs[job_id].state == "running"
    assert state.complete_task("w1", job_id, 1, _result(1, n=100, counts=(4, 8)), 2.0) == "done"
    job = state.jobs[job_id]
    assert job.finished_at == 2.0
    assert list(job.merged["h"].counts) == [5, 10]


def test_completions_merge_into_the_jobs_own_copy():
    state = ClusterState()
    job_id = _submit(state, chunk_size=100, n_files=2)  # 2 chunks
    state.worker_arrived("w1", 0.0, n_cores=4)
    state.schedule_step(0.0)
    first, second = _result(0, n=100, counts=(1, 2)), _result(1, n=100, counts=(4, 8))
    state.complete_task("w1", job_id, 0, first, 1.0)
    merged = state.jobs[job_id].merged["h"]
    assert merged is not first.histograms[0]
    state.complete_task("w1", job_id, 1, second, 2.0)
    assert state.jobs[job_id].merged["h"] is merged  # added into, not rebuilt
    assert (list(merged.counts), merged.n_filled) == ([5, 10], 15)
    assert list(first.histograms[0].counts) == [1, 2] and list(second.histograms[0].counts) == [4, 8]


def test_mismatched_histogram_spec_changes_nothing():
    state = ClusterState()
    job_id = _submit(state, chunk_size=100, n_files=2)  # 2 chunks
    state.worker_arrived("w1", 0.0, n_cores=4)
    state.schedule_step(0.0)

    def result(chunk_id, g_bins):
        r = _result(chunk_id, n=100, counts=(1, 2))
        r.histograms.append(Histogram(name="g", n_bins=g_bins, lo=0.0, hi=10.0))
        return r

    state.complete_task("w1", job_id, 0, result(0, 2), 1.0)
    job = state.jobs[job_id]
    before = {name: h.to_dict() for name, h in job.merged.items()}
    with pytest.raises(HistError, match="spec mismatch"):
        state.complete_task("w1", job_id, 1, result(1, 3), 2.0)  # "h" matches, "g" does not
    assert {name: h.to_dict() for name, h in job.merged.items()} == before
    assert (job.done, job.assigned, job.n_events_in) == ({0}, {1: "w1"}, 100)


def test_duplicate_completion_idempotent():
    state = ClusterState()
    job_id = _submit(state, chunk_size=100, n_files=1)
    state.worker_arrived("w1", 0.0, n_cores=4)
    state.schedule_step(0.0)
    state.complete_task("w1", job_id, 0, _result(0, n=100), 1.0)
    before = state.jobs[job_id].status()
    assert state.complete_task("w1", job_id, 0, _result(0, n=100), 2.0) == "done"
    assert state.jobs[job_id].status() == before
    assert state.jobs[job_id].n_events_in == 100  # not double-counted


def test_completion_from_wrong_worker_rejected():
    state = ClusterState()
    job_id = _submit(state, chunk_size=100, n_files=1)
    state.worker_arrived("w1", 0.0, n_cores=4)
    state.schedule_step(0.0)
    with pytest.raises(SchedulerError, match="not assigned"):
        state.complete_task("w9", job_id, 0, _result(0, n=100), 1.0)


def test_reap_requeues_running_chunks():
    state = ClusterState()
    job_id = _submit(state, chunk_size=100)  # 2 chunks
    state.worker_arrived("w1", 0.0, n_cores=4)
    state.schedule_step(0.0)
    assert len(state.jobs[job_id].assigned) == 2
    assert state.reap_lost_workers(now=20.0, timeout=10.0) == ["w1"]
    released = []
    scaler = Autoscaler(state, ScalePolicy(), BatchSim(), batch_worker, lambda w, now: released.append(w.worker_id))
    assert sorted(scaler.drop_worker("w1", 20.0, "heartbeat timeout")) == [0, 1]
    assert "w1" not in state.workers and released == ["w1"]
    assert state.events[-1].detail == "heartbeat timeout"
    assert state.jobs[job_id].queued == {0, 1}
    # a fresh worker picks the chunks back up
    state.worker_arrived("w2", 21.0, n_cores=4)
    assert len(state.schedule_step(21.0)) == 2


def test_reap_no_timeouts():
    state = ClusterState()
    state.worker_arrived("w1", 0.0, n_cores=4)
    state.heartbeat("w1", 5.0)
    assert state.reap_lost_workers(now=6.0, timeout=10.0) == []
    assert "w1" in state.workers


def test_a_second_hello_keeps_the_first_core_count():
    state = ClusterState()
    _submit(state)
    state.worker_arrived("w1", 0.0, n_cores=4)
    assert len(state.schedule_step(0.0)) == 4
    state.worker_arrived("w1", 1.0, n_cores=1)  # fewer cores than it has in use
    w = state.workers["w1"]
    assert (w.n_cores, w.in_use, w.capacity) == (4, 4, 0)


def test_requested_workers_not_assignable():
    state = ClusterState()
    _submit(state)
    state.expect_worker(0.0, worker_id="w1")
    assert state.schedule_step(0.0) == []  # requested but not arrived
    state.worker_arrived("w1", 3.0, n_cores=4)
    assert len(state.schedule_step(3.0)) == 4


def test_stall_fields():
    state = ClusterState()
    _submit(state)
    state.expect_worker(0.0, worker_id="w1")
    state.worker_arrived("w1", 3.0, n_cores=4)
    state.schedule_step(3.0)
    assert stall_report(events_to_csv(state.events)).rows == [("w1", 0.0, 3.0, 3.0)]


# ---- autoscale_target ---------------------------------------------------------


def test_autoscale_examples():
    policy = ScalePolicy(tasks_per_worker=4, n_min=0, n_max=50)
    assert autoscale_target(104, 0, policy) == 26
    assert autoscale_target(90, 0, policy) == 23
    assert autoscale_target(0, 0, policy) == 0


def test_autoscale_clamps():
    policy = ScalePolicy(tasks_per_worker=4, n_min=2, n_max=10)
    assert autoscale_target(0, 0, policy) == 2
    assert autoscale_target(1000, 0, policy) == 10


@settings(max_examples=200, deadline=None)
@given(
    q1=st.integers(min_value=0, max_value=10_000),
    q2=st.integers(min_value=0, max_value=10_000),
    r1=st.integers(min_value=0, max_value=1_000),
    r2=st.integers(min_value=0, max_value=1_000),
    rho=st.integers(min_value=1, max_value=32),
    n_min=st.integers(min_value=0, max_value=10),
    extra=st.integers(min_value=0, max_value=100),
)
def test_autoscale_monotone_and_bounded(q1, q2, r1, r2, rho, n_min, extra):
    policy = ScalePolicy(tasks_per_worker=rho, n_min=n_min, n_max=n_min + extra)
    lo = autoscale_target(min(q1, q2), min(r1, r2), policy)
    hi = autoscale_target(max(q1, q2), max(r1, r2), policy)
    assert lo <= hi  # monotone in pending work
    for t in (lo, hi):
        assert policy.n_min <= t <= policy.n_max


def test_autoscaler_requests_and_cancels():
    state = ClusterState()
    _submit(state, chunk_size=25)  # 8 chunks -> target 2 at rho 4
    batch = BatchSim()
    cancelled = []

    def release(w, now):  # the worker has left the state, and its batch job has ended, before it is released
        assert w.worker_id not in state.workers
        assert batch.jobs[w.batch_handle].state == CANCELLED
        cancelled.append(w.batch_handle)

    policy = ScalePolicy(mode="adaptive", tasks_per_worker=4, idle_timeout=5.0)
    scaler = Autoscaler(state, policy, batch, batch_worker, release)
    assert scaler.tick(0.0) == 2
    requested = list(state.workers)
    assert requested == ["w0001", "w0002"]
    # each requested worker has its batch job as the tick returns
    assert [state.workers[wid].batch_handle for wid in requested] == [1, 2]
    assert [(j.state, j.spec.worker_id) for j in batch.jobs.values()] == [
        (STARTING, "w0001"),
        (STARTING, "w0002"),
    ]
    # drain the queue, workers become idle, scale-down after idle_timeout
    for wid in requested:
        state.worker_arrived(wid, 1.0, n_cores=4)
    state.schedule_step(1.0)
    job = next(iter(state.jobs.values()))
    for chunk_id, wid in list(job.assigned.items()):
        state.complete_task(wid, job.job_id, chunk_id, _result(chunk_id, n=25), 2.0)
    scaler.tick(3.0)  # target 0 but nothing idle long enough
    assert cancelled == []
    scaler.tick(8.0)
    assert sorted(cancelled) == [1, 2]  # each worker's batch job
    assert state.workers == {} and batch.committed == 0
    assert [e.detail for e in state.events if e.kind == "WorkerDown"] == ["scaled down"] * 2


def test_scale_down_drops_only_workers_with_a_batch_job():
    """A worker that registered itself (a cluster's dedicated worker) counts
    as supply but is never scaled down, however long it idles; an idle
    worker the autoscaler requested from the batch system still is."""
    state = ClusterState()
    batch = BatchSim()
    state.worker_arrived("d1", 0.0, n_cores=4)
    state.expect_worker(0.0, worker_id="w1")
    state.workers["w1"].batch_handle = batch.submit(JobSpec(), 0.0)
    state.worker_arrived("w1", 0.0, n_cores=4)
    cancelled = []
    policy = ScalePolicy(mode="fixed", fixed_n=0, idle_timeout=0.5)
    scaler = Autoscaler(state, policy, batch, batch_worker, lambda w, now: cancelled.append(w.batch_handle))
    scaler.tick(10.0)
    assert cancelled == [1] and batch.jobs[1].state == CANCELLED and list(state.workers) == ["d1"]
    scaler.tick(20.0)
    assert list(state.workers) == ["d1"]
    assert [(e.worker_id, e.detail) for e in state.events if e.kind == "WorkerDown"] == [("w1", "scaled down")]
    policy.fixed_n = 1
    scaler.tick(30.0)
    assert list(batch.jobs) == [1]  # d1 is the one worker asked for


def test_a_refused_scale_out_backs_off_until_a_renewal():
    """An expired batch token, ticked once a second for two minutes: after
    each refused submit the autoscaler waits AUTOSCALE_INTERVAL, twice as
    long after each further refusal (1, 2, 4, ... s, at most
    SUBMIT_BACKOFF_MAX), so it asks 7 times, not 240 (two workers a tick).  After a renewal the
    next tick asks again, and an accepted submit clears the back-off."""
    key = b"k" * 32
    token = {"batch": mint_token(key, "alice", "batch", exp=-1.0)}
    batch = BatchSim(batch_key=key)
    state = ClusterState()
    policy = ScalePolicy(mode="fixed", fixed_n=2)

    def worker_spec(worker_id):
        return JobSpec(worker_id=worker_id, batch_token=token["batch"])

    scaler = Autoscaler(state, policy, batch, worker_spec)
    for now in range(120):
        scaler.tick(float(now))
    asked = [e.t for e in state.events if e.kind == "WorkerUp"]
    assert asked == [0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0]  # one worker per refused tick, then none until the wait ends
    assert state.workers == {} and batch.jobs == {}
    assert SUBMIT_BACKOFF_MAX == 64.0 and AUTOSCALE_INTERVAL == 1.0
    scaler.tick(126.0)  # inside the 64 s wait after the refusal at 63 s
    assert len(state.events) == len(asked) * 2 + 1  # a WorkerUp and a WorkerDown each, and one ScaleDecision
    token["batch"] = mint_token(key, "alice", "batch", exp=1e9)  # a re-login
    scaler.reset_backoff()
    scaler.tick(127.0)
    assert sorted(state.workers) == ["w0008", "w0009"] and len(batch.jobs) == 2
    token["batch"] = mint_token(key, "alice", "batch", exp=-1.0)
    policy.fixed_n = 3
    scaler.tick(128.0)  # refused again: the wait starts over at AUTOSCALE_INTERVAL
    scaler.tick(128.5)
    scaler.tick(129.0)
    assert [e.t for e in state.events if e.kind == "WorkerUp"][-2:] == [128.0, 129.0]


def test_events_csv_shape():
    state = ClusterState()
    _submit(state)
    state.worker_arrived("w1", 1.5, n_cores=4)
    state.schedule_step(1.5)
    text = events_to_csv(state.events)
    lines = text.splitlines()
    assert lines[0] == "kind,worker_id,chunk_id,t,detail"
    assert lines[1].startswith("WorkerUp,w1,,1.5")
    assert any(line.startswith("TaskStart,w1,0,1.5") for line in lines)


def test_fail_task_marks_failed():
    state = ClusterState()
    job_id = _submit(state, chunk_size=100, n_files=1)
    state.worker_arrived("w1", 0.0, n_cores=4)
    state.schedule_step(0.0)
    assert state.fail_task("w1", job_id, 0, "boom", 1.0) == "failed"
    assert state.jobs[job_id].failed == {0}


def test_a_transient_failure_requeues_its_chunk_on_another_worker():
    state = ClusterState()
    job_id = _submit(state, chunk_size=100, n_files=1)  # one chunk
    for worker_id in ("w1", "w2"):
        state.worker_arrived(worker_id, 0.0, n_cores=1)
    ran_on = [state.schedule_step(0.0)[0][0]]
    for t in (1.0, 2.0):
        assert state.fail_task(ran_on[-1], job_id, 0, "proxy connection lost", t, transient=True) == "running"
        _check_counters(state)
        ((worker_id, spec, _),) = state.schedule_step(t)
        assert spec.chunk.chunk_id == 0
        ran_on.append(worker_id)
    assert ran_on == ["w1", "w2", "w1"]  # each retry away from the worker that failed it
    # past TASK_RETRIES the chunk fails like any other failure
    assert state.fail_task("w1", job_id, 0, "proxy connection lost", 3.0, transient=True) == "failed"
    assert state.jobs[job_id].failed == {0} and state.total_queued() == state.total_assigned() == 0
    ends = [e.detail for e in state.events if e.kind == "TaskEnd"]
    assert ends == ["retried: proxy connection lost"] * TASK_RETRIES + ["failed: proxy connection lost"]


def test_a_transient_failure_retries_on_the_same_worker_when_no_other_is_free():
    state = ClusterState()
    job_id = _submit(state, chunk_size=100, n_files=1)
    state.worker_arrived("w1", 0.0, n_cores=1)
    state.schedule_step(0.0)
    state.fail_task("w1", job_id, 0, "origin connection lost", 1.0, transient=True)
    assert [(w, spec.chunk.chunk_id) for w, spec, _ in state.schedule_step(1.0)] == [("w1", 0)]
    assert state.complete_task("w1", job_id, 0, _result(0, n=100), 2.0) == "done"


# ---- the worker heap and the counters, against scans over every worker and job ----


def _check_counters(state):
    assert state.total_queued() == sum(len(j.queued) for j in state.jobs.values())
    assert state.total_assigned() == sum(len(j.assigned) for j in state.jobs.values())
    for w in state.workers.values():
        held = {(j.job_id, c) for j in state.jobs.values() for c, wid in j.assigned.items() if wid == w.worker_id}
        assert set(w.running) == held
        # a run's set holds exactly its running chunks; in_use counts the runs holding one
        runs = {id(run): run for run in w.running.values() if run is not None}
        assert all(run and all(w.running[key] is run for key in run) for run in runs.values())
        assert w.in_use == len(runs) + list(w.running.values()).count(None) <= w.n_cores


def _schedule_checked(state, now, join_runs=False):
    """schedule_step, with each choice checked against a scan over every
    worker: a chunk joins the run just given where join_runs lets it (same
    job and file, adjacent, within the step's share and PASS_EVENTS), and
    its entry says so; otherwise it starts a run, with a core of its own, on
    min(eligible, key=(cores in use, worker_id))."""
    in_use = {wid: w.in_use for wid, w in state.workers.items() if w.arrived}
    queued = state.total_queued()  # checked against the jobs by _check_counters
    free = sum(state.workers[wid].n_cores - n for wid, n in in_use.items())
    share = -(-queued // free) if join_runs and free else 0
    assignments = state.schedule_step(now, join_runs=join_runs)
    run = []  # the run just given, as (worker_id, chunk, job_id)
    for worker_id, spec, joins in assignments:
        chunk = spec.chunk
        last = run[-1][1] if run else None
        assert joins == (
            last is not None
            and len(run) < share
            and (spec.job_id, chunk.file, chunk.start) == (run[-1][2], last.file, last.start + last.len)
            and sum(c.len for _, c, _ in run) + chunk.len <= PASS_EVENTS
        )
        if joins:
            assert worker_id == run[-1][0]
            run.append((worker_id, chunk, spec.job_id))
            continue
        eligible = [wid for wid, n in in_use.items() if n < state.workers[wid].n_cores]
        assert worker_id == min(eligible, key=lambda wid: (in_use[wid], wid))
        in_use[worker_id] += 1
        run = [(worker_id, chunk, spec.job_id)]
    spare = sum(state.workers[wid].n_cores - n for wid, n in in_use.items())
    assert len(assignments) == queued or spare == 0  # stops only when out of tasks or cores
    assert all(state.workers[wid].in_use == n for wid, n in in_use.items())
    return assignments


OPS = st.sampled_from(["expect", "arrive", "schedule", "complete", "fail", "remove", "submit"])


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(st.tuples(OPS, st.integers(0, 5), st.integers(1, 4)), max_size=80), join_runs=st.booleans())
def test_worker_choice_matches_scan(ops, join_runs):
    state = ClusterState()
    _submit(state, chunk_size=10)  # 20 chunks
    now = 0.0
    for op, i, n in ops:
        now += 1.0
        worker_id = f"w{i}"
        tasks = sorted(
            (wid, job_id, chunk_id) for wid, w in state.workers.items() for job_id, chunk_id in w.running
        )
        if op == "expect" and worker_id not in state.workers:
            state.expect_worker(now, worker_id=worker_id)
        elif op == "arrive":
            state.worker_arrived(worker_id, now, n_cores=n)
        elif op == "schedule":
            _schedule_checked(state, now, join_runs)
        elif op in ("complete", "fail") and tasks:
            wid, job_id, chunk_id = tasks[(i * 7 + n) % len(tasks)]
            if op == "complete":
                state.complete_task(wid, job_id, chunk_id, _result(chunk_id, n=10), now)
            else:
                state.fail_task(wid, job_id, chunk_id, "boom", now)
        elif op == "remove":
            state.remove_worker(worker_id, now, "gone")
        elif op == "submit":
            _submit(state, chunk_size=25 * n)
        _check_counters(state)
    _schedule_checked(state, now + 1.0, join_runs)
    _check_counters(state)


def test_worker_heap_stays_bounded():
    # Jobs smaller than the free cores never drain the heap, so every
    # completion leaves one out-of-date entry behind until it is rebuilt.
    state = ClusterState()
    for k, n_cores in enumerate((1, 2, 4, 8)):
        state.worker_arrived(f"w{k}", 0.0, n_cores=n_cores)
    bound = 2 * len(state.workers)
    for cycle in range(10_000):
        now = float(cycle)
        job_id = _submit(state, chunk_size=50, n_files=1, events=50 * (1 + cycle % 3))
        assigned = _schedule_checked(state, now)
        assert len(state._free) <= bound
        for worker_id, spec, _ in assigned:
            state.complete_task(worker_id, job_id, spec.chunk.chunk_id, _result(spec.chunk.chunk_id), now)
            assert len(state._free) <= bound
    _check_counters(state)
    assert state.total_queued() == state.total_assigned() == 0


# ---- joined runs ----------------------------------------------------------------


def test_a_joined_run_ends_at_the_pass_bound_and_at_its_file():
    state = ClusterState()
    half = PASS_EVENTS // 2  # two chunks make one full pass
    ds = DatasetSpec(name="d", files=("f0", "f1"), n_events_total=6 * half)
    job_id = state.submit_job(PIPELINE, ds, half, now=0.0, events_per_file=[3 * half] * 2)  # chunks 0-2, 3-5
    state.worker_arrived("w1", 0.0, n_cores=1)
    w = state.workers["w1"]

    def step(now):
        ids = [spec.chunk.chunk_id for _, spec, _ in state.schedule_step(now, join_runs=True)]
        assert (w.in_use, w.capacity) == (1, 0)  # however long, the run takes the one core
        for chunk_id in ids:
            assert w.in_use == 1  # until the run's last chunk is released, its first one included
            state.complete_task("w1", job_id, chunk_id, _result(chunk_id, n=half), now)
        assert w.in_use == 0
        return ids

    # share 6/1 chunks: chunk 2 would take the run past PASS_EVENTS, chunk 3 is in another file
    assert [step(1.0), step(2.0), step(3.0), step(4.0)] == [[0, 1], [2], [3, 4], [5]]
    assert state.jobs[job_id].state == "done" and (w.running, w.in_use) == ({}, 0)
    # without join_runs, as in the virtual facility, each chunk takes a core
    job_id = state.submit_job(PIPELINE, ds, half, now=5.0, events_per_file=[3 * half] * 2)
    assert [spec.chunk.chunk_id for _, spec, _ in state.schedule_step(5.0)] == [0]


def _first_runs(sizes, done):
    """(job, chunk, joins) of the first join_runs step on a free 1-core
    worker, over jobs of sizes[j] 10-event chunks of one file, of which the
    (j, chunk) in `done` were done elsewhere and the rest queued again."""
    state = ClusterState()
    jobs = [_submit(state, chunk_size=10, n_files=1, events=10 * n) for n in sizes]
    state.worker_arrived("w0", 0.0, n_cores=sum(sizes))
    state.schedule_step(0.0)
    for j, chunk_id in done:
        state.complete_task("w0", jobs[j], chunk_id, _result(chunk_id, n=10), 0.0)
    state.remove_worker("w0", 0.0, "gone")
    state.worker_arrived("w1", 1.0, n_cores=1)
    return [(spec.job_id, spec.chunk.chunk_id, joins) for _, spec, joins in state.schedule_step(1.0, join_runs=True)]


def test_a_run_ends_at_a_gap_and_at_its_job():
    assert _first_runs([3], []) == [("job-0001", 0, False), ("job-0001", 1, True), ("job-0001", 2, True)]
    assert _first_runs([3], [(0, 1)]) == [("job-0001", 0, False)]  # chunk 2 does not continue chunk 0
    # chunk 1 of job 2 continues chunk 0 of job 1 in the file, but not in its job
    assert _first_runs([2, 2], [(0, 1), (1, 0)]) == [("job-0001", 0, False)]


def test_a_failed_job_ends_with_its_first_reason_and_time():
    state = ClusterState()
    job_id = _submit(state, chunk_size=50, n_files=1)  # 2 chunks
    state.worker_arrived("w1", 0.0, n_cores=4)
    state.schedule_step(0.0)
    assert state.fail_task("w1", job_id, 0, "chunk out of range", 1.0) == "running"
    assert state.jobs[job_id].finished_at is None
    assert state.complete_task("w1", job_id, 1, _result(1), 2.0) == "failed"
    status = state.jobs[job_id].status()
    assert (status["state"], status["finished_at"], status["error"]) == ("failed", 2.0, "chunk out of range")
