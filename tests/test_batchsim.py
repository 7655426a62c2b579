import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casa_mini.authd import FacilityKeys
from casa_mini.batchsim import (
    CANCELLED,
    QUEUED,
    RUNNING,
    STARTING,
    BatchError,
    BatchSim,
    DelayModel,
    JobSpec,
)
from casa_mini.tokens import TokenError, TokenWrongAudience, mint_token


def _keys():
    return FacilityKeys.generate()


def _spec(token=""):
    return JobSpec(worker_config={"worker_id": "w"}, batch_token=token)


def test_wave_start_times():
    sim = BatchSim(delay=DelayModel(s0=2.0, c=1.0))
    handles = [sim.submit(_spec(), now=0.0) for _ in range(3)]
    starts = [sim.jobs[h].start_at for h in handles]
    assert starts == [3.0, 4.0, 5.0]


def test_waves_reset_per_tick():
    sim = BatchSim(delay=DelayModel(s0=2.0, c=1.0))
    sim.submit(_spec(), now=0.0)
    sim.submit(_spec(), now=0.0)
    h = sim.submit(_spec(), now=1.0)  # next autoscale tick -> new wave, k=1
    assert sim.jobs[h].start_at == 1.0 + 2.0 + 1.0


def test_token_wrong_audience_rejected():
    keys = _keys()
    sim = BatchSim(batch_key=keys.batch)
    data_token = mint_token(keys.data, "alice", "data", exp=10_000)
    with pytest.raises(TokenError):
        sim.submit(_spec(data_token), now=0.0)
    # a data-audience token signed with the *batch* key fails on audience
    mixed = mint_token(keys.batch, "alice", "data", exp=10_000)
    with pytest.raises(TokenWrongAudience, match="wrong audience"):
        sim.submit(_spec(mixed), now=0.0)
    good = mint_token(keys.batch, "alice", "batch", exp=10_000)
    handle = sim.submit(_spec(good), now=0.0)
    assert sim.jobs[handle].state == STARTING


def test_pool_exhaustion_queues():
    sim = BatchSim(slots=2, delay=DelayModel(s0=1.0, c=0.0))
    h1 = sim.submit(_spec(), 0.0)
    h2 = sim.submit(_spec(), 0.0)
    h3 = sim.submit(_spec(), 0.0)
    assert sim.jobs[h3].state == QUEUED and sim.jobs[h3].start_at is None
    sim.advance(2.0)
    assert sim.jobs[h1].state == RUNNING and sim.jobs[h2].state == RUNNING
    assert sim.jobs[h3].state == QUEUED  # still no free slot
    sim.cancel(h1, 3.0)
    assert sim.jobs[h3].state == STARTING and sim.jobs[h3].start_at is not None
    sim.advance(sim.jobs[h3].start_at)
    assert sim.jobs[h3].state == RUNNING


def test_advance_fires_in_order_and_is_deterministic():
    def run():
        started = []
        sim = BatchSim(
            delay=DelayModel(s0=2.0, c=1.0, jitter=0.3, seed=42),
            on_start=lambda job, t: started.append((job.handle, t)),
        )
        for _ in range(5):
            sim.submit(_spec(), 0.0)
        sim.advance(100.0)
        return started, [(h, j.state, j.start_at, j.started_at, j.ended_at) for h, j in sim.jobs.items()]

    a_started, a_log = run()
    b_started, b_log = run()
    assert a_started == b_started
    assert a_log == b_log
    assert a_started == sorted(a_started, key=lambda x: x[1])


def test_advance_backwards_rejected():
    sim = BatchSim()
    sim.submit(_spec(), 5.0)
    sim.advance(10.0)
    with pytest.raises(BatchError, match="backwards"):
        sim.advance(9.0)


def test_cancel_queued_never_starts():
    started = []
    sim = BatchSim(slots=1, delay=DelayModel(s0=1.0, c=0.0), on_start=lambda job, t: started.append(job.handle))
    h1 = sim.submit(_spec(), 0.0)
    h2 = sim.submit(_spec(), 0.0)
    assert sim.jobs[h2].state == QUEUED
    sim.cancel(h2, 0.5)
    sim.advance(50.0)
    assert sim.jobs[h2].state == CANCELLED
    assert sim.jobs[h2].started_at is None
    assert started == [h1]


def test_cancel_running_frees_slot_and_signals():
    stopped = []
    sim = BatchSim(delay=DelayModel(s0=0.5, c=0.0), on_stop=lambda job, t: stopped.append(job.handle))
    h = sim.submit(_spec(), 0.0)
    sim.advance(1.0)
    assert sim.in_use == 1
    sim.cancel(h, 2.0)
    assert sim.in_use == 0
    assert stopped == [h]


def test_cancel_idempotent():
    sim = BatchSim(delay=DelayModel(s0=0.1, c=0.0))
    h = sim.submit(_spec(), 0.0)
    assert sim.cancel(h, 1.0) == CANCELLED
    before = (sim.jobs[h].ended_at, sim.committed, sim.in_use)
    assert sim.cancel(h, 2.0) == CANCELLED  # no-op returning the final state
    assert (sim.jobs[h].ended_at, sim.committed, sim.in_use) == before == (1.0, 0, 0)


def test_cancel_unknown_handle():
    sim = BatchSim()
    with pytest.raises(BatchError, match="unknown job handle"):
        sim.cancel(99, 0.0)


def _check_against_scans(sim):
    assert sim.in_use == sum(1 for j in sim.jobs.values() if j.state == RUNNING)
    assert sim.committed == sum(1 for j in sim.jobs.values() if j.state in (STARTING, RUNNING))
    starts = [j.start_at for j in sim.jobs.values() if j.state == STARTING]
    assert sim.next_event_time() == (min(starts) if starts else None)
    assert list(sim._waiting) == sorted(h for h, j in sim.jobs.items() if j.state == QUEUED)


def test_slot_accounting_matches_running():
    sim = BatchSim(slots=3, delay=DelayModel(s0=1.0, c=1.0))
    handles = [sim.submit(_spec(), 0.0) for _ in range(5)]
    _check_against_scans(sim)
    times = sorted({sim.jobs[h].start_at for h in handles if sim.jobs[h].start_at} | {6.0, 9.0})
    for t in times:
        sim.advance(t)
        assert sim.in_use == sum(1 for j in sim.jobs.values() if j.state == RUNNING)
        assert sim.in_use <= sim.total_slots
        _check_against_scans(sim)
    # every other transition: a worker exits, a Starting and a Running job are cancelled
    for op, handle, now in [
        (sim.finish, handles[0], 10.0),  # promotes handles[3]
        (sim.cancel, handles[3], 10.5),  # cancelled while Starting; promotes handles[4]
        (sim.cancel, handles[1], 11.0),
        (sim.advance, None, 20.0),
        (sim.finish, handles[2], 21.0),
        (sim.finish, handles[4], 22.0),
    ]:
        op(now) if handle is None else op(handle, now)
        _check_against_scans(sim)
    assert sim.committed == 0 and sim.next_event_time() is None


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["submit", "advance", "cancel", "finish"]), st.integers(0, 30)), max_size=60
    ),
    slots=st.integers(1, 4),
)
def test_counters_and_next_start_match_scans_under_jitter(ops, slots):
    woken = []
    sim = BatchSim(slots=slots, delay=DelayModel(s0=0.5, c=0.5, jitter=0.5, seed=3))
    sim.wake = woken.append
    now = 0.0
    for op, k in ops:
        now += k / 10
        if op == "submit":
            sim.submit(_spec(), now)
        elif op == "advance":
            sim.advance(now)
        elif sim.jobs:
            handle = 1 + k % len(sim.jobs)
            (sim.cancel if op == "cancel" else sim.finish)(handle, now)
        _check_against_scans(sim)
        # the earliest pending start, whatever op moved it, has been asked for exactly once
        if sim.next_event_time() is not None:
            assert woken.count(sim.next_event_time()) == 1


def test_wave_availability_invariant():
    # k-th worker of a simultaneous wave becomes available at exactly s0 + c*k
    sim = BatchSim(delay=DelayModel(s0=2.0, c=1.0))
    n = 7
    handles = [sim.submit(_spec(), 0.0) for _ in range(n)]
    sim.advance(50.0)
    for k, handle in enumerate(handles, start=1):
        assert sim.jobs[handle].started_at == 2.0 + 1.0 * k

