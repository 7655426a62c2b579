"""Where each layer is timed, and the per-layer metrics derived from a trace.

Every name is patched where its caller looks it up: module functions on
their module (`sim.run_pipeline` is imported into `casa_mini.sim` by name,
so it is patched there), methods on their class.  The worker subprocess
cannot be wrapped; its busy time comes from the scheduler's task stream.
"""

from __future__ import annotations

import functools

from spans import Tracer

# name -> (unit, better); the order is the order of the printed metrics
PER_LAYER = {
    "tokens.verify_calls": ("1/task", "lower"),
    "tokens.verify_s": ("s/job", "lower"),
    "data_proxy.fetch_calls": ("1/task", "lower"),
    "data_proxy.fetch_s": ("s/job", "lower"),
    "data_proxy.origin_fetches": ("1/job", "lower"),
    "data_proxy.cache_hits": ("1/job", "lower"),
    "data_proxy.hit_ratio": ("1", "higher"),
    "cacf.header_reads": ("1/task", "lower"),
    "cacf.header_s": ("s/job", "lower"),
    "cacf.read_chunk_s": ("s/job", "lower"),
    "engine.pipeline_s": ("s/job", "lower"),
    "engine.events_per_s": ("1/s", "higher"),
    "scheduler.assignments": ("1/job", "lower"),
    "scheduler.us_per_assignment": ("us", "lower"),
    "scheduler.schedule_step_s": ("s/job", "lower"),
    "scheduler.complete_task_s": ("s/job", "lower"),
    "scheduler.tick_s": ("s/job", "lower"),
    "batchsim.submits": ("1/job", "lower"),
    "batchsim.submit_s": ("s/job", "lower"),
    "batchsim.advance_s": ("s/job", "lower"),
    "batchsim.next_event_s": ("s/job", "lower"),
    "sim.loop_events": ("1/job", "lower"),
    "sim.self_s": ("s/job", "lower"),
    "authd.login_s": ("s/login", "lower"),
    "certs.mint_s": ("s/login", "lower"),
    "launcher.provision_s": ("s/login", "lower"),
    "worker.task_s": ("s/job", "lower"),
    "wire.messages": ("1/job", "lower"),
    "wire.bytes": ("B/job", "lower"),
    "trace.overhead": ("%", "lower"),
}


def _counting_reader(tracer: Tracer, read):
    def counted(offset: int, length: int) -> bytes:
        tracer.counts["cacf.header_reads"] += 1
        return read(offset, length)

    return counted


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points; tracer.uninstall() undoes it."""
    from casa_mini import authd, batchsim, cacf, certs, data_proxy, launcher, sim, tokens, wire
    from casa_mini.scheduler import state

    tracer.span(tokens, "verify_token", "tokens.verify")

    # Sync proxy (virtual workloads): hits and origin fetches are the change
    # of the proxy's own counters across each call.  The networked proxy
    # serves concurrent fetches, so live workloads add its counter deltas
    # per round instead.
    def sync_fetch(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            before = self.stats()
            try:
                return fn(self, *args, **kwargs)
            finally:
                after = self.stats()
                tracer.counts["data_proxy.cache_hits"] += after["cache_hits"] - before["cache_hits"]
                tracer.counts["data_proxy.origin_fetches"] += after["origin_fetches"] - before["origin_fetches"]

        return wrapper

    tracer.span(data_proxy.SyncDataProxy, "fetch", "data_proxy.fetch")
    tracer.wrap(data_proxy.SyncDataProxy, "fetch", sync_fetch)
    tracer.async_span(data_proxy.DataProxyServer, "fetch", "data_proxy.fetch")

    def header(fn):
        @functools.wraps(fn)
        def wrapper(read, *args, **kwargs):
            return fn(_counting_reader(tracer, read), *args, **kwargs)

        return wrapper

    tracer.wrap(cacf, "read_header", header)
    tracer.span(cacf, "read_header", "cacf.read_header")
    tracer.span(cacf, "read_chunk", "cacf.read_chunk")

    def pipeline_events(args, kwargs, result):
        tracer.counts["engine.events"] += result.n_events_in

    tracer.span(sim, "run_pipeline", "engine.pipeline", on_return=pipeline_events)

    def assignments(args, kwargs, result):
        tracer.counts["scheduler.assignments"] += len(result)

    tracer.span(state.ClusterState, "schedule_step", "scheduler.schedule_step", on_return=assignments)
    tracer.span(state.ClusterState, "complete_task", "scheduler.complete_task")
    tracer.span(state.ClusterState, "reap_lost_workers", "scheduler.tick")
    tracer.span(state.Autoscaler, "tick", "scheduler.tick")

    tracer.span(batchsim.BatchSim, "submit", "batchsim.submit")
    tracer.span(batchsim.BatchSim, "advance", "batchsim.advance")
    tracer.span(batchsim.BatchSim, "next_event_time", "batchsim.next_event_time")

    tracer.count(sim.VirtualLoop, "schedule_at", "sim.loop_events")
    tracer.span(sim.VirtualFacility, "run_job", "sim.run_job")

    tracer.span(authd.AuthService, "login", "authd.login")
    for name in ("make_ca", "make_host_cert", "make_user_cert"):
        tracer.span(certs, name, "certs.mint")
    tracer.async_span(launcher.Facility, "provision_cluster", "launcher.provision")

    def encode(fn):
        @functools.wraps(fn)
        def wrapper(msg):
            frame = fn(msg)
            tracer.counts["wire.messages"] += 1
            tracer.counts["wire.bytes"] += len(frame)
            return frame

        return wrapper

    def decode(fn):
        @functools.wraps(fn)
        def wrapper(payload):
            tracer.counts["wire.messages"] += 1
            tracer.counts["wire.bytes"] += len(payload) + 4  # with its length prefix
            return fn(payload)

        return wrapper

    tracer.wrap(wire, "encode", encode)
    tracer.wrap(wire, "decode", decode)


def metrics(tracer: Tracer, tasks: int, jobs: int, logins: int, overhead_pct: float) -> dict:
    """Per-layer metrics from the traced rounds: tasks, jobs and logins are
    what those rounds ran; worker busy seconds go in tracer.counts."""
    total, self_time, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts

    def per(value: float, n: int) -> float:
        return value / n if n else 0.0

    hits, misses = counts["data_proxy.cache_hits"], counts["data_proxy.origin_fetches"]
    values = {
        "tokens.verify_calls": per(calls["tokens.verify"], tasks),
        "tokens.verify_s": per(total["tokens.verify"], jobs),
        "data_proxy.fetch_calls": per(calls["data_proxy.fetch"], tasks),
        "data_proxy.fetch_s": per(total["data_proxy.fetch"], jobs),
        "data_proxy.origin_fetches": per(misses, jobs),
        "data_proxy.cache_hits": per(hits, jobs),
        "data_proxy.hit_ratio": per(hits, hits + misses),
        "cacf.header_reads": per(counts["cacf.header_reads"], tasks),
        "cacf.header_s": per(total["cacf.read_header"], jobs),
        "cacf.read_chunk_s": per(total["cacf.read_chunk"], jobs),
        "engine.pipeline_s": per(total["engine.pipeline"], jobs),
        "engine.events_per_s": per(counts["engine.events"], total["engine.pipeline"]),
        "scheduler.assignments": per(counts["scheduler.assignments"], jobs),
        "scheduler.us_per_assignment": 1e6 * per(total["scheduler.schedule_step"], counts["scheduler.assignments"]),
        "scheduler.schedule_step_s": per(total["scheduler.schedule_step"], jobs),
        "scheduler.complete_task_s": per(total["scheduler.complete_task"], jobs),
        "scheduler.tick_s": per(self_time["scheduler.tick"], jobs),
        "batchsim.submits": per(calls["batchsim.submit"], jobs),
        "batchsim.submit_s": per(total["batchsim.submit"], jobs),
        "batchsim.advance_s": per(self_time["batchsim.advance"], jobs),
        "batchsim.next_event_s": per(total["batchsim.next_event_time"], jobs),
        "sim.loop_events": per(calls["sim.loop_events"], jobs),
        "sim.self_s": per(self_time["sim.run_job"], jobs),
        "authd.login_s": per(total["authd.login"], logins),
        "certs.mint_s": per(total["certs.mint"], logins),
        "launcher.provision_s": per(total["launcher.provision"], logins),
        "worker.task_s": per(counts["worker.busy_s"], jobs),
        "wire.messages": per(counts["wire.messages"], jobs),
        "wire.bytes": per(counts["wire.bytes"], jobs),
        "trace.overhead": overhead_pct,
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
