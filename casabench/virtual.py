"""The virtual-clock workloads: `sweep` and `wide`.

Both run in this process through casa_mini's own harness (`casa_mini.bench`)
and virtual facility (`casa_mini.sim`).  Wall time is what is measured; the
virtual clock only decides the order of events.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import replace

from casa_mini import bench, sim
from casa_mini.types import DatasetSpec

import layers
import reference
from harness import Run, check, local_paths


class _JobRecorder:
    """Records the wall-clock span of every VirtualFacility.run_job call.

    run_sweep creates its facilities internally; this is the one place its
    jobs, their timing and their merged histograms can be seen from outside.
    """

    def __init__(self):
        self.original = sim.VirtualFacility.run_job
        self.jobs: list[tuple[float, float, object]] = []  # (start, end, job)

    def __enter__(self):
        original, jobs = self.original, self.jobs

        def run_job(facility, *args, **kwargs):
            start = time.perf_counter()
            job = original(facility, *args, **kwargs)
            jobs.append((start, time.perf_counter(), job))
            return job

        sim.VirtualFacility.run_job = run_job
        return self

    def __exit__(self, *exc):
        sim.VirtualFacility.run_job = self.original


def _check_job(run: Run, job, want: reference.Expected) -> None:
    run.attempted += 1
    if job.state != "done":
        run.failed += 1
        return
    want.check(job.n_events_in, job.n_events_pass, reference.histograms_of(job.merged))


def run_sweep(run: Run) -> None:
    """The shipped worker-scaling study, run_sweep(BenchConfig()), with the
    dataset seed taken from the run."""
    check(bench.BENCH_PIPELINE == reference.PIPELINE, "bench.BENCH_PIPELINE is not the reference pipeline")
    cfg = bench.BenchConfig(seed=run.seed)
    if run.quick:
        cfg = replace(cfg, sweep=(2, 4), repeats=2)
    for _ in range(run.setups):
        run.calibrate()
        root = run.fresh_dir()
        start = time.perf_counter()
        ctx = bench.make_context(cfg, root)
        run.setup_s.append(time.perf_counter() - start)
    want = reference.expected(local_paths(root, ctx.dataset.files), cfg.chunk_size)
    per_sweep = len(cfg.sweep) * cfg.repeats

    with _JobRecorder() as recorder:
        started, rounds = time.perf_counter(), 0
        while run.keep_going(started, rounds):
            traced = run.traced_round(rounds)
            recorder.jobs.clear()
            if traced:
                layers.install(run.tracer)
            start = time.perf_counter()
            try:
                result = bench.run_sweep(cfg, root)
            finally:
                end = time.perf_counter()
                run.tracer.uninstall()
            rounds += 1
            jobs = list(recorder.jobs)
            check(len(jobs) == per_sweep, f"run_sweep ran {len(jobs)} jobs through run_job, expected {per_sweep}")
            for _, _, job in jobs:
                _check_job(run, job, want)
            check([p.n for p in result.points] == list(cfg.sweep), "sweep points differ from the configured sweep")
            for point in result.points:
                oracle = bench.oracle_throughput(point.n, cfg)
                check(
                    abs(point.mean_hz / oracle - 1.0) <= 0.10,
                    f"n={point.n}: virtual throughput {point.mean_hz:.1f} outside 10% of oracle {oracle:.1f}",
                )
            run.rates.append((traced, cfg.total_events * len(jobs) / (end - start)))
            if traced:
                run.traced_jobs += len(jobs)
                run.traced_tasks += sum(len(job.chunks) for _, _, job in jobs)
            else:
                run.first_result_s.append(jobs[0][1] - start)
                run.job_s.extend(job_end - job_start for job_start, job_end, _ in jobs)


def wide_config(run: Run) -> bench.BenchConfig:
    if run.quick:
        return bench.BenchConfig(
            seed=run.seed, n_files=2, events_per_file=5000, chunk_size=100,
            tasks_per_worker=1, n_max=80, dataset_name="wide",
        )
    return bench.BenchConfig(
        seed=run.seed, n_files=16, events_per_file=10000, chunk_size=100,
        tasks_per_worker=1, n_max=1200, dataset_name="wide",
    )


def _check_stream(events, n_chunks: int, first_target: int) -> None:
    ends = Counter(e.chunk_id for e in events if e.kind == "TaskEnd")
    check(
        sorted(ends) == list(range(n_chunks)) and set(ends.values()) == {1},
        "a chunk did not end exactly once in the task stream",
    )
    check(
        not any(e.kind == "TaskEnd" and e.detail.startswith("failed") for e in events),
        "a task failed",
    )
    decisions = [e.detail for e in events if e.kind == "ScaleDecision"]
    check(
        bool(decisions) and decisions[0].startswith(f"target={first_target} "),
        f"first scale decision {decisions[:1]}, expected target={first_target}",
    )


def run_wide(run: Run) -> None:
    """One virtual cluster under the adaptive policy with many hundreds of
    requested workers; small chunks over local paths."""
    cfg = wide_config(run)
    for _ in range(run.setups):
        run.calibrate()
        root = run.fresh_dir()
        start = time.perf_counter()
        ctx = bench.make_context(cfg, root)
        paths = local_paths(root, ctx.dataset.files)
        dataset = DatasetSpec(name=cfg.dataset_name, files=tuple(paths), n_events_total=cfg.total_events)
        run.setup_s.append(time.perf_counter() - start)
    want = reference.expected(paths, cfg.chunk_size)
    n_chunks = sum(math.ceil(n / cfg.chunk_size) for n in ctx.events_per_file)
    first_target = min(cfg.n_max, math.ceil(n_chunks / cfg.tasks_per_worker))

    started, rounds = time.perf_counter(), 0
    while run.keep_going(started, rounds):
        traced = run.traced_round(rounds)
        if traced:
            layers.install(run.tracer)
        start = time.perf_counter()
        try:
            facility = bench.make_facility(ctx, bench.adaptive_policy(cfg))
            job_start = time.perf_counter()
            job = facility.run_job(reference.PIPELINE, dataset, cfg.chunk_size, ctx.events_per_file)
        finally:
            end = time.perf_counter()
            run.tracer.uninstall()
        rounds += 1
        _check_job(run, job, want)
        _check_stream(facility.state.events, n_chunks, first_target)
        run.rates.append((traced, cfg.total_events / (end - job_start)))
        if traced:
            run.traced_jobs += 1
            run.traced_tasks += n_chunks
        else:
            run.first_result_s.append(end - start)
            run.job_s.append(end - job_start)
