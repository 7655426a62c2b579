import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from casa_mini import cacf
from casa_mini.bench import (
    BENCH_COLUMNS,
    BenchConfig,
    fixed_policy,
    generate_dataset,
    make_context,
    oracle_peak_workers,
    oracle_throughput,
    oracle_wallclock,
    run_adaptive,
    run_once,
    run_sweep,
    stall_report,
)


def test_oracle_hand_values():
    cfg = BenchConfig()
    # T(15) = 2 + 1*16/2 + 450000/(4000*15) = 17.5 s
    assert oracle_wallclock(15, cfg) == pytest.approx(17.5, abs=1e-12)
    assert oracle_throughput(15, cfg) == pytest.approx(450_000 / 17.5, abs=1e-6)
    assert oracle_throughput(15, cfg) == pytest.approx(25714.2857, abs=0.01)


def test_oracle_integer_argmax_is_15():
    cfg = BenchConfig()
    best = max(range(1, 51), key=lambda n: oracle_throughput(n, cfg))
    assert best == 15
    assert oracle_peak_workers(cfg) == pytest.approx(math.sqrt(2 * 450_000 / 4000.0))
    assert oracle_peak_workers(cfg) == 15.0


def test_oracle_degenerate_no_startup_cost():
    cfg = BenchConfig(c=0.0)
    values = [oracle_wallclock(n, cfg) for n in range(1, 40)]
    assert values == sorted(values, reverse=True)  # strictly decreasing T, no peak
    assert oracle_peak_workers(cfg) == math.inf


def test_oracle_rejects_zero_workers():
    cfg = BenchConfig()
    with pytest.raises(ValueError):
        oracle_throughput(0, cfg)


def test_config_round_trip():
    cfg = BenchConfig(seed=3, sweep=(1, 2, 3))
    back = BenchConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_refuses_unknown_keys_by_name():
    # "repeat" used to be dropped silently (5 repeats ran), and "total_events",
    # a property, raised a bare TypeError from dataclasses.replace
    with pytest.raises(ValueError, match=r"^unknown bench config keys 'repeat'$"):
        BenchConfig.from_json({"repeat": 2})
    with pytest.raises(ValueError, match=r"^unknown bench config keys 'repeat', 'total_events'$"):
        BenchConfig.from_json({"total_events": 5, "repeats": 2, "repeat": 2})
    assert BenchConfig.from_json({"repeats": 2, "sweep": [2, 4]}) == BenchConfig(repeats=2, sweep=(2, 4))


def test_small_sweep_tracks_oracle(tmp_path):
    cfg = BenchConfig(sweep=(2, 4), repeats=2)
    result = run_sweep(cfg, str(tmp_path))
    for point in result.points:
        assert point.std_hz == 0.0
        assert point.mean_hz == pytest.approx(oracle_throughput(point.n, cfg), rel=0.10)
    header, *rows = result.csv_text.splitlines()
    assert header == "n,run,wallclock_s,throughput_hz,mean_hz,std_hz"
    assert len(rows) == 4


def test_wallclock_never_beats_oracle_minus_one_chunk(tmp_path):
    cfg = BenchConfig(sweep=(2, 15, 26), repeats=1)
    result = run_sweep(cfg, str(tmp_path))
    chunk_duration = cfg.chunk_size / cfg.rate
    for point in result.points:
        measured = point.runs[0][0]
        assert measured >= oracle_wallclock(point.n, cfg) - chunk_duration


def test_adaptive_first_decision_is_26(tmp_path):
    cfg = BenchConfig()
    job, facility = run_adaptive(cfg, str(tmp_path), n_chunks=104)
    first = next(e for e in facility.state.events if e.kind == "ScaleDecision")
    assert "target=26" in first.detail and "queued=104" in first.detail
    assert job.state == "done"


def _local(root, url):
    return url.replace("root://origin.sim//store/", os.path.join(root, "store") + "/")


def _assert_same_files(root_a, dataset_a, root_b, dataset_b):
    for url_a, url_b in zip(dataset_a.files, dataset_b.files, strict=True):
        a = cacf.read_columns_path(_local(root_a, url_a))
        b = cacf.read_columns_path(_local(root_b, url_b))
        assert a.names() == b.names() == list(BENCH_COLUMNS)
        for name in BENCH_COLUMNS:
            assert a[name].tobytes() == b[name].tobytes()


def test_generate_dataset_replaces_other_seed_and_size(tmp_path):
    root, fresh_root = str(tmp_path / "shared"), str(tmp_path / "fresh")
    generate_dataset(BenchConfig(seed=7, n_files=2, events_per_file=1000), root)
    dataset, epf = generate_dataset(BenchConfig(seed=8, n_files=2, events_per_file=500), root)
    fresh, _ = generate_dataset(BenchConfig(seed=8, n_files=2, events_per_file=500), fresh_root)
    assert epf == [500, 500]
    assert [cacf.read_header_path(_local(root, f)).n_events for f in dataset.files] == [500, 500]
    _assert_same_files(root, dataset, fresh_root, fresh)
    with open(os.path.join(root, "store", "datasets", "bench.json")) as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == 8 and manifest["events_per_file"] == [500, 500]
    assert manifest["files"] == list(dataset.files)


def test_generate_dataset_reuses_only_intact_files(tmp_path):
    root, fresh_root = str(tmp_path / "shared"), str(tmp_path / "fresh")
    cfg = BenchConfig(n_files=2, events_per_file=300)
    dataset, _ = generate_dataset(cfg, root)
    paths = [_local(root, f) for f in dataset.files]
    stamps = [os.stat(p).st_mtime_ns for p in paths]
    generate_dataset(cfg, root)
    assert [os.stat(p).st_mtime_ns for p in paths] == stamps  # nothing rewritten
    with open(paths[1], "r+b") as fh:
        fh.truncate(100)
    generate_dataset(cfg, root)
    fresh, _ = generate_dataset(cfg, fresh_root)
    _assert_same_files(root, dataset, fresh_root, fresh)
    assert not any(name.endswith(".tmp") for name in os.listdir(os.path.dirname(paths[0])))


# ---- stall report -----------------------------------------------------------------


def _stream(rows):
    lines = ["kind,worker_id,chunk_id,t,detail"]
    lines += [",".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_stall_report_wave_arithmetic():
    # 3-worker wave, s0=2 c=1, tasks waiting: stalls are exactly [3, 4, 5]
    stream = _stream(
        [
            ("WorkerUp", "w1", "", 0.0, "requested"),
            ("WorkerUp", "w2", "", 0.0, "requested"),
            ("WorkerUp", "w3", "", 0.0, "requested"),
            ("TaskStart", "w1", 0, 3.0, "job"),
            ("TaskStart", "w2", 1, 4.0, "job"),
            ("TaskStart", "w3", 2, 5.0, "job"),
        ]
    )
    report = stall_report(stream)
    assert [r[3] for r in report.rows] == [3.0, 4.0, 5.0]
    assert report.max_stall == 5.0
    assert report.trend_slope == pytest.approx(1.0)


def test_stall_report_prewarmed_worker_zero():
    stream = _stream(
        [("WorkerUp", "w1", "", 1.0, "requested"), ("TaskStart", "w1", 0, 1.0, "job")]
    )
    report = stall_report(stream)
    assert report.rows[0][3] == 0.0


def test_stall_report_excludes_taskless_workers():
    stream = _stream(
        [
            ("WorkerUp", "w1", "", 0.0, ""),
            ("WorkerUp", "w2", "", 0.0, ""),
            ("TaskStart", "w1", 0, 2.5, ""),
        ]
    )
    report = stall_report(stream)
    assert [r[0] for r in report.rows] == ["w1"]
    assert report.taskless == [("w2", 0.0)]


def test_stall_report_needs_events():
    with pytest.raises(ValueError):
        stall_report("kind,worker_id,chunk_id,t,detail\n")


def test_benchmark_trace_sees_every_layer(tmp_path, monkeypatch):
    """casabench times each layer by patching the names the program looks
    up; a refactor that moves a call elsewhere silently zeroes its span."""
    from casa_mini import sim

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "casabench"))
    import layers
    from spans import Tracer

    cfg = BenchConfig(n_files=2, events_per_file=2000, chunk_size=500)
    ctx = make_context(cfg, str(tmp_path))
    run_pipeline = sim.run_pipeline
    tracer = Tracer()
    layers.install(tracer)
    try:
        job, _ = run_once(ctx, fixed_policy(2, cfg))
    finally:
        tracer.uninstall()
    assert job.state == "done"
    spans = ("engine.pipeline", "cacf.read_chunk", "cacf.read_header", "data_proxy.fetch", "scheduler.schedule_step")
    assert {name: tracer.calls[name] for name in spans if not tracer.calls[name]} == {}
    assert tracer.calls["engine.pipeline"] == len(job.dataset.files)  # one pass over each file's 4 chunks
    assert tracer.counts["engine.events"] == cfg.total_events
    assert sim.run_pipeline is run_pipeline
