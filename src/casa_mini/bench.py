"""Worker-scaling study on the virtual clock.

For each worker count n the harness provisions a fresh virtual facility,
submits the benchmark job under a fixed(n) policy, and repeats; throughput is
total events over virtual wallclock.  The analytic oracle assumes worker k
starts at s0 + c*k and divisible work:

    T(n) = s0 + c*(n+1)/2 + E/(r*n),   peak at n* = sqrt(2E/(r*c))

With the default desk-scale parameters (E=450k events, r=4k ev/s, c=1 s)
the oracle peaks at exactly 15 workers; the measured curve must stay within
the chunk-quantization band around it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import statistics
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import cacf
from .authd import FacilityKeys
from .batchsim import DelayModel
from .data_proxy import LocalOrigin, SyncDataProxy
from .scheduler.state import ScalePolicy, events_to_csv
from .sim import SimParams, VirtualFacility
from .tokens import mint_token
from .types import DatasetSpec

DEFAULT_SWEEP = (2, 5, 10, 15, 20, 26)


@dataclass
class BenchConfig:
    n_files: int = 18
    events_per_file: int = 25000
    chunk_size: int = 5000
    rate: float = 4000.0  # per-worker events/s
    s0: float = 2.0
    c: float = 1.0
    jitter: float = 0.0
    seed: int = 7
    sweep: tuple = DEFAULT_SWEEP
    repeats: int = 5
    n_cores: int = 4
    slots: int = 200
    tasks_per_worker: int = 4
    n_max: int = 50
    data_root: str = "bench-data"
    dataset_name: str = "bench"

    @property
    def total_events(self) -> int:
        return self.n_files * self.events_per_file

    def delay_model(self) -> DelayModel:
        return DelayModel(s0=self.s0, c=self.c, jitter=self.jitter, seed=self.seed)

    def to_json(self) -> dict:
        return {**asdict(self), "sweep": list(self.sweep)}

    @classmethod
    def from_json(cls, d: dict) -> "BenchConfig":
        cfg = cls()
        known = {k: v for k, v in d.items() if hasattr(cfg, k)}
        if "sweep" in known:
            known["sweep"] = tuple(known["sweep"])
        return replace(cfg, **known)


BENCH_PIPELINE = [
    {"define": ["pt", "sqrt(px*px+py*py)"]},
    {"filter": "pt>20 && abs(eta)<2.4"},
    {"hist": ["h_pt", "pt", 60, 0, 300]},
    {"hist": ["h_eta", "eta", 48, -2.4, 2.4]},
]


def oracle_throughput(n: int, cfg: BenchConfig) -> float:
    """E / T(n) with T(n) = s0 + c*(n+1)/2 + E/(r*n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return cfg.total_events / oracle_wallclock(n, cfg)


def oracle_wallclock(n: int, cfg: BenchConfig) -> float:
    if n < 1:
        raise ValueError("need n >= 1")
    return cfg.s0 + cfg.c * (n + 1) / 2.0 + cfg.total_events / (cfg.rate * n)


def oracle_peak_workers(cfg: BenchConfig) -> float:
    """Continuous argmax of oracle_throughput: sqrt(2E/(r*c))."""
    if cfg.c == 0:
        return math.inf  # no peak: throughput strictly increases with n
    return math.sqrt(2.0 * cfg.total_events / (cfg.rate * cfg.c))


BENCH_COLUMNS = ("px", "py", "eta", "phi")


def generate_dataset(cfg: BenchConfig, root: str, n_files: int | None = None) -> tuple[DatasetSpec, list[int]]:
    """Seeded synthetic event files under <root>/store/<name>/, root:// URLs.

    Files already there are reused only when the manifest beside them records
    this name, file list, seed and event counts and every file has the byte
    size those imply.  Otherwise every file is written again, each under a
    temporary name and then renamed into place, and the manifest last.
    """
    n_files = cfg.n_files if n_files is None else n_files
    n = cfg.events_per_file
    store_dir = os.path.join(root, "store", cfg.dataset_name)
    names = [f"part{i:02d}.cacf" for i in range(n_files)]
    paths = [os.path.join(store_dir, name) for name in names]
    files = [f"root://origin.sim//store/{cfg.dataset_name}/{name}" for name in names]
    manifest = {
        "name": cfg.dataset_name,
        "files": files,
        "events_per_file": [n] * n_files,
        "seed": cfg.seed,
    }
    manifest_path = os.path.join(root, "store", "datasets", f"{cfg.dataset_name}.json")
    size = cacf.file_size(BENCH_COLUMNS, n)
    if _read_manifest(manifest_path) != manifest or not all(
        os.path.isfile(p) and os.path.getsize(p) == size for p in paths
    ):
        os.makedirs(store_dir, exist_ok=True)
        os.makedirs(os.path.dirname(manifest_path), exist_ok=True)
        if os.path.exists(manifest_path):
            os.remove(manifest_path)  # no manifest vouches for half-written files
        for i, path in enumerate(paths):
            rng = np.random.default_rng(cfg.seed * 100003 + i)
            columns = {
                "px": rng.normal(0.0, 30.0, n),
                "py": rng.normal(0.0, 30.0, n),
                "eta": rng.normal(0.0, 1.5, n),
                "phi": rng.uniform(-math.pi, math.pi, n),
            }
            cacf.write_dataset_file(columns, path + ".tmp")
            os.replace(path + ".tmp", path)
        with open(manifest_path + ".tmp", "w") as fh:
            json.dump(manifest, fh, indent=1)
        os.replace(manifest_path + ".tmp", manifest_path)
    dataset = DatasetSpec(
        name=cfg.dataset_name,
        files=tuple(files),
        n_events_total=n_files * n,
    )
    return dataset, [n] * n_files


def _read_manifest(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


@dataclass
class BenchContext:
    """Shared data-plane pieces for one sweep: origin, proxy, tokens."""

    cfg: BenchConfig
    dataset: DatasetSpec
    events_per_file: list[int]
    proxy: SyncDataProxy
    keys: FacilityKeys
    data_token: str
    batch_token: str


def make_context(cfg: BenchConfig, root: str) -> BenchContext:
    dataset, events_per_file = generate_dataset(cfg, root)
    keys = FacilityKeys.generate()
    origin = LocalOrigin(root, cred="bench-federation-cred")
    # tokens live in the virtual clock's time domain (starts at 0)
    data_token = mint_token(keys.data, "bench", "data", exp=1e9)
    batch_token = mint_token(keys.batch, "bench", "batch", exp=1e9)
    proxy = SyncDataProxy(origin, keys.data, clock=lambda: 0.0)
    return BenchContext(
        cfg=cfg,
        dataset=dataset,
        events_per_file=events_per_file,
        proxy=proxy,
        keys=keys,
        data_token=data_token,
        batch_token=batch_token,
    )


def make_facility(ctx: BenchContext, policy: ScalePolicy) -> VirtualFacility:
    cfg = ctx.cfg
    return VirtualFacility(
        proxy=ctx.proxy,
        data_token=ctx.data_token,
        batch_token=ctx.batch_token,
        policy=policy,
        delay=cfg.delay_model(),
        slots=cfg.slots,
        params=SimParams(rate=cfg.rate, n_cores=cfg.n_cores),
        batch_key=ctx.keys.batch,
    )


def run_once(
    ctx: BenchContext,
    policy: ScalePolicy,
    kill_plan: list[tuple[float, str]] | None = None,
):
    facility = make_facility(ctx, policy)
    for t, worker_id in kill_plan or []:
        facility.kill_worker_at(worker_id, t)
    job = facility.run_job(
        BENCH_PIPELINE, ctx.dataset, ctx.cfg.chunk_size, ctx.events_per_file
    )
    return job, facility


@dataclass
class BenchmarkPoint:
    n: int
    runs: list[tuple[float, float]]  # (wallclock s, throughput events/s)
    mean_hz: float
    std_hz: float


@dataclass
class SweepResult:
    points: list[BenchmarkPoint]
    csv_text: str
    streams: dict = field(default_factory=dict)  # (n, run) -> task stream CSV text

    def sha256(self) -> str:
        """SHA-256 of the CSV followed by each task stream, in (n, run) order."""
        digest = hashlib.sha256(self.csv_text.encode())
        for key in sorted(self.streams):
            digest.update(self.streams[key].encode())
        return digest.hexdigest()


def job_sha256(job, events: list) -> str:
    """SHA-256 of a job's task stream (`events_to_csv` of `events`) followed
    by its merged histograms, in name order."""
    digest = hashlib.sha256(events_to_csv(events).encode())
    histograms = [job.merged[name].to_dict() for name in sorted(job.merged)]
    digest.update(json.dumps(histograms, sort_keys=True).encode())
    return digest.hexdigest()


def fixed_policy(n: int, cfg: BenchConfig) -> ScalePolicy:
    return ScalePolicy(
        mode="fixed",
        fixed_n=n,
        tasks_per_worker=cfg.tasks_per_worker,
        n_min=0,
        n_max=max(cfg.n_max, n),
    )


def adaptive_policy(cfg: BenchConfig) -> ScalePolicy:
    return ScalePolicy(
        mode="adaptive", tasks_per_worker=cfg.tasks_per_worker, n_min=0, n_max=cfg.n_max
    )


def run_sweep(cfg: BenchConfig, root: str) -> SweepResult:
    ctx = make_context(cfg, root)
    total = cfg.total_events
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "run", "wallclock_s", "throughput_hz", "mean_hz", "std_hz"])
    points: list[BenchmarkPoint] = []
    streams: dict = {}
    for n in cfg.sweep:
        runs: list[tuple[float, float]] = []
        for run_idx in range(cfg.repeats):
            job, facility = run_once(ctx, fixed_policy(n, cfg))
            if job.state != "done":
                raise RuntimeError(f"benchmark job did not complete at n={n} (state {job.state})")
            wallclock = job.finished_at - job.submitted_at
            runs.append((wallclock, total / wallclock))
            streams[(n, run_idx)] = events_to_csv(facility.state.events)
        mean_hz = statistics.fmean(hz for _, hz in runs)
        std_hz = statistics.pstdev(hz for _, hz in runs)
        points.append(BenchmarkPoint(n=n, runs=runs, mean_hz=mean_hz, std_hz=std_hz))
        for run_idx, (wallclock, hz) in enumerate(runs):
            writer.writerow([n, run_idx, repr(wallclock), repr(hz), repr(mean_hz), repr(std_hz)])
    return SweepResult(points=points, csv_text=out.getvalue(), streams=streams)


def run_adaptive(cfg: BenchConfig, root: str, n_chunks: int = 104):
    """One adaptive run sized to n_chunks tasks; returns (job, facility)."""
    chunks_per_file = 8 if n_chunks % 8 == 0 else 1
    adaptive_cfg = replace(
        cfg,
        n_files=n_chunks // chunks_per_file,
        events_per_file=chunks_per_file * cfg.chunk_size,
        dataset_name=f"{cfg.dataset_name}-adaptive",
    )
    ctx = make_context(adaptive_cfg, root)
    return run_once(ctx, adaptive_policy(cfg))


# ---- stall profile -----------------------------------------------------------


@dataclass
class StallReport:
    rows: list[tuple[str, float, float, float]]  # worker_id, up_t, first_task_t, stall_s
    taskless: list[tuple[str, float]]  # workers that never ran a task
    max_stall: float
    trend_slope: float  # least-squares stall vs. arrival order

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["worker_id", "up_t", "first_task_t", "stall_s"])
        for worker_id, up_t, first_t, stall in self.rows:
            writer.writerow([worker_id, repr(up_t), repr(first_t), repr(stall)])
        return out.getvalue()


def stall_report(stream_csv: str) -> StallReport:
    """Per-worker stall (first task start minus worker-up) from a task stream."""
    up: dict[str, float] = {}
    first: dict[str, float] = {}
    reader = csv.DictReader(io.StringIO(stream_csv))
    for row in reader:
        worker_id = row["worker_id"]
        t = float(row["t"])
        if row["kind"] == "WorkerUp" and worker_id not in up:
            up[worker_id] = t
        elif row["kind"] == "TaskStart" and worker_id not in first:
            first[worker_id] = t
    if not up:
        raise ValueError("task stream contains no WorkerUp events")
    rows = []
    taskless = []
    for worker_id in sorted(up):
        if worker_id in first:
            rows.append((worker_id, up[worker_id], first[worker_id], first[worker_id] - up[worker_id]))
        else:
            taskless.append((worker_id, up[worker_id]))
    if not rows:
        raise ValueError("task stream contains no TaskStart events")
    stalls = [r[3] for r in rows]
    if len(rows) > 1:
        xs = np.arange(len(rows), dtype=float)
        slope = float(np.polyfit(xs, np.asarray(stalls), 1)[0])
    else:
        slope = 0.0
    return StallReport(rows=rows, taskless=taskless, max_stall=max(stalls), trend_slope=slope)
