"""What every workload shares: the run's scratch directory, the timed loop of
whole rounds, the machine-speed calibration, the end-to-end metric table and
peak memory.

The machine this benchmark was sized on has 2 cores shared with other
tenants, and its speed drifts by 10-25 % over minutes.  A workload whose
timed work is computation in this process (the virtual ones) therefore times
a fixed calibration loop, interleaved with its rounds, and its timings are
scaled to the speed at which that loop takes CAL_REF_S.  A change to
casa_mini moves the rounds but not the loop, so it still shows in full.  The
live workload is not scaled: its times are mostly process start-up,
round trips between processes and polling sleeps, which the loop does not
predict.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import layers
from spans import Tracer

# name -> (unit, better); every workload reports every one of them
END_TO_END = {
    "setup_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "first_result_s": ("s", "lower"),
    "job_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUPS = 5  # set-ups per run
MIN_ROUNDS = 2  # a traced run needs an untraced and a traced round
CAL_EVERY_S = 0.5  # calibrate between rounds at most this often
CAL_REF_S = 0.049  # the calibration loop's median time on the reference machine
_CAL_VALUES = np.random.default_rng(0).normal(0.0, 30.0, 5000)


class CheckFailed(AssertionError):
    """An output disagreed with the computation made apart from the program."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work, of the kind
    casa_mini does, that owes nothing to casa_mini."""
    start = time.perf_counter()
    for _ in range(500):
        table = {}
        for j in range(200):
            table[j] = table.get(j - 1, 0) + j
        ordered = sorted(table.values(), reverse=True)
        pt = np.sqrt(_CAL_VALUES * _CAL_VALUES + ordered[0])
        keep = (pt > 20.0) & (np.abs(_CAL_VALUES) < 60.0)
        np.bincount(np.minimum((pt[keep] / 5.0).astype(np.int64), 59), minlength=60)
    return time.perf_counter() - start


def local_paths(root: str, urls) -> list[str]:
    """Where generate_dataset put each file: root://host//store/<name>/<file>
    is <root>/store/<name>/<file>."""
    return [os.path.join(root, "store", url.split("//store/", 1)[1]) for url in urls]


def trimmed_mean(samples) -> float:
    """Mean of the samples less their lowest and highest tenth (at least one
    each, from three samples up).  It resists outliers like a median does,
    but moves smoothly where the program quantizes a time, as the client's
    0.1 s job polling and the launcher's 0.05 s registration polling do; a
    median jumps from one step to the next there."""
    ordered = sorted(samples)
    cut = max(1, len(ordered) // 10) if len(ordered) >= 3 else 0
    return statistics.fmean(ordered[cut : len(ordered) - cut])


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    root: str  # the checkout
    attempted: int = 0
    failed: int = 0
    setup_s: list = field(default_factory=list)
    first_result_s: list = field(default_factory=list)
    job_s: list = field(default_factory=list)
    rates: list = field(default_factory=list)  # (traced, events per second) per round
    calibration_s: list = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)
    traced_tasks: int = 0
    traced_jobs: int = 0
    traced_logins: int = 0

    def __post_init__(self):
        self.scratch = os.path.join(self.root, ".casabench", f"run-{os.getpid()}")
        self._dirs = 0
        self._calibrated_at = 0.0

    @property
    def setups(self) -> int:
        return 1 if self.quick else SETUPS

    def fresh_dir(self) -> str:
        """A new, empty directory for one set-up's dataset and run files."""
        self._dirs += 1
        path = os.path.join(self.scratch, f"d{self._dirs}")
        os.makedirs(path)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def traced_round(self, index: int) -> bool:
        """Traced runs alternate untraced and traced rounds, so that the
        tracing overhead is measured against rounds of the same run."""
        return self.trace and index % 2 == 1

    def speed(self) -> float:
        """This run's machine speed relative to the reference machine; 1.0
        for a workload that does not calibrate."""
        if not self.calibration_s:
            return 1.0
        return CAL_REF_S / statistics.median(self.calibration_s)

    def calibrate(self) -> None:
        """Time the calibration loop once.  A workload that calls this in its
        set-up is calibrated between its rounds too, and scaled."""
        self.calibration_s.append(calibration_loop())
        self._calibrated_at = time.perf_counter()

    def keep_going(self, started: float, rounds: int) -> bool:
        """Whether to run another round.  Between rounds it collects garbage,
        so that peak memory does not depend on how many rounds fit in the run
        (each virtual facility lives in reference cycles until a full
        collection), and calibrates a calibrated workload."""
        gc.collect()
        now = time.perf_counter()
        if self.calibration_s and now - self._calibrated_at >= CAL_EVERY_S:
            self.calibrate()
        return rounds < MIN_ROUNDS or now - started < self.seconds

    def result(self) -> dict:
        if self.trace:
            untraced = [r for traced, r in self.rates if not traced]
            traced = [r for t, r in self.rates if t]
            overhead = 100.0 * (trimmed_mean(untraced) / trimmed_mean(traced) - 1.0)
            metrics = layers.metrics(
                self.tracer, self.traced_tasks, self.traced_jobs, self.traced_logins, overhead
            )
        else:
            speed = self.speed()
            values = {
                "setup_s": trimmed_mean(self.setup_s) * speed,
                "events_per_s": trimmed_mean(r for _, r in self.rates) / speed,
                "first_result_s": trimmed_mean(self.first_result_s) * speed,
                "job_s": trimmed_mean(self.job_s) * speed,
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
        return {"attempted": self.attempted, "failed": self.failed, "metrics": metrics}

    def dump_trace(self) -> str:
        path = os.path.join(self.root, ".casabench", "traces", f"{self.workload}-seed{self.seed}.json")
        self.tracer.dump(
            path,
            {
                "workload": self.workload,
                "seed": self.seed,
                "traced_tasks": self.traced_tasks,
                "traced_jobs": self.traced_jobs,
                "traced_logins": self.traced_logins,
            },
        )
        return path


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest waited-for
    child (the live workloads' worker processes), in MB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) * 1024 / 1e6
