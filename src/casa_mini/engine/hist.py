"""Fixed-binning histograms with associative merge.

Binning convention: bin = floor((v - lo) / (hi - lo) * n_bins), lo inclusive,
hi exclusive; v < lo underflows, v >= hi or NaN overflows.  bin_slots gives
each value its slot among n_bins + 2, and every histogram is one bincount of
slots: fill_counts for one histogram, and run_pipeline for each segment of a
pass, whose slots it offsets by segment id when the pass has more than one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


class HistError(ValueError):
    pass


def bin_slots(values: np.ndarray, n_bins: int, lo: float, hi: float) -> np.ndarray:
    """Slot of each f64 value among n_bins + 2; lo < hi and n_bins >= 1.

    Slot 0 is underflow, slot b + 1 is bin b, slot n_bins + 1 is overflow.
    Call it under np.errstate(all="ignore"): v far outside [lo, hi) may
    overflow to inf, and NaN and +-inf cast to garbage slots, which the
    underflow and overflow masks then overwrite.
    """
    scaled = values - lo
    scaled /= hi - lo
    scaled *= n_bins
    # guard against float rounding landing exactly on n_bins for v just below hi
    np.minimum(scaled, n_bins - 1, out=scaled)
    # for lo <= v < hi the scaled value is >= 0, so the cast's truncation is the floor
    slot = scaled.astype(np.intp)
    slot += 1
    # underflow by comparison, not by a negative index: for a negative
    # denormal over lo = 0 the index rounds to -0.0
    slot[values < lo] = 0
    slot[~(values < hi)] = n_bins + 1  # v >= hi and NaN
    return slot


def fill_counts(values: np.ndarray, n_bins: int, lo: float, hi: float):
    """(counts, underflow, overflow) of f64 values: one bincount of their
    bin_slots, under the same np.errstate as bin_slots."""
    slots = np.bincount(bin_slots(values, n_bins, lo, hi), minlength=n_bins + 2)
    return slots[1:-1].astype(np.uint64), int(slots[0]), int(slots[-1])


@dataclass
class Histogram:
    name: str
    n_bins: int
    lo: float
    hi: float
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint64))
    underflow: int = 0
    overflow: int = 0
    n_filled: int = 0

    def __post_init__(self):
        if self.n_bins < 1:
            raise HistError(f"n_bins must be >= 1, got {self.n_bins}")
        if not self.lo < self.hi:
            raise HistError(f"need lo < hi, got [{self.lo}, {self.hi})")
        if self.counts.shape[0] == 0:
            self.counts = np.zeros(self.n_bins, dtype=np.uint64)
        elif self.counts.shape[0] != self.n_bins:
            raise HistError("counts length does not match n_bins")

    def spec(self) -> tuple:
        return (self.name, self.n_bins, self.lo, self.hi)

    def check_spec(self, other: "Histogram") -> None:
        if self.spec() != other.spec():
            raise HistError(f"histogram spec mismatch: {self.spec()} vs {other.spec()}")

    def add(self, other: "Histogram") -> None:
        """Merge other, which has passed check_spec, into this histogram in place."""
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.n_filled += other.n_filled

    def to_dict(self) -> dict:
        return {**vars(self), "counts": self.counts.tolist()}  # keys in field order

    @classmethod
    def from_dict(cls, d: dict) -> "Histogram":
        return cls(
            name=d["name"],
            n_bins=int(d["n_bins"]),
            lo=float(d["lo"]),
            hi=float(d["hi"]),
            counts=np.asarray(d["counts"], dtype=np.uint64),
            underflow=int(d["underflow"]),
            overflow=int(d["overflow"]),
            n_filled=int(d["n_filled"]),
        )


def fill_histogram(values: np.ndarray, name: str, n_bins: int, lo: float, hi: float) -> Histogram:
    h = Histogram(name=name, n_bins=n_bins, lo=lo, hi=hi, n_filled=len(values))
    with np.errstate(all="ignore"):
        h.counts, h.underflow, h.overflow = fill_counts(np.asarray(values, dtype=np.float64), n_bins, lo, hi)
    return h


def merge_histograms(a: Histogram, b: Histogram) -> Histogram:
    a.check_spec(b)
    merged = replace(a, counts=a.counts.copy())
    merged.add(b)
    return merged
