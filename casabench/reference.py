"""Reference computations made apart from casa_mini.

The CACF layout is parsed here from its specification, not through
`casa_mini.cacf`, and the benchmark pipeline is recomputed with plain numpy,
not through `casa_mini.engine`:

    magic "CACF" (4 bytes) | version u32 = 1 | n_columns u32 | n_events u64
    per column: name_len u16 + UTF-8 name
    then, per column in header order: n_events x f64 payload (little-endian)

Histogram binning follows the engine's stated convention: bin =
floor((v - lo) / (hi - lo) * n_bins), lo inclusive, hi exclusive; v < lo
underflows, v >= hi or NaN overflows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

# The pipeline every workload submits; `sweep` checks that the shipped
# bench.BENCH_PIPELINE is still this one.
PIPELINE = [
    {"define": ["pt", "sqrt(px*px+py*py)"]},
    {"filter": "pt>20 && abs(eta)<2.4"},
    {"hist": ["h_pt", "pt", 60, 0, 300]},
    {"hist": ["h_eta", "eta", 48, -2.4, 2.4]},
]
WANTED = ("eta", "px", "py")  # source columns the pipeline reads
BLOCK_SIZE = 64 * 1024  # the data proxy's cache block

_FIXED = struct.Struct("<4sIIQ")


class Mismatch(AssertionError):
    pass


@dataclass(frozen=True)
class Layout:
    n_events: int
    columns: tuple[str, ...]
    payload_offset: int

    def column_offset(self, name: str) -> int:
        return self.payload_offset + self.columns.index(name) * self.n_events * 8


def parse(raw: bytes) -> tuple[Layout, dict[str, np.ndarray]]:
    magic, version, n_columns, n_events = _FIXED.unpack_from(raw, 0)
    if magic != b"CACF" or version != 1:
        raise Mismatch(f"not a CACF v1 file (magic {magic!r}, version {version})")
    offset = _FIXED.size
    names = []
    for _ in range(n_columns):
        (name_len,) = struct.unpack_from("<H", raw, offset)
        names.append(raw[offset + 2 : offset + 2 + name_len].decode("utf-8"))
        offset += 2 + name_len
    if len(raw) != offset + n_columns * n_events * 8:
        raise Mismatch(f"file holds {len(raw)} bytes, layout needs {offset + n_columns * n_events * 8}")
    layout = Layout(n_events=n_events, columns=tuple(names), payload_offset=offset)
    columns = {
        name: np.frombuffer(raw, dtype="<f8", count=n_events, offset=offset + i * n_events * 8)
        for i, name in enumerate(names)
    }
    return layout, columns


def read(path: str) -> tuple[Layout, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        return parse(fh.read())


def _histogram(counts, underflow, overflow, n_filled) -> dict:
    return {
        "counts": [int(c) for c in counts],
        "underflow": int(underflow),
        "overflow": int(overflow),
        "n_filled": int(n_filled),
    }


def _fill(values: np.ndarray, n_bins: int, lo: float, hi: float) -> dict:
    nan = np.isnan(values)
    under = values < lo
    over = (values >= hi) | nan
    inside = ~(under | over)
    idx = np.floor((values[inside] - lo) / (hi - lo) * n_bins).astype(np.int64)
    np.minimum(idx, n_bins - 1, out=idx)
    return _histogram(np.bincount(idx, minlength=n_bins), under.sum(), over.sum(), values.shape[0])


@dataclass(frozen=True)
class Expected:
    n_events_in: int
    n_events_pass: int
    histograms: dict  # name -> {counts, underflow, overflow, n_filled}
    blocks: int  # distinct cache blocks the chunked range reads cover

    def check(self, n_events_in: int, n_events_pass: int, histograms: dict) -> None:
        """Raise unless a job's merged result equals this reference exactly."""
        if (n_events_in, n_events_pass) != (self.n_events_in, self.n_events_pass):
            raise Mismatch(
                f"events in/pass {n_events_in}/{n_events_pass}, "
                f"reference {self.n_events_in}/{self.n_events_pass}"
            )
        if set(histograms) != set(self.histograms):
            raise Mismatch(f"histograms {sorted(histograms)}, reference {sorted(self.histograms)}")
        for name, want in self.histograms.items():
            if histograms[name] != want:
                raise Mismatch(f"histogram {name} differs from the reference")


def expected(paths: list[str], chunk_size: int) -> Expected:
    """Reference result of PIPELINE over the files, and the number of distinct
    BLOCK_SIZE blocks read by a header read plus one range read per wanted
    column per chunk of chunk_size events."""
    parts = {name: [] for name in WANTED}
    blocks = 0
    for path in paths:
        layout, columns = read(path)
        for name in WANTED:
            parts[name].append(columns[name])
        touched = set(range(0, (layout.payload_offset - 1) // BLOCK_SIZE + 1))
        for name in WANTED:
            base = layout.column_offset(name)
            for start in range(0, layout.n_events, chunk_size):
                length = min(chunk_size, layout.n_events - start) * 8
                first = base + start * 8
                touched.update(range(first // BLOCK_SIZE, (first + length - 1) // BLOCK_SIZE + 1))
        blocks += len(touched)
    px, py, eta = (np.concatenate(parts[name]) for name in ("px", "py", "eta"))
    pt = np.sqrt(px * px + py * py)
    keep = (pt > 20.0) & (np.abs(eta) < 2.4)
    return Expected(
        n_events_in=int(px.shape[0]),
        n_events_pass=int(keep.sum()),
        histograms={
            "h_pt": _fill(pt[keep], 60, 0.0, 300.0),
            "h_eta": _fill(eta[keep], 48, -2.4, 2.4),
        },
        blocks=blocks,
    )


def histograms_of(merged: dict) -> dict:
    """Plain-data view of a virtual job's merged Histogram objects."""
    return {name: _histogram(h.counts, h.underflow, h.overflow, h.n_filled) for name, h in merged.items()}


def histograms_of_status(status: dict) -> dict:
    """Plain-data view of the histograms in a live JobStatus reply."""
    return {
        h["name"]: _histogram(h["counts"], h["underflow"], h["overflow"], h["n_filled"])
        for h in status.get("histograms", [])
    }
