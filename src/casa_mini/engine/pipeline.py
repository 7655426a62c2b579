"""Analysis pipelines: ordered define / filter / histogram steps.

The JSON form is a list like

    [{"define": ["pt", "sqrt(px*px+py*py)"]},
     {"filter": "pt>20"},
     {"hist": ["h_pt", "pt", 60, 0, 300]}]

run_pipeline applies steps in order against a ColumnBatch, read as one or
more consecutive segments (a chunk each); filters drop rows whose expression
is 0.0, histograms fill from the rows surviving so far, and each segment
gets its own TaskResult.  A pipeline is compiled once, on first use, into a
plan: its input columns, each step's compiled expression, and for each
filter the columns a later step reads, which are the only ones the filter
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence, Union

import numpy as np

from ..types import ColumnBatch
from .expr import Expr, ExprError, broadcast, compile_number, compile_truth, needed_columns, parse_expr
from .hist import Histogram, bin_slots


class PipelineError(ValueError):
    def __init__(self, message: str, step: int | None = None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class Define:
    name: str
    expr: Expr


@dataclass(frozen=True)
class Filter:
    expr: Expr


@dataclass(frozen=True)
class HistSpec:
    name: str
    expr: Expr
    n_bins: int
    lo: float
    hi: float


Step = Union[Define, Filter, HistSpec]


@dataclass(frozen=True)
class KernelPipeline:
    steps: tuple[Step, ...]

    def __post_init__(self):
        defined: set[str] = set()
        n_hists = 0
        for i, step in enumerate(self.steps):
            if isinstance(step, Define):
                if step.name in defined:
                    raise PipelineError(f"define {step.name!r} shadows an earlier define", step=i)
                defined.add(step.name)
            elif isinstance(step, HistSpec):
                n_hists += 1
                if step.n_bins < 1:
                    raise PipelineError(f"histogram {step.name!r} needs n_bins >= 1", step=i)
                if not step.lo < step.hi:
                    raise PipelineError(f"histogram {step.name!r} needs lo < hi", step=i)
        if n_hists == 0:
            raise PipelineError("pipeline has no histogram step")

    def input_columns(self) -> frozenset[str]:
        """Source columns the pipeline reads (defines excluded)."""
        return self._plan[0]

    @cached_property
    def _plan(self) -> tuple[frozenset[str], tuple]:
        """(input columns, (step, compiled expression, columns kept) per step);
        a filter keeps every column a later step reads, other steps keep ()."""
        steps = []
        inputs: set[str] = set()
        read_later: set[str] = set()
        for step in reversed(self.steps):
            if isinstance(step, Filter):
                steps.append((step, compile_truth(step.expr), tuple(sorted(read_later))))
            else:
                steps.append((step, compile_number(step.expr), ()))
            if isinstance(step, Define):
                inputs.discard(step.name)  # later steps read the define, not a source column
            inputs |= needed_columns(step.expr)
            read_later |= needed_columns(step.expr)
        return frozenset(inputs), tuple(reversed(steps))

    @classmethod
    def from_json(cls, data: list) -> "KernelPipeline":
        steps: list[Step] = []
        for i, entry in enumerate(data):
            if not isinstance(entry, dict) or len(entry) != 1:
                raise PipelineError("each step must be a single-key object", step=i)
            key, payload = next(iter(entry.items()))
            try:
                if key == "define":
                    name, text = payload
                    steps.append(Define(name=name, expr=parse_expr(text)))
                elif key == "filter":
                    steps.append(Filter(expr=parse_expr(payload)))
                elif key == "hist":
                    name, text, n_bins, lo, hi = payload
                    steps.append(
                        HistSpec(name=name, expr=parse_expr(text), n_bins=int(n_bins), lo=float(lo), hi=float(hi))
                    )
                else:
                    raise PipelineError(f"unknown step kind {key!r}", step=i)
            except ExprError as exc:
                raise PipelineError(str(exc), step=i) from exc
        return cls(steps=tuple(steps))


@dataclass
class TaskResult:
    chunk_id: int
    n_events_in: int
    n_events_pass: int
    histograms: list[Histogram]
    t_start: float = 0.0
    t_end: float = 0.0

    def __post_init__(self):
        if self.n_events_pass > self.n_events_in:
            raise ValueError("n_events_pass exceeds n_events_in")

    def to_dict(self) -> dict:
        return {**vars(self), "histograms": [h.to_dict() for h in self.histograms]}  # keys in field order

    @classmethod
    def from_dict(cls, d: dict) -> "TaskResult":
        return cls(
            chunk_id=int(d["chunk_id"]),
            n_events_in=int(d["n_events_in"]),
            n_events_pass=int(d["n_events_pass"]),
            histograms=[Histogram.from_dict(h) for h in d["histograms"]],
            t_start=float(d.get("t_start", 0.0)),
            t_end=float(d.get("t_end", 0.0)),
        )


@dataclass
class PassResult:
    """One run_pipeline pass: a TaskResult per segment, in batch order."""

    results: list[TaskResult]

    @property
    def n_events_in(self) -> int:
        """Events the pass read: the whole batch."""
        return sum(r.n_events_in for r in self.results)


def run_pipeline(
    batch: ColumnBatch,
    pipeline: KernelPipeline,
    lengths: Sequence[int] | None = None,
    chunk_ids: Sequence[int] | None = None,
) -> PassResult:
    """Run the pipeline once over batch, read as consecutive segments of
    `lengths` events (default: one segment, the whole batch) with chunk ids
    `chunk_ids` (default 0, 1, ...); one TaskResult per segment.

    The pass carries each segment's row bounds, which a filter maps through
    the rows it keeps.  A pass of more than one segment gives each row its
    segment id once after each filter, for the histograms that follow, and
    each histogram is one bincount over segment * (n_bins + 2) + slot, so a
    segment's result is, bit for bit, that of a pass over its rows alone.
    """
    lengths = [batch.n_events] if lengths is None else list(lengths)
    chunk_ids = range(len(lengths)) if chunk_ids is None else chunk_ids
    if len(chunk_ids) != len(lengths) or sum(lengths) != batch.n_events:
        raise ValueError(
            f"{len(lengths)} segments of {sum(lengths)} events, {len(chunk_ids)} chunk ids, "
            f"for a {batch.n_events}-event batch"
        )
    n_segments = len(lengths)
    bounds = np.array([*accumulate(lengths, initial=0)])  # segment k's rows still in: bounds[k]:bounds[k + 1]
    n_rows = batch.n_events  # rows still in
    kept = lengths  # rows still in, per segment
    segment = None  # segment id of each row still in, once a histogram needs it
    columns: dict[str, np.ndarray] = dict(batch.columns)
    filled: list[tuple[HistSpec, np.ndarray, list[int]]] = []  # (step, slot counts, rows) per segment
    with np.errstate(all="ignore"):
        for i, (step, evaluate, keep) in enumerate(pipeline._plan[1]):
            try:
                if isinstance(step, Define):
                    # defines never shadow each other, and a filter may have dropped the column
                    if step.name in batch.columns:
                        raise PipelineError(f"define {step.name!r} shadows an existing column")
                    columns[step.name] = broadcast(evaluate(columns), n_rows)
                elif isinstance(step, Filter):
                    mask = evaluate(columns)
                    if mask.ndim == 0:
                        mask = np.full(n_rows, bool(mask))
                    rows = np.flatnonzero(mask)
                    columns = {name: columns[name].take(rows) for name in keep if name in columns}
                    n_rows = rows.shape[0]
                    bounds = rows.searchsorted(bounds)
                    kept = (bounds[1:] - bounds[:-1]).tolist()
                    segment = None
                else:
                    width = step.n_bins + 2
                    keys = bin_slots(broadcast(evaluate(columns), n_rows), step.n_bins, step.lo, step.hi)
                    if n_segments > 1:
                        if segment is None:
                            segment = np.repeat(np.arange(n_segments), kept)
                        keys += segment * width
                    slots = np.bincount(keys, minlength=n_segments * width).reshape(n_segments, width)
                    filled.append((step, slots, kept))
            except (ExprError, PipelineError) as exc:
                raise PipelineError(str(exc), step=i) from exc
    results = [
        TaskResult(chunk_id=chunk_id, n_events_in=n_in, n_events_pass=n_out, histograms=[])
        for chunk_id, n_in, n_out in zip(chunk_ids, lengths, kept)
    ]
    for step, slots, n_rows in filled:
        counts = slots[:, 1:-1].astype(np.uint64)
        rows = zip(results, counts, slots[:, 0].tolist(), slots[:, -1].tolist(), n_rows)
        for result, hist_counts, underflow, overflow, n_filled in rows:
            result.histograms.append(
                Histogram(step.name, step.n_bins, step.lo, step.hi, hist_counts, underflow, overflow, n_filled)
            )
    return PassResult(results)

