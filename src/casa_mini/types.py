"""Shared domain types for the data plane.

Everything here is immutable after construction and safe to hand between
concurrent activities.  All event columns are float64 vectors; booleans are
encoded as 1.0/0.0 further up the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

MAX_COLUMN_NAME_LEN = 64
# Events one engine pass reads at most, so the columns of a pass fit in one
# proxy request and its arrays stay small (a longer chunk runs alone).
PASS_EVENTS = 1 << 16


class ColumnError(ValueError):
    pass


def check_column_name(name: str) -> str:
    if not name or len(name) > MAX_COLUMN_NAME_LEN or not name.isascii():
        raise ColumnError(f"bad column name {name!r} (ASCII, 1..{MAX_COLUMN_NAME_LEN} chars)")
    return name


class ColumnBatch:
    """Named float64 columns for a contiguous range of events."""

    __slots__ = ("columns", "n_events", "origin")

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        origin: tuple[str, int] = ("", 0),
    ):
        cols: dict[str, np.ndarray] = {}
        n_events = -1
        for name, values in columns.items():
            check_column_name(name)
            arr = np.ascontiguousarray(values, dtype=np.float64)
            if arr.ndim != 1:
                raise ColumnError(f"column {name!r} is not a 1-d vector")
            if n_events < 0:
                n_events = arr.shape[0]
            elif arr.shape[0] != n_events:
                raise ColumnError(
                    f"unequal column lengths: {name!r} has {arr.shape[0]}, expected {n_events}"
                )
            arr = arr.view()  # read-only without touching the caller's own array
            arr.flags.writeable = False
            cols[name] = arr
        self.columns = cols
        self.n_events = max(n_events, 0)
        self.origin = origin

    @classmethod
    def trusted(cls, columns: dict[str, np.ndarray], n_events: int, origin: tuple[str, int]) -> "ColumnBatch":
        """Columns already as __init__ makes them: good names, read-only f64 vectors of n_events."""
        batch = cls.__new__(cls)
        batch.columns, batch.n_events, batch.origin = columns, n_events, origin
        return batch

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def names(self) -> list[str]:
        return list(self.columns)

    def __repr__(self) -> str:
        return f"ColumnBatch({self.names()}, n_events={self.n_events}, origin={self.origin})"


@dataclass(frozen=True)
class DatasetSpec:
    """An ordered list of event files treated as one input."""

    name: str
    files: tuple[str, ...]
    n_events_total: int

    def __post_init__(self):
        if not self.files:
            raise ValueError("dataset has an empty file list")
        object.__setattr__(self, "files", tuple(self.files))


@dataclass(frozen=True)
class FileChunk:
    """A contiguous event range within one file; the unit of task distribution."""

    file: str
    start: int
    len: int
    chunk_id: int

    def __post_init__(self):
        if self.len <= 0:
            raise ValueError("chunk len must be > 0")
        if self.start < 0:
            raise ValueError("chunk start must be >= 0")

    def to_dict(self) -> dict:
        return {"file": self.file, "start": self.start, "len": self.len, "chunk_id": self.chunk_id}

    @classmethod
    def from_dict(cls, d: dict) -> "FileChunk":
        return cls(file=d["file"], start=int(d["start"]), len=int(d["len"]), chunk_id=int(d["chunk_id"]))


def passes(chunks: Iterable[FileChunk]) -> Iterator[tuple[FileChunk, ...]]:
    """The virtual facility's engine passes over chunks, in order: runs of
    adjacent chunks of one file, of at most PASS_EVENTS events together."""
    run: list[FileChunk] = []
    n_events = 0
    for chunk in chunks:
        if run and (
            chunk.file != run[-1].file
            or chunk.start != run[-1].start + run[-1].len
            or n_events + chunk.len > PASS_EVENTS
        ):
            yield tuple(run)
            run, n_events = [], 0
        run.append(chunk)
        n_events += chunk.len
    if run:
        yield tuple(run)


@dataclass(frozen=True)
class TaskSpec:
    """One (file chunk x pipeline) work unit shipped to a worker."""

    job_id: str
    chunk: FileChunk
    pipeline: tuple = field(default_factory=tuple)  # JSON-shaped step list


def assignment(runs: Sequence[Sequence[TaskSpec]], token: str) -> dict:
    """The AssignTask body: the data token, each job's pipeline once, by job_id,
    and each run of tasks as its tasks, each task as its job_id and chunk."""
    return {
        "token": token,
        "pipelines": {spec.job_id: list(spec.pipeline) for run in runs for spec in run},
        "runs": [[{"job_id": spec.job_id, "chunk": spec.chunk.to_dict()} for spec in run] for run in runs],
    }


def assigned(body: dict) -> list[list[TaskSpec]]:
    """The runs of tasks of an AssignTask body made by assignment()."""
    pipelines = {job_id: tuple(pipeline) for job_id, pipeline in body["pipelines"].items()}
    return [
        [TaskSpec(task["job_id"], FileChunk.from_dict(task["chunk"]), pipelines[task["job_id"]]) for task in run]
        for run in body["runs"]
    ]
