"""CACF event-file format and dataset chunk planning.

Layout (little-endian):

    magic "CACF" (4 bytes) | version u32 = 1 | n_columns u32 | n_events u64
    per column: name_len u16 + UTF-8 name
    then, per column in header order: n_events x f64 payload

Readers go through a byte-range source so the same parsing code serves local
files and the caching data proxy; a local file's reader reads one descriptor.
A chunk's columns are one vectored read: one proxy request for all of them.
"""

from __future__ import annotations

import os
import struct
import weakref
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .types import ColumnBatch, DatasetSpec, FileChunk, check_column_name

MAGIC = b"CACF"
VERSION = 1
_FIXED_HEADER = struct.Struct("<4sIIQ")
# Bytes read_header asks for first: the whole header of any file whose column
# table is short, and well inside the proxy's first cache block.
HEADER_PREFIX = 4096


class CacfError(ValueError):
    pass


def write_dataset_file(columns: Mapping[str, np.ndarray], path: str) -> int:
    """Write a column map to a CACF file; returns the byte count written."""
    if not columns:
        raise CacfError("empty column set")
    arrays: dict[str, np.ndarray] = {}
    n_events = -1
    for name, values in columns.items():
        check_column_name(name)
        arr = np.ascontiguousarray(values, dtype="<f8")
        if arr.ndim != 1:
            raise CacfError(f"column {name!r} is not a 1-d vector")
        if n_events < 0:
            n_events = arr.shape[0]
        elif arr.shape[0] != n_events:
            raise CacfError("unequal column lengths")
        arrays[name] = arr

    header = bytearray(_FIXED_HEADER.pack(MAGIC, VERSION, len(arrays), n_events))
    for name in arrays:
        encoded = name.encode("utf-8")
        header += struct.pack("<H", len(encoded)) + encoded

    written = 0
    with open(path, "wb") as fh:
        written += fh.write(header)
        for arr in arrays.values():
            written += fh.write(arr.tobytes())
    return written


def file_size(columns: Sequence[str], n_events: int) -> int:
    """Byte size of the file write_dataset_file writes for these columns."""
    table = sum(2 + len(name.encode("utf-8")) for name in columns)
    return _FIXED_HEADER.size + table + 8 * len(columns) * n_events


# A RangeReader returns the bytes of [offset, offset+length), truncated at EOF;
# a RangesReader returns those of each of a list of (offset, length) ranges,
# in one request where it can.
RangeReader = Callable[[int, int], bytes]
RangesReader = Callable[[Sequence[tuple[int, int]]], list[bytes]]


def one_range(read: RangesReader) -> RangeReader:
    """The RangeReader that asks `read` for one range at a time."""
    return lambda offset, length: read([(offset, length)])[0]


def local_range_reader(path: str) -> RangesReader:
    fd = os.open(path, os.O_RDONLY)  # closed once the reader is garbage, so never under a read

    def read(ranges: Sequence[tuple[int, int]]) -> list[bytes]:
        return [os.pread(fd, length, offset) for offset, length in ranges]

    weakref.finalize(read, os.close, fd)
    return read


@dataclass(frozen=True)
class CacfHeader:
    n_events: int
    columns: tuple[str, ...]
    payload_offset: int

    def column_offset(self, name: str) -> int:
        """Byte offset of a column's payload within the file."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise CacfError(f"unknown column {name}") from None
        return self.payload_offset + idx * self.n_events * 8


def read_header(read: RangeReader) -> CacfHeader:
    """Parse a file's header from one range read of its first HEADER_PREFIX
    bytes; only a column table that runs past the prefix costs more reads."""
    buf = read(0, HEADER_PREFIX)
    if len(buf) < _FIXED_HEADER.size:
        raise CacfError("truncated header")
    magic, version, n_columns, n_events = _FIXED_HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise CacfError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CacfError(f"unsupported version {version}")
    names = []
    offset = _FIXED_HEADER.size
    for _ in range(n_columns):
        buf = _read_through(read, buf, offset + 2)
        (name_len,) = struct.unpack_from("<H", buf, offset)
        buf = _read_through(read, buf, offset + 2 + name_len)
        names.append(check_column_name(buf[offset + 2 : offset + 2 + name_len].decode("utf-8")))
        offset += 2 + name_len
    return CacfHeader(n_events=n_events, columns=tuple(names), payload_offset=offset)


def _read_through(read: RangeReader, buf: bytes, end: int) -> bytes:
    """Extend buf, the file's first len(buf) bytes, to at least `end` bytes,
    doubling each read so a long column table takes few of them."""
    while len(buf) < end:
        more = read(len(buf), max(end - len(buf), len(buf)))
        if not more:
            raise CacfError("truncated column table")
        buf += more
    return buf


def read_header_path(path: str) -> CacfHeader:
    return read_header(one_range(local_range_reader(path)))


def read_chunk(
    read: RangesReader,
    chunk: FileChunk,
    wanted: Sequence[str],
    header: CacfHeader | None = None,
) -> ColumnBatch:
    """Read exactly chunk.len events starting at chunk.start, wanted columns
    only, all in one call of `read`."""
    hdr = header if header is not None else read_header(one_range(read))
    if chunk.start + chunk.len > hdr.n_events:
        raise CacfError(
            f"chunk out of range: [{chunk.start}, {chunk.start + chunk.len}) "
            f"in a {hdr.n_events}-event file"
        )
    n_bytes = chunk.len * 8
    raws = read([(hdr.column_offset(name) + chunk.start * 8, n_bytes) for name in wanted])
    columns: dict[str, np.ndarray] = {}
    for name, raw in zip(wanted, raws):
        if len(raw) != n_bytes:
            raise CacfError(f"short read for column {name}")
        columns[name] = np.frombuffer(raw, dtype="<f8")
    return ColumnBatch.trusted(columns, chunk.len, origin=(chunk.file, chunk.start))  # read_header checked names


def read_chunk_path(path: str, chunk: FileChunk, wanted: Sequence[str]) -> ColumnBatch:
    return read_chunk(local_range_reader(path), chunk, wanted)


def read_columns_path(path: str) -> ColumnBatch:
    """Whole-file read of every column (test and oracle helper)."""
    read = local_range_reader(path)
    hdr = read_header(one_range(read))
    if hdr.n_events == 0:
        return ColumnBatch({name: np.empty(0) for name in hdr.columns}, origin=(path, 0))
    return read_chunk(read, FileChunk(file=path, start=0, len=hdr.n_events, chunk_id=0), hdr.columns, header=hdr)


def plan_chunks(
    dataset: DatasetSpec,
    chunk_size: int,
    events_per_file: Sequence[int] | None = None,
) -> list[FileChunk]:
    """Partition every dataset file into chunks of chunk_size (last may be short).

    Chunk ids are 0..N-1 in file order.  events_per_file overrides reading the
    local file headers, for datasets that live behind the data proxy.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if events_per_file is None:
        events_per_file = [read_header_path(p).n_events for p in dataset.files]
    if len(events_per_file) != len(dataset.files):
        raise ValueError("events_per_file does not match the dataset file list")
    if any(n < 0 for n in events_per_file):
        raise ValueError("events_per_file holds a negative count")
    total = sum(events_per_file)
    if total != dataset.n_events_total:
        raise ValueError(
            f"dataset claims {dataset.n_events_total} events but files hold {total}"
        )
    chunks: list[FileChunk] = []
    next_id = 0
    for path, n_events in zip(dataset.files, events_per_file):
        start = 0
        while start < n_events:
            length = min(chunk_size, n_events - start)
            chunks.append(FileChunk(file=path, start=start, len=length, chunk_id=next_id))
            next_id += 1
            start += length
    return chunks

