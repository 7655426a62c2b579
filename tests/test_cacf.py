from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casa_mini import cacf
from casa_mini.types import ColumnBatch, ColumnError, DatasetSpec, FileChunk


def test_write_read_round_trip(tmp_path):
    path = str(tmp_path / "t.cacf")
    cols = {"pt": np.array([1.0, 2.0, 3.0])}
    n = cacf.write_dataset_file(cols, path)
    assert n == len(Path(path).read_bytes())
    hdr = cacf.read_header_path(path)
    assert hdr.n_events == 3 and hdr.columns == ("pt",)
    back = cacf.read_columns_path(path)
    assert np.array_equal(back["pt"], cols["pt"])


def test_write_empty_column_set(tmp_path):
    with pytest.raises(cacf.CacfError, match="empty column set"):
        cacf.write_dataset_file({}, str(tmp_path / "x.cacf"))


def test_write_unequal_lengths(tmp_path):
    with pytest.raises(cacf.CacfError, match="unequal column lengths"):
        cacf.write_dataset_file({"a": np.array([1.0, 2.0]), "b": np.array([3.0])}, str(tmp_path / "x.cacf"))


def test_read_chunk_slice(tmp_path):
    path = str(tmp_path / "t.cacf")
    cacf.write_dataset_file({"pt": np.array([1.0, 2.0, 3.0, 4.0])}, path)
    batch = cacf.read_chunk_path(path, FileChunk(path, start=1, len=2, chunk_id=0), ["pt"])
    assert np.array_equal(batch["pt"], [2.0, 3.0])
    assert batch.origin == (path, 1)


def test_read_chunk_out_of_range(tmp_path):
    path = str(tmp_path / "t.cacf")
    cacf.write_dataset_file({"pt": np.array([1.0, 2.0, 3.0, 4.0])}, path)
    with pytest.raises(cacf.CacfError, match="chunk out of range"):
        cacf.read_chunk_path(path, FileChunk(path, start=3, len=2, chunk_id=0), ["pt"])


def test_read_unknown_column(tmp_path):
    path = str(tmp_path / "t.cacf")
    cacf.write_dataset_file({"pt": np.array([1.0])}, path)
    with pytest.raises(cacf.CacfError, match="unknown column mass"):
        cacf.read_chunk_path(path, FileChunk(path, start=0, len=1, chunk_id=0), ["mass"])


def test_bad_magic(tmp_path):
    path = str(tmp_path / "junk.cacf")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(cacf.CacfError, match="bad magic"):
        cacf.read_header_path(path)


def test_bad_version(tmp_path):
    path = str(tmp_path / "t.cacf")
    cacf.write_dataset_file({"pt": np.array([1.0])}, path)
    raw = bytearray(Path(path).read_bytes())
    raw[4] = 9
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(cacf.CacfError, match="unsupported version"):
        cacf.read_header_path(path)


def _counting(read):
    """A RangeReader that records every (offset, length) it is asked for."""
    calls = []

    def counted(offset, length):
        calls.append((offset, length))
        return read(offset, length)

    return counted, calls


def _two_column_file(tmp_path):
    path = str(tmp_path / "t.cacf")
    cacf.write_dataset_file({"pt": np.array([1.0, 2.0]), "eta": np.array([3.0, 4.0])}, path)
    return path


def test_read_header_is_one_range_read(tmp_path):
    path = _two_column_file(tmp_path)
    read, calls = _counting(cacf.one_range(cacf.local_range_reader(path)))
    hdr = cacf.read_header(read)
    assert calls == [(0, cacf.HEADER_PREFIX)]
    assert hdr == cacf.CacfHeader(n_events=2, columns=("pt", "eta"), payload_offset=29)
    assert hdr.payload_offset + 2 * 2 * 8 == cacf.file_size(hdr.columns, hdr.n_events)


@pytest.mark.parametrize("n_columns, n_reads", [(70, 2), (400, 4)])
def test_column_table_longer_than_prefix(tmp_path, n_columns, n_reads):
    path = str(tmp_path / "wide.cacf")
    names = [f"c{i:03d}_" + "x" * 59 for i in range(n_columns)]  # 64-byte names
    columns = {name: np.full(3, float(i)) for i, name in enumerate(names)}
    assert cacf.write_dataset_file(columns, path) == cacf.file_size(names, 3)
    read_ranges = cacf.local_range_reader(path)
    read, calls = _counting(cacf.one_range(read_ranges))
    hdr = cacf.read_header(read)
    assert hdr.columns == tuple(names) and hdr.n_events == 3
    assert hdr.payload_offset == 20 + 66 * n_columns > cacf.HEADER_PREFIX
    assert len(calls) == n_reads  # each further read doubles what was read
    back = cacf.read_chunk(read_ranges, FileChunk(path, start=1, len=2, chunk_id=0), [names[-1]], header=hdr)
    assert back[names[-1]].tolist() == [n_columns - 1.0] * 2


@pytest.mark.parametrize(
    "cut, message",
    [
        (0, "truncated header"),
        (19, "truncated header"),
        (20, "truncated column table"),
        (21, "truncated column table"),
        (23, "truncated column table"),
        (24, "truncated column table"),
        (28, "truncated column table"),
    ],
)
def test_truncated_header(tmp_path, cut, message):
    # header: 20 fixed bytes, then "pt" at 20..23 and "eta" at 24..28
    path = _two_column_file(tmp_path)
    with open(path, "r+b") as fh:
        fh.truncate(cut)
    with pytest.raises(cacf.CacfError, match=message):
        cacf.read_header_path(path)


def test_truncated_long_column_table(tmp_path):
    path = str(tmp_path / "wide.cacf")
    names = [f"c{i:03d}_" + "x" * 59 for i in range(100)]
    cacf.write_dataset_file({name: np.zeros(1) for name in names}, path)
    with open(path, "r+b") as fh:
        fh.truncate(cacf.HEADER_PREFIX + 100)
    with pytest.raises(cacf.CacfError, match="truncated column table"):
        cacf.read_header_path(path)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=16),
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=0, max_size=40
        ),
        min_size=1,
        max_size=4,
    ).filter(lambda d: len({len(v) for v in d.values()}) == 1)
)
def test_round_trip_bit_exact(tmp_path_factory, columns):
    path = str(tmp_path_factory.mktemp("cacf") / "f.cacf")
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in columns.items()}
    cacf.write_dataset_file(arrays, path)
    back = cacf.read_columns_path(path)
    assert back.names() == list(arrays)
    for name, arr in arrays.items():
        # bit-exact, NaN payloads included
        assert back[name].tobytes() == arr.tobytes()


def test_column_batch_invariants():
    with pytest.raises(ColumnError):
        ColumnBatch({"a": np.array([1.0]), "b": np.array([1.0, 2.0])})
    with pytest.raises(ColumnError):
        ColumnBatch({"": np.array([1.0])})
    with pytest.raises(ColumnError):
        ColumnBatch({"x" * 65: np.array([1.0])})
    b = ColumnBatch({})
    assert b.n_events == 0


def test_column_batch_leaves_the_callers_array_writable():
    values = np.array([1.0, 2.0, 3.0])  # already a contiguous f64 vector: no copy is made
    batch = ColumnBatch({"px": values})
    assert np.shares_memory(batch["px"], values)
    assert not batch["px"].flags.writeable
    values[0] = 5.0
    assert batch["px"][0] == 5.0
    with pytest.raises(ValueError, match="read-only"):
        batch["px"][1] = 0.0


# ---- chunk planning ---------------------------------------------------------


def _dataset(tmp_path, sizes):
    files = []
    for i, n in enumerate(sizes):
        path = str(tmp_path / f"f{i}.cacf")
        cacf.write_dataset_file({"pt": np.arange(n, dtype=np.float64)}, path)
        files.append(path)
    return DatasetSpec(name="d", files=tuple(files), n_events_total=sum(sizes))


def test_plan_chunks_remainder(tmp_path):
    ds = _dataset(tmp_path, [12])
    chunks = plan = cacf.plan_chunks(ds, 5)
    assert [c.len for c in plan] == [5, 5, 2]
    assert [c.start for c in chunks] == [0, 5, 10]
    assert [c.chunk_id for c in chunks] == [0, 1, 2]


def test_plan_chunks_benchmark_shape():
    # 18 files x 25,000 events at chunk 5,000 -> 18 * 25000/5000 = 90 chunks
    ds = DatasetSpec(name="bench", files=tuple(f"f{i}" for i in range(18)), n_events_total=450_000)
    chunks = cacf.plan_chunks(ds, 5000, events_per_file=[25_000] * 18)
    assert len(chunks) == 90
    assert all(c.len == 5000 for c in chunks)
    assert [c.chunk_id for c in chunks] == list(range(90))


def test_plan_chunks_zero_chunk_size(tmp_path):
    ds = _dataset(tmp_path, [4])
    with pytest.raises(ValueError):
        cacf.plan_chunks(ds, 0)


def test_plan_chunks_partition_property(tmp_path):
    ds = _dataset(tmp_path, [7, 1, 13])
    for chunk_size in (1, 2, 3, 5, 13, 100):
        chunks = cacf.plan_chunks(ds, chunk_size)
        assert sum(c.len for c in chunks) == ds.n_events_total
        by_file: dict = {}
        for c in chunks:
            by_file.setdefault(c.file, []).append(c)
        for path, file_chunks in by_file.items():
            covered = []
            for c in file_chunks:
                covered.extend(range(c.start, c.start + c.len))
            n = cacf.read_header_path(path).n_events
            assert covered == list(range(n))  # disjoint, covering, in order


def test_empty_file_list_rejected():
    with pytest.raises(ValueError):
        DatasetSpec(name="d", files=(), n_events_total=0)
