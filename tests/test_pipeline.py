import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casa_mini.engine.expr import eval_expr
from casa_mini.engine.hist import fill_histogram, merge_histograms
from casa_mini.engine.pipeline import Define, Filter, KernelPipeline, PipelineError, TaskResult, run_pipeline
from casa_mini.types import ColumnBatch

PIPELINE_JSON = [
    {"define": ["pt", "sqrt(px*px+py*py)"]},
    {"filter": "pt>1"},
    {"hist": ["h_pt", "pt", 1, 0, 10]},
]


def test_run_pipeline_hand_example():
    # px=[3,0], py=[4,0]: pt=[5,0]; filter keeps the 5; one bin [0,10) gets it
    batch = ColumnBatch({"px": np.array([3.0, 0.0]), "py": np.array([4.0, 0.0])})
    (result,) = run_pipeline(batch, KernelPipeline.from_json(PIPELINE_JSON)).results
    assert result.n_events_in == 2 and result.n_events_pass == 1
    assert list(result.histograms[0].counts) == [1]
    assert result.histograms[0].n_filled == result.n_events_pass


def test_one_errstate_per_task(monkeypatch):
    entered = []

    class CountingErrstate(np.errstate):
        def __enter__(self):
            entered.append(1)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", CountingErrstate)
    pipeline = KernelPipeline.from_json(
        [{"hist": ["h_px", "px", 4, 0, 1]}, {"filter": "py > 0"}, {"hist": ["h_py", "py", 4, 0, 1]}]
    )
    batch = ColumnBatch({"px": np.array([1e308, -1e308, 0.5]), "py": np.array([1.0, 0.5, -1.0])})
    (result,) = run_pipeline(batch, pipeline).results
    assert len(entered) == 1  # run_pipeline's own, not one more per histogram
    assert [(h.underflow, h.overflow) for h in result.histograms] == [(1, 1), (0, 1)]


def test_empty_batch():
    batch = ColumnBatch({"px": np.empty(0), "py": np.empty(0)})
    (result,) = run_pipeline(batch, KernelPipeline.from_json(PIPELINE_JSON)).results
    assert result.n_events_pass == 0
    assert sum(result.histograms[0].counts) == 0 and result.histograms[0].n_filled == 0


def test_constant_false_filter():
    batch = ColumnBatch({"px": np.array([1.0, 2.0]), "py": np.array([0.0, 0.0])})
    pipeline = KernelPipeline.from_json(
        [{"filter": "0"}, {"hist": ["h", "px", 4, 0, 4]}]
    )
    (result,) = run_pipeline(batch, pipeline).results
    assert result.n_events_pass == 0


def test_error_carries_step_index():
    batch = ColumnBatch({"px": np.array([1.0])})
    pipeline = KernelPipeline.from_json([{"filter": "nope > 1"}, {"hist": ["h", "px", 1, 0, 1]}])
    with pytest.raises(PipelineError, match="step 0"):
        run_pipeline(batch, pipeline)


def test_define_shadowing_rejected():
    with pytest.raises(PipelineError, match="shadows"):
        KernelPipeline.from_json(
            [{"define": ["x", "1"]}, {"define": ["x", "2"]}, {"hist": ["h", "x", 1, 0, 1]}]
        )
    batch = ColumnBatch({"px": np.array([1.0])})
    pipeline = KernelPipeline.from_json([{"define": ["px", "1"]}, {"hist": ["h", "px", 1, 0, 1]}])
    with pytest.raises(PipelineError, match="existing column"):
        run_pipeline(batch, pipeline)


def test_pipeline_needs_histogram():
    with pytest.raises(PipelineError, match="no histogram"):
        KernelPipeline.from_json([{"filter": "1"}])


def test_bad_hist_spec():
    with pytest.raises(PipelineError):
        KernelPipeline.from_json([{"hist": ["h", "x", 0, 0, 1]}])
    with pytest.raises(PipelineError):
        KernelPipeline.from_json([{"hist": ["h", "x", 4, 2, 2]}])


def test_input_columns():
    pipeline = KernelPipeline.from_json(PIPELINE_JSON)
    assert pipeline.input_columns() == {"px", "py"}


def _reference_run(batch: ColumnBatch, pipeline: KernelPipeline):
    # the step loop that the compiled plan replaced: every filter copies every column
    columns = dict(batch.columns)
    n_rows = batch.n_events
    histograms = []
    for step in pipeline.steps:
        if isinstance(step, Define):
            columns[step.name] = eval_expr(step.expr, columns, n_rows)
        elif isinstance(step, Filter):
            mask = eval_expr(step.expr, columns, n_rows) != 0.0
            columns = {name: arr[mask] for name, arr in columns.items()}
            n_rows = int(mask.sum())
        else:
            histograms.append(
                fill_histogram(eval_expr(step.expr, columns, n_rows), step.name, step.n_bins, step.lo, step.hi)
            )
    return n_rows, histograms


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), n_events=st.integers(min_value=0, max_value=300))
def test_filters_keep_only_live_columns_with_the_same_result(seed, n_events):
    pipeline = KernelPipeline.from_json(
        [
            {"define": ["pt", "sqrt(px*px+py*py)"]},
            {"filter": "pt>1 || eta != eta"},
            {"filter": "abs(eta)<2 && !(phi == 0)"},
            {"hist": ["h_pt", "pt", 12, 0, 6]},
        ]
    )
    # the first filter keeps what the second filter and the histogram read, the second only pt
    assert [keep for step, _, keep in pipeline._plan[1] if isinstance(step, Filter)] == [
        ("eta", "phi", "pt"),
        ("pt",),
    ]
    rng = np.random.default_rng(seed)
    columns = {name: rng.normal(0, 2, n_events) for name in ("px", "py", "eta", "phi", "unused")}
    columns["eta"][rng.random(n_events) < 0.1] = np.nan
    columns["phi"][rng.random(n_events) < 0.1] = 0.0
    batch = ColumnBatch(columns)
    (result,) = run_pipeline(batch, pipeline).results
    n_pass, want = _reference_run(batch, pipeline)
    assert result.n_events_pass == n_pass
    (got,) = result.histograms
    assert np.array_equal(got.counts, want[0].counts) and got.counts.dtype == want[0].counts.dtype
    assert (got.underflow, got.overflow, got.n_filled) == (want[0].underflow, want[0].overflow, want[0].n_filled)


def test_task_result_round_trip():
    batch = ColumnBatch({"px": np.array([3.0, 0.0]), "py": np.array([4.0, 0.0])})
    (result,) = run_pipeline(batch, KernelPipeline.from_json(PIPELINE_JSON), chunk_ids=[7]).results
    result.t_start, result.t_end = 1.0, 2.5
    back = TaskResult.from_dict(result.to_dict())
    assert (back.chunk_id, back.t_start, back.t_end) == (7, 1.0, 2.5)
    assert back.n_events_pass == result.n_events_pass
    assert np.array_equal(back.histograms[0].counts, result.histograms[0].counts)
    with pytest.raises(ValueError):
        TaskResult(chunk_id=0, n_events_in=1, n_events_pass=2, histograms=[])


# ---- partition invariance ----------------------------------------------------

_pipeline_strategy = st.sampled_from(
    [
        PIPELINE_JSON,
        [
            {"define": ["r", "sqrt(px*px+py*py)"]},
            {"filter": "r>0.5 && px<40"},
            {"hist": ["h_r", "r", 8, 0, 4]},
            {"hist": ["h_px", "px", 5, -3, 3]},
        ],
        [{"filter": "px>0"}, {"filter": "py>0"}, {"hist": ["h", "px+py", 6, 0, 6]}],
    ]
)


@settings(max_examples=30, deadline=None)
@given(
    n_events=st.integers(min_value=0, max_value=400),
    chunk_size=st.integers(min_value=1, max_value=97),
    seed=st.integers(min_value=0, max_value=2**31),
    pipeline_json=_pipeline_strategy,
)
def test_partition_invariance(n_events, chunk_size, seed, pipeline_json):
    """Merging per-chunk results equals one whole-batch run, bit for bit."""
    rng = np.random.default_rng(seed)
    columns = {
        "px": rng.normal(0, 2, n_events),
        "py": rng.normal(0, 2, n_events),
    }
    pipeline = KernelPipeline.from_json(pipeline_json)
    (whole,) = run_pipeline(ColumnBatch(columns), pipeline).results

    merged = None
    total_pass = 0
    for start in range(0, n_events, chunk_size):
        piece = {k: v[start : start + chunk_size] for k, v in columns.items()}
        (part,) = run_pipeline(ColumnBatch(piece), pipeline).results
        total_pass += part.n_events_pass
        if merged is None:
            merged = part.histograms
        else:
            merged = [merge_histograms(m, h) for m, h in zip(merged, part.histograms)]
    if n_events == 0:
        merged = whole.histograms
        total_pass = 0
    assert total_pass == whole.n_events_pass
    for m, w in zip(merged, whole.histograms):
        assert np.array_equal(m.counts, w.counts)
        assert (m.underflow, m.overflow, m.n_filled) == (w.underflow, w.overflow, w.n_filled)


# ---- segmented passes ---------------------------------------------------------

_segment_pipeline_strategy = st.sampled_from(
    [
        PIPELINE_JSON,
        [
            {"define": ["one", "1"]},
            {"filter": "1"},
            {"hist": ["h_one", "one", 3, 0, 3]},
            {"filter": "px>0"},
            {"hist": ["h_px", "px", 5, -2, 3]},
        ],
        [
            {"define": ["r", "sqrt(px*px+py*py)"]},
            {"filter": "r>0.5 && px<40"},
            {"hist": ["h_r", "r", 8, 0, 4]},
            {"hist": ["h_px", "px", 5, -3, 3]},
        ],
        [{"filter": "0"}, {"hist": ["h", "px", 4, 0, 4]}],
        [{"hist": ["h_all", "px", 4, -2, 2]}, {"filter": "px>0"}, {"filter": "py>0"}, {"hist": ["h", "px+py", 6, 0, 6]}],
        # a histogram after each filter, so each reads segment ids rebuilt after that filter
        [
            {"define": ["r", "sqrt(px*px+py*py)"]},
            {"filter": "px>0"},
            {"hist": ["h_r", "r", 6, 0, 6]},
            {"filter": "py>0 && r<4"},
            {"hist": ["h_py", "py", 5, 0, 5]},
            {"hist": ["h_r2", "r*r", 4, 0, 16]},
        ],
    ]
)

# NaN, +-inf, values whose slot overflows to +-inf, and the bin edges of the histograms above
_SPECIAL_VALUES = np.array([np.nan, np.inf, -np.inf, 1e308, -1e308, -3.0, -2.0, -1.8, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0])


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=12),
    seed=st.integers(min_value=0, max_value=2**31),
    pipeline_json=_segment_pipeline_strategy,
)
def test_a_segmented_pass_equals_a_run_per_chunk(lengths, seed, pipeline_json):
    """One pass over consecutive segments gives each segment, field by field,
    what a run over its rows alone gives, and what the reference loop gives."""
    rng = np.random.default_rng(seed)
    n_events = sum(lengths)
    columns = {}
    for name in ("px", "py"):
        values = rng.normal(0, 2, n_events)
        special = rng.random(n_events) < 0.25
        values[special] = rng.choice(_SPECIAL_VALUES, int(special.sum()))
        columns[name] = values
    ends = np.cumsum(lengths).tolist()
    starts = [end - n for end, n in zip(ends, lengths)]
    for start, end in zip(starts, ends):
        if rng.random() < 0.3:
            columns["px"][start:end] = -1.0  # a segment that px > 0 filters to no rows
        elif rng.random() < 0.3:
            columns["py"][start:end] = -1.0  # one that survives px > 0 only to lose every row to py > 0
    pipeline = KernelPipeline.from_json(pipeline_json)
    chunk_ids = [100 + 3 * i for i in range(len(lengths))]

    passed = run_pipeline(ColumnBatch(columns), pipeline, lengths, chunk_ids)

    assert passed.n_events_in == n_events
    assert [r.chunk_id for r in passed.results] == chunk_ids
    for result, chunk_id, start, end in zip(passed.results, chunk_ids, starts, ends):
        piece = ColumnBatch({name: values[start:end] for name, values in columns.items()})
        (alone,) = run_pipeline(piece, pipeline, chunk_ids=[chunk_id]).results
        assert result.to_dict() == alone.to_dict()
        assert (result.n_events_in, result.n_events_pass) == (end - start, alone.n_events_pass)
        n_pass, want = _reference_run(piece, pipeline)
        assert result.n_events_pass == n_pass
        assert [h.to_dict() for h in result.histograms] == [h.to_dict() for h in want]


def test_a_segmented_pass_refuses_a_define_that_shadows_a_column():
    batch = ColumnBatch({"px": np.array([1.0, 2.0, 3.0])})
    pipeline = KernelPipeline.from_json([{"define": ["px", "1"]}, {"hist": ["h", "px", 1, 0, 1]}])
    with pytest.raises(PipelineError, match="step 0: define 'px' shadows an existing column"):
        run_pipeline(batch, pipeline, [1, 2], [0, 1])


def test_segments_must_cover_the_batch():
    batch = ColumnBatch({"px": np.array([1.0, 2.0, 3.0])})
    pipeline = KernelPipeline.from_json(PIPELINE_JSON)
    with pytest.raises(ValueError, match="3-event batch"):
        run_pipeline(batch, pipeline, [1, 1], [0, 1])
    with pytest.raises(ValueError, match="1 chunk ids"):
        run_pipeline(batch, pipeline, [1, 2], [0])


# ---- a pass writes into nothing it was given ----------------------------------

_no_write_pipeline_strategy = st.sampled_from(
    [
        # nested arithmetic, calls and && over columns, whose temporaries the evaluator reuses
        [
            {"define": ["pt", "sqrt(px*px+py*py)"]},
            {"filter": "pt>1 && abs(eta)<2"},
            {"hist": ["h_pt", "pt", 8, 0, 8]},
            {"hist": ["h", "-(exp(eta/2) - log(abs(px)+1)) * (px+py)/2", 6, -6, 6]},
        ],
        # a define of a bare column: the define is the column itself, read after a filter
        [
            {"define": ["x", "px"]},
            {"filter": "x > -1 || !(py < 0)"},
            {"hist": ["h_x", "x", 4, -2, 2]},
            {"hist": ["h_neg", "-x", 4, -2, 2]},
            {"hist": ["h_sum", "2*(x+py) - min(x, 0)", 5, -5, 5]},
        ],
        # defines read after a filter, in expressions of their own
        [
            {"define": ["e", "exp(px/4)"]},
            {"define": ["d", "px-py"]},
            {"filter": "py>0 || px<0"},
            {"hist": ["h_e", "e", 5, 0, 5]},
            {"filter": "d*d < 9 && (e > 0.5 || e != e)"},
            {"hist": ["h_d", "sqrt(abs(d))*e", 5, 0, 5]},
        ],
        # constants alone, which evaluate to 0-d values, beside columns
        [
            {"filter": "min(0, 0) + 1"},
            {"hist": ["h_c", "max(1, 2) * px", 4, -4, 4]},
            {"hist": ["h_p", "abs(-(eta*1))", 4, 0, 4]},
        ],
    ]
)


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**31),
    pipeline_json=_no_write_pipeline_strategy,
)
def test_a_pass_never_writes_into_its_batch(lengths, seed, pipeline_json):
    """With its columns writable, so that a write would land rather than
    raise, a pass leaves every column of its batch as it was, bit for bit,
    and gives each segment what the reference loop gives its rows."""
    rng = np.random.default_rng(seed)
    n_events = sum(lengths)
    columns = {}
    for name in ("px", "py", "eta"):
        values = rng.normal(0, 2, n_events)
        special = rng.random(n_events) < 0.2
        values[special] = rng.choice(_SPECIAL_VALUES, int(special.sum()))
        columns[name] = values
    batch = ColumnBatch(columns)
    for values in batch.columns.values():
        values.flags.writeable = True
    before = {name: values.copy() for name, values in batch.columns.items()}
    pipeline = KernelPipeline.from_json(pipeline_json)

    passed = run_pipeline(batch, pipeline, lengths)

    for name, values in batch.columns.items():
        assert values.view(np.uint64).tolist() == before[name].view(np.uint64).tolist(), name
    start = 0
    for result, n in zip(passed.results, lengths):
        piece = ColumnBatch({name: values[start : start + n] for name, values in before.items()})
        n_pass, want = _reference_run(piece, pipeline)
        assert result.n_events_pass == n_pass
        assert [h.to_dict() for h in result.histograms] == [h.to_dict() for h in want]
        start += n
