from .expr import Expr, ExprError, ExprEvalError, ExprSyntaxError, eval_expr, needed_columns, parse_expr
from .hist import Histogram, fill_histogram, merge_histograms
from .pipeline import (
    Define,
    Filter,
    HistSpec,
    KernelPipeline,
    PassResult,
    PipelineError,
    TaskResult,
    run_pipeline,
)

__all__ = [
    "Expr",
    "ExprError",
    "ExprEvalError",
    "ExprSyntaxError",
    "eval_expr",
    "needed_columns",
    "parse_expr",
    "Histogram",
    "fill_histogram",
    "merge_histograms",
    "Define",
    "Filter",
    "HistSpec",
    "KernelPipeline",
    "PassResult",
    "PipelineError",
    "TaskResult",
    "run_pipeline",
]
