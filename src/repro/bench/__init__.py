"""Experiment harness and reporting for the Section 6 reproductions."""

from .harness import (
    ProgressPoint,
    RunResult,
    compare_samplers,
    per_insert_times,
    percentile,
    progress_run,
    run_sampler,
    run_sampler_batched,
    run_with_timeout,
    speedup,
)
from .reporting import format_series, format_table, format_value

__all__ = [
    "ProgressPoint",
    "RunResult",
    "compare_samplers",
    "per_insert_times",
    "percentile",
    "progress_run",
    "run_sampler",
    "run_sampler_batched",
    "run_with_timeout",
    "speedup",
    "format_series",
    "format_table",
    "format_value",
]
