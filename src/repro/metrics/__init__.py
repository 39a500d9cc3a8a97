"""Metrics: waveform accuracy (NRMSE) and wall-clock timing."""

from .nrmse import compare_trace_sets, compare_traces, nrmse, rmse
from .timing import measure

__all__ = [
    "compare_trace_sets",
    "compare_traces",
    "measure",
    "nrmse",
    "rmse",
]
