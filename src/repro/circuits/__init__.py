"""Benchmark circuits of the paper's evaluation (RCn, 2IN, OA)."""

from .library import (
    BenchmarkCircuit,
    benchmark_by_name,
    opamp_benchmark,
    paper_benchmarks,
    rc_benchmark,
    two_input_benchmark,
)
from .opamp import build_opamp, cutoff_frequency, dc_gain, opamp_source
from .rc_filter import build_rc_filter, rc_filter_source
from .two_input import build_two_input, ideal_gains, two_input_source

__all__ = [
    "BenchmarkCircuit",
    "benchmark_by_name",
    "build_opamp",
    "build_rc_filter",
    "build_two_input",
    "cutoff_frequency",
    "dc_gain",
    "ideal_gains",
    "opamp_benchmark",
    "opamp_source",
    "paper_benchmarks",
    "rc_benchmark",
    "rc_filter_source",
    "two_input_benchmark",
    "two_input_source",
]
