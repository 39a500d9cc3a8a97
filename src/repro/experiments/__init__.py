"""Experiment harness regenerating the paper's tables and cost studies."""

from .abstraction_cost import (
    AbstractionCostSample,
    format_sweep,
    measure_order,
    run_sweep,
)
from .common import (
    DEFAULT_TIME_SCALE,
    PAPER_TABLE1_SIMULATED_TIME,
    PAPER_TABLE2_SIMULATED_TIME,
    PAPER_TABLE3_SIMULATED_TIME,
    PAPER_TIMESTEP,
    ExperimentRow,
    ExperimentTable,
    PreparedBenchmark,
    prepare_benchmarks,
    scaled_duration,
    simulated_time_scale,
)
from .table1 import run_table1
from .table2 import abstraction_processing_times, run_table2
from .table3 import run_table3

__all__ = [
    "AbstractionCostSample",
    "DEFAULT_TIME_SCALE",
    "ExperimentRow",
    "ExperimentTable",
    "PAPER_TABLE1_SIMULATED_TIME",
    "PAPER_TABLE2_SIMULATED_TIME",
    "PAPER_TABLE3_SIMULATED_TIME",
    "PAPER_TIMESTEP",
    "PreparedBenchmark",
    "abstraction_processing_times",
    "format_sweep",
    "measure_order",
    "prepare_benchmarks",
    "run_sweep",
    "run_table1",
    "run_table2",
    "run_table3",
    "scaled_duration",
    "simulated_time_scale",
]
