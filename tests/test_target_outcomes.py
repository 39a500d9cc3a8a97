"""Pinned analog-target outputs: every backend's source and the conservative traces.

The codegen tests check substrings of the emitted text and the engine tests
compare engines within tolerances, so a rewrite of a backend or an engine
could change its output unnoticed.  This test compares against a committed
table instead.  For each paper component (2IN, RC1, RC20, OA) abstracted at
50 ns it holds:

* the SHA-256 of the source every ``generate_all`` backend emits;
* the SHA-256 of the times and of the values that ``run_eln_model`` and
  ``run_reference_model`` record for the output over 200 steps of a square
  wave whose edges sit half a step off the grid.

The table was recorded before the reference engine became an ELN subclass
and the two SystemC generators one emitter.  Re-record it only for a
deliberate change of generated code or simulated behaviour:
``PYTHONPATH=src python tests/test_target_outcomes.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import paper_benchmarks
from repro.core.codegen import generate_all
from repro.core.flow import AbstractionFlow
from repro.sim import SquareWave, run_eln_model, run_reference_model

TABLE = Path(__file__).parent / "corpus" / "target_outcomes.json"

TIMESTEP = 50e-9
STEPS = 200
BENCHMARKS = {benchmark.name: benchmark for benchmark in paper_benchmarks()}


def digest(data: "str | list[float]") -> str:
    """SHA-256 of a source text, or of samples packed as little-endian float64."""
    if isinstance(data, str):
        return hashlib.sha256(data.encode()).hexdigest()
    return hashlib.sha256(np.asarray(data, dtype="<f8").tobytes()).hexdigest()


def stimuli(benchmark) -> dict:
    """One square wave per input, each edge half a step off the grid."""
    return {
        name: SquareWave(
            amplitude=1.0 / (index + 1),
            period=(40 + 10 * index) * TIMESTEP,
            duty=0.4,
            delay=TIMESTEP / 2.0,
        )
        for index, name in enumerate(sorted(benchmark.stimuli))
    }


def outcome(name: str) -> dict:
    """The pinned outputs of one component, computed on the current tree."""
    benchmark = BENCHMARKS[name]
    model = (
        AbstractionFlow(TIMESTEP)
        .abstract(benchmark.circuit(), benchmark.output, name=name.lower())
        .model
    )
    sources = {
        backend: digest(code.source) for backend, code in generate_all(model).items()
    }
    traces = {}
    for runner in (run_eln_model, run_reference_model):
        trace = runner(
            benchmark.circuit(),
            stimuli(benchmark),
            STEPS * TIMESTEP,
            TIMESTEP,
            [benchmark.output_quantity],
        )[benchmark.output_quantity]
        traces[runner.__name__] = {
            "samples": len(trace),
            "times": digest(list(trace.times)),
            "values": digest(list(trace.values)),
        }
    return {"sources": sources, "traces": traces}


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_outputs_match_the_pinned_table(name, table):
    assert outcome(name) == table[name]


def test_table_covers_every_component(table):
    assert sorted(table) == sorted(BENCHMARKS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: tests/test_target_outcomes.py --record")
    TABLE.write_text(
        json.dumps({name: outcome(name) for name in BENCHMARKS}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {TABLE}")
