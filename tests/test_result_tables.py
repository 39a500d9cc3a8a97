"""CSV and markdown tables of the campaign results keep their columns.

Every result quotes through :mod:`csv`, so a label, parameter, firmware,
stimulus or verdict detail holding commas and double quotes comes back from
:func:`csv.reader` as the exact cell text, in a row of the header's length.
Every markdown table escapes its cells, so a ``|`` in a label, fault name or
detail does not add a column.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import replace

import numpy as np

from repro.fault import (
    FaultCampaignResult,
    FaultScenario,
    MemoryBitFlipFault,
    ResistorOpenFault,
)
from repro.sweep import PlatformScenario, PlatformSweepResult, Scenario, SweepResult
from repro.vp import PlatformRunResult

LABEL = 'sq "a", b'
FIRMWARE = "fw,v2"
PARAMS = {'r,"1"': 1.5, "c": 2.0}


def parsed(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def run_result(uart: str = 'x,"y"') -> PlatformRunResult:
    return PlatformRunResult(
        simulated_time=1e-5,
        instructions=10,
        bus_transactions=2,
        uart_output=uart,
        analog_samples=3,
        crossings_reported=1,
        analog_style="python",
        analog_trace=[0.0, 0.5, 1.0],
    )


def platform_scenario(index: int = 0) -> PlatformScenario:
    return PlatformScenario(
        index=index,
        label=LABEL,
        params=dict(PARAMS),
        style="python",
        firmware=FIRMWARE,
        stimulus=LABEL,
        seed=0,
    )


def test_sweep_result_csv_round_trips():
    result = SweepResult(
        scenarios=[Scenario(index=0, label=LABEL, params=dict(PARAMS), origin=LABEL)],
        times=np.array([0.0, 1.0]),
        outputs={"out": np.array([[0.0, 1.0]])},
        backend="numpy",
    )
    rows = parsed(result.to_csv())
    assert rows == [result._header_cells(), result._row_cells(0)]
    assert rows[1][1:4] == [LABEL, LABEL, 'r,"1"=1.5;c=2']


def test_platform_sweep_result_csv_round_trips():
    result = PlatformSweepResult(
        scenarios=[platform_scenario()],
        results=[run_result()],
        elapsed=np.array([0.25]),
        duration=1e-5,
        timestep=50e-9,
    )
    rows = parsed(result.to_csv())
    assert len(rows[0]) == 12
    assert rows == [result._header_cells(), result._row_cells(0)]
    assert rows[1][1:6] == [LABEL, 'r,"1"=1.5;c=2', "python", FIRMWARE, LABEL]


def test_fault_campaign_result_csv_round_trips():
    golden = FaultScenario(**vars(platform_scenario()))
    faulted = FaultScenario(
        **vars(platform_scenario(1)), fault=MemoryBitFlipFault(bit=0), at_time=5e-6
    )
    result = FaultCampaignResult(
        scenarios=[golden, faulted],
        results=[run_result(), run_result(uart='z,"w"')],
        elapsed=np.zeros(2),
        duration=1e-5,
        timestep=50e-9,
    )
    (entry,) = result.verdicts()
    assert '"' in entry.detail and "," in entry.detail
    rows = parsed(result.to_csv())
    assert rows == [result.verdict_header(), result.verdict_row(entry)]
    assert rows[1][5:9] == [LABEL, "python", FIRMWARE, LABEL]
    assert rows[1][-1] == entry.detail


PIPE = "a | b"


def markdown_column_counts(text: str) -> list[list[int]]:
    """Per markdown table, the cell count of each line split on unescaped ``|``."""
    tables, table = [], []
    for line in [*text.splitlines(), ""]:
        if line.startswith("|"):
            table.append(len(re.split(r"(?<!\\)\|", line)) - 2)
        elif table:
            tables.append(table)
            table = []
    return tables


def assert_rows_match_their_headers(text: str, n_tables: int) -> None:
    tables = markdown_column_counts(text)
    assert len(tables) == n_tables
    for counts in tables:
        assert len(counts) >= 2 and counts == [counts[0]] * len(counts), counts


def test_sweep_result_markdown_keeps_its_columns():
    result = SweepResult(
        scenarios=[Scenario(index=0, label=PIPE, params={PIPE: 1.5}, origin=PIPE)],
        times=np.array([0.0, 1.0]),
        outputs={PIPE: np.array([[0.0, 1.0]])},
        backend="numpy",
    )
    assert_rows_match_their_headers(result.to_markdown(), 2)


def test_platform_sweep_result_markdown_keeps_its_columns():
    scenario = replace(platform_scenario(), label=PIPE, firmware=PIPE, stimulus=PIPE)
    result = PlatformSweepResult(
        scenarios=[scenario],
        results=[run_result()],
        elapsed=np.array([0.25]),
        duration=1e-5,
        timestep=50e-9,
    )
    assert PIPE in result._row_cells(0)
    assert_rows_match_their_headers(result.to_markdown(), 2)


def test_fault_campaign_result_markdown_keeps_its_columns():
    golden = FaultScenario(**vars(replace(platform_scenario(), label=PIPE)))
    faulted = FaultScenario(
        **vars(replace(platform_scenario(1), label=PIPE)),
        fault=ResistorOpenFault(branch=PIPE),
    )
    result = FaultCampaignResult(
        scenarios=[golden, faulted],
        results=[run_result(uart="L"), run_result(uart="|")],
        elapsed=np.zeros(2),
        duration=1e-5,
        timestep=50e-9,
    )
    (entry,) = result.verdicts()
    assert entry.detail == "UART diverged ('L' -> '|')"
    assert "|" in entry.run.fault.name
    assert_rows_match_their_headers(result.to_markdown(), 3)
