"""Tests for the experiment harness and smoke tests for the examples."""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentRow,
    ExperimentTable,
    abstraction_processing_times,
    measure_order,
    prepare_benchmarks,
    scaled_duration,
    simulated_time_scale,
)
from repro.experiments.table1 import run_component as run_table1_component
from repro.experiments.table2 import run_component as run_table2_component
from repro.experiments.table3 import run_component as run_table3_component

SHORT = 40e-6  # very short simulated time: structure checks, not timing quality


@pytest.fixture(scope="module")
def prepared_rc1():
    return prepare_benchmarks(["RC1"])[0]


class TestCommon:
    def test_prepare_benchmarks_defaults_to_paper_set(self):
        names = [prepared.name for prepared in prepare_benchmarks()]
        assert names == ["2IN", "RC1", "RC20", "OA"]

    def test_scaled_duration_keeps_minimum_steps(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_TIME_SCALE", "1e-9")
        assert scaled_duration(100e-3, minimum_steps=1000) == pytest.approx(1000 * 50e-9)

    def test_scaled_duration_snaps_to_the_timestep_grid(self, monkeypatch):
        """Regression: an arbitrary scale factor must still produce a duration
        the fixed-step runners accept as an integer step count."""
        from repro.sim import resolve_steps

        monkeypatch.setenv("REPRO_SIM_TIME_SCALE", "0.1234567")
        duration = scaled_duration(100e-3)
        resolve_steps(duration, 50e-9)  # must not raise

    def test_time_scale_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_TIME_SCALE", "0.5")
        assert simulated_time_scale() == 0.5
        monkeypatch.setenv("REPRO_SIM_TIME_SCALE", "-1")
        with pytest.raises(ValueError):
            simulated_time_scale()

    def test_table_formatting(self):
        table = ExperimentTable("demo")
        table.add(ExperimentRow("RC1", "C++", "algo", 0.5, error=1e-6, speedup=10.0))
        text = table.to_text()
        assert "RC1" in text and "C++" in text and "10.00x" in text
        assert table.as_dicts()[0]["speedup"] == 10.0


class TestTable1:
    def test_rows_structure(self, prepared_rc1):
        """The rows' shape only: the wall-clock orderings (every target beats
        Verilog-AMS, C++ is the fastest) are a gate in
        ``benchmarks/test_perf_gates.py``, at a duration where each target
        runs long enough to be timed."""
        rows = run_table1_component(prepared_rc1, SHORT)
        targets = [row.target for row in rows]
        assert targets == ["Verilog-AMS", "SC-AMS/ELN", "SC-AMS/TDF", "SC-DE", "C++"]
        reference = rows[0]
        assert reference.error == 0.0 and reference.speedup == 1.0
        for row in rows[1:]:
            assert row.error is not None and row.error < 5e-2
            assert row.speedup is not None

    def test_reference_can_be_skipped(self, prepared_rc1):
        rows = run_table1_component(prepared_rc1, SHORT, baseline="SC-AMS/ELN")
        assert [row.target for row in rows] == ["SC-AMS/ELN", "SC-AMS/TDF", "SC-DE", "C++"]
        assert all(row.error is None for row in rows)
        assert rows[0].speedup == 1.0


class TestTable1Accuracy:
    #: 2000 analog steps, the minimum ``scaled_duration`` keeps.
    DURATION = 100e-6

    @pytest.mark.parametrize("component", ["2IN", "RC1", "RC20", "OA"])
    def test_every_target_tracks_the_reference(self, component):
        """Every target stays within NRMSE 5e-2 of Verilog-AMS ("negligible
        degradation of the output values of interest")."""
        prepared = prepare_benchmarks([component])[0]
        rows = run_table1_component(prepared, self.DURATION)
        assert rows[0].target == "Verilog-AMS"
        errors = {row.target: row.error for row in rows[1:]}
        assert len(errors) == 4
        assert all(error < 5e-2 for error in errors.values()), errors


class TestTable2:
    def test_speedups_relative_to_eln(self, prepared_rc1):
        rows = run_table2_component(prepared_rc1, SHORT)
        assert rows[0].target == "SC-AMS/ELN" and rows[0].speedup == 1.0
        cpp = [row for row in rows if row.target == "C++"][0]
        assert cpp.speedup is not None and cpp.speedup > 1.0

    def test_processing_times_report(self):
        times = abstraction_processing_times(["RC1"])
        assert "RC1" in times
        entry = times["RC1"]
        assert entry["total"] > 0.0
        assert entry["nodes"] == 3.0
        assert entry["branches"] == 3.0


class TestTable3:
    def test_component_rows(self, prepared_rc1):
        styles = (("C++", "algo", "python"), ("SC-DE", "algo", "de"))
        rows, results = run_table3_component(prepared_rc1, SHORT, styles=styles)
        assert [row.target for row in rows] == ["C++", "SC-DE"]
        assert rows[0].speedup == 1.0  # first style is the baseline
        assert results["python"].instructions == results["de"].instructions

    def test_sweep_component_opens_the_design_space(self, prepared_rc1):
        from repro.experiments.table3 import sweep_component
        from repro.sweep import GridSpec

        result = sweep_component(
            prepared_rc1,
            SHORT,
            styles=("python",),
            parameters=GridSpec(axes={"resistance": [4e3, 6e3]}),
        )
        assert result.n_scenarios == 2
        resistances = {s.params["resistance"] for s in result.scenarios}
        assert resistances == {4e3, 6e3}


class TestAbstractionCostStudy:
    def test_measure_order_reports_sizes(self):
        sample = measure_order(2)
        assert sample.nodes == 4
        assert sample.branches == 5
        assert sample.total_time > 0.0
        assert set(sample.timings) == {"acquisition", "enrichment", "assemble", "solve"}

    def test_format_sweep(self):
        from repro.experiments import format_sweep, run_sweep

        text = format_sweep(run_sweep(orders=[1, 2]))
        assert "order" in text and "total" in text


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestExamples:
    """The examples must at least import and expose a main() entry point."""

    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "smart_system_demo.py",
            "design_space_exploration.py",
            "codegen_tour.py",
            "sweep_tour.py",
            "platform_sweep_tour.py",
            "resume_tour.py",
            "vams_zoo_tour.py",
        ],
    )
    def test_example_defines_main(self, script):
        namespace = runpy.run_path(str(EXAMPLES / script), run_name="not_main")
        assert callable(namespace.get("main"))

    def test_codegen_tour_runs_end_to_end(self, capsys):
        namespace = runpy.run_path(str(EXAMPLES / "codegen_tour.py"), run_name="not_main")
        namespace["main"]()
        output = capsys.readouterr().out
        assert "SCA_TDF_MODULE" in output
        assert "Generated C++" in output

    def test_reproduce_tables_cli_help(self):
        from repro.experiments.report import main

        with pytest.raises(SystemExit):
            main(["--help"])

    def test_tables_cli_json_holds_processing_times(self, capsys, monkeypatch):
        from repro.experiments.report import main

        monkeypatch.setenv("REPRO_SIM_TIME_SCALE", "1e-9")
        assert main(["--table", "2", "--components", "RC1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        titles = [key for key in payload if key != "processing_times"]
        assert len(titles) == 1 and titles[0].startswith("Table II ")
        assert payload["processing_times"]["RC1"]["nodes"] == 3.0

    def test_tables_cli_json_holds_the_cost_study(self, capsys):
        from repro.experiments.report import main

        assert main(["--table", "cost", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["abstraction_cost"]
        assert [sample["order"] for sample in payload["abstraction_cost"]] == [1, 2, 4, 8, 16, 20, 32]
        assert payload["abstraction_cost"][0]["timings"]["solve"] > 0.0
