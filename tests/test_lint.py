"""Tests of the three-layer static-analysis pass (:mod:`repro.lint`).

Layer 1 (netlist semantics) must report seeded defects with *exact*
positions while the committed corpus, every paper benchmark and the
generated zoo stay error-free; layer 2 (codegen artifacts) mirrors the
SignalFlowModel contract and checks emitted python/C sources; layer 3
(determinism self-lint) keeps ``src/repro`` clean against an empty
baseline.  The emitters round-trip and escape hostile names, the strict
gates surface as :class:`LintError`/``lint-rejected``, and the zoo's
``plant_defect`` hook makes the linter's recall fuzz-testable.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from repro.circuits import paper_benchmarks, rc_benchmark
from repro.core import AbstractionFlow
from repro.core.codegen.native_backend import NativeGenerator
from repro.core.codegen.numpy_backend import NumpyGenerator
from repro.core.signalflow import Assignment, SignalFlowModel
from repro.errors import ReproError
from repro.expr import Access, BinaryOp, Constant, Variable
from repro.fault import (
    VERDICT_LINT,
    FaultCampaignRunner,
    FaultCampaignSpec,
    ResistorShortFault,
)
from repro.lint import (
    Diagnostic,
    LintError,
    LintReport,
    from_json,
    lint_artifact,
    lint_c_source,
    lint_circuit,
    lint_model,
    lint_netlist,
    lint_python_file,
    lint_python_source,
    lint_repo,
    lint_source,
    load_baseline,
    to_json,
    to_markdown,
    to_text,
    write_baseline,
)
from repro.lint.cli import main as lint_main
from repro.network import VCVS, Circuit, Resistor, VoltageSource
from repro.sim import SquareWave
from repro.vams import parse_source
from repro.vams.ast import POTENTIAL
from repro.vams.classify import CONSERVATIVE, SIGNAL_FLOW, classify_module
from repro.zoo.cli import run_recall_campaign
from repro.zoo.generate import (
    BREAKABLE_RULES,
    generate_netlist,
    plant_defect,
    render,
)
from repro.zoo.oracle import FRONTEND, LINT, OracleConfig, check_source

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"
CORPUS = Path(__file__).resolve().parent / "corpus"

HEADER = '`include "disciplines.vams"\n'


def single(report: LintReport, rule: str) -> Diagnostic:
    """The one diagnostic of ``rule`` in ``report`` (asserts exactly one)."""
    found = report.by_rule(rule)
    assert len(found) == 1, f"expected one {rule}, got {list(report)}"
    return found[0]


def times_two(variable: str = "u"):
    return BinaryOp("*", Constant(2.0), Variable(variable))


# ---------------------------------------------------------------------------
# Layer 1: seeded defects with exact positions
# ---------------------------------------------------------------------------
class TestNetlistRulesPositions:
    def test_floating_node_points_at_the_declaration(self):
        source = HEADER + dedent(
            """\
            module floater(vin, out);
              input vin; output out;
              electrical vin, out, dangle, gnd;
              ground gnd;
              analog begin
                V(out) <+ 2 * V(vin);
                I(out, dangle) <+ V(out, dangle) / 3300;
              end
            endmodule
            """
        )
        diagnostic = single(lint_source(source, file="floater.va"), "floating-node")
        assert "dangle" in diagnostic.message
        assert diagnostic.file == "floater.va"
        # line 4 is the electrical declaration; column 24 is 'dangle' itself
        assert (diagnostic.line, diagnostic.column) == (4, 24)

    def test_vsource_loop_positioned_at_the_offending_contribution(self):
        source = HEADER + dedent(
            """\
            module vloop(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              analog begin
                V(out) <+ 1.5;
                V(out) <+ 2.5;
                I(vin, out) <+ V(vin, out) / 1000;
              end
            endmodule
            """
        )
        diagnostic = single(lint_source(source), "vsource-loop")
        assert diagnostic.severity == "error"
        # the loop closes at the *second* potential drive of 'out' (line 8)
        assert (diagnostic.line, diagnostic.column) == (8, 5)

    def test_isource_cutset_flags_the_all_current_node(self):
        source = HEADER + dedent(
            """\
            module cutset(vin, out);
              input vin; output out;
              electrical vin, out, mid, gnd;
              ground gnd;
              analog begin
                I(vin, mid) <+ 1e-3;
                I(mid, gnd) <+ 2e-3;
                V(out) <+ V(mid);
                I(out, gnd) <+ V(out, gnd) / 1000;
              end
            endmodule
            """
        )
        diagnostic = single(lint_source(source), "isource-cutset")
        assert "mid" in diagnostic.message
        assert (diagnostic.line, diagnostic.column) == (4, 24)

    def test_nonphysical_negative_resistor(self):
        source = HEADER + dedent(
            """\
            module negr(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              analog begin
                V(out, gnd) <+ -50 * I(out, gnd);
                I(vin, out) <+ V(vin, out) / 1000;
              end
            endmodule
            """
        )
        diagnostic = single(lint_source(source), "nonphysical-value")
        assert diagnostic.severity == "error"
        assert (diagnostic.line, diagnostic.column) == (7, 5)

    def test_suspicious_magnitude_is_a_warning_not_an_error(self):
        source = HEADER + dedent(
            """\
            module huge(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              analog begin
                V(out, gnd) <+ 1e12 * I(out, gnd);
                I(vin, out) <+ V(vin, out) / 1000;
              end
            endmodule
            """
        )
        report = lint_source(source)
        assert report.ok  # warnings do not fail a lint run
        diagnostic = single(report, "suspicious-magnitude")
        assert diagnostic.severity == "warning"
        assert (diagnostic.line, diagnostic.column) == (7, 5)

    def test_zero_value_short_found_before_simplify_folds_it(self):
        source = HEADER + dedent(
            """\
            module zeroshort(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              analog begin
                V(out, gnd) <+ 0 * I(out, gnd);
                I(vin, out) <+ V(vin, out) / 1000;
              end
            endmodule
            """
        )
        diagnostic = single(lint_source(source), "zero-value")
        assert (diagnostic.line, diagnostic.column) == (7, 5)

    def test_zero_divisor_is_a_zero_value_error_too(self):
        source = HEADER + dedent(
            """\
            module zerodiv(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              analog begin
                I(out, gnd) <+ V(out, gnd) / 0;
                I(vin, out) <+ V(vin, out) / 1000;
              end
            endmodule
            """
        )
        diagnostic = single(lint_source(source), "zero-value")
        assert diagnostic.line == 7
        assert "division by zero" in diagnostic.message

    def test_dead_arm_on_literal_condition(self):
        source = HEADER + dedent(
            """\
            module deadarm(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              analog begin
                if (1 > 2)
                  V(out) <+ 2 * V(vin);
                else
                  V(out) <+ V(vin);
                I(vin, out) <+ V(vin, out) / 1000;
              end
            endmodule
            """
        )
        diagnostic = single(lint_source(source), "dead-arm")
        assert diagnostic.severity == "warning"
        assert (diagnostic.line, diagnostic.column) == (7, 5)
        assert "never executes" in diagnostic.message

    def test_parameter_conditions_are_not_dead(self):
        source = HEADER + dedent(
            """\
            module alive(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              parameter real gain = 2.0;
              analog begin
                if (gain >= 1.0)
                  V(out) <+ gain * V(vin);
                else
                  V(out) <+ V(vin);
                I(vin, out) <+ V(vin, out) / 1000;
              end
            endmodule
            """
        )
        assert not lint_source(source).by_rule("dead-arm")

    def test_unused_parameter_and_net(self):
        source = HEADER + dedent(
            """\
            module unused(vin, out);
              input vin; output out;
              electrical vin, out, spare, gnd;
              ground gnd;
              parameter real ghost = 5.0;
              analog begin
                V(out) <+ 2 * V(vin);
              end
            endmodule
            """
        )
        report = lint_source(source)
        parameter = single(report, "unused-parameter")
        assert "ghost" in parameter.message
        assert (parameter.line, parameter.column) == (6, 18)
        net = single(report, "unused-net")
        assert "spare" in net.message
        assert (net.line, net.column) == (4, 24)

    def test_parameter_used_only_by_another_default_is_not_unused(self):
        source = HEADER + dedent(
            """\
            module chained(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              parameter real base = 1000.0;
              parameter real r = 2 * base;
              analog begin
                I(vin, out) <+ V(vin, out) / r;
                I(out, gnd) <+ V(out, gnd) / r;
              end
            endmodule
            """
        )
        assert not lint_source(source).by_rule("unused-parameter")

    def test_parse_error_becomes_a_positioned_diagnostic(self):
        report = lint_source(HEADER + "module broken(;\nendmodule\n")
        diagnostic = single(report, "parse-error")
        assert diagnostic.severity == "error"
        assert (diagnostic.line, diagnostic.column) == (2, 15)

    def test_mixed_description_advisory_is_info(self):
        source = HEADER + dedent(
            """\
            module mixedmod(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              analog begin
                I(vin, out) <+ V(vin, out) / 1000;
                I(out, gnd) <+ V(out, gnd) / 2000;
                V(out) <+ 2 * V(vin);
              end
            endmodule
            """
        )
        report = lint_source(source)
        assert report.ok
        advisory = single(report, "mixed-description")
        assert advisory.severity == "info"
        # anchored at the signal-flow statement that makes the module mixed
        assert advisory.line == 9


# ---------------------------------------------------------------------------
# Layer 1: programmatic circuits and the clean committed surfaces
# ---------------------------------------------------------------------------
class TestCircuitAndCleanSurfaces:
    def test_lint_circuit_flags_mutated_nonphysical_resistor(self):
        # Fault models mutate via setattr, bypassing __post_init__ — the
        # linter must catch what construction-time validation cannot.
        circuit = rc_benchmark(1).circuit()
        resistor = circuit.branch("r1").component
        assert isinstance(resistor, Resistor)
        resistor.resistance = -1.0
        report = lint_circuit(circuit)
        assert not report.ok
        assert "r1" in single(report, "nonphysical-value").message

    def test_lint_circuit_clean_on_benchmarks(self):
        for benchmark in paper_benchmarks():
            assert lint_circuit(benchmark.circuit()).ok, benchmark.name

    def test_controlled_source_sense_nets_are_not_floating(self):
        circuit = Circuit("probe")
        circuit.add(VoltageSource(1.0), "vin", "gnd", name="vs")
        circuit.add(Resistor(1e3), "vin", "out", name="r1")
        circuit.add(Resistor(1e3), "out", "gnd", name="r2")
        circuit.add(VCVS(2.0, "out", "gnd"), "amp_out", "gnd", name="amp")
        circuit.add(Resistor(1e3), "amp_out", "gnd", name="rl")
        assert lint_circuit(circuit).ok

    def test_committed_corpora_and_benchmarks_have_zero_errors(self):
        report = LintReport()
        for path in sorted(CORPUS.glob("*.va")):
            report.extend(lint_source(path.read_text(), file=str(path)))
        for path in sorted((SRC_REPRO / "zoo" / "corpus").glob("*.va")):
            report.extend(lint_source(path.read_text(), file=str(path)))
        for benchmark in paper_benchmarks():
            report.extend(lint_source(benchmark.vams_source, file=benchmark.name))
        assert report.ok, to_text(report)

    def test_fifty_seed7_zoo_netlists_lint_clean(self):
        report = LintReport()
        for index in range(50):
            report.extend(lint_netlist(generate_netlist(7, index)))
        assert report.ok, to_text(report)


# ---------------------------------------------------------------------------
# Layer 2: IR, generated sources, artifacts
# ---------------------------------------------------------------------------
class TestArtifactRules:
    def model(self, **overrides) -> SignalFlowModel:
        fields = dict(
            name="m",
            inputs=["u"],
            outputs=["y"],
            assignments=[Assignment("y", times_two())],
            state_variables=[],
            initial_state={},
            timestep=1e-6,
        )
        fields.update(overrides)
        return SignalFlowModel(**fields)

    def test_clean_model_passes(self):
        assert lint_model(self.model()).ok

    def test_undefined_reference(self):
        model = self.model(assignments=[Assignment("y", times_two("ghost"))])
        assert "ghost" in single(lint_model(model), "ir-undefined-reference").message

    def test_duplicate_target(self):
        model = self.model(
            assignments=[
                Assignment("y", Variable("u")),
                Assignment("y", times_two()),
            ]
        )
        assert lint_model(model).by_rule("ir-duplicate-target")

    def test_output_never_computed(self):
        model = self.model(outputs=["y", "z"])
        assert "z" in single(lint_model(model), "ir-output-never-computed").message

    def test_nonfinite_constant_and_initial_state(self):
        model = self.model(
            assignments=[
                Assignment("y", BinaryOp("*", Constant(float("inf")), Variable("u")))
            ],
            state_variables=["y"],
            initial_state={"y": float("nan")},
        )
        assert len(lint_model(model).by_rule("ir-nonfinite-constant")) == 2

    def test_nonpositive_timestep(self):
        assert lint_model(self.model(timestep=0.0)).by_rule("ir-nonpositive-timestep")

    def test_abstracted_benchmark_models_lint_clean(self):
        for benchmark in paper_benchmarks():
            flow = AbstractionFlow(1e-6)
            model = flow.abstract(
                benchmark.circuit(), [benchmark.output], name=benchmark.name
            ).model
            assert lint_model(model).ok, benchmark.name

    def test_python_syntax_error_positioned(self):
        diagnostic = single(
            lint_python_source("def broken(:\n    pass\n"), "py-syntax-error"
        )
        assert diagnostic.line == 1

    def test_python_nonfinite_literals(self):
        report = lint_python_source("x = 1e999\ny = float('nan')\n")
        assert len(report.by_rule("py-nonfinite-literal")) == 2

    def test_state_write_before_read(self):
        code = dedent(
            """\
            class Kernel:
                def __init__(self):
                    self._prev_v = 0.0

                def step(self, u):
                    self._prev_v = u
                    return self._prev_v
            """
        )
        diagnostic = single(lint_python_source(code), "py-state-write-before-read")
        assert diagnostic.line == 6

    def test_state_read_then_write_is_fine(self):
        code = dedent(
            """\
            class Kernel:
                def __init__(self):
                    self._prev_v = 0.0

                def step(self, u):
                    value = self._prev_v + u
                    self._prev_v = value
                    return value
            """
        )
        assert lint_python_source(code).ok

    def test_reset_may_seed_state_like_init(self):
        code = dedent(
            """\
            class Kernel:
                def reset(self):
                    self._prev_v = 0.0
            """
        )
        assert not lint_python_source(code).by_rule("py-state-write-before-read")

    def test_emitted_numpy_batch_lints_clean(self):
        flow = AbstractionFlow(1e-6)
        model = flow.abstract(rc_benchmark(1).circuit(), ["out"], name="rc").model
        artifact = NumpyGenerator().generate_batch([model])
        source_report = lint_python_source(artifact.code.source)
        assert source_report.ok, to_text(source_report)
        assert lint_artifact(artifact).ok

    def test_emitted_c_source_lints_clean(self):
        flow = AbstractionFlow(1e-6)
        model = flow.abstract(rc_benchmark(1).circuit(), ["out"], name="rc").model
        report = lint_c_source(NativeGenerator().generate(model).source)
        assert report.ok, to_text(report)

    def test_c_undefined_identifier_and_nonfinite(self):
        code = dedent(
            """\
            void step(const double *params, double *state) {
                state[0] = mystery_call(params[0]);
                state[1] = INFINITY;
            }
            """
        )
        report = lint_c_source(code)
        assert any(
            "mystery_call" in d.message
            for d in report.by_rule("c-undefined-identifier")
        )
        assert report.by_rule("c-nonfinite-literal")

    def test_artifact_shape_mismatch(self):
        class FakeArtifact:
            code = "x = 1\n"
            parameters = np.zeros((2, 3))
            initial_state = np.zeros((1, 4))  # wrong scenario count
            n_scenarios = 3

        assert lint_artifact(FakeArtifact()).by_rule("artifact-shape-mismatch")

    def test_artifact_nonfinite_data(self):
        class FakeArtifact:
            code = "x = 1\n"
            parameters = np.array([[1.0, float("nan")]])
            initial_state = np.zeros((1, 2))
            n_scenarios = 2

        assert lint_artifact(FakeArtifact()).by_rule("artifact-nonfinite-data")


# ---------------------------------------------------------------------------
# Layer 3: the determinism self-lint
# ---------------------------------------------------------------------------
class TestSelfCheck:
    def lint_text(self, tmp_path, relative: str, text: str) -> LintReport:
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return lint_python_file(path, root=tmp_path)

    def test_bare_except_flagged_anywhere(self, tmp_path):
        report = self.lint_text(
            tmp_path, "anywhere.py", "try:\n    pass\nexcept:\n    pass\n"
        )
        assert single(report, "bare-except").line == 3

    def test_unseeded_default_rng(self, tmp_path):
        report = self.lint_text(
            tmp_path,
            "engine.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert single(report, "unseeded-rng").line == 2

    def test_seeded_default_rng_ok(self, tmp_path):
        report = self.lint_text(
            tmp_path,
            "engine.py",
            "import numpy as np\nrng = np.random.default_rng(7)\n",
        )
        assert not report.by_rule("unseeded-rng")

    def test_global_random_and_numpy_global_state(self, tmp_path):
        report = self.lint_text(
            tmp_path,
            "noise.py",
            "import random\nimport numpy as np\n"
            "a = random.random()\nb = np.random.rand(3)\n",
        )
        assert len(report.by_rule("unseeded-rng")) == 2

    def test_seeds_module_is_exempt(self, tmp_path):
        report = self.lint_text(
            tmp_path,
            "sweep/seeds.py",
            "import numpy as np\nroot = np.random.default_rng()\n",
        )
        assert not report.by_rule("unseeded-rng")

    def test_wall_clock_only_matters_in_store(self, tmp_path):
        source = "import time\nstamp = time.time()\n"
        assert self.lint_text(tmp_path, "store/keys.py", source).by_rule(
            "wall-clock-in-key-path"
        )
        assert not self.lint_text(tmp_path, "obs/trace.py", source).by_rule(
            "wall-clock-in-key-path"
        )

    def test_nonatomic_write_in_store_except_atomic_module(self, tmp_path):
        source = "from pathlib import Path\nPath('x').write_text('data')\n"
        assert self.lint_text(tmp_path, "store/index.py", source).by_rule(
            "nonatomic-write"
        )
        assert not self.lint_text(tmp_path, "store/atomic.py", source).by_rule(
            "nonatomic-write"
        )

    def test_dict_order_digest(self, tmp_path):
        bad = "import json\ntext = json.dumps({'b': 1, 'a': 2})\n"
        good = "import json\ntext = json.dumps({'b': 1}, sort_keys=True)\n"
        assert self.lint_text(tmp_path, "store/keys.py", bad).by_rule(
            "dict-order-digest"
        )
        assert not self.lint_text(tmp_path, "store/keys.py", good).by_rule(
            "dict-order-digest"
        )

    def test_src_repro_is_clean_with_an_empty_baseline(self):
        report = lint_repo(SRC_REPRO)
        assert len(report) == 0, to_text(report)


# ---------------------------------------------------------------------------
# Diagnostics, emitters, baseline
# ---------------------------------------------------------------------------
class TestDiagnosticsAndEmitters:
    def hostile_report(self) -> LintReport:
        report = LintReport()
        report.add(
            "floating-node",
            "error",
            "node 'a|b' has a `weird` <name>\nwith a newline",
            file="evil|file.va",
            line=3,
            column=7,
            hint="pipe | hint",
        )
        report.add(
            "dead-arm", "warning", "plain message", file="ok.va", line=1, column=1
        )
        report.add("mixed-description", "info", "advisory", file="ok.va")
        return report

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Diagnostic("rule", "fatal", "message")

    def test_report_ordering_and_aggregation(self):
        report = self.hostile_report()
        assert [d.file for d in report] == ["evil|file.va", "ok.va", "ok.va"]
        assert report.counts() == {"error": 1, "warning": 1, "info": 1}
        assert report.rules() == ["dead-arm", "floating-node", "mixed-description"]
        assert report.matrix()["floating-node"] == {"error": 1}
        assert not report.ok
        assert len(report.errors()) == 1

    def test_json_round_trip_is_lossless(self):
        report = self.hostile_report()
        recovered = from_json(to_json(report))
        assert sorted(d.sort_key() for d in recovered) == sorted(
            d.sort_key() for d in report
        )
        payload = json.loads(to_json(report))
        assert payload["version"] == 1
        assert payload["summary"]["error"] == 1

    def test_from_json_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            from_json(json.dumps({"version": 99, "diagnostics": []}))

    def test_markdown_escapes_hostile_names(self):
        markdown = to_markdown(self.hostile_report())
        assert "evil\\|file.va" in markdown
        assert "&lt;name&gt;" in markdown
        assert "\\`weird\\`" in markdown
        # the newline must not break the table row
        rows = [line for line in markdown.splitlines() if line.startswith("|")]
        assert len(rows) == 2 + 3  # header + separator + one row per finding

    def test_text_format(self):
        text = to_text(self.hostile_report())
        assert "evil|file.va:3:7: error[floating-node]" in text
        assert "(hint: pipe | hint)" in text

    def test_baseline_round_trip_and_suppression(self, tmp_path):
        report = self.hostile_report()
        path = tmp_path / "baseline.json"
        write_baseline(path, report)
        keys = load_baseline(path)
        assert len(keys) == 3
        assert len(report.suppress(keys)) == 0
        assert load_baseline(None) == frozenset()
        assert load_baseline(tmp_path / "missing.json") == frozenset()

    def test_baseline_keys_survive_line_renumbering(self, tmp_path):
        # The suppression key is position-independent: an unrelated edit
        # that shifts line numbers must not resurrect baselined findings.
        report = self.hostile_report()
        path = tmp_path / "baseline.json"
        write_baseline(path, report)
        moved = LintReport()
        for diagnostic in report:
            moved.add(
                diagnostic.rule,
                diagnostic.severity,
                diagnostic.message,
                file=diagnostic.file,
                line=diagnostic.line + 40,
                column=diagnostic.column + 2,
                hint=diagnostic.hint,
            )
        assert len(moved.suppress(load_baseline(path))) == 0

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_lint_error_carries_the_report(self):
        report = self.hostile_report()
        error = LintError(report)
        assert isinstance(error, ReproError)
        assert error.report is report
        assert "floating-node" in str(error)


# ---------------------------------------------------------------------------
# Satellite 1: structural flow detection in classify
# ---------------------------------------------------------------------------
class TestReferencesFlowRegression:
    def classify_body(self, body: str) -> str:
        source = HEADER + dedent(
            f"""\
            module m(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              analog begin
            {body}
              end
            endmodule
            """
        )
        return classify_module(parse_source(source)[0]).category

    def test_spaced_access_function_still_flow(self):
        # 'I (vin, out)' lexes as identifier + parenthesis: a textual
        # 'starts with I(' test missed it; the Access-node walk does not.
        assert self.classify_body("    V(out) <+ 1000 * I (vin, out);") == CONSERVATIVE

    def test_flow_access_inside_nested_expression(self):
        body = "    V(out) <+ 2 * (500 * I(vin, out) + 0);"
        assert self.classify_body(body) == CONSERVATIVE

    def test_identifier_resembling_access_is_not_flow(self):
        source = HEADER + dedent(
            """\
            module m(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              parameter real Ibias = 2.0;
              analog begin
                V(out) <+ Ibias * V(vin);
              end
            endmodule
            """
        )
        assert classify_module(parse_source(source)[0]).category == SIGNAL_FLOW

    def test_access_nodes_survive_parsing(self):
        source = HEADER + dedent(
            """\
            module m(vin, out);
              input vin; output out;
              electrical vin, out, gnd;
              ground gnd;
              analog begin
                V(out) <+ 2 * V(vin);
              end
            endmodule
            """
        )
        contribution = parse_source(source)[0].contributions()[0]
        accesses = [
            node
            for node in contribution.expression.walk()
            if isinstance(node, Access)
        ]
        assert accesses and accesses[0].kind == POTENTIAL


# ---------------------------------------------------------------------------
# Satellite 2: plant_defect and the recall campaign
# ---------------------------------------------------------------------------
class TestPlantDefect:
    def test_every_breakable_rule_is_recalled(self):
        for rule in BREAKABLE_RULES:
            base = generate_netlist(7, 0)
            broken = plant_defect(base, rule)
            assert broken.name.endswith("_broken_" + rule.replace("-", "_"))
            assert len(broken.components) == len(base.components) + 1
            report = lint_netlist(broken)
            assert rule in report.rules(), (rule, to_text(report))

    def test_base_netlist_is_untouched(self):
        base = generate_netlist(7, 1)
        plant_defect(base, "zero-value")
        assert lint_netlist(base).ok

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown breakable rule"):
            plant_defect(generate_netlist(7, 0), "no-such-rule")

    def test_broken_netlists_still_render_and_parse(self):
        for rule in BREAKABLE_RULES:
            source = render(plant_defect(generate_netlist(7, 2), rule))
            assert parse_source(source)

    def test_recall_campaign_all_rules(self):
        report = run_recall_campaign(7, 3, BREAKABLE_RULES)
        assert report.ok, report.failures
        assert report.checked == 3 * (1 + len(BREAKABLE_RULES))

    def test_recall_campaign_cli(self, capsys):
        from repro.zoo.cli import main as fuzz_main

        assert fuzz_main(["--break", "all", "--count", "3", "--seed", "7"]) == 0
        assert "recalled every planted defect" in capsys.readouterr().out
        assert fuzz_main(["--break", "bogus", "--count", "1"]) == 2


# ---------------------------------------------------------------------------
# Oracle integration: lint as a pre-execution stage
# ---------------------------------------------------------------------------
class TestOracleLintStage:
    def test_planted_defect_stops_at_the_lint_stage(self):
        source = render(plant_defect(generate_netlist(7, 0), "vsource-loop"))
        verdict = check_source(source, OracleConfig(duration=2e-5))
        assert not verdict.ok
        assert verdict.stage == LINT
        assert "vsource-loop" in verdict.detail

    def test_clean_generated_netlists_pass_the_lint_stage(self):
        # No lint-fatal/runtime-clean disagreement: every netlist the
        # engines can run must also get past the lint stage.
        for index in range(5):
            verdict = check_source(
                render(generate_netlist(7, index)), OracleConfig(duration=2e-5)
            )
            assert verdict.stage != LINT, verdict.detail
            assert verdict.ok, verdict.summary()

    def test_every_planted_defect_gets_a_verdict(self):
        # A non-physical value fails elaboration with a NetlistError, which
        # the oracle reports as a front-end verdict instead of raising.
        netlist = generate_netlist(7, 0)
        verdicts = {
            rule: check_source(
                render(plant_defect(netlist, rule)), OracleConfig(duration=2e-5)
            )
            for rule in BREAKABLE_RULES
        }
        nonphysical = verdicts["nonphysical-value"]
        assert not nonphysical.ok
        assert nonphysical.stage == FRONTEND
        assert "NetlistError" in nonphysical.detail


# ---------------------------------------------------------------------------
# Strict gates: sweep and fault campaigns
# ---------------------------------------------------------------------------
class TestStrictGates:
    def test_sweep_lint_gate_passes_clean_models(self):
        from repro.sweep import SweepRunner
        from repro.sweep.spec import GridSpec

        runner = SweepRunner(
            rc_benchmark(1).build,
            "out",
            {"vin": lambda t: 1.0},
            timestep=1e-6,
            lint=True,
        )
        result = runner.run(GridSpec(axes={"resistance": [1e3, 2e3]}), 2e-5)
        assert "V(out)" in result.outputs

    def test_sweep_lint_gate_raises_on_bad_model(self, monkeypatch):
        import repro.sweep.runner as runner_module
        from repro.sweep import SweepRunner
        from repro.sweep.spec import GridSpec

        original = runner_module._abstract_scenario

        def sabotage(config, scenario):
            model = original(config, scenario)
            model.outputs.append("phantom")  # never computed -> lint error
            return model

        monkeypatch.setattr(runner_module, "_abstract_scenario", sabotage)
        runner = SweepRunner(
            rc_benchmark(1).build,
            "out",
            {"vin": lambda t: 1.0},
            timestep=1e-6,
            lint=True,
        )
        with pytest.raises(LintError, match="never computed"):
            runner.run(GridSpec(axes={"resistance": [1e3]}), 2e-5)

    def test_fault_campaign_lint_rejects_nonphysical_mutant(self):
        spec = FaultCampaignSpec(
            faults=[
                ResistorShortFault("r1", resistance=-5.0),  # lint-fatal
                ResistorShortFault("r2", resistance=1e-2),  # legitimate
            ],
            seed=1,
        )
        bench = rc_benchmark(2)
        runner = FaultCampaignRunner(
            bench.build,
            bench.output,
            {"vin": SquareWave(period=4e-5)},
            lint=True,
            progress=False,
        )
        result = runner.run(spec, 4e-5)
        by_name = {
            entry.run.fault.name: entry
            for entry in result.verdicts()
            if entry.run.fault is not None
        }
        assert by_name["short:r1"].verdict == VERDICT_LINT
        assert "nonphysical-value" in by_name["short:r1"].detail
        assert by_name["short:r2"].verdict != VERDICT_LINT

    def test_without_the_gate_the_mutant_is_not_lint_rejected(self):
        spec = FaultCampaignSpec(
            faults=[ResistorShortFault("r1", resistance=-5.0)], seed=1
        )
        bench = rc_benchmark(1)
        runner = FaultCampaignRunner(
            bench.build,
            bench.output,
            {"vin": SquareWave(period=4e-5)},
            progress=False,
        )
        result = runner.run(spec, 4e-5)
        assert all(entry.verdict != VERDICT_LINT for entry in result.verdicts())


# ---------------------------------------------------------------------------
# CLI and dashboard
# ---------------------------------------------------------------------------
class TestCliAndDashboard:
    def seeded_file(self, tmp_path) -> Path:
        path = tmp_path / "negr.va"
        path.write_text(
            HEADER
            + dedent(
                """\
                module negr(vin, out);
                  input vin; output out;
                  electrical vin, out, gnd;
                  ground gnd;
                  analog begin
                    V(out, gnd) <+ -50 * I(out, gnd);
                    I(vin, out) <+ V(vin, out) / 1000;
                  end
                endmodule
                """
            )
        )
        return path

    def test_exit_codes(self, tmp_path, capsys):
        assert lint_main([]) == 2
        assert lint_main([str(tmp_path / "missing.va")]) == 2
        assert lint_main([str(self.seeded_file(tmp_path))]) == 1
        capsys.readouterr()
        assert lint_main([str(CORPUS)]) == 0

    def test_json_output_and_formats(self, tmp_path, capsys):
        source = self.seeded_file(tmp_path)
        json_path = tmp_path / "findings.json"
        assert lint_main([str(source), "--json", str(json_path)]) == 1
        capsys.readouterr()
        recovered = from_json(json_path.read_text())
        assert recovered.by_rule("nonphysical-value")
        assert lint_main([str(source), "--format", "markdown"]) == 1
        assert "| Location |" in capsys.readouterr().out

    def test_baseline_workflow(self, tmp_path, capsys):
        source = self.seeded_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(source), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert lint_main([str(source), "--baseline", str(baseline)]) == 0
        assert "suppressed by baseline" in capsys.readouterr().err

    def test_selfcheck_via_cli(self, capsys):
        assert lint_main(["--selfcheck", str(SRC_REPRO)]) == 0
        assert "clean" in capsys.readouterr().err

    def test_generated_and_benchmarks_via_cli(self, capsys):
        assert lint_main(["--benchmarks", "--generated", "10", "--seed", "7"]) == 0

    def test_console_script_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint.cli", "--selfcheck", str(SRC_REPRO)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr

    def test_lint_section_renders(self, tmp_path):
        from repro.report import Dashboard, lint_section
        from repro.report.dashboard import verify_dashboard

        report = lint_source(self.seeded_file(tmp_path).read_text(), file="negr.va")
        section = lint_section(report)
        assert "nonphysical-value" in section.body
        assert "Findings by rule" in section.body
        dashboard = Dashboard(title="lint")
        dashboard.add(section)
        path = dashboard.write(tmp_path / "lint.html")
        problems = verify_dashboard(path.read_text(), ("lint",))
        assert not problems, problems

    def test_lint_section_clean_report(self):
        from repro.report import lint_section

        section = lint_section(LintReport())
        assert "clean" in section.body

    def test_report_cli_consumes_lint_json(self, tmp_path, capsys):
        from repro.report.cli import main as report_main

        source = self.seeded_file(tmp_path)
        json_path = tmp_path / "findings.json"
        lint_main([str(source), "--json", str(json_path)])
        capsys.readouterr()
        out_path = tmp_path / "dash.html"
        assert (
            report_main(["--lint", str(json_path), "--check", "--out", str(out_path)])
            == 0
        )
        assert "dashboard verified" in capsys.readouterr().out
