"""Tests of the two-layer static-analysis pass (:mod:`repro.lint`).

Layer 1 (netlist semantics) must report seeded defects with *exact*
positions while the committed corpus, every paper benchmark and the
generated zoo stay error-free; layer 2 (determinism self-lint) keeps
``src/repro`` clean.  The JSON emitter round-trips hostile names, and the
zoo's ``plant_defect`` hook makes the linter's recall fuzz-testable.  The
signal-flow IR contract is tested with ``SignalFlowModel.validate`` in
``tests/test_core_signalflow.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import pytest

from repro.circuits import paper_benchmarks
from repro.expr import Access
from repro.lint import (
    Diagnostic,
    LintReport,
    from_json,
    lint_netlist,
    lint_python_file,
    lint_repo,
    lint_source,
    netlist_rules,
    to_json,
    to_text,
)
from repro.lint.cli import main as lint_main
from repro.vams import parse_source, to_circuit
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
# Layer 1: sensed nets and the clean committed surfaces
# ---------------------------------------------------------------------------
#: A VCVS senses ``out`` through a divider; without ``r2``, ``out`` is a
#: probe point that only ``r1`` touches.
SENSED = HEADER + dedent(
    """\
    module probe(vin, amp_out);
      input vin; output amp_out;
      electrical vin, out, amp_out, gnd;
      ground gnd;
      analog begin
        I(vin, out) <+ V(vin, out) / 1k;
        I(out, gnd) <+ V(out, gnd) / 1k;
        V(amp_out, gnd) <+ 2.0 * V(out, gnd);
        I(amp_out, gnd) <+ V(amp_out, gnd) / 1k;
      end
    endmodule
    """
)


class TestCircuitAndCleanSurfaces:
    @pytest.mark.parametrize(
        "source",
        [SENSED, SENSED.replace("    I(out, gnd) <+ V(out, gnd) / 1k;\n", "")],
        ids=["divider", "probe-point"],
    )
    def test_controlled_source_sense_nets_are_not_floating(self, source):
        report = lint_source(source)
        assert report.ok, to_text(report)
        assert not report.by_rule("floating-node")

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

    @pytest.mark.parametrize("surface", ("zoo-corpus", "generated"))
    def test_linted_edges_are_the_elaborated_branches(self, surface, monkeypatch):
        """The edges a module's lint checks are ``to_circuit``'s branches, in
        order, implicit input sources included."""
        if surface == "zoo-corpus":
            paths = sorted((SRC_REPRO / "zoo" / "corpus").glob("*.va"))
            sources = [path.read_text() for path in paths]
        else:
            sources = [render(generate_netlist(7, index)) for index in range(50)]
        linted = []
        lint_graph = netlist_rules._lint_graph

        def record(edges, **options):
            linted.append([(e.label, e.positive, e.negative, e.kind) for e in edges])
            lint_graph(edges, **options)

        monkeypatch.setattr(netlist_rules, "_lint_graph", record)
        elaborated = []
        for source in sources:
            lint_source(source)
            for module in parse_source(source):
                elaborated.append(
                    [
                        (b.name, b.positive, b.negative, type(b.component))
                        for b in to_circuit(module)
                    ]
                )
        assert len(elaborated) == len(sources)
        assert linted == elaborated


# ---------------------------------------------------------------------------
# Layer 2: the determinism self-lint
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

    def test_unused_import_flagged(self, tmp_path):
        report = self.lint_text(
            tmp_path,
            "engine.py",
            "import json\nimport os\nfrom typing import Mapping, Sequence\n"
            "table: Mapping = json.loads('{}')\n",
        )
        found = sorted((d.line, d.message) for d in report.by_rule("unused-import"))
        assert found == [
            (2, "'os' is imported but never used"),
            (3, "'Sequence' is imported but never used"),
        ]

    @pytest.mark.parametrize(
        "source",
        [
            "from .base import helper\n__all__ = ['helper']\n",
            "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy as np\n"
            "def f(x: 'np.ndarray') -> 'list[np.float64]':\n    return []\n",
            "from __future__ import annotations\n",
        ],
        ids=["all", "string-annotation", "future"],
    )
    def test_names_read_without_a_load_are_not_flagged(self, tmp_path, source):
        report = self.lint_text(tmp_path, "pkg/__init__.py", source)
        assert not report.by_rule("unused-import"), to_text(report)

    def test_src_repro_is_clean(self):
        report = lint_repo(SRC_REPRO)
        assert len(report) == 0, to_text(report)


# ---------------------------------------------------------------------------
# Diagnostics and emitters
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

    def test_text_format(self):
        text = to_text(self.hostile_report())
        assert "evil|file.va:3:7: error[floating-node]" in text
        assert "(hint: pipe | hint)" in text


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
        assert lint_main([str(source), "--format", "json"]) == 1
        assert from_json(capsys.readouterr().out).by_rule("nonphysical-value")
        assert lint_main([str(source), "--format", "text"]) == 1
        assert "error[nonphysical-value]" in capsys.readouterr().out

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
