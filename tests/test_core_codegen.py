"""Tests for the code-generation backends (Step 4 of the methodology)."""

from __future__ import annotations

import re
import shutil
import subprocess

import numpy as np
import pytest

from repro.core import abstract_circuit
from repro.core.codegen import (
    GENERATORS,
    CppGenerator,
    NumpyGenerator,
    PythonGenerator,
    SystemCDeGenerator,
    SystemCTdfGenerator,
    compile_model,
    generate_all,
    get_generator,
    mangle,
)
from repro.core.signalflow import Assignment, SignalFlowModel
from repro.circuits import build_opamp, build_rc_filter
from repro.errors import CodeGenerationError
from repro.expr import Variable
from repro.sim import SineWave, SquareWave
from repro.zoo.oracle import ENGINE, OracleConfig, check_source

DT = 50e-9

HEADER = '`include "disciplines.vams"\n'

#: An RC low-pass whose input port is the Python keyword ``in``.
KEYWORD_PORT = HEADER + """
module rcin(in, out);
  input in; output out;
  electrical in, out, gnd;
  ground gnd;
  analog begin
    I(in, out) <+ V(in, out) / 1k;
    I(out, gnd) <+ 100n * ddt(V(out, gnd));
  end
endmodule
"""

#: A 2-stage RC ladder whose nets ``OUT`` and ``out`` both mangle to ``v_out``.
CASE_CLASH = HEADER + """
module ladder(vin, out);
  input vin; output out;
  electrical vin, OUT, out, gnd;
  ground gnd;
  analog begin
    I(vin, OUT) <+ V(vin, OUT) / 1k;
    I(OUT, gnd) <+ 100n * ddt(V(OUT, gnd));
    I(OUT, out) <+ V(OUT, out) / 1k;
    I(out, gnd) <+ 100n * ddt(V(out, gnd));
  end
endmodule
"""


@pytest.fixture(scope="module")
def rc_model():
    return abstract_circuit(build_rc_filter(1), "out", DT)


@pytest.fixture(scope="module")
def oa_model():
    return abstract_circuit(build_opamp(), "out", DT)


class TestMangling:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("V(out)", "v_out"),
            ("I(R1)", "i_r1"),
            ("V(a,b)", "v_a_b"),
            ("$abstime", "abstime"),
            ("vin", "vin"),
            ("__idt_0", "idt_0"),
            ("in", "in_"),
            ("Lambda", "lambda_"),
            ("V(in)", "v_in"),
        ],
    )
    def test_quantity_names(self, name, expected):
        assert mangle(name) == expected

    def test_leading_digit_gets_prefix(self):
        assert mangle("2in")[0].isalpha()

    def test_empty_name_rejected(self):
        with pytest.raises(CodeGenerationError):
            mangle("")


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(GENERATORS) == {
            "cpp",
            "python",
            "numpy",
            "systemc_de",
            "systemc_tdf",
            "native",
        }

    def test_get_generator(self):
        assert isinstance(get_generator("cpp"), CppGenerator)
        with pytest.raises(CodeGenerationError):
            get_generator("fortran")

    def test_generate_all_produces_every_backend(self, rc_model):
        artefacts = generate_all(rc_model)
        assert set(artefacts) == set(GENERATORS)
        for generated in artefacts.values():
            assert generated.line_count() > 10
            assert generated.model_name == rc_model.name


class TestPythonBackend:
    def test_compiled_model_matches_interpreter(self, oa_model):
        compiled_class = compile_model(oa_model)
        instance = compiled_class()
        stimulus = SquareWave(period=20e-6)
        state = oa_model.create_state()
        time = 0.0
        for _ in range(500):
            time += DT
            value = stimulus(time)
            interpreted = oa_model.step({"vin": value}, state, time)[oa_model.outputs[0]]
            generated = instance.step(value, time)
            assert generated == pytest.approx(interpreted, rel=1e-12, abs=1e-15)

    def test_class_metadata(self, rc_model):
        compiled_class = compile_model(rc_model)
        assert compiled_class.INPUTS == ("vin",)
        assert compiled_class.OUTPUTS == ("V(out)",)
        assert compiled_class.TIMESTEP == pytest.approx(DT)

    def test_reset_restores_initial_state(self, rc_model):
        instance = compile_model(rc_model)()
        for _ in range(10):
            instance.step(1.0)
        before_reset = instance.step(1.0)
        instance.reset()
        after_reset = instance.step(1.0)
        assert after_reset < before_reset

    def test_source_is_documented(self, rc_model):
        generated = PythonGenerator().generate(rc_model)
        assert '"""' in generated.source
        assert "def step(self, vin" in generated.source


class TestCppBackend:
    def test_structure(self, rc_model):
        source = CppGenerator().generate(rc_model).source
        assert "#include <cmath>" in source
        assert "class Rc1Cpp" in source
        assert "double step(double vin" in source
        assert "prev_v_out" in source
        assert f"kTimestep = {DT!r}" in source

    def test_multi_output_signature(self):
        model = abstract_circuit(build_rc_filter(2), ["out", "n1"], DT)
        source = CppGenerator().generate(model).source
        assert "void step(" in source
        assert "outputs[2]" in source


class TestSystemCBackends:
    def test_de_module_structure(self, rc_model):
        source = SystemCDeGenerator().generate(rc_model).source
        assert "SC_MODULE(Rc1ScDe)" in source
        assert "sc_core::sc_in<double> vin;" in source
        assert "SC_METHOD(process);" in source
        assert "m_tick.notify(" in source

    def test_tdf_module_structure(self, rc_model):
        source = SystemCTdfGenerator().generate(rc_model).source
        assert "SCA_TDF_MODULE(Rc1ScaTdf)" in source
        assert "sca_tdf::sca_in<double> vin;" in source
        assert "set_timestep(" in source
        assert "void processing()" in source

    def test_inputs_read_through_ports(self, rc_model):
        source = SystemCDeGenerator().generate(rc_model).source
        assert "vin.read()" in source


class TestGeneratedNumericalEquivalence:
    def test_all_backends_share_the_same_equations(self, rc_model):
        """The arithmetic text emitted by each backend must contain the same
        coefficients (they all render the same signal-flow model)."""
        artefacts = generate_all(rc_model)
        python_source = artefacts["python"].source
        coefficient = [
            token
            for token in python_source.replace("*", " ").split()
            if token.startswith("0.000399")
        ][0]
        for name in ("cpp", "systemc_de", "systemc_tdf"):
            assert coefficient in artefacts[name].source

    def test_generated_model_long_run_is_stable(self, rc_model):
        instance = compile_model(rc_model)()
        values = [instance.step(1.0) for _ in range(20000)]
        assert values[-1] == pytest.approx(1.0, rel=1e-3)
        assert np.all(np.isfinite(values))


class TestIdentifierClashes:
    def test_a_keyword_port_runs_like_the_interpreter(self):
        model = abstract_circuit(KEYWORD_PORT, "out", DT)
        assert "def step(self, in_, abstime=0.0):" in PythonGenerator().generate(model).source
        python = compile_model(model)()
        batch = NumpyGenerator().generate_batch([model]).instantiate()
        stimulus = SineWave(amplitude=1.0, frequency=10e3)
        state = model.create_state()
        for index in range(400):
            time = (index + 1) * DT
            value = stimulus(time)
            interpreted = model.step({"in": value}, state, time)["V(out)"]
            assert python.step(value, time) == pytest.approx(interpreted, rel=1e-12, abs=1e-15)
            assert float(batch.step_batch(value, time)[0]) == pytest.approx(
                interpreted, rel=1e-12, abs=1e-15
            )
        verdict = check_source(KEYWORD_PORT, OracleConfig(duration=2e-5))
        assert verdict.ok, verdict.summary()

    def test_quantities_that_mangle_alike_are_refused(self):
        model = abstract_circuit(CASE_CLASH, "out", DT)
        assert {"V(OUT)", "V(out)"} <= {a.target for a in model.assignments}
        for name in ("python", "numpy", "native", "cpp", "systemc_de", "systemc_tdf"):
            with pytest.raises(CodeGenerationError, match=r"'V\(OUT\)' and 'V\(out\)'"):
                GENERATORS[name]().generate(model)
        verdict = check_source(CASE_CLASH, OracleConfig(duration=2e-5))
        assert verdict.stage == ENGINE
        assert "'V(OUT)' and 'V(out)' both mangle to 'v_out'" in verdict.detail

    @pytest.mark.parametrize(
        "quantity, refused_by",
        [
            ("self", {"python", "numpy"}),
            ("math", {"python"}),
            ("max", {"python"}),
            ("np", {"numpy"}),
            ("$abstime", {"python", "numpy", "cpp"}),
            ("abstime", {"python", "numpy", "cpp"}),
        ],
    )
    def test_a_quantity_may_not_take_an_identifier_the_code_uses(self, quantity, refused_by):
        model = SignalFlowModel(
            name="m",
            inputs=["u"],
            outputs=[quantity],
            assignments=[Assignment(quantity, Variable("u"))],
            timestep=DT,
        )
        for name in ("python", "numpy", "cpp"):
            generator = GENERATORS[name]()
            if name in refused_by:
                with pytest.raises(CodeGenerationError, match=re.escape(f"quantity {quantity!r}")):
                    generator.generate(model)
            else:
                generator.generate(model)

    def test_a_reassigned_quantity_is_not_a_clash(self, reassigned_model, tmp_path):
        for name in ("python", "numpy", "native"):
            GENERATORS[name]().generate(reassigned_model)
        targets = {mangle(a.target) for a in reassigned_model.assignments}
        for name in ("cpp", "systemc_de", "systemc_tdf"):
            source = GENERATORS[name]().generate(reassigned_model).source
            for target in targets:
                declarations = re.findall(rf"\bdouble {target} =", source)
                assert len(declarations) == 1, (name, target, source)
            assert re.search(r"^\s+x = x \* 2", source, re.MULTILINE), (name, source)
            assert re.search(r"\bconst double v_out =", source), (name, source)
        compiler = shutil.which("g++")
        if compiler is None:
            return
        header = tmp_path / "reassign.hpp"
        header.write_text(GENERATORS["cpp"]().generate(reassigned_model).source)
        check = subprocess.run(
            [compiler, "-std=c++17", "-fsyntax-only", "-x", "c++", str(header)],
            capture_output=True,
            text=True,
        )
        assert check.returncode == 0, check.stderr
