"""Frontend error paths on malformed netlists, with exact positions.

The fuzz harness leans on the frontend rejecting bad inputs *diagnosably*:
every lexer/parser error must carry the line and column of the offence, and
netlist-level rejections must name the construct they refused.
"""

from __future__ import annotations

import pytest

from repro.errors import VamsLexerError, VamsParseError
from repro.vams import NetlistError, parse_module, to_circuit, tokenize


class TestLexerErrors:
    def test_unterminated_block_comment_position(self):
        source = "module m(a);\n  /* never closed\nendmodule"
        with pytest.raises(VamsLexerError) as excinfo:
            tokenize(source)
        assert excinfo.value.line == 2
        assert excinfo.value.column == 3
        assert "unterminated block comment" in str(excinfo.value)

    def test_unterminated_string_position(self):
        with pytest.raises(VamsLexerError) as excinfo:
            tokenize('module m;\n  "never closed')
        assert excinfo.value.line == 2
        assert excinfo.value.column == 3
        assert "unterminated string" in str(excinfo.value)


class TestParserErrors:
    def test_unknown_access_function_names_itself_with_position(self):
        source = (
            'module bad(vin, out);\n'
            "  input vin;\n"
            "  output out;\n"
            "  electrical vin, out;\n"
            "  analog begin\n"
            "    Q(out) <+ 1.0;\n"
            "  end\n"
            "endmodule\n"
        )
        with pytest.raises(VamsParseError) as excinfo:
            parse_module(source)
        message = str(excinfo.value)
        assert "'Q'" in message and "access function" in message
        assert excinfo.value.line == 6
        assert excinfo.value.column == 5

    def test_bad_contribution_target_position(self):
        source = (
            "module bad(out);\n"
            "  output out;\n"
            "  electrical out;\n"
            "  analog begin\n"
            "    3.0 <+ V(out);\n"
            "  end\n"
            "endmodule\n"
        )
        with pytest.raises(VamsParseError) as excinfo:
            parse_module(source)
        assert excinfo.value.line == 5

    def test_missing_endmodule_is_a_parse_error(self):
        with pytest.raises(VamsParseError):
            parse_module("module bad(out);\n  output out;\n")


class TestNetlistErrors:
    def test_nonlinear_contribution_is_rejected_with_the_branch_name(self):
        source = (
            "module bad(vin, out);\n"
            "  input vin;\n"
            "  output out;\n"
            "  electrical vin, out, gnd;\n"
            "  ground gnd;\n"
            "  branch (out, gnd) rb;\n"
            "  analog begin\n"
            "    I(vin, out) <+ V(vin, out) / 1k;\n"
            "    V(rb) <+ V(rb) * I(rb);\n"
            "  end\n"
            "endmodule\n"
        )
        with pytest.raises(NetlistError, match="rb"):
            to_circuit(parse_module(source))

    @pytest.mark.parametrize(
        "law, component",
        [
            ("V(neg) <+ -5.0 * I(neg);", "resistor"),
            ("I(neg) <+ -1m * V(neg);", "resistor"),
            ("I(neg) <+ -1n * ddt(V(neg));", "capacitor"),
            ("V(neg) <+ -1e9 * idt(I(neg));", "capacitor"),
            ("V(neg) <+ -1m * ddt(I(neg));", "inductor"),
            ("I(neg) <+ -1e3 * idt(V(neg));", "inductor"),
        ],
    )
    def test_negative_valued_law_is_rejected_with_the_branch_name(self, law, component):
        source = (
            "module bad(vin, out);\n"
            "  input vin;\n"
            "  output out;\n"
            "  electrical vin, out, gnd;\n"
            "  ground gnd;\n"
            "  branch (out, gnd) neg;\n"
            "  analog begin\n"
            "    V(vin, out) <+ 1k * I(vin, out);\n"
            f"    {law}\n"
            "  end\n"
            "endmodule\n"
        )
        with pytest.raises(
            NetlistError, match=f"the {component} law .* on branch 'neg' is not physical"
        ):
            to_circuit(parse_module(source))

    def test_unfoldable_conditional_is_rejected(self):
        source = (
            "module bad(vin, out);\n"
            "  input vin;\n"
            "  output out;\n"
            "  electrical vin, out, gnd;\n"
            "  ground gnd;\n"
            "  parameter real G = 2.0;\n"
            "  branch (out, gnd) amp;\n"
            "  analog begin\n"
            "    I(vin, out) <+ V(vin, out) / 1k;\n"
            "    if (V(out) > 0.5)\n"
            "      V(amp) <+ G * V(vin);\n"
            "    else\n"
            "      V(amp) <+ V(vin);\n"
            "  end\n"
            "endmodule\n"
        )
        with pytest.raises(NetlistError, match="fold"):
            to_circuit(parse_module(source))

    def test_unknown_parameter_override_is_rejected(self):
        source = (
            "module m(vin, out);\n"
            "  input vin;\n"
            "  output out;\n"
            "  electrical vin, out, gnd;\n"
            "  ground gnd;\n"
            "  parameter real R = 1k;\n"
            "  analog begin\n"
            "    V(vin, out) <+ R * I(vin, out);\n"
            "    I(out) <+ V(out) / 2k;\n"
            "  end\n"
            "endmodule\n"
        )
        module = parse_module(source)
        with pytest.raises(NetlistError, match="RX"):
            to_circuit(module, overrides={"RX": 5.0})
        circuit = to_circuit(module, overrides={"R": 3e3})
        assert circuit is not None
