"""The RCn benchmark: a general n-order RC low-pass filter.

The paper builds RCn "by cascading n RC stages" with R = 5 kΩ and C = 25 nF
(Section V.A); RC1 and RC20 are the instances used in Tables I-III.  The
circuit is provided both as generated Verilog-AMS source (exercising the
frontend) and as a programmatic netlist.
"""

from __future__ import annotations

from ..network.circuit import Circuit

#: Paper parameter values.
DEFAULT_RESISTANCE = 5e3
DEFAULT_CAPACITANCE = 25e-9


def rc_filter_source(
    order: int,
    resistance: float = DEFAULT_RESISTANCE,
    capacitance: float = DEFAULT_CAPACITANCE,
) -> str:
    """Return the Verilog-AMS description of an ``order``-stage RC filter."""
    if order < 1:
        raise ValueError("the filter order must be at least 1")
    nodes = ["vin"] + [f"n{i}" for i in range(1, order + 1)]
    internal = ", ".join(nodes[1:-1]) if order > 1 else ""
    lines = [
        "`include \"disciplines.vams\"",
        "",
        f"// {order}-order RC low-pass filter (paper Section V.A, RCn benchmark).",
        f"module rc{order}(vin, out);",
        "  input vin;",
        "  output out;",
        "  electrical vin, out, gnd;",
        "  ground gnd;",
        f"  parameter real R = {resistance:g};",
        f"  parameter real C = {capacitance:g};",
    ]
    if internal:
        lines.append(f"  electrical {internal};")
    for index in range(1, order + 1):
        previous = nodes[index - 1]
        current = "out" if index == order else nodes[index]
        lines.append(f"  branch ({previous}, {current}) r{index};")
        lines.append(f"  branch ({current}, gnd) c{index};")
    lines.append("  analog begin")
    for index in range(1, order + 1):
        lines.append(f"    V(r{index}) <+ R * I(r{index});")
        lines.append(f"    I(c{index}) <+ C * ddt(V(c{index}));")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def build_rc_filter(
    order: int,
    resistance: float = DEFAULT_RESISTANCE,
    capacitance: float = DEFAULT_CAPACITANCE,
) -> Circuit:
    """Build the RCn netlist programmatically (equivalent to parsing the source)."""
    if order < 1:
        raise ValueError("the filter order must be at least 1")
    circuit = Circuit(f"rc{order}")
    circuit.add_voltage_source("vin", "gnd", input_signal="vin", name="Vsrc_vin")
    previous = "vin"
    for index in range(1, order + 1):
        node = "out" if index == order else f"n{index}"
        circuit.add_resistor(previous, node, resistance, name=f"r{index}")
        circuit.add_capacitor(node, "gnd", capacitance, name=f"c{index}")
        previous = node
    return circuit
