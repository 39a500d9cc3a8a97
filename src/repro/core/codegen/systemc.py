"""SystemC code generation: the SystemC-DE and SystemC-AMS/TDF targets.

Both targets emit the same module — ports, a ``reset_state()`` restoring the
initial state, and the flat assignment sequence in a per-sample method — and
differ only in the dialect, which each generator declares as class
attributes:

* ``systemc_de`` emits a standard ``SC_MODULE`` with ``sc_in``/``sc_out``
  double ports and an ``SC_METHOD`` process re-activated every model
  timestep — the form the paper integrates into SystemC virtual platforms
  once the AMS interfaces have been removed;
* ``systemc_tdf`` emits an ``SCA_TDF_MODULE`` with ``sca_tdf::sca_in`` /
  ``sca_tdf::sca_out`` ports, the module timestep fixed in
  ``set_attributes()`` and the assignments in ``processing()`` — the first
  abstraction target of the paper (signal flow but still inside the AMS
  framework).

The executable counterparts used by the benchmarks are
:class:`repro.sim.integration.DeSignalFlowModule` and
:class:`repro.sim.integration.TdfSignalFlowModule`.
"""

from __future__ import annotations

from ..signalflow import SignalFlowModel
from .base import (
    CodeGenerator,
    ExpressionRenderer,
    GeneratedCode,
    c_declarations,
    class_name,
    mangle,
)


class _SystemCGenerator(CodeGenerator):
    """The emitter both SystemC targets share.

    Line templates may name ``{entity}`` and ``{timestep}``, so their literal
    braces are doubled.
    """

    #: Suffix of the emitted module's name.
    suffix: str
    #: The SystemC header the module includes.
    include: str
    #: Lines opening the module.
    opening: tuple[str, ...]
    #: Type of the input ports.
    in_port: str
    #: Type of the output ports.
    out_port: str
    #: The constructor and any attribute callback, ahead of ``reset_state()``.
    constructor: tuple[str, ...]
    #: Name of the method computing one sample.
    process: str
    #: Lines ending the per-sample method.
    process_tail: tuple[str, ...] = ()
    #: Private members declared ahead of the state.
    members: tuple[str, ...] = ()
    #: Private section of a stateless model.
    no_state: tuple[str, ...] = ()

    def generate(self, model: SignalFlowModel) -> GeneratedCode:
        self.check_model(model)
        entity = class_name(model.name, self.suffix)
        renderer = ExpressionRenderer(
            "c++",
            variable_formatter=self._port_formatter(model),
            previous_formatter=lambda name: f"m_prev_{mangle(name)}",
        )

        def dialect(templates: tuple[str, ...]) -> list[str]:
            return [line.format(entity=entity, timestep=model.timestep) for line in templates]

        output_names = [mangle(name) for name in model.outputs]
        states = [mangle(state) for state in model.state_variables]

        lines = [
            f"// Generated by repro.core.codegen.{self.name} -- do not edit.",
            f"// Signal-flow model '{model.name}' ({model.source}).",
            "#pragma once",
            f"#include <{self.include}>",
            "#include <cmath>",
            "",
            *dialect(self.opening),
        ]
        lines += [f"    {self.in_port} {mangle(name)};" for name in model.inputs]
        lines += [f"    {self.out_port} {name}_out;" for name in output_names]
        lines += ["", *dialect(self.constructor), "", "    void reset_state() {"]
        for state in model.state_variables:
            initial = model.initial_state.get(state, 0.0)
            lines.append(f"        m_prev_{mangle(state)} = {float(initial)!r};")
        if not states:
            lines.append("        // stateless model")
        lines += ["    }", "", f"    void {self.process}() {{"]
        for assignment, prefix in zip(model.assignments, c_declarations(model)):
            target = mangle(assignment.target)
            lines.append(
                f"        {prefix}{target} = {renderer.render(assignment.expression)};"
            )
        lines += [f"        m_prev_{name} = {name};" for name in states]
        lines += [f"        {name}_out.write({name});" for name in output_names]
        lines += [*dialect(self.process_tail), "    }", "", "private:", *self.members]
        lines += [f"    double m_prev_{name};" for name in states]
        if not states:
            lines += self.no_state
        lines += ["};", ""]

        return GeneratedCode(
            language=self.language,
            model_name=model.name,
            entity_name=entity,
            source="\n".join(lines),
            model=model,
            metadata={"backend": self.name, "timestep": repr(model.timestep)},
        )

    @staticmethod
    def _port_formatter(model: SignalFlowModel):
        inputs = set(model.inputs)

        def formatter(name: str) -> str:
            if name in inputs:
                return f"{mangle(name)}.read()"
            return mangle(name)

        return formatter


class SystemCDeGenerator(_SystemCGenerator):
    """Generate a SystemC-DE module for a signal-flow model."""

    name = "systemc_de"
    language = "SystemC-DE"
    suffix = "ScDe"
    include = "systemc"
    opening = (
        "SC_MODULE({entity}) {{",
        "    // Discrete-event interface (no AMS extensions required).",
    )
    in_port = "sc_core::sc_in<double>"
    out_port = "sc_core::sc_out<double>"
    constructor = (
        "    SC_CTOR({entity}) {{",
        "        SC_METHOD(process);",
        "        sensitive << m_tick;",
        "        reset_state();",
        "        m_tick.notify(sc_core::SC_ZERO_TIME);",
        "    }}",
    )
    process = "process"
    process_tail = ("        m_tick.notify({timestep!r}, sc_core::SC_SEC);",)
    members = ("    sc_core::sc_event m_tick;",)


class SystemCTdfGenerator(_SystemCGenerator):
    """Generate a SystemC-AMS/TDF module for a signal-flow model."""

    name = "systemc_tdf"
    language = "SystemC-AMS/TDF"
    suffix = "ScaTdf"
    include = "systemc-ams"
    opening = ("SCA_TDF_MODULE({entity}) {{",)
    in_port = "sca_tdf::sca_in<double>"
    out_port = "sca_tdf::sca_out<double>"
    constructor = (
        "    SCA_CTOR({entity}) {{",
        "        reset_state();",
        "    }}",
        "",
        "    void set_attributes() {{",
        "        set_timestep(sca_core::sca_time({timestep!r}, sc_core::SC_SEC));",
        "    }}",
    )
    process = "processing"
    no_state = ("    // no state",)
