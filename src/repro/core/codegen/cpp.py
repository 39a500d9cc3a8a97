"""C++ code generation (the paper's fastest integration target).

The backend emits a self-contained C++11 class with a ``step`` method whose
body is the flat sequence of assignments of the signal-flow model — exactly
the kind of code shown in the paper's Figure 7.b.  The text is meant to be
dropped into a C++/SystemC virtual platform; within this reproduction it is
emitted for inspection and regression-tested structurally, while the
:mod:`python_backend` provides the executable equivalent used for timing.
"""

from __future__ import annotations

from ..signalflow import TIME_VARIABLE, SignalFlowModel
from .base import (
    CodeGenerator,
    ExpressionRenderer,
    GeneratedCode,
    c_declarations,
    class_name,
    mangle,
)


class CppGenerator(CodeGenerator):
    """Generate a plain C++ class for a signal-flow model."""

    name = "cpp"
    language = "C++"

    def generate(self, model: SignalFlowModel) -> GeneratedCode:
        self.check_model(model)
        entity = class_name(model.name, "Cpp")
        renderer = ExpressionRenderer(
            "c++",
            variable_formatter=lambda name: mangle(name),
            previous_formatter=lambda name: f"prev_{mangle(name)}",
        )

        input_names = [mangle(name) for name in model.inputs]
        output_names = [mangle(name) for name in model.outputs]
        state_names = [mangle(name) for name in model.state_variables]

        lines: list[str] = []
        lines.append("// Generated by repro.core.codegen.cpp -- do not edit.")
        lines.append(f"// Signal-flow model '{model.name}' ({model.source}).")
        lines.append("#pragma once")
        lines.append("#include <cmath>")
        lines.append("")
        lines.append(f"class {entity} {{")
        lines.append("public:")
        lines.append(f"    static constexpr double kTimestep = {model.timestep!r};")
        lines.append("")
        lines.append(f"    {entity}() {{ reset(); }}")
        lines.append("")
        lines.append("    void reset() {")
        for state in model.state_variables:
            initial = model.initial_state.get(state, 0.0)
            lines.append(f"        prev_{mangle(state)} = {float(initial)!r};")
        if not model.state_variables:
            lines.append("        // stateless model")
        lines.append("    }")
        lines.append("")
        arguments = ", ".join(f"double {name}" for name in input_names)
        time_argument = f"double {mangle(TIME_VARIABLE)} = 0.0"
        signature = ", ".join(filter(None, [arguments, time_argument]))
        if len(output_names) == 1:
            lines.append(f"    double step({signature}) {{")
        else:
            lines.append(f"    void step({signature}, double outputs[{len(output_names)}]) {{")
        for assignment, prefix in zip(model.assignments, c_declarations(model)):
            target = mangle(assignment.target)
            lines.append(f"        {prefix}{target} = {renderer.render(assignment.expression)};")
        for state in model.state_variables:
            lines.append(f"        prev_{mangle(state)} = {mangle(state)};")
        if len(output_names) == 1:
            lines.append(f"        return {output_names[0]};")
        else:
            for index, name in enumerate(output_names):
                lines.append(f"        outputs[{index}] = {name};")
        lines.append("    }")
        lines.append("")
        lines.append("private:")
        for state in state_names:
            lines.append(f"    double prev_{state};")
        if not state_names:
            lines.append("    // no state")
        lines.append("};")
        lines.append("")
        source = "\n".join(lines)

        return GeneratedCode(
            language=self.language,
            model_name=model.name,
            entity_name=entity,
            source=source,
            model=model,
            metadata={"backend": self.name},
        )
