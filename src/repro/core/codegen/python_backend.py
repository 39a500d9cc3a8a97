"""Pure-Python code generation (the executable counterpart of the C++ backend).

The paper's fastest target is plain C++: a flat ``step`` function with the
model's coefficients baked in and no simulator overhead.  In this Python
reproduction the equivalent artefact is a generated Python class whose
``step`` method contains the same flat arithmetic; it is ``exec``-compiled so
the interpretation overhead of :meth:`SignalFlowModel.step` disappears.  Every
simulation engine that needs a fast analog model (standalone "C++" runs, the
SystemC-DE and TDF wrappers, the virtual platform) uses this backend.
"""

from __future__ import annotations

from ...errors import CodeGenerationError
from ..signalflow import TIME_VARIABLE, SignalFlowModel
from .base import CodeGenerator, ExpressionRenderer, GeneratedCode, class_name, mangle
from .cache import compile_cached


class PythonGenerator(CodeGenerator):
    """Generate an executable Python class for a signal-flow model."""

    name = "python"
    language = "Python"
    reserved = ("self", "math", "abs", "min", "max", "pow")

    def generate(self, model: SignalFlowModel) -> GeneratedCode:
        self.check_model(model)
        entity = class_name(model.name, "Model")
        renderer = ExpressionRenderer(
            "python",
            variable_formatter=self._variable_formatter(model),
            previous_formatter=lambda name: f"self._prev_{mangle(name)}",
        )

        input_names = [mangle(name) for name in model.inputs]
        output_targets = [mangle(name) for name in model.outputs]
        lines: list[str] = []
        lines.append('"""Generated by repro.core.codegen.python_backend — do not edit."""')
        lines.append("")
        lines.append("import math")
        lines.append("")
        lines.append("")
        lines.append(f"class {entity}:")
        lines.append(f'    """Signal-flow model {model.name!r} ({model.source})."""')
        lines.append("")
        lines.append(f"    INPUTS = {tuple(model.inputs)!r}")
        lines.append(f"    OUTPUTS = {tuple(model.outputs)!r}")
        lines.append(f"    STATES = {tuple(model.state_variables)!r}")
        lines.append(f"    TIMESTEP = {model.timestep!r}")
        lines.append("")
        lines.append("    def __init__(self):")
        lines.append("        self.reset()")
        lines.append("")
        lines.append("    def reset(self):")
        lines.append('        """Restore the initial state X0."""')
        if model.state_variables:
            for state in model.state_variables:
                initial = model.initial_state.get(state, 0.0)
                lines.append(f"        self._prev_{mangle(state)} = {float(initial)!r}")
        else:
            lines.append("        pass")
        lines.append("")
        arguments = ", ".join(input_names) if input_names else ""
        signature = f"self, {arguments}, {self.time_name()}=0.0" if arguments else f"self, {self.time_name()}=0.0"
        lines.append(f"    def step({signature}):")
        lines.append('        """Advance the model by one timestep and return the outputs."""')
        for assignment in model.assignments:
            target = mangle(assignment.target)
            lines.append(f"        {target} = {renderer.render(assignment.expression)}")
        for state in model.state_variables:
            lines.append(f"        self._prev_{mangle(state)} = {mangle(state)}")
        if len(output_targets) == 1:
            lines.append(f"        return {output_targets[0]}")
        else:
            lines.append(f"        return ({', '.join(output_targets)},)")
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

    # -- compilation -----------------------------------------------------------------------
    def compile(self, model: SignalFlowModel) -> type:
        """Generate and ``exec``-compile the model; return the class object."""
        generated = self.generate(model)
        return compile_generated(generated)

    @staticmethod
    def _variable_formatter(model: SignalFlowModel):
        inputs = set(model.inputs)
        targets = {assignment.target for assignment in model.assignments}

        def formatter(name: str) -> str:
            if name == TIME_VARIABLE:
                return mangle(TIME_VARIABLE)
            if name in inputs or name in targets:
                return mangle(name)
            raise CodeGenerationError(
                f"expression references {name!r}, which is neither an input "
                "nor a computed quantity"
            )

        return formatter


def compile_generated(generated: GeneratedCode) -> type:
    """Compile a Python :class:`GeneratedCode` artefact and return its class."""
    if generated.language != "Python":
        raise CodeGenerationError(
            f"can only compile Python artefacts, not {generated.language!r}"
        )
    namespace: dict[str, object] = {}
    exec(compile(generated.source, f"<generated:{generated.model_name}>", "exec"), namespace)
    cls = namespace.get(generated.entity_name)
    if not isinstance(cls, type):
        raise CodeGenerationError(
            f"generated source did not define the class {generated.entity_name!r}"
        )
    return cls


def compile_model(model: SignalFlowModel) -> type:
    """Convenience: generate and compile ``model`` in one call."""
    return PythonGenerator().compile(model)


def compile_model_cached(model: SignalFlowModel) -> type:
    """Like :func:`compile_model`, but reuse previously compiled classes.

    The class is cached by the digest of the generated source (see
    :mod:`repro.core.codegen.cache`), so repeated runs of the same model skip
    both generation bookkeeping and the ``exec`` compile.
    """
    generated = PythonGenerator().generate(model)
    return compile_cached(generated, compile_generated)
