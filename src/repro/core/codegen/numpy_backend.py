"""Vectorized NumPy code generation: one model instance, many scenarios.

The paper's argument is economic — abstracted signal-flow models are cheap
enough that you can afford to simulate them *in bulk*.  This backend turns
that argument into an execution strategy: given a batch of **structurally
identical** signal-flow models (same topology, same assignment structure,
different coefficient values — the shape produced by a parameter sweep, a
corner enumeration or a tolerance Monte-Carlo), it emits a single class whose
``step_batch`` method advances *every* scenario per call, operating on
shape-``(n_scenarios,)`` NumPy arrays.

Coefficients that differ between scenarios are *lifted* out of the expression
trees into parameter arrays (rows of a ``(n_parameters, n_scenarios)``
matrix); coefficients shared by every scenario stay baked into the source as
literals.  The lifting reads one template model and a value column per
constant (:class:`BatchColumns`): :meth:`BatchColumns.from_models` builds
them from a batch of models, and a sweep's recording of the abstraction
flow (:class:`repro.core.flow.ReplayTape`) computes them without any model.
Because the parameter values travel through the constructor rather than
the source text, the generated source for a sweep depends only on the
model *structure* — so the compile cache (:mod:`repro.core.codegen.cache`)
hits for every re-run, every Monte-Carlo redraw and every chunk of a
multiprocess sweep.

The backend is also registered as ``"numpy"`` in the generator registry; in
that single-model role it simply generates a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ...errors import CodeGenerationError
from ...expr.ast import (
    BinaryOp,
    Call,
    Conditional,
    Constant,
    Expr,
    Previous,
    UnaryOp,
    Variable,
    transform,
)
from ..signalflow import TIME_VARIABLE, SignalFlowModel
from .base import CodeGenerator, ExpressionRenderer, GeneratedCode, class_name, mangle
from .cache import compile_cached

#: Reserved variable-name prefix marking a lifted per-scenario parameter.
PARAM_PREFIX = "__sweep_p"


# ---------------------------------------------------------------------------
# Structural identity
# ---------------------------------------------------------------------------
def _skeleton(expr: Expr) -> tuple:
    """A structural key of ``expr`` that ignores the values of constants."""
    if isinstance(expr, Constant):
        return ("const",)
    if isinstance(expr, Variable):
        return ("var", expr.name)
    if isinstance(expr, Previous):
        return ("prev", expr.name)
    if isinstance(expr, BinaryOp):
        return ("bin", expr.op, _skeleton(expr.lhs), _skeleton(expr.rhs))
    if isinstance(expr, UnaryOp):
        return ("un", expr.op, _skeleton(expr.operand))
    if isinstance(expr, Call):
        return ("call", expr.func) + tuple(_skeleton(arg) for arg in expr.args)
    if isinstance(expr, Conditional):
        return (
            "cond",
            _skeleton(expr.condition),
            _skeleton(expr.then),
            _skeleton(expr.otherwise),
        )
    raise CodeGenerationError(f"cannot take the skeleton of {type(expr).__name__}")


def structure_signature(model: SignalFlowModel) -> tuple:
    """Hashable key identifying the batchable structure of ``model``.

    Two models with equal signatures differ at most in constant values and in
    initial-state values, which is exactly what :func:`generate_batch` lifts
    into per-scenario arrays.
    """
    return (
        tuple(model.inputs),
        tuple(model.outputs),
        tuple(model.state_variables),
        float(model.timestep),
        tuple(
            (assignment.target, _skeleton(assignment.expression))
            for assignment in model.assignments
        ),
    )


# ---------------------------------------------------------------------------
# Constant lifting
# ---------------------------------------------------------------------------
@dataclass
class BatchColumns:
    """What a batch is generated from: one template model, and per scenario
    the value of each of its constants and each state's initial value.

    Every scenario's model is the template with its own constants, in the
    order of :meth:`SignalFlowModel.constants`.
    """

    template: SignalFlowModel
    #: Shape ``(n_constants, n_scenarios)``.
    constants: np.ndarray
    #: Shape ``(n_states, n_scenarios)``.
    initial_state: np.ndarray

    @property
    def n_scenarios(self) -> int:
        return self.constants.shape[1]

    @classmethod
    def from_models(cls, models: Sequence[SignalFlowModel]) -> "BatchColumns":
        """The columns of structurally identical ``models``, the first one
        the template."""
        if not models:
            raise CodeGenerationError("cannot generate a batch of zero models")
        first = models[0]
        signature = structure_signature(first)
        for model in models[1:]:
            if structure_signature(model) != signature:
                raise CodeGenerationError(
                    f"model {model.name!r} is not structurally identical to "
                    f"{first.name!r}; split the sweep into structure groups"
                )
        return cls.stack(
            first,
            [model.constants() for model in models],
            [model.initial_state for model in models],
        )

    @classmethod
    def stack(
        cls,
        template: SignalFlowModel,
        constants: Sequence[Sequence[float]],
        initial_states: Sequence[Mapping[str, float]],
    ) -> "BatchColumns":
        """The columns of scenarios given by their constants, in the order of
        :meth:`SignalFlowModel.constants`, and initial states (0 where one
        has no entry)."""
        initial = np.array(
            [
                [float(initial.get(state, 0.0)) for initial in initial_states]
                for state in template.state_variables
            ],
            dtype=float,
        )
        return cls(
            template,
            np.array(constants, dtype=float).T,
            initial.reshape(len(template.state_variables), len(initial_states)),
        )


def _lift(batch: BatchColumns) -> tuple[list[Expr], list[tuple[float, ...]]]:
    """The template's assignments with each constant lifted, and the lifted columns.

    A constant equal in every scenario stays a literal; the others become
    ``PARAM_PREFIX`` parameter references, one per distinct column.
    """
    columns: list[tuple[float, ...]] = []
    slots: dict[tuple[float, ...], int] = {}
    rows = iter(batch.constants)

    def lift(node: Expr) -> Expr:
        if type(node) is not Constant:
            return node
        row = next(rows)
        if (row == row[0]).all():
            return Constant(float(row[0]))
        values = tuple(row.tolist())
        index = slots.get(values)
        if index is None:
            index = slots[values] = len(columns)
            columns.append(values)
        return Variable(f"{PARAM_PREFIX}{index}")

    templates = [
        transform(assignment.expression, lift) for assignment in batch.template.assignments
    ]
    return templates, columns


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------
@dataclass
class BatchArtifact:
    """A generated batch model plus the per-scenario data it executes with."""

    code: GeneratedCode
    #: Lifted coefficients, shape ``(n_parameters, n_scenarios)``.
    parameters: np.ndarray
    #: Initial state values, shape ``(n_states, n_scenarios)``.
    initial_state: np.ndarray
    n_scenarios: int
    #: The merged expression of every assignment; lifted constants appear as
    #: ``PARAM_PREFIX`` variables.
    templates: list[Expr]

    def instantiate(self):
        """Compile (through the shared cache) and build a live instance."""
        cls = compile_batch(self.code)
        return cls(self.parameters, self.initial_state, self.n_scenarios)


class NumpyGenerator(CodeGenerator):
    """Generate a vectorized NumPy class advancing many scenarios per step."""

    name = "numpy"
    language = "NumPy"
    reserved = ("self", "np")

    def generate(self, model: SignalFlowModel) -> GeneratedCode:
        """Single-model entry point of the registry: a batch of one."""
        return self.generate_batch([model]).code

    def generate_batch(
        self, models: "Sequence[SignalFlowModel] | BatchColumns"
    ) -> BatchArtifact:
        """Emit one ``step_batch`` class covering every model in ``models``,
        or every scenario of a :class:`BatchColumns`."""
        batch = models if isinstance(models, BatchColumns) else BatchColumns.from_models(models)
        first = batch.template
        self.check_model(first)
        templates, lifted = _lift(batch)

        entity = class_name(first.name, "Batch")
        renderer = ExpressionRenderer(
            "numpy",
            variable_formatter=self._variable_formatter(first),
            previous_formatter=lambda name: f"self._prev_{mangle(name)}",
        )

        input_names = [mangle(name) for name in first.inputs]
        output_targets = [mangle(name) for name in first.outputs]
        used_parameters = sorted(
            {
                int(name[len(PARAM_PREFIX):])
                for template in templates
                for name in template.variables()
                if name.startswith(PARAM_PREFIX)
            }
        )

        lines: list[str] = []
        lines.append('"""Generated by repro.core.codegen.numpy_backend — do not edit."""')
        lines.append("")
        lines.append("import numpy as np")
        lines.append("")
        lines.append("")
        lines.append(f"class {entity}:")
        lines.append(
            f'    """Vectorized signal-flow model {first.name!r} ({first.source}): '
            'one instance advances every scenario of a sweep per step."""'
        )
        lines.append("")
        lines.append(f"    INPUTS = {tuple(first.inputs)!r}")
        lines.append(f"    OUTPUTS = {tuple(first.outputs)!r}")
        lines.append(f"    STATES = {tuple(first.state_variables)!r}")
        lines.append(f"    TIMESTEP = {first.timestep!r}")
        lines.append(f"    N_PARAMETERS = {len(lifted)}")
        lines.append("")
        lines.append("    def __init__(self, parameters, initial_state, n_scenarios):")
        lines.append("        self.n_scenarios = int(n_scenarios)")
        lines.append("        self._parameters = np.asarray(parameters, dtype=float)")
        lines.append("        self._initial = np.asarray(initial_state, dtype=float)")
        lines.append("        self.reset()")
        lines.append("")
        lines.append("    def reset(self):")
        lines.append('        """Restore the initial state X0 for every scenario."""')
        if first.state_variables:
            for index, state in enumerate(first.state_variables):
                lines.append(
                    f"        self._prev_{mangle(state)} = "
                    f"np.array(self._initial[{index}], dtype=float)"
                )
        else:
            lines.append("        pass")
        lines.append("")
        arguments = ", ".join(input_names) if input_names else ""
        time_name = self.time_name()
        signature_text = (
            f"self, {arguments}, {time_name}=0.0" if arguments else f"self, {time_name}=0.0"
        )
        lines.append(f"    def step_batch({signature_text}):")
        lines.append(
            '        """Advance every scenario by one timestep; inputs broadcast '
            'against shape (n_scenarios,) arrays."""'
        )
        for index in used_parameters:
            lines.append(f"        _p{index} = self._parameters[{index}]")
        for assignment, template in zip(first.assignments, templates):
            target = mangle(assignment.target)
            lines.append(f"        {target} = {renderer.render(template)}")
        for state in first.state_variables:
            lines.append(f"        self._prev_{mangle(state)} = {mangle(state)}")
        if len(output_targets) == 1:
            lines.append(f"        return {output_targets[0]}")
        else:
            lines.append(f"        return ({', '.join(output_targets)},)")
        lines.append("")
        source = "\n".join(lines)

        code = GeneratedCode(
            language=self.language,
            model_name=first.name,
            entity_name=entity,
            source=source,
            model=first,
            metadata={
                "backend": self.name,
                "n_parameters": str(len(lifted)),
                "n_scenarios": str(batch.n_scenarios),
            },
        )
        parameters = np.array(lifted, dtype=float).reshape(len(lifted), batch.n_scenarios)
        return BatchArtifact(
            code=code,
            parameters=parameters,
            initial_state=batch.initial_state,
            n_scenarios=batch.n_scenarios,
            templates=templates,
        )

    @staticmethod
    def _variable_formatter(model: SignalFlowModel):
        inputs = set(model.inputs)
        targets = {assignment.target for assignment in model.assignments}

        def formatter(name: str) -> str:
            if name.startswith(PARAM_PREFIX):
                return f"_p{int(name[len(PARAM_PREFIX):])}"
            if name == TIME_VARIABLE:
                return mangle(TIME_VARIABLE)
            if name in inputs or name in targets:
                return mangle(name)
            raise CodeGenerationError(
                f"expression references {name!r}, which is neither an input "
                "nor a computed quantity"
            )

        return formatter


def compile_batch(code: GeneratedCode) -> type:
    """Compile a NumPy batch artefact into its class, using the shared cache."""
    if code.language != "NumPy":
        raise CodeGenerationError(
            f"can only compile NumPy artefacts, not {code.language!r}"
        )
    return compile_cached(code, _exec_compile)


def _exec_compile(code: GeneratedCode) -> type:
    namespace: dict[str, object] = {}
    exec(compile(code.source, f"<generated:{code.model_name}:numpy>", "exec"), namespace)
    cls = namespace.get(code.entity_name)
    if not isinstance(cls, type):
        raise CodeGenerationError(
            f"generated source did not define the class {code.entity_name!r}"
        )
    return cls
