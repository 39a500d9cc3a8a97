"""Shared machinery for the code generators (paper Section IV.D).

Every backend walks the same :class:`~repro.core.signalflow.SignalFlowModel`
and emits a self-contained model in its target language.  This module hosts
the pieces they share: identifier mangling (``V(n1)`` → ``v_n1``), rendering
of expression trees as Python or C++ source, and the
:class:`GeneratedCode` container returned to callers.
"""

from __future__ import annotations

import keyword
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from ...errors import CodeGenerationError
from ...expr.ast import (
    BinaryOp,
    Call,
    Conditional,
    Constant,
    Derivative,
    Expr,
    Integral,
    Previous,
    UnaryOp,
    Variable,
)
from ..signalflow import TIME_VARIABLE, SignalFlowModel


def mangle(name: str) -> str:
    """Turn a quantity name into a valid C/Python identifier.

    ``V(n1)`` becomes ``v_n1``, ``I(R2)`` becomes ``i_r2``, ``V(a,b)`` becomes
    ``v_a_b``, ``$abstime`` becomes ``abstime``, ``__idt_0`` becomes ``idt_0``
    and a Python keyword gets a trailing ``_`` (``in`` becomes ``in_``).
    Different names can mangle alike (``V(OUT)`` and ``V(out)``);
    :meth:`CodeGenerator.check_model` refuses a model where they do.
    """
    text = name.strip()
    if text.startswith("$"):
        text = text[1:]
    identifier = "".join(
        char if char.isalnum() or char == "_" else "_" for char in text
    ).strip("_")
    identifier = identifier.replace("__", "_") if not name.startswith("__") else identifier
    if not identifier:
        raise CodeGenerationError(f"cannot mangle the empty name {name!r}")
    if identifier[0].isdigit():
        identifier = "q_" + identifier
    identifier = identifier.lower()
    return identifier + "_" if keyword.iskeyword(identifier) else identifier


def c_declarations(model: SignalFlowModel) -> list[str]:
    """The C++ prefix of each assignment's target, in assignment order.

    A target assigned once is a ``const double``; a reassigned one is
    declared ``double`` at its first assignment and assigned bare after it.
    """
    assigned = Counter(assignment.target for assignment in model.assignments)
    declared: set[str] = set()
    prefixes = []
    for assignment in model.assignments:
        target = assignment.target
        if assigned[target] == 1:
            prefixes.append("const double ")
        elif target in declared:
            prefixes.append("")
        else:
            declared.add(target)
            prefixes.append("double ")
    return prefixes


def class_name(name: str, suffix: str) -> str:
    """Build a CamelCase class name from a model name and a backend suffix."""
    parts = [part for part in mangle(name).split("_") if part]
    return "".join(part.capitalize() for part in parts) + suffix


@dataclass
class GeneratedCode:
    """Source code emitted by one backend for one signal-flow model."""

    language: str
    model_name: str
    entity_name: str
    source: str
    model: SignalFlowModel
    metadata: dict[str, str] = field(default_factory=dict)

    def line_count(self) -> int:
        """Number of source lines generated."""
        return len(self.source.splitlines())


class ExpressionRenderer:
    """Renders expression trees into target-language source text."""

    #: Function-name translation tables per target language.
    PYTHON_FUNCTIONS = {
        "ln": "math.log",
        "log": "math.log10",
        "exp": "math.exp",
        "limexp": "math.exp",
        "sin": "math.sin",
        "cos": "math.cos",
        "tan": "math.tan",
        "asin": "math.asin",
        "acos": "math.acos",
        "atan": "math.atan",
        "atan2": "math.atan2",
        "sinh": "math.sinh",
        "cosh": "math.cosh",
        "tanh": "math.tanh",
        "sqrt": "math.sqrt",
        "abs": "abs",
        "min": "min",
        "max": "max",
        "pow": "pow",
        "floor": "math.floor",
        "ceil": "math.ceil",
    }
    NUMPY_FUNCTIONS = {
        "ln": "np.log",
        "log": "np.log10",
        "exp": "np.exp",
        "limexp": "np.exp",
        "sin": "np.sin",
        "cos": "np.cos",
        "tan": "np.tan",
        "asin": "np.arcsin",
        "acos": "np.arccos",
        "atan": "np.arctan",
        "atan2": "np.arctan2",
        "sinh": "np.sinh",
        "cosh": "np.cosh",
        "tanh": "np.tanh",
        "sqrt": "np.sqrt",
        "abs": "np.abs",
        "min": "np.minimum",
        "max": "np.maximum",
        "pow": "np.power",
        "floor": "np.floor",
        "ceil": "np.ceil",
    }
    C99_FUNCTIONS = {
        "ln": "log",
        "log": "log10",
        "exp": "exp",
        "limexp": "exp",
        "sin": "sin",
        "cos": "cos",
        "tan": "tan",
        "asin": "asin",
        "acos": "acos",
        "atan": "atan",
        "atan2": "atan2",
        "sinh": "sinh",
        "cosh": "cosh",
        "tanh": "tanh",
        "sqrt": "sqrt",
        "abs": "fabs",
        "min": "fmin",
        "max": "fmax",
        "pow": "pow",
        "floor": "floor",
        "ceil": "ceil",
    }
    C_FUNCTIONS = {
        "ln": "std::log",
        "log": "std::log10",
        "exp": "std::exp",
        "limexp": "std::exp",
        "sin": "std::sin",
        "cos": "std::cos",
        "tan": "std::tan",
        "asin": "std::asin",
        "acos": "std::acos",
        "atan": "std::atan",
        "atan2": "std::atan2",
        "sinh": "std::sinh",
        "cosh": "std::cosh",
        "tanh": "std::tanh",
        "sqrt": "std::sqrt",
        "abs": "std::fabs",
        "min": "std::min",
        "max": "std::max",
        "pow": "std::pow",
        "floor": "std::floor",
        "ceil": "std::ceil",
    }

    def __init__(
        self,
        language: str,
        variable_formatter: Callable[[str], str],
        previous_formatter: Callable[[str], str],
    ) -> None:
        if language not in ("python", "numpy", "c++", "c"):
            raise CodeGenerationError(f"unsupported rendering language {language!r}")
        self.language = language
        self.variable_formatter = variable_formatter
        self.previous_formatter = previous_formatter
        if language == "python":
            self._functions = self.PYTHON_FUNCTIONS
        elif language == "numpy":
            self._functions = self.NUMPY_FUNCTIONS
        elif language == "c":
            self._functions = self.C99_FUNCTIONS
        else:
            self._functions = self.C_FUNCTIONS

    # -- rendering --------------------------------------------------------------------
    def render(self, expr: Expr) -> str:
        """Render ``expr`` as an expression string in the target language."""
        return self._visit(expr, parent_precedence=0)

    def _visit(self, node: Expr, parent_precedence: int) -> str:
        if isinstance(node, Constant):
            return self._render_constant(node.value)
        if isinstance(node, Variable):
            return self.variable_formatter(node.name)
        if isinstance(node, Previous):
            return self.previous_formatter(node.name)
        if isinstance(node, UnaryOp):
            if node.op == "!" and self.language == "numpy":
                return f"np.logical_not({self._visit(node.operand, 0)})"
            operand = self._visit(node.operand, 8)
            operator = "not " if (node.op == "!" and self.language == "python") else node.op
            text = f"{operator}{operand}"
            return f"({text})" if parent_precedence >= 8 else text
        if isinstance(node, BinaryOp):
            return self._render_binary(node, parent_precedence)
        if isinstance(node, Call):
            function = self._functions.get(node.func)
            if function is None:
                raise CodeGenerationError(f"cannot translate function {node.func!r}")
            rendered = [self._visit(argument, 0) for argument in node.args]
            # np.minimum/np.maximum are strictly binary (the third positional
            # argument is ``out=``!) and so are C99 fmin/fmax; fold variadic
            # min/max into nested calls.
            if self.language in ("numpy", "c") and node.func in ("min", "max") and len(rendered) > 2:
                folded = rendered[-1]
                for argument in reversed(rendered[:-1]):
                    folded = f"{function}({argument}, {folded})"
                return folded
            return f"{function}({', '.join(rendered)})"
        if isinstance(node, Conditional):
            condition = self._visit(node.condition, 0)
            then_value = self._visit(node.then, 0)
            else_value = self._visit(node.otherwise, 0)
            if self.language == "python":
                return f"({then_value} if {condition} else {else_value})"
            if self.language == "numpy":
                return f"np.where({condition}, {then_value}, {else_value})"
            return f"({condition} ? {then_value} : {else_value})"
        if isinstance(node, (Derivative, Integral)):
            raise CodeGenerationError(
                "ddt/idt operators must be discretised before code generation"
            )
        raise CodeGenerationError(f"cannot render node of type {type(node).__name__}")

    def _render_constant(self, value: float) -> str:
        if value == int(value) and abs(value) < 1e16:
            return f"{value:.1f}"
        return repr(value)

    _PRECEDENCE = {
        "||": 1,
        "&&": 2,
        "==": 3,
        "!=": 3,
        "<": 4,
        "<=": 4,
        ">": 4,
        ">=": 4,
        "+": 5,
        "-": 5,
        "*": 6,
        "/": 6,
        "**": 7,
    }

    def _render_binary(self, node: BinaryOp, parent_precedence: int) -> str:
        operator = node.op
        if operator == "**":
            base = self._visit(node.lhs, 0)
            exponent = self._visit(node.rhs, 0)
            if self.language in ("python", "numpy"):
                return f"({base}) ** ({exponent})"
            return f"{self._functions['pow']}({base}, {exponent})"
        if operator in ("&&", "||") and self.language == "numpy":
            function = "np.logical_and" if operator == "&&" else "np.logical_or"
            return f"{function}({self._visit(node.lhs, 0)}, {self._visit(node.rhs, 0)})"
        if operator in ("&&", "||") and self.language == "python":
            operator = "and" if operator == "&&" else "or"
        precedence = self._PRECEDENCE[node.op]
        lhs = self._visit(node.lhs, precedence)
        rhs = self._visit(node.rhs, precedence + 1)
        text = f"{lhs} {operator} {rhs}"
        if precedence < parent_precedence:
            return f"({text})"
        return text


class CodeGenerator:
    """Base class of every backend."""

    #: Short name used to select the backend (``"cpp"``, ``"python"``...).
    name = "base"
    #: Human-readable target language (matches the paper's Table I rows).
    language = ""
    #: Identifiers the generated code binds or calls itself; no quantity may
    #: mangle to one of them, nor to the time argument's.
    reserved: tuple[str, ...] = ()

    def generate(self, model: SignalFlowModel) -> GeneratedCode:
        """Emit code for ``model``."""
        raise NotImplementedError

    def ensure_available(self) -> None:
        """Raise :class:`~repro.errors.CodegenError` when the backend cannot
        *execute* on this machine (e.g. a missing toolchain).

        Source emission itself never requires the toolchain, so the default
        is a no-op; :func:`repro.core.codegen.get_generator` calls this so
        callers asking for an executable backend fail early with the reason.
        """

    # -- shared helpers ---------------------------------------------------------------
    def check_model(self, model: SignalFlowModel) -> None:
        """Validate the model and its identifiers before emitting anything.

        Two different quantities that mangle to one identifier, or a quantity
        that mangles to a :attr:`reserved` identifier or the time argument's,
        raise :class:`~repro.errors.CodeGenerationError` naming both; a
        quantity assigned twice is one quantity.
        """
        if not model.assignments:
            raise CodeGenerationError(f"model {model.name!r} has no assignments")
        model.validate()
        owners: dict[str, str | None] = dict.fromkeys((*self.reserved, self.time_name()))
        for name in (*model.inputs, *(assignment.target for assignment in model.assignments)):
            identifier = mangle(name)
            owner = owners.setdefault(identifier, name)
            if owner is None:
                raise CodeGenerationError(
                    f"quantity {name!r} mangles to {identifier!r}, which the "
                    f"generated {self.language} code uses itself"
                )
            if owner != name:
                raise CodeGenerationError(
                    f"quantities {owner!r} and {name!r} both mangle to {identifier!r}"
                )

    @staticmethod
    def time_name() -> str:
        """Mangled name of the absolute-time input."""
        return mangle(TIME_VARIABLE)
