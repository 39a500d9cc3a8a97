"""Tapes: one run of a symbolic computation, replayed over arrays of values.

A sweep abstracts many circuits of one topology that differ only in their
parameter values (:class:`repro.core.flow.ReplayTape`).  Recording runs the
full abstraction flow once with each parameter constant a :class:`Traced`
float.  Every float operation on a traced value is appended to the
:class:`Tape`, and every comparison a branch makes on one is appended as a
*guard*: its outcome at the recording point.  :func:`solve_traced` records
the numeric linear solve as one instruction.  :meth:`Tape.evaluate` then runs
the instructions over columns of inputs as NumPy arrays, one scenario per
element and one stacked solve for all of them; a scenario whose guards all
hold took every branch the recording took, so its values are the ones its
own flow computes, bit for bit: the array operations are the same IEEE
operations, performed in the same order.

A traced value that leaves the tape unrecorded (converted by ``float()`` or
``int()``, hashed, raised to a power...) marks the tape :attr:`Tape.escaped`,
and its recording is refused.
"""

from __future__ import annotations

import math
import operator

import numpy as np

#: The arithmetic a tape records, and what it evaluates each one with.
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
ARRAY_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
UNARY = {"neg": operator.neg, "abs": operator.abs}
ARRAY_UNARY = {"neg": np.negative, "abs": np.absolute}
#: The comparisons a tape records as guards.
COMPARISONS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
ARRAY_COMPARISONS = {
    "==": np.equal, "!=": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}

_plain = float.__float__


def plain(value: float) -> float:
    """``value`` as an untraced float, without marking its tape escaped."""
    return _plain(value) if type(value) is Traced else value


def _escape(method):
    """A float method that marks the tape escaped before answering."""

    def escaped(self, *args):
        self.tape.escaped = True
        return method(_plain(self), *(plain(arg) for arg in args))

    return escaped


def _binary(symbol: str, reflected: bool):
    def method(self, other):
        if reflected:
            return self.tape.apply(symbol, other, self)
        return self.tape.apply(symbol, self, other)

    return method


def _compare(symbol: str):
    def method(self, other):
        return self.tape.compare(symbol, self, other)

    return method


class Traced(float):
    """A float whose arithmetic and comparisons are recorded on a tape."""

    __slots__ = ("tape", "node")

    __add__, __radd__ = _binary("+", False), _binary("+", True)
    __sub__, __rsub__ = _binary("-", False), _binary("-", True)
    __mul__, __rmul__ = _binary("*", False), _binary("*", True)
    __truediv__, __rtruediv__ = _binary("/", False), _binary("/", True)
    __eq__, __ne__ = _compare("=="), _compare("!=")
    __lt__, __le__ = _compare("<"), _compare("<=")
    __gt__, __ge__ = _compare(">"), _compare(">=")

    def __neg__(self):
        return self.tape.unary("neg", self)

    def __abs__(self):
        return self.tape.unary("abs", self)

    def __pos__(self):
        return self

    def __bool__(self):
        return self.tape.compare("!=", self, 0.0)

    __hash__ = _escape(float.__hash__)
    __float__ = _escape(float.__float__)
    __int__ = _escape(float.__int__)
    __round__ = _escape(float.__round__)
    __trunc__ = _escape(float.__trunc__)
    __floor__ = _escape(float.__floor__)
    __ceil__ = _escape(float.__ceil__)
    __pow__, __rpow__ = _escape(float.__pow__), _escape(float.__rpow__)
    __mod__, __rmod__ = _escape(float.__mod__), _escape(float.__rmod__)
    __floordiv__, __rfloordiv__ = _escape(float.__floordiv__), _escape(float.__rfloordiv__)
    __divmod__, __rdivmod__ = _escape(float.__divmod__), _escape(float.__rdivmod__)
    conjugate = _escape(float.conjugate)
    is_integer = _escape(float.is_integer)
    as_integer_ratio = _escape(float.as_integer_ratio)
    hex = _escape(float.hex)


class Tape:
    """The float operations and guards of one recorded computation.

    Nodes are numbered in creation order: the inputs first, then one per
    value-producing instruction.  An instruction is a tuple whose first item
    names it: ``("const", value)``; an arithmetic symbol with two operand
    nodes; ``"neg"``/``"abs"`` with one; a comparison symbol with two
    operand nodes and its recorded outcome (a guard, which produces no
    node); or ``"solve"`` (see :func:`solve_traced`).
    """

    def __init__(self) -> None:
        self.code: list[tuple] = []
        self.inputs = 0
        self.nodes = 0
        self.guards = 0
        #: Whether a traced value left the tape unrecorded.
        self.escaped = False
        self._constants: dict = {}

    def _traced(self, value: float) -> Traced:
        traced = float.__new__(Traced, value)
        traced.tape = self
        traced.node = self.nodes
        self.nodes += 1
        return traced

    def input(self, value: float) -> Traced:
        """A new input node, recorded at ``value``; inputs precede all code."""
        if self.code:
            raise ValueError("a tape's inputs precede its instructions")
        self.inputs += 1
        return self._traced(float(value))

    def _operand(self, value) -> "int | None":
        """The node of an operand; plain numbers become constant nodes."""
        kind = type(value)
        if kind is Traced:
            if value.tape is not self:
                self.escaped = True
            return value.node
        if kind is not float:
            if not isinstance(value, (int, float)):
                return None
            value = float(value)
        # A zero is keyed with its sign, so that 0.0 and -0.0 stay distinct.
        key = value if value != 0.0 else (value, math.copysign(1.0, value))
        node = self._constants.get(key)
        if node is None:
            self.code.append(("const", value))
            node = self._constants[key] = self._traced(value).node
        return node

    def apply(self, symbol: str, lhs, rhs):
        """Record ``lhs <symbol> rhs`` and return its traced result."""
        left, right = self._operand(lhs), self._operand(rhs)
        if left is None or right is None:
            return NotImplemented
        value = ARITHMETIC[symbol](plain(lhs), plain(rhs))
        self.code.append((symbol, left, right))
        return self._traced(value)

    def unary(self, name: str, operand: Traced) -> Traced:
        """Record ``neg``/``abs`` of ``operand``."""
        self.code.append((name, operand.node))
        return self._traced(UNARY[name](_plain(operand)))

    def compare(self, symbol: str, lhs, rhs):
        """Record a comparison as a guard and return its outcome."""
        left, right = self._operand(lhs), self._operand(rhs)
        if left is None or right is None:
            return NotImplemented
        outcome = COMPARISONS[symbol](plain(lhs), plain(rhs))
        self.code.append((symbol, left, right, outcome))
        self.guards += 1
        return outcome

    # -- evaluation ----------------------------------------------------------------------
    def evaluate(self, inputs: np.ndarray) -> tuple[list, np.ndarray]:
        """Every node's values over the columns of ``inputs``, and which columns pass.

        ``inputs`` has one row per input node and one column per scenario;
        the result holds one array (or, for a constant, one float) per
        node.  A column passes when every guard has its recorded outcome,
        no division has a zero divisor (the recorded one raised there) and
        its linear system is regular.  A failing column's values are
        meaningless.
        """
        count = inputs.shape[1]
        values: list = list(np.asarray(inputs, dtype=float))
        passed = np.ones(count, dtype=bool)
        with np.errstate(all="ignore"):
            for instruction in self.code:
                kind = instruction[0]
                if kind in ARRAY_COMPARISONS:
                    _, left, right, outcome = instruction
                    held = ARRAY_COMPARISONS[kind](values[left], values[right])
                    np.logical_and(passed, held if outcome else ~held, out=passed)
                elif kind in ARRAY_ARITHMETIC:
                    _, left, right = instruction
                    if kind == "/":
                        np.logical_and(passed, values[right] != 0.0, out=passed)
                    values.append(ARRAY_ARITHMETIC[kind](values[left], values[right]))
                elif kind == "const":
                    values.append(instruction[1])
                elif kind == "solve":
                    values.extend(_solve(instruction, values, passed))
                else:
                    values.append(ARRAY_UNARY[kind](values[instruction[1]]))
        return values, passed


def solve_traced(matrix: np.ndarray, rhs: np.ndarray, entries, solution: np.ndarray) -> np.ndarray:
    """Record ``solution = np.linalg.solve(matrix, rhs)`` on the entries' tape.

    ``entries`` lists ``(into_rhs, row, column, value)`` for every traced
    entry the caller wrote into ``matrix`` or ``rhs``; every other entry is
    the same in all scenarios.  Returns ``solution`` as an object array of
    traced values, one new node per element in row-major order.
    """
    tape = entries[0][3].tape
    placed = {False: ([], [], []), True: ([], [], [])}
    for into_rhs, row, column, value in entries:
        rows, columns, nodes = placed[into_rhs]
        rows.append(row)
        columns.append(column)
        nodes.append(tape._operand(value))
    tape.code.append(("solve", matrix.copy(), placed[False], rhs.copy(), placed[True]))
    traced = np.empty(solution.size, dtype=object)
    traced[:] = [tape._traced(value) for value in solution.ravel().tolist()]
    return traced.reshape(solution.shape)


def _solve(instruction, values: list, passed: np.ndarray) -> np.ndarray:
    """Evaluate a ``"solve"`` instruction: one stacked solve for every column.

    Returns one row per solution element, in row-major order.  Columns
    that already failed get an identity system; a singular system fails
    its column alone (``np.linalg.solve`` refuses the whole stack, so the
    stack is then solved one column at a time).
    """
    _, matrix, matrix_entries, rhs, rhs_entries = instruction
    count = passed.shape[0]
    stacked = []
    for base, (rows, columns, nodes) in ((matrix, matrix_entries), (rhs, rhs_entries)):
        array = np.repeat(base[np.newaxis], count, axis=0)
        if nodes:
            array[:, rows, columns] = np.array(
                [np.broadcast_to(values[node], (count,)) for node in nodes]
            ).T
        stacked.append(array)
    matrices, rhss = stacked
    failed = ~passed
    matrices[failed] = np.eye(matrix.shape[0])
    rhss[failed] = 0.0
    try:
        solution = np.linalg.solve(matrices, rhss)
    except np.linalg.LinAlgError:
        solution = np.zeros_like(rhss)
        for index in np.flatnonzero(passed):
            try:
                solution[index] = np.linalg.solve(matrices[index], rhss[index])
            except np.linalg.LinAlgError:
                passed[index] = False
    return solution.reshape(count, -1).T
