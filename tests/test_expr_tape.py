"""Tapes record float operations and guards, and replay them over arrays.

:mod:`repro.expr.tape` underlies a sweep's recording of one full
abstraction flow, evaluated over a whole chunk
(:class:`repro.core.flow.ReplayTape`, pinned against the full flow by
``tests/test_abstraction_identity.py``).  These tests
pin the tape's own contract: an evaluated column equals what the recorded
Python computation gives for its inputs, bit for bit, exactly when every
guard holds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.expr.ast import Call, Constant
from repro.expr.simplify import constant_value, simplify
from repro.expr.tape import Tape, Traced, plain


def _record(function, *values):
    tape = Tape()
    inputs = [tape.input(value) for value in values]
    return tape, function(*inputs)


def _run(tape, node, *columns):
    values, passed = tape.evaluate(np.array(columns, dtype=float))
    return np.broadcast_to(values[node], passed.shape), passed


def test_arithmetic_replays_bit_for_bit():
    def function(a, b):
        return abs(-(a * 3.0 - b) / (0.1 + b)) + 1.0 / a

    tape, result = _record(function, 2.0, 5.0)
    assert type(result) is Traced and plain(result) == function(2.0, 5.0)
    a = [2.0, 1e-300, 7.25, 3.0]
    b = [5.0, 2.5, -0.05, 1e300]
    values, passed = _run(tape, result.node, a, b)
    assert passed.all()
    assert values.tobytes() == np.array([function(x, y) for x, y in zip(a, b)]).tobytes()


def test_guards_fail_the_columns_that_branch_elsewhere():
    def function(a):
        return a * 2.0 if a < 1.0 else a - 1.0

    tape, result = _record(function, 0.5)
    assert tape.guards == 1
    values, passed = _run(tape, result.node, [0.25, 2.0, 1.0, -3.0])
    assert passed.tolist() == [True, False, False, True]
    assert values[passed].tolist() == [0.5, -6.0]


def test_truth_of_a_traced_value_is_a_guard():
    """``bool()`` of a coefficient picks a branch (as in
    ``AffineDecomposition.is_pure_number``): a column where it flips fails."""
    tape, result = _record(lambda a, b: 1.0 if (a - b) else 0.0, 2.0, 1.0)
    assert tape.guards == 1 and result == 1.0
    _, passed = tape.evaluate(np.array([[3.0, 1.0, 0.5], [1.0, 1.0, 2.0]]))
    assert passed.tolist() == [True, False, True]


def test_sign_of_zero_is_kept():
    """``0.0 + x`` and ``-x`` differ on zeros; the tape performs each as
    recorded, and its constants keep their sign."""
    tape, result = _record(lambda a: (0.0 + a, -a, a * -0.0), 1.0)
    columns = np.array([[-0.0, 0.0]])
    values, _ = tape.evaluate(columns)
    for traced, expected in zip(result, ([0.0, 0.0], [0.0, -0.0], [0.0, -0.0])):
        assert [math.copysign(1.0, value) for value in values[traced.node]] == [
            math.copysign(1.0, value) for value in expected
        ]


def test_a_zero_divisor_fails_its_column():
    tape, result = _record(lambda a: 1.0 / a, 4.0)
    _, passed = _run(tape, result.node, [2.0, 0.0, -0.0])
    assert passed.tolist() == [True, False, False]


@pytest.mark.parametrize(
    "escape",
    [
        float,
        int,
        hash,
        round,
        lambda value: value**2,
        lambda value: value % 2.0,
        lambda value: value.is_integer(),
    ],
    ids=["float", "int", "hash", "round", "pow", "mod", "is_integer"],
)
def test_an_untraced_use_marks_the_tape_escaped(escape):
    tape = Tape()
    value = tape.input(3.0)
    escape(value)
    assert tape.escaped


@pytest.mark.parametrize("fold", [simplify, constant_value], ids=["simplify", "constant_value"])
def test_folding_a_call_of_a_traced_constant_marks_the_tape_escaped(fold):
    tape = Tape()
    folded = fold(Call("exp", (Constant(tape.input(0.5)),)))
    assert tape.escaped
    assert float(getattr(folded, "value", folded)) == math.exp(0.5)


def test_a_constant_keeps_its_traced_value():
    tape = Tape()
    traced = tape.input(2.5)
    assert Constant(traced).value is traced
    assert type(Constant(np.float64(2.5)).value) is float
    assert not tape.escaped
