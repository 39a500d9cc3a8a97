"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.circuits import benchmark_by_name, build_opamp, build_rc_filter, build_two_input
from repro.core import AbstractionFlow, SignalFlowModel, convert_signal_flow
from repro.network import Circuit
from repro.vams import parse_module

#: Timestep used by most tests (the paper's 50 ns).
TEST_TIMESTEP = 50e-9


@pytest.fixture
def timestep() -> float:
    return TEST_TIMESTEP


@pytest.fixture
def rc1_circuit() -> Circuit:
    """A first-order RC filter with the paper's parameters."""
    return build_rc_filter(1)


@pytest.fixture
def rc3_circuit() -> Circuit:
    """A third-order RC filter (small but with interacting stages)."""
    return build_rc_filter(3)


@pytest.fixture
def two_input_circuit() -> Circuit:
    """The 2IN summing amplifier."""
    return build_two_input()


@pytest.fixture
def opamp_circuit() -> Circuit:
    """The OA active filter."""
    return build_opamp()


@pytest.fixture
def flow() -> AbstractionFlow:
    """An abstraction flow configured with the paper's timestep."""
    return AbstractionFlow(TEST_TIMESTEP)


@pytest.fixture
def rc1_model(flow, rc1_circuit):
    """The abstracted signal-flow model of RC1."""
    return flow.abstract(rc1_circuit, "out", name="rc1").model


@pytest.fixture
def reassigned_model() -> SignalFlowModel:
    """A signal-flow module that reassigns ``x``, directly converted: both
    assignments stay, in order, and each reads the latest value."""
    module = parse_module(
        """
        module reassign(vin, out); input vin; output out; electrical vin, out; real x;
        analog begin
          x = V(vin);
          x = x * 2 + idt(V(vin), 0);
          V(out) <+ x;
        end
        endmodule
        """
    )
    return convert_signal_flow(module, TEST_TIMESTEP)


@pytest.fixture
def rc1_benchmark():
    return benchmark_by_name("RC1")


@pytest.fixture
def oa_benchmark():
    return benchmark_by_name("OA")
