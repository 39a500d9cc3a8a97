"""Co-simulation bridge between the digital kernel and the analog engine.

Before abstraction, the paper's virtual platform couples the SystemC digital
models with the Verilog-AMS device through Questa ADMS: two simulators that
must exchange values and synchronise at every analog timestep, which is the
configuration the methodology is designed to eliminate.  This module rebuilds
that coupling: the analog side lives behind a byte-marshalled transaction
interface (:class:`AnalogCosimServer`), and :class:`CoSimulationBridge` is a
discrete-event module that, at every synchronisation point, packs the digital
inputs, performs the transaction, unpacks the results and publishes them on
discrete-event signals.

The cost of co-simulation therefore has the same two components as the real
tool chain: the slow conservative solve (the reference engine) and the
per-synchronisation marshalling/handshaking overhead.
"""

from __future__ import annotations

import struct
from typing import Mapping

from ..errors import CoSimulationError
from .ams import ReferenceAmsSimulator
from .de import Kernel, Module, PeriodicTicker, Signal


class AnalogCosimServer:
    """The "other simulator": owns the analog engine behind a message interface.

    Requests and responses are packed binary frames (little-endian doubles),
    modelling the data conversion that crosses the simulator boundary in a
    real co-simulation backplane.
    """

    def __init__(
        self,
        simulator: ReferenceAmsSimulator,
        observed_quantities: list[str],
    ) -> None:
        self.simulator = simulator
        self.observed_quantities = list(observed_quantities)
        self.input_names = list(simulator.inputs)
        self.transaction_count = 0
        self._request_format = "<" + "d" * len(self.input_names)
        self._response_format = "<" + "d" * len(self.observed_quantities)

    # -- marshalled interface -------------------------------------------------------------
    def pack_request(self, inputs: Mapping[str, float]) -> bytes:
        """Marshal the digital-side input values into a request frame."""
        try:
            values = [float(inputs[name]) for name in self.input_names]
        except KeyError as exc:
            raise CoSimulationError(f"missing co-simulation input {exc}") from exc
        return struct.pack(self._request_format, *values)

    def transact(self, request: bytes) -> bytes:
        """Advance the analog engine by one synchronisation step."""
        values = struct.unpack(self._request_format, request)
        self.simulator.step(dict(zip(self.input_names, values)))
        observed = [self.simulator.value(name) for name in self.observed_quantities]
        self.transaction_count += 1
        return struct.pack(self._response_format, *observed)

    def unpack_response(self, response: bytes) -> dict[str, float]:
        """Unmarshal a response frame into named analog quantities."""
        values = struct.unpack(self._response_format, response)
        return dict(zip(self.observed_quantities, values))


class CoSimulationBridge(Module):
    """Discrete-event side of the co-simulation coupling.

    At every analog timestep the bridge reads its input signals, performs one
    marshalled transaction against the analog server and drives its output
    signals with the returned quantities.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        server: AnalogCosimServer,
        input_signals: Mapping[str, Signal],
        output_signals: Mapping[str, Signal],
        timestep: float,
    ) -> None:
        super().__init__(kernel, name)
        self.server = server
        self.input_signals = dict(input_signals)
        self.output_signals = dict(output_signals)
        self.timestep = float(timestep)
        self.sync_count = 0
        missing_outputs = set(output_signals) - set(server.observed_quantities)
        if missing_outputs:
            raise CoSimulationError(
                f"bridge outputs {sorted(missing_outputs)} are not observed by "
                "the analog server"
            )
        self._ticker = PeriodicTicker(kernel, f"{name}.sync", self.timestep, self._synchronise)

    def _synchronise(self, now: float) -> None:
        # Wait one delta cycle so that stimulus signals written at this
        # synchronisation point are visible before values are marshalled.
        self.kernel._delta_pending.append(self._exchange)

    def _exchange(self) -> None:
        inputs = {name: signal.read() for name, signal in self.input_signals.items()}
        request = self.server.pack_request(inputs)
        response = self.server.transact(request)
        observed = self.server.unpack_response(response)
        for name, signal in self.output_signals.items():
            signal.write(observed[name])
        self.sync_count += 1
