"""Timed Data-Flow kernel (SystemC-AMS/TDF analogue).

TDF models are signal-flow blocks "scheduled statically by considering their
producer-consumer dependencies" (paper Section II.A).  Every cluster here is
single rate: a module reads and writes one sample per port per activation.
This module provides:

* :class:`TdfInPort` / :class:`TdfOutPort` / :class:`TdfSignal` — ports
  connected by buffered signals (``sca_tdf::sca_in/out`` and
  ``sca_tdf::sca_signal``);
* :class:`TdfModule` — the block base class with ``set_attributes`` /
  ``processing`` hooks;
* :class:`TdfCluster` — derives a static module order (producers before
  consumers) and executes it either standalone or embedded in the
  discrete-event kernel.

The per-sample buffering and the cluster bookkeeping are the "AMS interface"
overhead that makes TDF slightly slower than the plain discrete-event
integration in the paper's Tables I-III.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..errors import SchedulingError, SimulationError
from .steps import resolve_steps


class TdfSignal:
    """A buffered point-to-multipoint connection between TDF ports."""

    def __init__(self, name: str = "") -> None:
        self.name = name or f"tdf_signal_{id(self):x}"
        self.writer: "TdfOutPort | None" = None
        #: One sample queue per reader, in binding order.  The writer's port
        #: appends to every queue and each reader's port pops its own.
        self._queues: list[deque] = []

    def _attach_reader(self) -> deque:
        queue: deque = deque()
        self._queues.append(queue)
        return queue


class TdfPort:
    """Base class of TDF ports."""

    def __init__(self, module: "TdfModule", name: str) -> None:
        self.module = module
        self.name = f"{module.name}.{name}"
        self.signal: TdfSignal | None = None

    def bind(self, signal: TdfSignal) -> None:
        """Connect the port to a signal."""
        raise NotImplementedError


class TdfInPort(TdfPort):
    """An input port (``sca_tdf::sca_in<double>``)."""

    #: This reader's sample queue in the bound signal.
    _queue: "deque | None" = None

    def bind(self, signal: TdfSignal) -> None:
        self.signal = signal
        self._queue = signal._attach_reader()

    def read(self) -> float:
        """Consume and return the next input sample."""
        queue = self._queue
        if queue:
            return queue.popleft()
        if self.signal is None:
            raise SimulationError(f"TDF input port {self.name!r} is not bound")
        raise SimulationError(
            f"TDF signal {self.signal.name!r} underflow when read by {self.name!r}"
        )


class TdfOutPort(TdfPort):
    """An output port (``sca_tdf::sca_out<double>``)."""

    #: The bound signal's reader queues (shared, so later readers count).
    _queues: "list[deque] | None" = None

    def bind(self, signal: TdfSignal) -> None:
        if signal.writer is not None:
            raise SimulationError(
                f"TDF signal {signal.name!r} already has a writer"
            )
        self.signal = signal
        self._queues = signal._queues
        signal.writer = self

    def write(self, value: float) -> None:
        """Produce one output sample for every reader."""
        queues = self._queues
        if queues is None:
            raise SimulationError(f"TDF output port {self.name!r} is not bound")
        for queue in queues:
            queue.append(value)


class TdfModule:
    """Base class of TDF processing blocks.

    Subclasses create ports in their constructor, optionally override
    :meth:`set_attributes` (to request a module timestep) and implement
    :meth:`processing`, which is called once per cluster period.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.requested_timestep: float | None = None
        #: Current cluster time, set by the scheduler before each activation.
        self.time = 0.0
        #: Every input port, in creation order; the scheduler reads their writers.
        self._in_ports: list[TdfInPort] = []

    # -- construction helpers --------------------------------------------------------
    def in_port(self, name: str) -> TdfInPort:
        """Create an input port."""
        port = TdfInPort(self, name)
        self._in_ports.append(port)
        return port

    def out_port(self, name: str) -> TdfOutPort:
        """Create an output port."""
        return TdfOutPort(self, name)

    def set_timestep(self, timestep: float) -> None:
        """Request the module activation period (like ``set_timestep``)."""
        if timestep <= 0.0:
            raise ValueError("timestep must be positive")
        self.requested_timestep = timestep

    # -- hooks -------------------------------------------------------------------------
    def set_attributes(self) -> None:
        """Attribute-setting hook, called once before scheduling."""

    def processing(self) -> None:
        """Per-activation behaviour; must be overridden."""
        raise NotImplementedError


class TdfCluster:
    """A set of connected TDF modules executed under one static schedule."""

    def __init__(self, name: str = "tdf_cluster") -> None:
        self.name = name
        self.modules: list[TdfModule] = []
        self.signals: list[TdfSignal] = []
        self._order: list[TdfModule] | None = None
        #: The schedule as ``(module, bound processing)`` pairs.
        self._steps: list[tuple[TdfModule, Callable[[], None]]] | None = None
        self.timestep: float | None = None

    # -- construction ----------------------------------------------------------------------
    def add(self, module: TdfModule) -> TdfModule:
        """Register a module with the cluster."""
        self.modules.append(module)
        return module

    def signal(self, name: str = "") -> TdfSignal:
        """Create a signal owned by the cluster."""
        signal = TdfSignal(name or f"{self.name}.sig{len(self.signals)}")
        self.signals.append(signal)
        return signal

    def connect(self, writer: TdfOutPort, *readers: TdfInPort) -> TdfSignal:
        """Create a signal, bind ``writer`` and every reader, and return it."""
        signal = self.signal()
        writer.bind(signal)
        for reader in readers:
            reader.bind(signal)
        return signal

    # -- scheduling ---------------------------------------------------------------------------
    def schedule(self) -> list[TdfModule]:
        """Compute (and cache) the static module order.

        Repeated passes over the modules in insertion order fire every module
        whose producers have all fired, so every read finds its sample.  A
        module that reads a signal nobody writes, or that sits on a feedback
        loop, never fires.
        """
        if self._order is not None:
            return self._order
        for module in self.modules:
            module.set_attributes()
        self._resolve_timestep()

        # The producer of an unwritten signal is ``None``, which never fires.
        producers = {
            module: {
                port.signal.writer.module if port.signal.writer else None
                for port in module._in_ports
                if port.signal is not None
            }
            for module in self.modules
        }
        order: list[TdfModule] = []
        fired: set[TdfModule] = set()
        progress = True
        while progress:
            progress = False
            for module in self.modules:
                if module not in fired and producers[module] <= fired:
                    order.append(module)
                    fired.add(module)
                    progress = True
        blocked = [module.name for module in self.modules if module not in fired]
        if blocked:
            raise SchedulingError(
                f"cannot statically schedule cluster {self.name!r}; modules "
                f"{blocked} are blocked (feedback loop or unwritten signal?)"
            )
        self._order = order
        self._steps = [(module, module.processing) for module in order]
        return order

    def _resolve_timestep(self) -> None:
        requested = {
            module.requested_timestep
            for module in self.modules
            if module.requested_timestep is not None
        }
        if self.timestep is None:
            if len(requested) > 1:
                raise SchedulingError(
                    f"conflicting module timesteps in cluster {self.name!r}: {sorted(requested)}"
                )
            self.timestep = requested.pop() if requested else None
        if self.timestep is None:
            raise SchedulingError(
                f"cluster {self.name!r} has no timestep; set cluster.timestep or "
                "call set_timestep() in a module"
            )

    # -- execution ---------------------------------------------------------------------------
    def run_period(self, time: float) -> None:
        """Execute one cluster period (every module once, in schedule order)."""
        steps = self._steps
        if steps is None:
            self.schedule()
            steps = self._steps
        for module, processing in steps:
            module.time = time
            processing()

    def run(self, duration: float, start_time: float = 0.0) -> float:
        """Run standalone for ``duration`` seconds (whole periods) of cluster time."""
        self.schedule()
        assert self.timestep is not None
        steps = resolve_steps(duration, self.timestep)
        time = start_time
        for index in range(steps):
            time = start_time + (index + 1) * self.timestep
            self.run_period(time)
        return time
