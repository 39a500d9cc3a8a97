"""Timed Data-Flow kernel (SystemC-AMS/TDF analogue).

TDF models are signal-flow blocks "scheduled statically by considering their
producer-consumer dependencies" (paper Section II.A).  This module provides:

* :class:`TdfPort` / :class:`TdfSignal` — rate-annotated ports connected by
  buffered signals (``sca_tdf::sca_in/out`` and ``sca_tdf::sca_signal``);
* :class:`TdfModule` — the block base class with ``set_attributes`` /
  ``processing`` hooks;
* :class:`TdfCluster` — computes the repetition vector from the rate balance
  equations, derives a static schedule (producers before consumers) and
  executes it either standalone or embedded in the discrete-event kernel.

The per-sample buffering and the cluster bookkeeping are the "AMS interface"
overhead that makes TDF slightly slower than the plain discrete-event
integration in the paper's Tables I-III.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Callable, Iterable

from ..errors import SchedulingError, SimulationError


class TdfSignal:
    """A buffered point-to-multipoint connection between TDF ports."""

    def __init__(self, name: str = "", initial_samples: Iterable[float] = ()) -> None:
        self.name = name or f"tdf_signal_{id(self):x}"
        self.writer: "TdfOutPort | None" = None
        self.readers: list["TdfInPort"] = []
        #: One sample queue per reader, in reader order.  The writer's port
        #: appends to every queue and each reader's port pops its own.
        self._queues: list[deque] = []
        self._initial = list(initial_samples)

    def _attach_reader(self, port: "TdfInPort") -> deque:
        self.readers.append(port)
        queue = deque(self._initial)
        self._queues.append(queue)
        return queue

    @property
    def delay(self) -> int:
        """Number of initial samples (the ``set_delay`` attribute of SystemC-AMS)."""
        return len(self._initial)


class TdfPort:
    """Base class of TDF ports; carries the port rate."""

    def __init__(self, module: "TdfModule", name: str, rate: int = 1) -> None:
        if rate < 1:
            raise ValueError("port rate must be at least 1")
        self.module = module
        self.name = f"{module.name}.{name}"
        self.rate = rate
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
        self._queue = signal._attach_reader(self)

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
    :meth:`set_attributes` (to set rates or request a module timestep) and
    implement :meth:`processing`, which is called once per activation by the
    static schedule.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.activation_count = 0
        self.requested_timestep: float | None = None
        #: Current cluster time, set by the scheduler before each activation.
        self.time = 0.0

    # -- construction helpers --------------------------------------------------------
    def in_port(self, name: str, rate: int = 1) -> TdfInPort:
        """Create an input port."""
        return TdfInPort(self, name, rate)

    def out_port(self, name: str, rate: int = 1) -> TdfOutPort:
        """Create an output port."""
        return TdfOutPort(self, name, rate)

    def set_timestep(self, timestep: float) -> None:
        """Request the module activation period (like ``set_timestep``)."""
        if timestep <= 0.0:
            raise ValueError("timestep must be positive")
        self.requested_timestep = timestep

    # -- hooks -------------------------------------------------------------------------
    def set_attributes(self) -> None:
        """Attribute-setting hook, called once before scheduling."""

    def initialize(self) -> None:
        """Initialisation hook, called once after scheduling."""

    def processing(self) -> None:
        """Per-activation behaviour; must be overridden."""
        raise NotImplementedError

    # -- introspection --------------------------------------------------------------------
    def ports(self) -> list[TdfPort]:
        """Every port created by the module (including ports held in containers)."""
        found: list[TdfPort] = []
        for value in vars(self).values():
            if isinstance(value, TdfPort):
                found.append(value)
            elif isinstance(value, dict):
                found.extend(item for item in value.values() if isinstance(item, TdfPort))
            elif isinstance(value, (list, tuple)):
                found.extend(item for item in value if isinstance(item, TdfPort))
        return found


class TdfCluster:
    """A set of connected TDF modules executed under one static schedule."""

    def __init__(self, name: str = "tdf_cluster") -> None:
        self.name = name
        self.modules: list[TdfModule] = []
        self.signals: list[TdfSignal] = []
        self._schedule: list[tuple[TdfModule, int]] | None = None
        #: The schedule as ``(module, bound processing)`` pairs.
        self._steps: list[tuple[TdfModule, Callable[[], None]]] | None = None
        self.timestep: float | None = None
        self.period_count = 0

    # -- construction ----------------------------------------------------------------------
    def add(self, module: TdfModule) -> TdfModule:
        """Register a module with the cluster."""
        self.modules.append(module)
        return module

    def signal(self, name: str = "", initial_samples: Iterable[float] = ()) -> TdfSignal:
        """Create a signal owned by the cluster."""
        signal = TdfSignal(name or f"{self.name}.sig{len(self.signals)}", initial_samples)
        self.signals.append(signal)
        return signal

    def connect(self, writer: TdfOutPort, *readers: TdfInPort, delay_samples: int = 0) -> TdfSignal:
        """Create a signal, bind ``writer`` and every reader, and return it."""
        signal = self.signal(initial_samples=[0.0] * delay_samples)
        writer.bind(signal)
        for reader in readers:
            reader.bind(signal)
        return signal

    # -- scheduling ---------------------------------------------------------------------------
    def _repetition_vector(self) -> dict[TdfModule, int]:
        """Solve the rate balance equations (SDF repetition vector)."""
        repetitions: dict[TdfModule, Fraction] = {}

        def propagate(module: TdfModule, value: Fraction) -> None:
            if module in repetitions:
                if repetitions[module] != value:
                    raise SchedulingError(
                        f"inconsistent port rates around module {module.name!r}"
                    )
                return
            repetitions[module] = value
            for port in module.ports():
                signal = port.signal
                if signal is None:
                    continue
                if isinstance(port, TdfOutPort):
                    produced = value * port.rate
                    for reader in signal.readers:
                        propagate(reader.module, produced / reader.rate)
                else:
                    consumed = value * port.rate
                    if signal.writer is not None:
                        propagate(signal.writer.module, consumed / signal.writer.rate)

        for module in self.modules:
            if module not in repetitions:
                propagate(module, Fraction(1))

        denominators = [value.denominator for value in repetitions.values()]
        scale = 1
        for denominator in denominators:
            scale = scale * denominator // _gcd(scale, denominator)
        integral = {module: int(value * scale) for module, value in repetitions.items()}
        divisor = 0
        for value in integral.values():
            divisor = _gcd(divisor, value)
        return {module: value // max(divisor, 1) for module, value in integral.items()}

    def schedule(self) -> list[tuple[TdfModule, int]]:
        """Compute (and cache) the static schedule.

        The schedule lists ``(module, activation_index)`` pairs ordered so
        that every read finds its samples available, assuming feedback loops
        carry enough initial (delay) samples.
        """
        if self._schedule is not None:
            return self._schedule
        for module in self.modules:
            module.set_attributes()
        self._resolve_timestep()
        repetitions = self._repetition_vector()

        # List scheduling: repeatedly fire any module whose inputs have enough
        # samples, using a token-count simulation of one cluster period.
        tokens: dict[tuple[int, int], int] = {}
        for signal in self.signals:
            for reader in signal.readers:
                tokens[(id(signal), id(reader))] = signal.delay
        remaining = {module: count for module, count in repetitions.items()}
        schedule: list[tuple[TdfModule, int]] = []
        progress = True
        while any(remaining.values()) and progress:
            progress = False
            for module in self.modules:
                if remaining[module] == 0:
                    continue
                if not self._can_fire(module, tokens):
                    continue
                self._fire_tokens(module, tokens)
                schedule.append((module, repetitions[module] - remaining[module]))
                remaining[module] -= 1
                progress = True
        if any(remaining.values()):
            blocked = [module.name for module, count in remaining.items() if count]
            raise SchedulingError(
                f"cannot statically schedule cluster {self.name!r}; modules "
                f"{blocked} are blocked (feedback loop without delay samples?)"
            )
        for module in self.modules:
            module.initialize()
        self._schedule = schedule
        self._steps = [(module, module.processing) for module, _ in schedule]
        return schedule

    def _can_fire(self, module: TdfModule, tokens: dict) -> bool:
        for port in module.ports():
            if isinstance(port, TdfInPort) and port.signal is not None:
                if tokens[(id(port.signal), id(port))] < port.rate:
                    return False
        return True

    def _fire_tokens(self, module: TdfModule, tokens: dict) -> None:
        for port in module.ports():
            signal = port.signal
            if signal is None:
                continue
            if isinstance(port, TdfInPort):
                tokens[(id(signal), id(port))] -= port.rate
            else:
                for reader in signal.readers:
                    tokens[(id(signal), id(reader))] += port.rate

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
        """Execute one cluster period (every module its repetition count)."""
        steps = self._steps
        if steps is None:
            self.schedule()
            steps = self._steps
        for module, processing in steps:
            module.time = time
            processing()
            module.activation_count += 1
        self.period_count += 1

    def run(self, duration: float, start_time: float = 0.0) -> float:
        """Run standalone for ``duration`` seconds of cluster time."""
        self.schedule()
        assert self.timestep is not None
        steps = int(round(duration / self.timestep))
        time = start_time
        for index in range(steps):
            time = start_time + (index + 1) * self.timestep
            self.run_period(time)
        return time


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
