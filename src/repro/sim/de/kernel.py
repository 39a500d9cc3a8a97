"""Discrete-event simulation kernel (the SystemC-DE analogue).

The kernel implements the subset of SystemC's simulation semantics the
virtual platform and the generated SystemC-DE models need:

* timed event notifications kept in a binary heap, ordered at one instant
  by the time each was scheduled, then first-in first-out;
* evaluate/update *delta cycles* so that signals written during one
  evaluation phase only become visible in the next one;
* method processes with static or dynamic sensitivity, and thread processes
  written as Python generators that ``yield`` waits.

The scheduler loop mirrors the SystemC reference implementation: run every
runnable process (evaluation phase), apply signal updates (update phase),
schedule processes woken by the resulting value changes into a new delta
cycle, and only when no delta work is left advance simulated time to the next
timed notification.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from ...errors import SimulationError
from ...obs.tracer import TRACER
from .simtime import quantize


class Event:
    """A notifiable synchronisation object (like ``sc_event``)."""

    __slots__ = ("kernel", "name", "_waiting_methods", "_waiting_threads")

    def __init__(self, kernel: "Kernel", name: str = "") -> None:
        self.kernel = kernel
        self.name = name or f"event_{id(self):x}"
        self._waiting_methods: list[Callable[[], None]] = []
        self._waiting_threads: list["ThreadProcess"] = []

    # -- subscription ------------------------------------------------------------
    def add_static_method(self, callback: Callable[[], None]) -> None:
        """Statically sensitise a method process to this event."""
        self._waiting_methods.append(callback)

    def wait_thread(self, process: "ThreadProcess") -> None:
        """Register a thread process waiting (dynamically) on this event."""
        self._waiting_threads.append(process)

    # -- notification ---------------------------------------------------------------
    def notify(self, delay: float | None = None) -> None:
        """Notify the event.

        ``delay=None`` performs an immediate (same evaluation phase) trigger;
        ``delay=0.0`` is a delta notification; a positive delay is a timed
        notification, as in SystemC.
        """
        if delay is None:
            self.kernel._trigger_event(self)
        elif delay == 0.0:
            self.kernel._schedule_delta(self._trigger)
        else:
            self.kernel.schedule(delay, self._trigger)

    def _trigger(self) -> None:
        self.kernel._trigger_event(self)


class ThreadProcess:
    """A coroutine-style process: a generator yielding waits.

    Yield values understood by the kernel:

    * a ``float`` — wait for that many seconds;
    * an :class:`Event` — wait until the event is notified;
    * ``None`` — wait one delta cycle.
    """

    __slots__ = ("kernel", "name", "generator", "terminated")

    def __init__(self, kernel: "Kernel", name: str, generator) -> None:
        self.kernel = kernel
        self.name = name
        self.generator = generator
        self.terminated = False

    def start(self) -> None:
        """Schedule the first activation at the current time."""
        self.kernel._schedule_delta(self.resume)

    def resume(self) -> None:
        """Run the process until its next wait."""
        if self.terminated:
            return
        try:
            request = next(self.generator)
        except StopIteration:
            self.terminated = True
            return
        if request is None:
            self.kernel._schedule_delta(self.resume)
        elif isinstance(request, Event):
            request.wait_thread(self)
        elif isinstance(request, (int, float)):
            self.kernel.schedule(float(request), self.resume)
        else:
            raise SimulationError(
                f"thread process {self.name!r} yielded an unsupported wait "
                f"request: {request!r}"
            )


class Kernel:
    """The discrete-event scheduler.

    Periodic processes share heap entries.  A :class:`~.module.PeriodicTicker`
    whose next entry would be pushed right after another ticker's, with an
    equal ``(time, scheduled)`` key, joins that entry instead of pushing its
    own; one entry then fires its members in push order.  That is the order
    separate entries would get: entries with equal keys fire first-in
    first-out, and nothing can sort between two consecutive pushes.  The
    join is checked at every push: ``_open`` is the shared entry pushed
    last, a ticker joins it only if no timed push happened since (its
    ``sequence`` still equals ``_sequence``) and its keys are equal, and the
    run loop closes it (``_open = None``) whenever it pops an instant.
    """

    def __init__(self) -> None:
        self.now = 0.0
        #: Simulated-time horizon of the active :meth:`run` call (``None``
        #: outside a bounded run).  Batch-oriented processes — the virtual
        #: platform's CPU block driver — read this to clamp how far ahead of
        #: ``now`` they may execute without overshooting the run boundary.
        self.end_time: float | None = None
        self._sequence = 0
        #: ``(time, scheduled, sequence, action)`` entries: events at one
        #: instant fire in the order they were scheduled in simulated time,
        #: then first-in first-out (see :meth:`schedule_abs`).
        self._timed: list[tuple[float, float, int, Callable[[], None]]] = []
        self._runnable: list[Callable[[], None]] = []
        self._delta_pending: list[Callable[[], None]] = []
        self._update_requests: list["SignalUpdate"] = []
        # Spare list objects recycled by the delta-cycle loop; allocating fresh
        # lists every delta dominated the kernel's allocation profile.
        self._runnable_spare: list[Callable[[], None]] = []
        self._update_spare: list["SignalUpdate"] = []
        #: The shared periodic entry pushed last, until an instant is popped.
        self._open = None
        self._running = False
        self._finished = False
        self.delta_count = 0
        self.event_count = 0

    # -- scheduling primitives -----------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0.0:
            raise SimulationError("cannot schedule an action in the past")
        self._sequence += 1
        now = self.now
        heappush(self._timed, (quantize(now + delay), now, self._sequence, action))

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at the absolute time ``time``."""
        self.schedule(max(0.0, time - self.now), action)

    def schedule_abs(
        self, time: float, action: Callable[[], None], scheduled: float
    ) -> None:
        """Schedule ``action`` at the absolute (quantised) time ``time``.

        Skips the relative-delay round trip of :meth:`schedule_at`; times
        earlier than ``now`` are clamped to ``now``.

        ``scheduled`` is the simulated time the event counts as scheduled
        at, which orders it among the events of its instant (earlier first,
        then first-in first-out).  :meth:`schedule` uses ``now``.  A process
        that runs ahead of the clock, like the virtual platform's CPU block
        driver, uses the time a one-event-per-tick process would have
        scheduled the event at; ``-inf`` fires first at the instant.
        """
        at = quantize(time)
        now = self.now
        if at < now:
            at = now
        self._sequence += 1
        heappush(self._timed, (at, scheduled, self._sequence, action))

    def _schedule_delta(self, action: Callable[[], None]) -> None:
        self._delta_pending.append(action)

    def _trigger_event(self, event: Event) -> None:
        self.event_count += 1
        # Static sensitivity lists are dispatched with one C-level extend
        # instead of a per-callback Python loop.
        methods = event._waiting_methods
        if methods:
            self._runnable.extend(methods)
        waiting = event._waiting_threads
        if waiting:
            event._waiting_threads = []
            runnable = self._runnable
            for process in waiting:
                runnable.append(process.resume)

    # -- processes ------------------------------------------------------------------------
    def spawn_thread(self, generator, name: str = "") -> ThreadProcess:
        """Create and start a thread process from a generator."""
        process = ThreadProcess(self, name or f"thread_{self._sequence}", generator)
        process.start()
        return process

    # -- simulation loop -------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the simulation at the end of the current delta cycle.

        ``now`` stays at the stop instant, and :meth:`run` returns it.  Work
        left at that instant and every pending timed event stay queued; a
        later :meth:`run` picks them up at their own times.
        """
        self._finished = True

    def run(
        self, duration: float | None = None, *, until: float | None = None
    ) -> float:
        """Run the simulation.

        ``duration`` bounds the simulated time starting from ``now``;
        ``until`` instead runs every event up to and including that
        absolute time.  With neither, the kernel runs until no work is
        left.  Returns the final simulated time, which is the end time
        (quantised) for a bounded run that was not stopped.
        """
        if duration is not None:
            if until is not None:
                raise SimulationError("run takes a duration or an end time, not both")
            until = self.now + duration
        if self._running:
            raise SimulationError("the kernel is already running")
        self._running = True
        self._finished = False
        end_time = None if until is None else quantize(until)
        self.end_time = end_time
        timed = self._timed
        # Observability: tracing only brackets the scheduler loop, so
        # disabled tracing adds no per-event work.
        tracer = TRACER
        trace = tracer.enabled
        if trace:
            run_start = tracer.now()
            events_before = self.event_count
            deltas_before = self.delta_count
        try:
            while True:
                # Delta cycles at the current instant.
                while self._runnable or self._delta_pending:
                    if self._finished:
                        break
                    # Evaluation phase: triggered processes, then delta
                    # actions.  The drained lists are recycled as the next
                    # delta's spares instead of being re-allocated; actions
                    # triggered during evaluation land in the (empty)
                    # swapped-in lists, so they run in the next delta.
                    runnable = self._runnable
                    pending = self._delta_pending
                    if pending:
                        if runnable:
                            runnable.extend(pending)
                            pending.clear()
                        else:
                            self._delta_pending = runnable
                            runnable = pending
                    # Swap BEFORE running the actions and clear in a finally,
                    # so an exception escaping a process can neither alias
                    # the two lists nor leave stale actions behind for the
                    # next run() call.
                    self._runnable = self._runnable_spare
                    self._runnable_spare = runnable
                    try:
                        for action in runnable:
                            action()
                    finally:
                        runnable.clear()
                    # Update phase.  Updates requested while applying updates
                    # belong to the next delta, hence the swap first.
                    updates = self._update_requests
                    if updates:
                        self._update_requests = self._update_spare
                        self._update_spare = updates
                        try:
                            for update in updates:
                                update.apply()
                        finally:
                            updates.clear()
                    self.delta_count += 1
                if self._finished or not timed:
                    break
                next_time = timed[0][0]
                if end_time is not None and next_time > end_time + 1e-18:
                    self.now = end_time
                    break
                # Advance to the next instant and move its events to the
                # runnable list.  Popping closes the open shared entry: a
                # periodic process must not join an entry already popped.
                self.now = next_time
                self._open = None
                horizon = next_time + 1e-18
                runnable = self._runnable
                while timed and timed[0][0] <= horizon:
                    runnable.append(heappop(timed)[3])
        finally:
            self._running = False
            self.end_time = None
            if trace:
                events = self.event_count - events_before
                deltas = self.delta_count - deltas_before
                tracer.add("de.runs", 1.0)
                tracer.add("de.events", float(events))
                tracer.add("de.deltas", float(deltas))
                tracer.end("de.run", run_start, "de", events=events, deltas=deltas)
        if end_time is not None and self.now < end_time and not self._finished:
            self.now = end_time
        return self.now


class SignalUpdate:
    """Protocol object queued by signals during the evaluation phase."""

    def apply(self) -> None:  # pragma: no cover - interface definition
        raise NotImplementedError
