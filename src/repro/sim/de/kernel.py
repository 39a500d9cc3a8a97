"""Discrete-event simulation kernel (the SystemC-DE analogue).

The kernel implements the subset of SystemC's simulation semantics the
virtual platform and the generated SystemC-DE models need:

* timed actions kept in a binary heap, ordered at one instant by the time
  each was scheduled, then first-in first-out;
* evaluate/update *delta cycles* so that signals written during one
  evaluation phase only become visible in the next one.

Every process is a plain callable of one of two kinds: a *timed action*
(:meth:`Kernel.schedule`, :meth:`Kernel.schedule_abs` or a shared periodic
entry), or a *delta action* appended to ``Kernel._delta_pending``, which
runs in the next delta cycle of the same instant.  A process that reads a
signal another process writes defers itself by one delta action per
producer/consumer hop, so it reads the updated value.

The scheduler loop mirrors the SystemC reference implementation: run the
delta's actions (evaluation phase), apply signal updates (update phase),
repeat while actions were appended, and only when no delta work is left
advance simulated time to the next timed action.  The actions popped at
that instant form its first delta.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable

from ...errors import SimulationError
from ...obs.tracer import TRACER
from .simtime import quantize

if TYPE_CHECKING:  # pragma: no cover - typing only (signal imports us)
    from .signal import Signal


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
        #: The next delta's actions: an instant's popped timed actions, then
        #: whatever each delta appends.
        self._delta_pending: list[Callable[[], None]] = []
        self._update_requests: list[Signal] = []
        # Spare list objects recycled by the delta-cycle loop; allocating fresh
        # lists every delta dominated the kernel's allocation profile.
        self._delta_spare: list[Callable[[], None]] = []
        self._update_spare: list[Signal] = []
        #: The shared periodic entry pushed last, until an instant is popped.
        self._open = None
        self._running = False
        self._finished = False
        self.delta_count = 0
        #: Signal updates that changed a value.
        self.event_count = 0

    # -- scheduling primitives -----------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0.0:
            raise SimulationError("cannot schedule an action in the past")
        self._sequence += 1
        now = self.now
        heappush(self._timed, (quantize(now + delay), now, self._sequence, action))

    def schedule_abs(
        self, time: float, action: Callable[[], None], scheduled: float
    ) -> None:
        """Schedule ``action`` at the absolute (quantised) time ``time``.

        Times earlier than ``now`` are clamped to ``now``.

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
                while self._delta_pending and not self._finished:
                    # Evaluation phase.  The drained list is recycled as the
                    # next delta's spare instead of being re-allocated;
                    # actions appended during evaluation land in the (empty)
                    # swapped-in list, so they run in the next delta.  Swap
                    # BEFORE running the actions and clear in a finally, so
                    # an exception escaping a process can neither alias the
                    # two lists nor leave stale actions behind for the next
                    # run() call.
                    actions = self._delta_pending
                    self._delta_pending = self._delta_spare
                    self._delta_spare = actions
                    try:
                        for action in actions:
                            action()
                    finally:
                        actions.clear()
                    # Update phase, recycled the same way.
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
                # Advance to the next instant; its timed actions form its
                # first delta (no delta work is left when time advances).
                # Popping closes the open shared entry: a periodic process
                # must not join an entry already popped.
                self.now = next_time
                self._open = None
                horizon = next_time + 1e-18
                pending = self._delta_pending
                while timed and timed[0][0] <= horizon:
                    pending.append(heappop(timed)[3])
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

