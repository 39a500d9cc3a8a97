"""The process-local instrumentation core (spans, events, counters).

Design constraints, in priority order:

1. **Near-zero cost when disabled.**  Every hot code path (the DE kernel's
   scheduler loop, the block-stepped ISS, the abstraction flow, the run
   store) guards its instrumentation behind a single attribute check —
   ``if TRACER.enabled:`` — and calls the tracer only inside that branch.
   The hottest loops (per-instruction ISS dispatch, per-delta kernel
   evaluation) are not instrumented at all: they maintain plain integer
   counters that the tracer *reads at boundaries* (end of a block, end of a
   ``run``), so the disabled configuration executes exactly the seed
   instruction stream plus a handful of rare-branch integer increments.
2. **Multiprocessing-safe collection.**  The tracer is process-local by
   construction (a module global, never shared).  Worker processes enable
   their own tracer, run, and ship a compact :meth:`Tracer.collect` payload
   back with their results; the parent merges payloads into a
   :class:`~repro.obs.telemetry.TelemetryReport`.  :meth:`Tracer.mark` /
   :meth:`Tracer.collect` bracket a region so the serial path (which runs in
   the parent's tracer) reports exactly the same delta a worker would.
3. **Bounded memory.**  Events are compact tuples and capped at
   ``max_events``; past the cap the tracer counts drops instead of growing.

Timestamps are raw :func:`time.perf_counter` seconds.  On the platforms we
support ``perf_counter`` is a system-wide monotonic clock, so events
recorded in forked workers land on the same timeline as the parent's; the
exporters rebase to the earliest event when rendering.
"""

from __future__ import annotations

import os
import time

#: The event phase key: every recorded event is a Chrome ``trace_event``
#: complete span.
PHASE_COMPLETE = "X"

#: Default cap on buffered events per process.
DEFAULT_MAX_EVENTS = 200_000

_perf_counter = time.perf_counter


class Tracer:
    """Process-local span/event/counter recorder.

    The public attribute ``enabled`` is the one flag hot paths may check;
    everything else is only touched once that check has passed.  Events are
    stored as ``(phase, name, category, ts, dur, args)`` tuples with
    ``ts``/``dur`` in ``perf_counter`` seconds; counters are a plain
    ``name -> float`` accumulator.
    """

    __slots__ = ("enabled", "max_events", "events", "counters", "dropped")

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.enabled = False
        self.max_events = int(max_events)
        self.events: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.dropped = 0

    # -- clock -------------------------------------------------------------------------
    @staticmethod
    def now() -> float:
        """The tracer's clock (``perf_counter`` seconds)."""
        return _perf_counter()

    # -- recording ---------------------------------------------------------------------
    def _append(self, event: tuple) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def complete(
        self,
        name: str,
        start: float,
        duration: float,
        category: str = "",
        **args,
    ) -> None:
        """Record a complete span from explicit ``start``/``duration``.

        This is the workhorse for code that already measures its own phases
        (the abstraction flow, the compile cache): the caller times the work
        with ``perf_counter`` and hands the numbers over, so disabled runs
        pay nothing beyond the guard.
        """
        if not self.enabled:
            return
        self._append((PHASE_COMPLETE, name, category, start, duration, args or None))

    def end(self, name: str, start: float, category: str = "", **args) -> None:
        """Record a complete span that started at ``start`` and ends now."""
        if not self.enabled:
            return
        self._append(
            (PHASE_COMPLETE, name, category, start, _perf_counter() - start, args or None)
        )

    def add(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` onto the named counter."""
        if not self.enabled:
            return
        counters = self.counters
        counters[name] = counters.get(name, 0.0) + value

    # -- collection --------------------------------------------------------------------
    def mark(self) -> tuple[int, dict[str, float], int]:
        """A resumable position: everything recorded so far.

        Pass the mark to :meth:`collect` to obtain only the events, counter
        increments and drops recorded *after* it — the mechanism that lets
        the serial execution path (running inside the parent's tracer) report
        the same delta payload a freshly forked worker would.
        """
        return (len(self.events), dict(self.counters), self.dropped)

    def collect(self, mark: "tuple[int, dict[str, float], int] | None" = None) -> dict:
        """The compact, picklable telemetry payload since ``mark``.

        ``None`` collects everything.  The payload is what worker processes
        return alongside their results: the recording process id, the event
        tuples, the counter *deltas* and the number of events dropped since
        the mark.
        """
        if mark is None:
            start, base, dropped = 0, {}, 0
        else:
            start, base, dropped = mark
        counters = {
            name: value - base.get(name, 0.0)
            for name, value in self.counters.items()
            if value != base.get(name, 0.0)
        }
        return {
            "pid": os.getpid(),
            "events": list(self.events[start:]),
            "counters": counters,
            "dropped": self.dropped - dropped,
        }

    def reset(self) -> None:
        """Drop every buffered event and counter (the enabled flag is kept)."""
        self.events.clear()
        self.counters.clear()
        self.dropped = 0


#: The process-local tracer every instrumentation point talks to.
TRACER = Tracer()


def enable_tracing(reset: bool = False) -> Tracer:
    """Switch the process-local tracer on (optionally from a clean slate)."""
    if reset:
        TRACER.reset()
    TRACER.enabled = True
    return TRACER


def disable_tracing() -> Tracer:
    """Switch the process-local tracer off (buffered data is kept)."""
    TRACER.enabled = False
    return TRACER


def tracing_enabled() -> bool:
    """Whether the process-local tracer is currently recording."""
    return TRACER.enabled
