"""Measurement plumbing shared by the workloads.

Two kinds of probe time the layers of a traced run:

* hot boundaries (ISS burst, bus access, analog step, kernel run) get a
  :class:`Tally` — a call count plus total seconds — through :func:`timed`,
  which replaces one bound method or instance attribute;
* cold boundaries (abstraction, run-store commit/load) get a span in the
  process-local ``repro.obs`` tracer through :func:`span_patch`, so the spans
  recorded inside forked campaign workers travel back with the workers'
  telemetry.

Every probe is installed by the benchmark around calls into the public API;
nothing under ``src/repro`` is modified.

End-to-end timings are bracketed by :func:`host_speed` calibrations and
reported in reference seconds, which cancel the shared host's speed drift.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import struct
import time
from contextlib import contextmanager

from repro.obs.tracer import TRACER

clock = time.perf_counter


class Tally:
    """Calls and total seconds spent behind one hot boundary."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0


def timed(function, tally: Tally):
    """``function`` wrapped so each call adds its duration to ``tally``."""

    def wrapper(*args, **kwargs):
        start = clock()
        result = function(*args, **kwargs)
        tally.seconds += clock() - start
        tally.calls += 1
        return result

    return wrapper


@contextmanager
def method_patch(owner: type, name: str, tally: Tally):
    """Time every call of ``owner.name`` (a plain method) into ``tally``."""
    original = owner.__dict__[name]
    setattr(owner, name, timed(original, tally))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def span_patch(owner: type, name: str, span: str):
    """Record a ``span`` tracer event around every call of ``owner.name``."""
    original = owner.__dict__[name]

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            TRACER.complete(span, start, clock() - start, "bench")

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, original)


def span_seconds(events, name: str, pid: "int | None" = None) -> float:
    """Total duration of the complete events called ``name`` (tuples or dicts)."""
    total = 0.0
    for event in events:
        if isinstance(event, dict):
            if event["ph"] == "X" and event["name"] == name and (
                pid is None or event["pid"] == pid
            ):
                total += event["dur"]
        elif event[0] == "X" and event[1] == name:
            total += event[4]
    return total


class Checks:
    """Output checks: every unit attempted, and those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


#: Iterations of the calibration loop per measurement (~30 ms).
CALIBRATION_LOOPS = 150_000
#: Calibration-loop speed that one reference second stands for (iterations
#: per s; about what the 2-vCPU dev box reads in its slow phases).
REFERENCE_SPEED = 5.0e6


def _loop_speed() -> float:
    start = clock()
    total = 0
    table = {}
    for index in range(CALIBRATION_LOOPS):
        total = (total + index * 7) & 0xFFFFFFFF
        table[index & 255] = total
    return CALIBRATION_LOOPS / (clock() - start)


def host_speed(processes: int = 1) -> float:
    """Iterations per second of a fixed pure-Python loop, measured now.

    The shared host's speed drifts by up to 2x over seconds to minutes, for
    every process on it.  Timings bracketed by calibrations and scaled by
    ``host_speed() / REFERENCE_SPEED`` are in reference seconds, which stay
    put across that drift; a change to the program moves them, since it
    changes the timed work but not this loop.  Work spread over two worker
    processes is calibrated with ``processes=2``: the loop runs in this
    process and a forked child at once, and the mean of their speeds counts,
    since a busy second core slows both.
    """
    if processes == 1:
        return _loop_speed()
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:  # the forked child: report one speed and leave
        try:
            os.close(read_end)
            os.write(write_end, struct.pack("<d", _loop_speed()))
        finally:
            os._exit(0)
    os.close(write_end)
    own = _loop_speed()
    with os.fdopen(read_end, "rb") as pipe:
        (other,) = struct.unpack("<d", pipe.read(8))
    os.waitpid(child, 0)
    return (own + other) / 2


def reference_seconds(host_seconds: float, speed: float) -> float:
    """Host seconds measured at calibration ``speed``, in reference seconds."""
    return host_seconds * speed / REFERENCE_SPEED


def calibrated_seconds(function) -> float:
    """Reference seconds of ``function()``, calibrated before and after it.

    A function that measures itself returns its own host seconds; otherwise
    the call is timed here.
    """
    before = host_speed()
    start = clock()
    measured = function()
    host = clock() - start if measured is None else measured
    return reference_seconds(host, (before + host_speed()) / 2)


class Rates:
    """Simulated ms per reference s: per part of a round, and per round.

    A round runs a fixed set of parts (a style, a campaign phase, a batch
    backend) with a :func:`host_speed` calibration before the first part and
    after each one; a part's speed is the mean of the two around it.  The
    round's rate is the geometric mean of its parts' rates, so each part
    weighs the same however slow it is: halving one of ``n`` parts' time
    raises the round's rate by ``2 ** (1 / n)``.  Raw host rates are kept
    for people.
    """

    def __init__(self, processes: int = 1) -> None:
        self.processes = processes
        self.rounds: list[float] = []
        self.parts: dict[str, list[float]] = {}
        self.host_parts: dict[str, list[float]] = {}
        self._speed = 0.0
        self._round: list[float] = []

    def start_round(self) -> None:
        self._speed = host_speed(self.processes)
        self._round = []

    def add_part(self, part: str, simulated: float, host: float) -> None:
        """Record one part: ``simulated`` s of model time took ``host`` s."""
        speed = host_speed(self.processes)
        rate = 1e3 * simulated / reference_seconds(host, (self._speed + speed) / 2)
        self._speed = speed
        self.parts.setdefault(part, []).append(rate)
        self.host_parts.setdefault(part, []).append(1e3 * simulated / host)
        self._round.append(rate)

    def end_round(self) -> None:
        self.rounds.append(math.exp(statistics.fmean(math.log(rate) for rate in self._round)))


def digest_floats(values) -> str:
    """Bit-exact digest of a float sequence."""
    data = struct.pack(f"<{len(values)}d", *values)
    return hashlib.sha256(data).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
