"""Step counting for the fixed-timestep engines and runners.

A leaf module, so the engines (:mod:`repro.sim.eln`, :mod:`repro.sim.tdf`)
and the runners that import them can all count steps the same way.
"""

from __future__ import annotations

from ..errors import SimulationError

#: Relative slack allowed between ``duration / timestep`` and the nearest
#: integer.  A duration built as ``n * dt`` carries only a few ulps of error
#: (~1e-16 relative), so 1e-12 of the ratio accepts every legitimate float
#: rounding while still flagging a half-step drop up to ~5e11 steps; the
#: 1e-9 floor keeps short runs equally tolerant.
STEP_COUNT_TOLERANCE = 1e-12
STEP_COUNT_TOLERANCE_FLOOR = 1e-9


def resolve_steps(duration: float, timestep: float) -> int:
    """Number of fixed steps covering ``duration``, validating divisibility.

    Fixed-timestep runners used to compute ``int(round(duration / dt))``,
    which silently swallowed fractional durations (``duration=2.5*dt`` ran
    two steps, simulating less time than asked).  This helper raises a
    :class:`SimulationError` instead, unless ``duration`` is an integer
    multiple of ``timestep`` within :data:`STEP_COUNT_TOLERANCE`.
    """
    if timestep <= 0.0:
        raise SimulationError(f"timestep must be positive, got {timestep!r}")
    ratio = duration / timestep
    steps = int(round(ratio))
    if steps <= 0:
        raise SimulationError(
            f"duration {duration!r} is shorter than one timestep {timestep!r}"
        )
    slack = max(STEP_COUNT_TOLERANCE_FLOOR, STEP_COUNT_TOLERANCE * abs(ratio))
    if abs(ratio - steps) > slack:
        raise SimulationError(
            f"duration {duration!r} is not an integer multiple of the "
            f"timestep {timestep!r} (duration/timestep = {ratio!r}); pick a "
            f"duration of n * timestep so no simulated time is silently "
            f"dropped"
        )
    return steps
