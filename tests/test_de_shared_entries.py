"""Differential test: shared periodic heap entries against one entry per tick.

:class:`~repro.sim.de.PeriodicTicker` lets tickers whose pushes would be
consecutive, with equal ``(time, scheduled)`` keys, share one heap entry.
:class:`ReferenceTicker` below pushes one entry per tick with
``schedule_abs`` instead, which is how periodic processes were scheduled
before.  Seeded generated scenarios run both side by side on the same kernel
class and must agree on the firing log (name, time, delta index), on what
every ``run()`` returned or raised, and on the event and delta counts.

The scenarios mix periods on and off the femtosecond grid, start delays
including 0, tickers created between runs and from callbacks, callbacks that
schedule a timed event at exactly their next grid point (which forces a
member out of its entry), one-shot events with equal keys and a ``-inf``
injection, a raising callback followed by another ``run()``,
``kernel.stop()``, and deep copies of the whole simulation between runs.
Triggered activity is generated the way the platform's processes schedule
it, as delta actions: a write to ``loud`` appends its reader to
``kernel._delta_pending``, and a notification appends a two-hop delta chain.
"""

from __future__ import annotations

import copy
import math
import random
from collections import Counter

import pytest

from repro.sim import Kernel, PeriodicTicker, Signal
from repro.sim.de.simtime import quantize

#: On the femtosecond grid, and two periods off it.
PERIODS = (50e-9, 50e-9 / 3.0, 1e-6 / 7.0)
SEEDS = range(80)
MAX_TICKERS = 14


class ReferenceTicker:
    """A periodic process that pushes its own heap entry at every tick."""

    def __init__(self, kernel, name, period, callback, start_delay=None):
        self.kernel = kernel
        self.name = name
        self.period = period
        self.callback = callback
        self.tick_count = 0
        first_delay = period if start_delay is None else start_delay
        self.grid_origin = kernel.now + first_delay
        kernel.schedule(first_delay, self._tick)

    def _tick(self):
        self.tick_count += 1
        kernel = self.kernel
        self.callback(kernel.now)
        kernel.schedule_abs(
            self.grid_origin + self.tick_count * self.period, self._tick, kernel.now
        )


class Boom(RuntimeError):
    """Raised by a ticker callback when its plan says so."""


def start_delays(period: float) -> tuple:
    return (None, 0.0, 0.0, period, 3.0 * period, 25e-9, 1e-7 / 3.0)


def plan(seed: int, name: str, tick: int) -> list[tuple]:
    """The actions ticker ``name`` takes at ``tick``; the same in both worlds."""
    rng = random.Random(f"{seed}/{name}/{tick}")
    actions = []
    if rng.random() < 0.15:
        actions.append(("split",))
    if rng.random() < 0.04:
        actions.append(("zero",))
    if rng.random() < (0.3 if tick == 1 else 0.04):
        period = rng.choice(PERIODS)
        delay = 0.0 if rng.random() < 0.5 else rng.choice(start_delays(period))
        actions.append(("spawn", period, delay))
    if rng.random() < 0.3:
        actions.append(("write", rng.choice(("loud", "quiet")), rng.randint(0, 2)))
    if rng.random() < 0.08:
        actions.append(("notify",))
    if rng.random() < 0.01:
        actions.append(("stop",))
    if rng.random() < 0.006:
        actions.append(("raise",))
    rng.shuffle(actions)
    return actions


class Callback:
    def __init__(self, world: "World", name: str) -> None:
        self.world = world
        self.name = name

    def __call__(self, now: float) -> None:
        self.world.on_tick(self.name)


class Shot:
    def __init__(self, world: "World", name: str) -> None:
        self.world = world
        self.name = name

    def __call__(self) -> None:
        self.world.record(self.name)
        self.world.quiet.write(len(self.world.log) % 3)


class World:
    """One simulation: a kernel, its tickers and everything they log."""

    def __init__(self, seed: int, ticker_class) -> None:
        self.seed = seed
        self.ticker_class = ticker_class
        self.kernel = Kernel()
        self.log: list[tuple] = []
        self.features: Counter = Counter()
        self.tickers: dict = {}
        self.origins: dict[str, float] = {}
        self.loud = Signal(self.kernel, 0, "loud")
        self.quiet = Signal(self.kernel, 0, "quiet")  # nothing reads it

    def record(self, name: str) -> None:
        self.log.append((name, self.kernel.now, self.kernel.delta_count))

    def spawn(self, name: str, period: float, start_delay) -> None:
        if len(self.tickers) >= MAX_TICKERS:
            return
        kernel = self.kernel
        first_delay = period if start_delay is None else start_delay
        self.origins[name] = kernel.now + first_delay
        self.tickers[name] = self.ticker_class(
            kernel, name, period, Callback(self, name), start_delay=start_delay
        )

    def on_loud(self) -> None:
        self.record(f"loud={self.loud.read()}")

    def on_notify(self) -> None:
        # The first hop of a notification; the reader runs one delta later.
        self.kernel._delta_pending.append(self.on_event)

    def on_event(self) -> None:
        self.record("event")

    def on_tick(self, name: str) -> None:
        kernel = self.kernel
        ticker = self.tickers[name]
        tick = ticker.tick_count
        self.record(name)
        for action in plan(self.seed, name, tick):
            kind = action[0]
            self.features[kind] += 1
            if kind == "split":
                # A timed event at exactly this ticker's next grid point
                # (tick k fires at origin + (k - 1) * period).
                next_time = self.origins[name] + tick * ticker.period
                kernel.schedule_abs(next_time, Shot(self, f"{name}/split{tick}"), kernel.now)
            elif kind == "zero":
                kernel.schedule(0.0, Shot(self, f"{name}/zero{tick}"))
            elif kind == "spawn":
                if action[2] == 0.0:
                    self.features["spawn_at_once"] += 1
                self.spawn(f"{name}.{tick}", action[1], action[2])
            elif kind == "write":
                getattr(self, action[1]).write(action[2])
                if action[1] == "loud":
                    kernel._delta_pending.append(self.on_loud)
            elif kind == "notify":
                kernel._delta_pending.append(self.on_notify)
            elif kind == "stop":
                kernel.stop()
            elif kind == "raise":
                raise Boom(f"{name} at tick {tick}")

    def inject(self, rng: random.Random, step: int) -> None:
        """One-shot events sharing one key with a ticker's next entry, and a -inf one."""
        kernel = self.kernel
        name = rng.choice(sorted(self.tickers))
        ticker = self.tickers[name]
        ahead = ticker.tick_count + rng.randint(1, 3)
        time = self.origins[name] + ahead * ticker.period
        scheduled = rng.choice(
            (kernel.now, quantize(self.origins[name] + (ahead - 1) * ticker.period))
        )
        for index in range(rng.randint(2, 3)):
            kernel.schedule_abs(time, Shot(self, f"inject{step}.{index}"), scheduled)
        kernel.schedule_abs(time, Shot(self, f"inject{step}.first"), -math.inf)
        self.features["inject"] += 1


def scenario(seed: int, ticker_class) -> tuple:
    rng = random.Random(seed)
    world = World(seed, ticker_class)
    outcomes = []
    for index in range(rng.randint(1, 5)):
        period = rng.choice(PERIODS)
        world.spawn(f"t{index}", period, rng.choice(start_delays(period)))
    until = 0.0
    for step in range(rng.randint(3, 8)):
        if rng.random() < 0.4:
            world.inject(rng, step)
        if rng.random() < 0.3:
            period = rng.choice(PERIODS)
            world.spawn(f"top{step}", period, rng.choice((0.0, None, 0.0, period / 2.0)))
        if rng.random() < 0.3:
            world = copy.deepcopy(world)
            world.features["copy"] += 1
        until += rng.choice((250e-9, 1e-6 / 7.0, rng.uniform(50e-9, 900e-9)))
        try:
            outcomes.append(("run", world.kernel.run(until=until)))
        except Boom as error:
            world.features["raised"] += 1
            outcomes.append(("raised", str(error), world.kernel.now))
        outcomes.append((world.kernel.event_count, world.kernel.delta_count))
    return world, outcomes


@pytest.mark.parametrize("seed", SEEDS)
def test_shared_entries_fire_like_one_entry_per_tick(seed):
    reference, expected = scenario(seed, ReferenceTicker)
    shared, outcomes = scenario(seed, PeriodicTicker)
    assert shared.log == reference.log
    assert outcomes == expected
    assert shared.features == reference.features
    assert shared.kernel.event_count == reference.kernel.event_count
    assert shared.kernel.delta_count == reference.kernel.delta_count


@pytest.mark.parametrize("ticker_class", (ReferenceTicker, PeriodicTicker))
def test_a_late_ticker_sorts_by_its_scheduling_time(ticker_class):
    """A ticker created after a bounded run, aimed at the open entry's time.

    Ticker ``a`` pushes its next entry right after an event scheduled as of
    a later time (as the CPU block driver's wakes are), then the run ends
    between the two.  Ticker ``b``, created then, fires at the same time as
    ``a`` but counts as scheduled later than both, so it fires last.
    """
    kernel = Kernel()
    log: list[str] = []

    def tick_a(now):
        log.append("a")
        if len(log) == 1:
            kernel.schedule_abs(100e-9, lambda: log.append("wake"), 60e-9)

    ticker_class(kernel, "a", 50e-9, tick_a)
    kernel.run(until=75e-9)
    ticker_class(kernel, "b", 50e-9, lambda now: log.append("b"), start_delay=25e-9)
    kernel.run(until=100e-9)
    assert log == ["a", "a", "wake", "b"]


def test_scenarios_cover_every_feature_and_share_entries():
    features: Counter = Counter()
    shared_pushes = reference_pushes = 0
    for seed in SEEDS:
        reference, _ = scenario(seed, ReferenceTicker)
        shared, _ = scenario(seed, PeriodicTicker)
        features += shared.features
        reference_pushes += reference.kernel._sequence
        shared_pushes += shared.kernel._sequence
    for feature in (
        "split", "zero", "spawn", "spawn_at_once", "write", "notify",
        "stop", "raise", "raised", "inject", "copy",
    ):
        assert features[feature] > 0, feature
    assert shared_pushes < 0.9 * reference_pushes
