"""Tests for the discrete-event and TDF simulation kernels."""

from __future__ import annotations

import pytest

from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchedulingError, SimulationError
from repro.sim import Clock, Kernel, Module, PeriodicTicker, Signal, TdfCluster, TdfModule
from repro.sim.de import Event
from repro.sim.de.simtime import RESOLUTION, quantize


def reference_quantize(time: float) -> float:
    return round(time / RESOLUTION) * RESOLUTION


class TestQuantize:
    @given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    def test_matches_round_on_the_femtosecond_grid(self, time):
        assert quantize(time).hex() == reference_quantize(time).hex()

    def test_ties_round_to_even_like_round(self):
        for step in range(-2000, 2000):
            time = (step + 0.5) * RESOLUTION
            assert quantize(time).hex() == reference_quantize(time).hex()

    def test_grid_points_and_large_times(self):
        for time in (0.0, -0.0, 5e-8 * 123457, 2.2517998136852485, 7.5, -1e3):
            assert quantize(time).hex() == reference_quantize(time).hex()


class TestDeKernel:
    def test_timed_events_execute_in_order(self):
        kernel = Kernel()
        log: list[tuple[float, str]] = []
        kernel.schedule(3e-9, lambda: log.append((kernel.now, "c")))
        kernel.schedule(1e-9, lambda: log.append((kernel.now, "a")))
        kernel.schedule(2e-9, lambda: log.append((kernel.now, "b")))
        kernel.run()
        assert [entry[1] for entry in log] == ["a", "b", "c"]
        assert log[0][0] == pytest.approx(1e-9)

    def test_run_duration_bounds_time(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(5e-6, lambda: fired.append(True))
        kernel.run(1e-6)
        assert not fired
        assert kernel.now == pytest.approx(1e-6)
        kernel.run(10e-6)
        assert fired

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Kernel().schedule(-1.0, lambda: None)

    def test_end_time_exposed_during_bounded_run(self):
        # Batch processes (the VP's CPU block driver) clamp their burst size
        # to the run horizon; it must be visible inside events and cleared
        # again once the run returns.
        kernel = Kernel()
        seen = []
        kernel.schedule(1e-6, lambda: seen.append(kernel.end_time))
        assert kernel.end_time is None
        kernel.run(5e-6)
        assert seen == [pytest.approx(5e-6)]
        assert kernel.end_time is None

    def test_stop_terminates_run(self):
        kernel = Kernel()
        executed = []
        kernel.schedule(1e-9, kernel.stop)
        kernel.schedule(2e-9, lambda: executed.append(True))
        kernel.run()
        assert not executed

    def test_stop_keeps_the_clock_at_the_stop_instant(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1e-9, kernel.stop)
        kernel.schedule(2e-9, lambda: fired.append(kernel.now))
        kernel.schedule(3e-9, lambda: fired.append(kernel.now))
        assert kernel.run(10e-9) == quantize(1e-9)
        assert kernel.now == quantize(1e-9)
        assert fired == [] and not kernel._runnable
        # The pending events fire at their own times on the next run.
        assert kernel.run(10e-9) == quantize(11e-9)
        assert fired == [quantize(2e-9), quantize(3e-9)]

    def test_stop_ends_an_unbounded_run_at_the_stop_instant(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1e-9, kernel.stop)
        kernel.schedule(2e-9, lambda: fired.append(kernel.now))
        assert kernel.run() == quantize(1e-9)
        assert kernel.run() == quantize(2e-9)
        assert fired == [quantize(2e-9)]

    def test_signal_update_is_delta_delayed(self):
        kernel = Kernel()
        signal = Signal(kernel, 0)
        observed = []

        def writer():
            signal.write(42)
            observed.append(("during", signal.read()))

        kernel.schedule(1e-9, writer)
        kernel.schedule(2e-9, lambda: observed.append(("later", signal.read())))
        kernel.run()
        assert observed == [("during", 0), ("later", 42)]

    def test_signal_changed_event_wakes_method(self):
        kernel = Kernel()
        signal = Signal(kernel, 0)
        wakeups = []
        signal.changed.add_static_method(lambda: wakeups.append(signal.read()))
        kernel.schedule(1e-9, lambda: signal.write(7))
        kernel.schedule(2e-9, lambda: signal.write(7))  # same value: no event
        kernel.schedule(3e-9, lambda: signal.write(9))
        kernel.run()
        assert wakeups == [7, 9]

    def test_thread_process_waits(self):
        kernel = Kernel()
        log = []

        def process():
            log.append(kernel.now)
            yield 5e-9
            log.append(kernel.now)
            yield 5e-9
            log.append(kernel.now)

        kernel.spawn_thread(process())
        kernel.run()
        assert log == pytest.approx([0.0, 5e-9, 10e-9])

    def test_thread_waits_on_event(self):
        kernel = Kernel()
        event = Event(kernel, "go")
        log = []

        def waiter():
            yield event
            log.append(kernel.now)

        kernel.spawn_thread(waiter())
        kernel.schedule(4e-9, event.notify)
        kernel.run()
        assert log == pytest.approx([4e-9])

    def test_clock_toggles_and_counts(self):
        kernel = Kernel()
        clock = Clock(kernel, "clk", period=10e-9)
        kernel.run(95e-9)
        assert clock.cycle_count == 10
        with pytest.raises(ValueError):
            Clock(kernel, "bad", period=0.0)

    def test_periodic_ticker_period_and_count(self):
        kernel = Kernel()
        times = []
        PeriodicTicker(kernel, "tick", 10e-9, lambda now: times.append(now))
        kernel.run(100e-9)
        assert len(times) == 10
        assert times[0] == pytest.approx(10e-9)

    def test_kernel_survives_a_raising_process(self):
        """Regression: an exception escaping a process must not alias the
        recycled delta-cycle lists — the kernel stays usable afterwards."""
        kernel = Kernel()

        def boom():
            raise RuntimeError("process failure")

        kernel.schedule(1e-9, boom)
        with pytest.raises(RuntimeError):
            kernel.run()
        assert kernel._runnable is not kernel._runnable_spare
        # the kernel still schedules and runs correctly after the failure
        fired = []
        kernel.schedule(1e-9, lambda: fired.append(kernel.now))
        signal = Signal(kernel, 0)
        signal.changed.add_static_method(lambda: fired.append(signal.read()))
        kernel.schedule(2e-9, lambda: signal.write(5))
        kernel.run()
        assert len(fired) == 2 and fired[1] == 5

    def test_module_helpers(self):
        kernel = Kernel()
        module = Module(kernel, "m")
        signal = module.signal(1, "s")
        assert signal.read() == 1
        assert module.now == 0.0


class _Doubler(TdfModule):
    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.inp = self.in_port("in")
        self.out = self.out_port("out")

    def processing(self) -> None:
        self.out.write(2.0 * self.inp.read())


class _Ramp(TdfModule):
    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.out = self.out_port("out")
        self.value = 0.0

    def set_attributes(self) -> None:
        self.set_timestep(1e-6)

    def processing(self) -> None:
        self.value += 1.0
        self.out.write(self.value)


class _Collector(TdfModule):
    def __init__(self, name: str, rate: int = 1) -> None:
        super().__init__(name)
        self.inp = self.in_port("in", rate=rate)
        self.samples: list[float] = []

    def processing(self) -> None:
        for _ in range(self.inp.rate):
            self.samples.append(self.inp.read())


class TestTdfKernel:
    def test_pipeline_executes_in_producer_order(self):
        cluster = TdfCluster()
        ramp = cluster.add(_Ramp("ramp"))
        doubler = cluster.add(_Doubler("double"))
        sink = cluster.add(_Collector("sink"))
        cluster.connect(ramp.out, doubler.inp)
        cluster.connect(doubler.out, sink.inp)
        cluster.run(5e-6)
        assert sink.samples == [2.0, 4.0, 6.0, 8.0, 10.0]
        assert ramp.activation_count == 5

    def test_multirate_consumer(self):
        cluster = TdfCluster()
        ramp = cluster.add(_Ramp("ramp"))
        sink = cluster.add(_Collector("sink", rate=2))
        cluster.connect(ramp.out, sink.inp)
        schedule = cluster.schedule()
        fired = [module.name for module, _ in schedule]
        assert fired.count("ramp") == 2
        assert fired.count("sink") == 1
        cluster.run(4e-6)
        assert sink.samples == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]

    def test_feedback_without_delay_is_rejected(self):
        cluster = TdfCluster()
        first = cluster.add(_Doubler("a"))
        second = cluster.add(_Doubler("b"))
        cluster.connect(first.out, second.inp)
        cluster.connect(second.out, first.inp)
        cluster.timestep = 1e-6
        with pytest.raises(SchedulingError):
            cluster.schedule()

    def test_feedback_with_delay_schedules(self):
        cluster = TdfCluster()
        first = cluster.add(_Doubler("a"))
        second = cluster.add(_Doubler("b"))
        cluster.connect(first.out, second.inp)
        cluster.connect(second.out, first.inp, delay_samples=1)
        cluster.timestep = 1e-6
        assert len(cluster.schedule()) == 2

    def test_missing_timestep_is_rejected(self):
        cluster = TdfCluster()
        cluster.add(_Doubler("a"))
        with pytest.raises(SchedulingError):
            cluster.schedule()

    def test_port_underflow_raises(self):
        module = _Doubler("d")
        cluster = TdfCluster()
        cluster.add(module)
        signal = cluster.signal()
        module.inp.bind(signal)
        module.out.bind(cluster.signal())
        with pytest.raises(SimulationError):
            module.inp.read()

    def test_two_writers_on_one_signal_rejected(self):
        cluster = TdfCluster()
        first = cluster.add(_Ramp("a"))
        second = cluster.add(_Ramp("b"))
        signal = cluster.signal()
        first.out.bind(signal)
        with pytest.raises(SimulationError):
            second.out.bind(signal)

    def test_invalid_rate_rejected(self):
        module = _Doubler("d")
        with pytest.raises(ValueError):
            module.in_port("x", rate=0)
