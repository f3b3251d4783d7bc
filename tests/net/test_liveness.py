"""Liveness registry, monitor thread and heartbeat pump."""

from __future__ import annotations

import threading

import pytest

from repro.net import (
    HeartbeatPump,
    LivenessMonitor,
    LivenessRegistry,
    NetworkFaultPlan,
    PeerUnavailableError,
)


class FakeClock:
    """Deterministic clock so detection tests never sleep."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def registry(clock):
    return LivenessRegistry(heartbeat_interval=1.0, max_missed=3, clock=clock)


class TestRegistry:
    def test_fresh_node_is_alive(self, registry):
        registry.register("n1")
        assert registry.is_alive("n1")
        assert registry.alive_nodes() == ["n1"]
        assert registry.dead_nodes() == []

    def test_unknown_node_is_not_alive(self, registry):
        assert not registry.is_alive("ghost")

    def test_death_after_max_missed_intervals(self, registry, clock):
        registry.register("n1")
        registry.register("n2")
        clock.advance(2.5)
        registry.heartbeat("n2")
        clock.advance(1.0)  # n1 silent for 3.5 > 3 x 1.0
        assert registry.check() == ["n1"]
        assert registry.dead_nodes() == ["n1"]
        assert registry.is_alive("n2")
        # A second check does not re-declare the same death.
        assert registry.check() == []
        assert registry.deaths_declared == 1

    def test_death_callback_fires_once(self, registry, clock):
        deaths = []
        registry.on_death(deaths.append)
        registry.register("n1")
        clock.advance(10.0)
        registry.check()
        registry.check()
        assert deaths == ["n1"]

    def test_heartbeat_revives_and_fires_recover(self, registry, clock):
        recovered = []
        registry.on_recover(recovered.append)
        registry.register("n1")
        clock.advance(10.0)
        registry.check()
        assert not registry.is_alive("n1")
        registry.heartbeat("n1")
        assert registry.is_alive("n1")
        assert recovered == ["n1"]

    def test_heartbeat_auto_registers(self, registry):
        registry.heartbeat("newcomer")
        assert registry.is_alive("newcomer")

    def test_deregister_is_clean_no_death_event(self, registry, clock):
        deaths = []
        registry.on_death(deaths.append)
        registry.register("n1")
        registry.deregister("n1")
        clock.advance(10.0)
        assert registry.check() == []
        assert deaths == []
        registry.deregister("n1")  # idempotent

    def test_block_report_counts_as_heartbeat_and_is_stored(self, registry, clock):
        registry.register("n1")
        clock.advance(2.9)
        registry.block_report("n1", [1, 2, 3])
        clock.advance(2.9)
        assert registry.check() == []  # the report reset the timer
        assert registry.last_report("n1") == [1, 2, 3]
        assert registry.last_report("n2") is None

    def test_await_death_blocks_until_detected(self):
        registry = LivenessRegistry(heartbeat_interval=0.02, max_missed=2)
        registry.register("n1")
        # No monitor thread: await_death itself must run the checks.
        assert registry.await_death("n1", timeout=2.0)
        assert not registry.is_alive("n1")

    def test_await_death_times_out_on_healthy_node(self):
        registry = LivenessRegistry(heartbeat_interval=5.0, max_missed=3)
        registry.register("n1")
        assert not registry.await_death("n1", timeout=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            LivenessRegistry(heartbeat_interval=0)
        with pytest.raises(ValueError):
            LivenessRegistry(max_missed=0)


class TestMonitor:
    def test_monitor_detects_silent_node(self):
        registry = LivenessRegistry(heartbeat_interval=0.02, max_missed=2)
        deaths = []
        event = threading.Event()
        registry.on_death(lambda n: (deaths.append(n), event.set()))
        registry.register("n1")
        with LivenessMonitor(registry):
            assert event.wait(2.0)
        assert deaths == ["n1"]


class BeatCounter:
    """A pump callback that runs ``action`` and sets ``reached`` once it
    has been called ``target`` times, so a test waits on beats, not time."""

    def __init__(self, target: int, action=None) -> None:
        self.calls = 0
        self.target = target
        self.action = action
        self.reached = threading.Event()

    def __call__(self) -> None:
        self.calls += 1
        if self.calls >= self.target:
            self.reached.set()
        if self.action is not None:
            self.action()


class TestHeartbeatPump:
    def test_pump_keeps_node_alive(self, clock):
        # Logical time: each beat moves the clock one interval on, so the
        # six beats waited for span three times the death deadline.
        registry = LivenessRegistry(heartbeat_interval=1.0, max_missed=2, clock=clock)
        registry.register("n1")
        registry.register("silent")

        def tick() -> None:
            clock.advance(1.0)
            registry.heartbeat("n1")

        beat = BeatCounter(6, tick)
        pump = HeartbeatPump(beat, interval=0.01)
        with pump:
            assert beat.reached.wait(timeout=5.0)
            assert registry.check() == ["silent"]  # the deadline has passed
            assert registry.is_alive("n1")
        assert pump.beats_sent >= 6

    def test_gated_pump_goes_silent(self):
        registry = LivenessRegistry(heartbeat_interval=0.02, max_missed=2)
        registry.register("n1")
        gate = {"open": True}
        beat = BeatCounter(3, lambda: registry.heartbeat("n1"))
        pump = HeartbeatPump(beat, interval=0.02, should_beat=lambda: gate["open"])
        with pump:
            assert beat.reached.wait(timeout=5.0)
            assert registry.is_alive("n1")
            gate["open"] = False  # the "process" dies
            assert registry.await_death("n1", timeout=2.0)

    def test_transport_errors_swallowed_and_counted(self):
        faults = NetworkFaultPlan()
        faults.kill("control")
        beat = BeatCounter(2, lambda: faults.on_message("n1", "control"))
        pump = HeartbeatPump(beat, interval=0.01)
        with pump:
            assert beat.reached.wait(timeout=5.0)
        assert pump.beats_failed >= 2
        assert pump.beats_sent == 0

    def test_block_report_every_nth_beat(self):
        beats, reports = [], []
        report = BeatCounter(2, lambda: reports.append(1))
        pump = HeartbeatPump(
            lambda: beats.append(1),
            interval=0.01,
            report=report,
            report_every=3,
        )
        with pump:
            assert report.reached.wait(timeout=5.0)
        # One report per two plain beats (every 3rd cycle).
        assert len(beats) >= 2 * len(reports) - 1

    def test_peer_unavailable_is_a_net_error(self):
        # The pump's swallow-clause covers the whole NetError hierarchy.
        assert issubclass(PeerUnavailableError, Exception)
