"""Unit tests for the snapshot pin registry (repro.versions.pins)."""

from __future__ import annotations

import pytest

from repro.core.errors import BlobPinnedError
from repro.versions import PinRegistry


class FakeClock:
    """Deterministic injectable clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def pins(clock: FakeClock) -> PinRegistry:
    return PinRegistry(clock=clock)


class TestPinLifecycle:
    def test_pin_and_release_refcount(self, pins: PinRegistry):
        a = pins.pin(1, 5, owner="reader-a")
        b = pins.pin(1, 5, owner="reader-b")
        assert pins.is_pinned(1, 5)
        assert pins.pin_count(1) == 2
        a.release()
        assert pins.is_pinned(1, 5)  # b still holds it
        b.release()
        assert not pins.is_pinned(1, 5)
        assert pins.pinned_versions(1) == set()

    def test_release_is_idempotent(self, pins: PinRegistry):
        handle = pins.pin(1, 3)
        handle.release()
        handle.release()
        assert pins.describe()["pins_released"] == 1

    def test_context_manager_releases(self, pins: PinRegistry):
        with pins.pin(2, 7) as handle:
            assert not handle.released
            assert pins.is_pinned(2, 7)
        assert handle.released
        assert not pins.is_pinned(2, 7)

    def test_pinned_versions_per_blob(self, pins: PinRegistry):
        pins.pin(1, 2)
        pins.pin(1, 4)
        pins.pin(9, 1)
        assert pins.pinned_versions(1) == {2, 4}
        assert pins.pinned_versions(9) == {1}
        assert sorted(pins.blobs_with_pins()) == [1, 9]


class TestLeaseExpiry:
    def test_ttl_pin_expires_lazily(self, pins: PinRegistry, clock: FakeClock):
        handle = pins.pin(1, 5, ttl=10.0)
        clock.advance(9.9)
        assert pins.is_pinned(1, 5)
        clock.advance(0.2)
        assert not pins.is_pinned(1, 5)
        assert handle.released
        assert pins.describe()["pins_expired"] == 1

    def test_renew_extends_lease(self, pins: PinRegistry, clock: FakeClock):
        handle = pins.pin(1, 5, ttl=10.0)
        clock.advance(8.0)
        handle.renew(10.0)
        clock.advance(8.0)  # t=16, original lease would have lapsed at 10
        assert pins.is_pinned(1, 5)
        clock.advance(3.0)  # t=19 > 8+10
        assert not pins.is_pinned(1, 5)

    def test_renew_of_expired_pin_raises(self, pins: PinRegistry, clock: FakeClock):
        handle = pins.pin(1, 5, ttl=1.0)
        clock.advance(2.0)
        with pytest.raises(KeyError):
            handle.renew(10.0)

    def test_no_ttl_never_expires(self, pins: PinRegistry, clock: FakeClock):
        pins.pin(1, 5)
        clock.advance(1e9)
        assert pins.is_pinned(1, 5)


class TestDrainHooks:
    def test_hook_fires_when_last_pin_releases(self, pins: PinRegistry):
        fired: list[str] = []
        a = pins.pin(1, 5)
        b = pins.pin(1, 6)
        pins.on_drain(1, lambda: fired.append("drained"))
        a.release()
        assert fired == []
        b.release()
        assert fired == ["drained"]

    def test_hook_fires_immediately_when_unpinned(self, pins: PinRegistry):
        fired: list[str] = []
        pins.on_drain(42, lambda: fired.append("now"))
        assert fired == ["now"]

    def test_hook_fires_on_lease_expiry(self, pins: PinRegistry, clock: FakeClock):
        fired: list[str] = []
        pins.pin(1, 5, ttl=1.0)
        pins.on_drain(1, lambda: fired.append("drained"))
        clock.advance(2.0)
        pins.expire()
        assert fired == ["drained"]

    def test_wait_for_drain_returns_when_unpinned(self, pins: PinRegistry):
        handle = pins.pin(1, 5)
        assert not pins.wait_for_drain(1, timeout=0.05)
        handle.release()
        assert pins.wait_for_drain(1, timeout=0.05)


class TestGuards:
    def test_guard_sweep_runs_action_when_unpinned(self, pins: PinRegistry):
        ran: list[int] = []
        assert pins.guard_sweep(1, [2, 3], lambda: ran.append(1))
        assert ran == [1]

    def test_guard_sweep_refuses_when_any_version_pinned(self, pins: PinRegistry):
        pins.pin(1, 3)
        ran: list[int] = []
        assert not pins.guard_sweep(1, [2, 3], lambda: ran.append(1))
        assert ran == []
        # Other blobs and other versions are unaffected.
        assert pins.guard_sweep(1, [2], lambda: ran.append(2))
        assert pins.guard_sweep(5, [3], lambda: ran.append(3))
        assert ran == [2, 3]

    def test_guard_delete_raises_while_pinned(self, pins: PinRegistry):
        pins.pin(7, 1)
        pins.pin(7, 2)
        with pytest.raises(BlobPinnedError) as excinfo:
            pins.guard_delete(7)
        assert excinfo.value.pin_count == 2
        pins.forget_blob(7)
        pins.guard_delete(7)  # no pins left: passes

    def test_guard_sweep_honours_expired_leases(
        self, pins: PinRegistry, clock: FakeClock
    ):
        pins.pin(1, 3, ttl=1.0)
        clock.advance(5.0)
        ran: list[int] = []
        assert pins.guard_sweep(1, [3], lambda: ran.append(1))
        assert ran == [1]


class TestDescribe:
    def test_counters(self, pins: PinRegistry, clock: FakeClock):
        a = pins.pin(1, 1)
        pins.pin(1, 1)
        pins.pin(2, 1, ttl=1.0)
        a.release()
        clock.advance(2.0)
        info = pins.describe()
        assert info == {
            "active_pins": 1,
            "pinned_snapshots": 1,
            "pins_taken": 3,
            "pins_released": 1,
            "pins_expired": 1,
        }
