"""Property-based tests (Hypothesis) for the snapshot GC safety invariants.

The central properties, under *random interleavings* of appends, overwrites,
pins, releases, and collection cycles:

* the GC never reclaims a page reachable from a pinned or retained version —
  every surviving snapshot reads back byte-identical to a flat reference
  model of the blob's history;
* retired versions fail fast with ``VersionRetiredError`` instead of
  returning corrupt bytes;
* after a collection the space the providers actually hold equals the live
  bytes the collector's own accounting (``plan`` / ``describe``) claims.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BlobSeer, BlobSeerConfig, VersionRetiredError
from repro.core.provider import total_bytes_stored

PAGE = 256  # tiny pages so histories span many of them

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def make_client() -> BlobSeer:
    return BlobSeer(
        BlobSeerConfig(
            page_size=PAGE,
            num_providers=4,
            num_metadata_providers=2,
            replication=1,
            max_versions_kept=2,
        )
    )


# One step of an interleaved history.  Appends/writes advance the blob;
# pin/unpin manage leases on whatever versions exist when the step runs;
# gc runs a full mark-retire-sweep cycle mid-history.
operation_strategy = st.one_of(
    st.tuples(
        st.just("append"),
        st.integers(min_value=1, max_value=250),  # fill byte
        st.integers(min_value=1, max_value=3),  # pages appended
    ),
    st.tuples(st.just("write"), st.integers(min_value=1, max_value=250)),
    st.tuples(st.just("pin"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("unpin"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("gc"), st.just(0)),
)


class History:
    """Drives one blob and a flat reference model through an op sequence."""

    def __init__(self) -> None:
        self.client = make_client()
        self.blob = self.client.create_blob()
        self.model: dict[int, bytes] = {0: b""}  # version -> full contents
        self.live: list[int] = [0]  # versions not yet retired, sorted
        self.retired: set[int] = set()
        self.handles: list = []  # live pin handles
        self.pinned: dict[int, int] = {}  # version -> live pin count

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "append":
            _, fill, pages = op
            data = bytes([fill]) * (pages * PAGE)
            version = self.client.append(self.blob, data)
            self.model[version] = self.model[max(self.model)] + data
            self.live.append(version)
        elif kind == "write":
            _, fill = op
            data = bytes([fill]) * PAGE
            version = self.client.write(self.blob, 0, data)
            previous = self.model[max(self.model)]
            self.model[version] = data + previous[PAGE:]
            self.live.append(version)
        elif kind == "pin":
            version = self.live[op[1] % len(self.live)]
            self.handles.append(
                self.client.pin_version(self.blob, version, owner="prop")
            )
            self.pinned[version] = self.pinned.get(version, 0) + 1
        elif kind == "unpin":
            if not self.handles:
                return
            handle = self.handles.pop(op[1] % len(self.handles))
            handle.release()
            self.pinned[handle.version] -= 1
            if not self.pinned[handle.version]:
                del self.pinned[handle.version]
        elif kind == "gc":
            self.collect_and_check()

    def collect_and_check(self) -> None:
        before = set(self.live)
        self.client.gc.collect(self.blob)
        after = set(
            self.client.version_manager.published_versions(self.blob)
        )
        newly_retired = before - after
        # The GC must never retire a pinned version or the latest one.
        assert not newly_retired & set(self.pinned)
        assert max(before) in after
        self.retired |= newly_retired
        self.live = sorted(after)
        self.check_reads()

    def check_reads(self) -> None:
        client, blob = self.client, self.blob
        for version in self.live:
            assert client.read_all(blob, version=version) == self.model[version]
        for version in self.retired:
            with pytest.raises(VersionRetiredError):
                client.read(blob, 0, 1, version=version)


class TestGcNeverEatsReachablePages:
    @SETTINGS
    @given(ops=st.lists(operation_strategy, min_size=1, max_size=14))
    def test_survivors_read_exact_bytes_whatever_the_interleaving(self, ops):
        history = History()
        for op in ops:
            history.apply(op)
        history.collect_and_check()
        # Pinned snapshots in particular survived every cycle above.
        for version in history.pinned:
            assert version in history.live

    @SETTINGS
    @given(ops=st.lists(operation_strategy, min_size=1, max_size=14))
    def test_accounting_matches_provider_usage_after_collection(self, ops):
        history = History()
        for op in ops:
            history.apply(op)
        history.client.gc.collect(history.blob)
        # With replication 1 and no writer in flight, what the providers
        # hold after a sweep is exactly what the collector calls live.
        plan = history.client.gc.plan(history.blob)
        stored = total_bytes_stored(history.client.provider_manager.providers)
        assert stored == plan.live_bytes
        assert not plan.dead_pages
        info = history.client.gc.describe()
        assert info["live_bytes"] == stored
        assert info["pins"]["active_pins"] == len(history.handles)
