"""Concurrency tests for the BlobSeer core.

These tests exercise the scenarios the paper's design targets: many clients
writing, appending and reading the same deployment (and the same blob)
simultaneously.  They run with real threads against the functional
implementation.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

from repro.core import BlobSeer, BlobSeerConfig

PAGE = 4 * 1024


@pytest.fixture
def service() -> BlobSeer:
    return BlobSeer(
        BlobSeerConfig(
            page_size=PAGE,
            num_providers=8,
            num_metadata_providers=4,
            replication=1,
            rng_seed=5,
        )
    )


def run_threads(worker, count: int) -> list[Exception]:
    errors: list[Exception] = []
    lock = threading.Lock()

    def wrapped(index: int) -> None:
        try:
            worker(index)
        except Exception as exc:  # noqa: BLE001
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestConcurrentAppends:
    def test_no_append_lost_and_ranges_disjoint(self, service):
        blob = service.create_blob()
        appends_per_client = 10
        clients = 8
        chunk = 1000

        def worker(index: int) -> None:
            for _ in range(appends_per_client):
                service.append(blob, bytes([65 + index]) * chunk)

        errors = run_threads(worker, clients)
        assert errors == []
        assert service.get_size(blob) == clients * appends_per_client * chunk
        data = service.read_all(blob)
        counts = Counter(data)
        for index in range(clients):
            assert counts[65 + index] == appends_per_client * chunk
        assert service.latest_version(blob) == clients * appends_per_client

    @pytest.mark.timeout(60)
    def test_boundary_merges_keep_every_append_in_place(self, service):
        # Unaligned appends merge their boundary page from the shared tail
        # cache and store their nodes beside its push; a stale or lost
        # merge would overwrite a neighbour's bytes.
        blob = service.create_blob()
        placed: list[tuple[int, bytes]] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            for i in range(8):
                chunk = bytes([index * 8 + i + 1]) * (700 + 97 * index)
                version = service.append(blob, chunk)
                with lock:
                    placed.append((version, chunk))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = run_threads(worker, 8)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        data = service.read_all(blob)
        assert len(data) == sum(len(chunk) for _version, chunk in placed)
        for version, chunk in placed:
            offset = service.version_manager.version_info(blob, version).write_offset
            assert data[offset : offset + len(chunk)] == chunk

    def test_appends_to_distinct_blobs(self, service):
        blobs = [service.create_blob() for _ in range(6)]

        def worker(index: int) -> None:
            for i in range(5):
                service.append(blobs[index], f"client-{index}-{i};".encode())

        errors = run_threads(worker, len(blobs))
        assert errors == []
        for index, blob in enumerate(blobs):
            content = service.read_all(blob).decode()
            assert content.count(f"client-{index}-") == 5


class TestConcurrentReadsAndWrites:
    def test_readers_see_complete_snapshots_while_writer_appends(self, service):
        blob = service.create_blob()
        service.append(blob, b"0" * PAGE)
        stop = threading.Event()
        reader_errors: list[Exception] = []

        def writer() -> None:
            for i in range(1, 30):
                service.append(blob, bytes([48 + (i % 10)]) * PAGE)
            stop.set()

        def reader() -> None:
            try:
                while not stop.is_set():
                    version = service.latest_version(blob)
                    size = service.get_size(blob, version)
                    data = service.read(blob, 0, size, version=version)
                    # A published snapshot is always a whole number of
                    # homogeneous page-sized segments.
                    assert len(data) == size
                    assert size % PAGE == 0
            except Exception as exc:  # noqa: BLE001
                reader_errors.append(exc)

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in reader_threads:
            t.start()
        writer_thread.start()
        writer_thread.join()
        for t in reader_threads:
            t.join()
        assert reader_errors == []
        assert service.get_size(blob) == 30 * PAGE

    def test_concurrent_writers_to_disjoint_regions(self, service):
        blob = service.create_blob()
        regions = 6
        service.append(blob, b"\x00" * (regions * PAGE))

        def worker(index: int) -> None:
            service.write(blob, index * PAGE, bytes([65 + index]) * PAGE)

        errors = run_threads(worker, regions)
        assert errors == []
        data = service.read_all(blob)
        for index in range(regions):
            assert data[index * PAGE : (index + 1) * PAGE] == bytes([65 + index]) * PAGE

    def test_mixed_blob_creation_under_concurrency(self, service):
        created: list[int] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            blob = service.create_blob()
            service.append(blob, f"payload-{index}".encode())
            with lock:
                created.append(blob)

        errors = run_threads(worker, 16)
        assert errors == []
        assert len(set(created)) == 16


class TestVersionOrderingUnderConcurrency:
    def test_published_sizes_are_monotonic(self, service):
        blob = service.create_blob()
        observed: list[int] = []
        observed_lock = threading.Lock()
        stop = threading.Event()

        def observer() -> None:
            while not stop.is_set():
                with observed_lock:
                    observed.append(service.get_size(blob))

        def appender(index: int) -> None:
            for _ in range(10):
                service.append(blob, b"z" * 100)

        obs_thread = threading.Thread(target=observer)
        obs_thread.start()
        errors = run_threads(appender, 4)
        stop.set()
        obs_thread.join()
        assert errors == []
        assert observed == sorted(observed)
        assert service.get_size(blob) == 4 * 10 * 100
