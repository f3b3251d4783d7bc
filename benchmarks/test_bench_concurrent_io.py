"""F3 — concurrent-I/O engine benchmark: pipelined vs sequential transfers.

Reproduces the paper's scenario family on the functional storage layer —
N concurrent readers of one blob, N concurrent writers, N appenders on one
blob — and reports *aggregate throughput* (MB/s summed over clients), the
paper's headline metric.

The deployment injects a small per-page-transfer latency into every data
provider (standing in for the Grid'5000 network/disk round trip that
dominates real transfers).  Under that realistic cost model the transfer
engine's parallel page pushes and read-ahead must beat the sequential
byte path by a wide margin: the gate asserts that 8 concurrent clients
sustain at least 2× the single-client sequential (``transfer_workers=1``)
aggregate throughput on BSFS, for both reads and writes.

A second, assertion-free table reports the same three scenarios through
the shared FileSystem API on every registered backend (no injected
latency) for cross-backend trajectory tracking.
"""

from __future__ import annotations

import threading
import time

from conftest import make_functional_fs, run_once

from repro.analysis import ExperimentReport
from repro.core import KB, MB, BlobSeer, BlobSeerConfig
from repro.core.persistence import MemoryStore
from repro.core.provider import DataProvider
from repro.fs import registered_schemes

EXPERIMENT = "F3"

#: Simulated one-way transfer latency per page/block store operation.
PAGE_LATENCY_S = 0.0005
PAGE_SIZE = 64 * KB
#: Bytes moved per client in the latency-modelled scenarios.
BYTES_PER_CLIENT = 4 * MB
CONCURRENT_CLIENTS = 8


class LatencyStore(MemoryStore):
    """In-memory page store with a fixed per-operation transfer latency."""

    def put(self, key: bytes, data: bytes) -> None:
        time.sleep(PAGE_LATENCY_S)
        super().put(key, data)

    def get(self, key: bytes) -> bytes:
        time.sleep(PAGE_LATENCY_S)
        return super().get(key)


def _make_client(*, transfer_workers: int, num_providers: int = 16) -> BlobSeer:
    providers = [DataProvider(i, store=LatencyStore()) for i in range(num_providers)]
    config = BlobSeerConfig(
        page_size=PAGE_SIZE,
        num_providers=num_providers,
        transfer_workers=transfer_workers,
    )
    return BlobSeer(config, providers=providers)


def _run_clients(num_clients: int, body) -> float:
    """Run ``body(client_index)`` on ``num_clients`` threads; returns seconds."""
    errors: list[BaseException] = []

    def wrapped(index: int) -> None:
        try:
            body(index)
        except BaseException as exc:  # pragma: no cover - fail the bench
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(num_clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed


def _mbps(total_bytes: int, seconds: float) -> float:
    return (total_bytes / MB) / seconds if seconds > 0 else 0.0


def _bench_reads(client: BlobSeer, num_clients: int) -> float:
    blob = client.create_blob()
    payload = bytes(BYTES_PER_CLIENT)
    client.append(blob, payload)

    def body(_index: int) -> None:
        got = 0
        for chunk in client.open_read(blob):
            got += len(chunk)
        assert got == BYTES_PER_CLIENT

    elapsed = _run_clients(num_clients, body)
    return _mbps(num_clients * BYTES_PER_CLIENT, elapsed)


def _bench_writes(client: BlobSeer, num_clients: int) -> float:
    blobs = [client.create_blob() for _ in range(num_clients)]
    payload = bytes(BYTES_PER_CLIENT)

    def body(index: int) -> None:
        client.append(blobs[index], payload)

    elapsed = _run_clients(num_clients, body)
    return _mbps(num_clients * BYTES_PER_CLIENT, elapsed)


def _bench_appends(client: BlobSeer, num_clients: int) -> float:
    # All appenders target ONE shared blob — the §V concurrent-append
    # scenario; each commits its range in block-sized appends.
    blob = client.create_blob()
    block = 512 * KB
    blocks_per_client = BYTES_PER_CLIENT // block
    payload = bytes(block)

    def body(_index: int) -> None:
        for _ in range(blocks_per_client):
            client.append(blob, payload)

    elapsed = _run_clients(num_clients, body)
    return _mbps(num_clients * blocks_per_client * block, elapsed)


def _engine_rows(report: ExperimentReport) -> dict[str, float]:
    """Latency-modelled BSFS scenarios: sequential baseline vs 8 clients."""
    results: dict[str, float] = {}
    scenarios = [
        ("read", _bench_reads),
        ("write", _bench_writes),
        ("append", _bench_appends),
    ]
    for mode, workers, clients in (
        ("seq1", 1, 1),
        (f"par{CONCURRENT_CLIENTS}", 8, CONCURRENT_CLIENTS),
    ):
        for name, bench in scenarios:
            client = _make_client(transfer_workers=workers)
            try:
                mbps = bench(client, clients)
            finally:
                client.close()
            scenario = f"bsfs-{name}-{mode}"
            results[scenario] = mbps
            report.add_row(
                {
                    "scenario": scenario,
                    "backend": "bsfs",
                    "clients": clients,
                    "transfer_workers": workers,
                    "aggregate_MBps": round(mbps, 2),
                }
            )
    return results


def _functional_rows(report: ExperimentReport) -> None:
    """Cross-backend streaming throughput through the FileSystem API."""
    size = 1 * MB
    payload = bytes(size)
    for scheme in sorted(registered_schemes()):
        fs = make_functional_fs(scheme, authority="bench-cio")
        fs.mkdirs("/cio")
        fs.write_file("/cio/shared.bin", payload, overwrite=True)

        def read_body(_index: int) -> None:
            got = 0
            for chunk in fs.open_read("/cio/shared.bin"):
                got += len(chunk)
            assert got == size

        def write_body(index: int) -> None:
            with fs.open_write(f"/cio/out-{index}.bin", overwrite=True) as sink:
                sink.write(payload)

        elapsed = _run_clients(CONCURRENT_CLIENTS, read_body)
        report.add_row(
            {
                "scenario": f"{scheme}-fs-read-{CONCURRENT_CLIENTS}",
                "backend": scheme,
                "clients": CONCURRENT_CLIENTS,
                "transfer_workers": "-",
                "aggregate_MBps": round(
                    _mbps(CONCURRENT_CLIENTS * size, elapsed), 2
                ),
            }
        )
        elapsed = _run_clients(CONCURRENT_CLIENTS, write_body)
        report.add_row(
            {
                "scenario": f"{scheme}-fs-write-{CONCURRENT_CLIENTS}",
                "backend": scheme,
                "clients": CONCURRENT_CLIENTS,
                "transfer_workers": "-",
                "aggregate_MBps": round(
                    _mbps(CONCURRENT_CLIENTS * size, elapsed), 2
                ),
            }
        )


def _run() -> tuple[ExperimentReport, dict[str, float]]:
    report = ExperimentReport(
        EXPERIMENT,
        "Concurrent I/O engine: aggregate MB/s, pipelined vs sequential "
        f"({PAGE_LATENCY_S * 1000:.1f} ms/page simulated transfer latency)",
    )
    results = _engine_rows(report)
    _functional_rows(report)
    report.note(
        "seq1 = one client, transfer_workers=1 (the pre-engine sequential "
        f"byte path); par{CONCURRENT_CLIENTS} = {CONCURRENT_CLIENTS} "
        "concurrent clients on the parallel engine.  *-fs-* rows stream "
        "through the shared FileSystem API without injected latency."
    )
    return report, results


def test_bench_concurrent_io(benchmark):
    report, results = run_once(benchmark, _run)
    report.print()
    par = f"par{CONCURRENT_CLIENTS}"
    # The acceptance gate of the I/O engine: pipelined transfers must beat
    # the sequential path by at least 2x on aggregate read AND write MB/s.
    assert results[f"bsfs-read-{par}"] >= 2 * results["bsfs-read-seq1"]
    assert results[f"bsfs-write-{par}"] >= 2 * results["bsfs-write-seq1"]
    # Appenders serialise on the version manager by design; the transfers
    # must still keep aggregate throughput from collapsing below 1x.
    assert results[f"bsfs-append-{par}"] >= results["bsfs-append-seq1"]
