"""Shared configuration for the benchmark harness.

Every benchmark regenerates one element of the paper's evaluation (see the
per-experiment index in DESIGN.md) and prints the corresponding
table/series through :class:`repro.analysis.ExperimentReport`, so the
numbers land in the pytest output ready to be copied into EXPERIMENTS.md.

Two scales are supported:

* the default, laptop-friendly scale — a 60-node simulated cluster,
  128 MiB per client, moderate client counts — which preserves the paper's
  qualitative shapes while keeping the whole suite in the minutes range;
* ``REPRO_PAPER_SCALE=1`` — the paper's deployment (270 nodes, 1 GiB per
  client, up to 250 concurrent clients, 100 GiB grep input), which takes
  considerably longer.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.analysis import ExperimentReport
from repro.core import GB, KB, MB, BlobSeerConfig
from repro.fs import clear_instance_cache, get_filesystem, registered_schemes


def _paper_scale() -> bool:
    return bool(int(os.environ.get("REPRO_PAPER_SCALE", "0")))


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="DIR",
        help=(
            "Dump every ExperimentReport printed by a benchmark as "
            "BENCH_<experiment>.json into DIR (created if missing). "
            "CI uploads these as build artifacts and feeds them to "
            "scripts/check_bench.py for the perf regression gate."
        ),
    )


def _git_sha() -> str:
    """Best-effort commit identifier for the benchmark artifact."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                cwd=os.path.dirname(__file__),
                check=True,
            ).stdout.strip()
        )
    except Exception:
        return "unknown"


def _artifact_name(
    out_dir: Path, module_name: str, experiment_id: str, written: set[str]
) -> Path:
    """``BENCH_<module-slug>.json``, disambiguated by experiment id when one
    module prints several reports (or several tests share a module).

    Disambiguation tracks names written *this pytest run* (``written``),
    not on-disk files: re-running into the same directory must overwrite
    the stale artifact, never divert fresh numbers to a suffixed file the
    perf gate would not read.
    """
    slug = module_name.removeprefix("test_bench_")
    name = f"BENCH_{slug}.json"
    if name in written:
        name = f"BENCH_{slug}_{experiment_id}.json"
    written.add(name)
    return out_dir / name


@pytest.fixture(autouse=True)
def bench_json_artifacts(request, monkeypatch):
    """With ``--bench-json=DIR``, persist every report the test prints.

    Schema per file: experiment name/id/title, scale label, measurement
    rows and notes, the test's wall time and the git sha — everything the
    perf-trajectory tooling needs to compare runs across commits.
    """
    out_dir = request.config.getoption("--bench-json")
    if not out_dir:
        yield
        return
    captured: list[ExperimentReport] = []
    original_print = ExperimentReport.print

    def recording_print(self, *, columns=None):
        captured.append(self)
        original_print(self, columns=columns)

    monkeypatch.setattr(ExperimentReport, "print", recording_print)
    started = time.perf_counter()
    yield
    wall_time = time.perf_counter() - started
    if not captured:
        return
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    sha = _git_sha()
    scale_label = "paper" if _paper_scale() else "reduced"
    written = getattr(request.config, "_bench_json_written", None)
    if written is None:
        written = set()
        request.config._bench_json_written = written
    for report in captured:
        path = _artifact_name(
            directory, request.module.__name__, report.experiment_id, written
        )
        payload = {
            "name": path.stem.removeprefix("BENCH_"),
            "experiment": report.experiment_id,
            "title": report.title,
            "scale": scale_label,
            "rows": report.rows,
            "notes": report.notes,
            "wall_time_seconds": round(wall_time, 4),
            "git_sha": sha,
        }
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n")


#: Per-scheme factory options for the functional benchmarks — small block
#: sizes so files span several blocks at laptop scale.  Every registered
#: scheme gets an entry; a scheme registered by a third party simply runs
#: with its factory defaults.
FUNCTIONAL_FS_OPTIONS: dict[str, dict] = {
    "bsfs": dict(
        config=BlobSeerConfig(page_size=64 * KB, num_providers=16),
        default_block_size=256 * KB,
    ),
    "hdfs": dict(
        num_datanodes=16, racks=4, default_block_size=256 * KB, default_replication=1
    ),
    "file": dict(default_block_size=256 * KB),
}


def make_functional_fs(scheme: str, authority: str = "bench"):
    """Build (or fetch) the functional benchmark deployment of one scheme."""
    return get_filesystem(
        f"{scheme}://{authority}", **FUNCTIONAL_FS_OPTIONS.get(scheme, {})
    )


@pytest.fixture(params=sorted(registered_schemes()))
def fs_uri(request) -> str:
    """One URI per registered backend scheme — benchmarks parameterize over
    every pluggable file system by addressing it purely through this string.
    The deployment is pre-built with the functional sizing options, so
    later option-less ``get_filesystem(fs_uri)`` calls inside the workloads
    resolve to it."""
    scheme = request.param
    fs = make_functional_fs(scheme, authority=f"bench-{scheme}")
    yield fs.uri
    clear_instance_cache(scheme)


@dataclass(frozen=True)
class BenchScale:
    """Benchmark sizing knobs, derived from REPRO_PAPER_SCALE."""

    paper: bool
    num_nodes: int
    num_racks: int
    client_counts: tuple[int, ...]
    bytes_per_client: int
    block_size: int
    replication: int
    rtw_map_tasks: int
    rtw_bytes_per_map: int
    grep_input_bytes: int
    functional_clients: tuple[int, ...] = field(default=(1, 4, 8))
    functional_bytes_per_client: int = 256 * 1024

    @property
    def label(self) -> str:
        """Human-readable scale label used in report titles."""
        return "paper scale (Grid'5000-like)" if self.paper else "reduced scale"


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    """Session-wide benchmark scale configuration."""
    if _paper_scale():
        return BenchScale(
            paper=True,
            num_nodes=270,
            num_racks=9,
            client_counts=(1, 25, 50, 100, 150, 200, 250),
            bytes_per_client=1 * GB,
            block_size=64 * MB,
            replication=1,
            # 1.5 tasks per node: realistic multi-wave regime where HDFS's
            # local-first placement makes co-scheduled maps share one disk.
            rtw_map_tasks=400,
            rtw_bytes_per_map=1 * GB,
            grep_input_bytes=100 * GB,
        )
    return BenchScale(
        paper=False,
        num_nodes=60,
        num_racks=6,
        client_counts=(1, 10, 25, 45),
        bytes_per_client=128 * MB,
        block_size=64 * MB,
        replication=1,
        # 1.5 tasks per node (see the paper-scale comment above).
        rtw_map_tasks=90,
        rtw_bytes_per_map=256 * MB,
        grep_input_bytes=15 * GB,
    )


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The simulated experiments are deterministic, so repeated rounds only
    waste time; a single measured round still gives pytest-benchmark a
    duration to report alongside the printed experiment tables.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
