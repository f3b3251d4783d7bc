"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Not part of the tier-1 ``testpaths``: it spawns real node processes.
``--scale smoke`` shrinks every size sixteen-fold and measures one round,
so the whole suite — untraced and traced — must finish within 30 s.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NODE_SCRIPTS = ("run_node.py", "metadata_node.py")


def node_processes() -> set[int]:
    """Pids of every live node process on this machine."""
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().decode(errors="replace")
        except OSError:
            continue  # exited while we were looking
        if any(script in cmdline for script in NODE_SCRIPTS):
            pids.add(int(entry.name))
    return pids


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    before = node_processes()
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--trace", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.monotonic() - started
    survivors = node_processes() - before
    return completed, elapsed, survivors, out


def test_smoke_suite_is_correct_and_quick(smoke_run):
    completed, elapsed, _survivors, _out = smoke_run
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert elapsed < 30, f"smoke suite took {elapsed:.1f} s"


def test_no_node_process_survives(smoke_run):
    _completed, _elapsed, survivors, _out = smoke_run
    assert survivors == set()


def test_every_named_metric_is_present_with_its_unit(smoke_run):
    _completed, _elapsed, _survivors, out = smoke_run
    summary = json.loads((out / "BENCH_e2e.json").read_text())
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert set(summary["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, modes in summary["workloads"].items():
        untraced, traced = modes["untraced"], modes["traced"]
        for metric in SPEC["end_to_end"]:
            entry = untraced["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"], (name, metric)
            assert entry["value"] > 0, (name, metric)
        for metric in SPEC["per_layer"]:
            assert traced["per_layer"][metric["name"]]["unit"] == metric["unit"], (name, metric)
        for result in (untraced, traced):
            assert result["end_to_end"]["failed_share"]["value"] == 0, (name, result["errors"])
            assert result["correct"], (name, result["errors"])
        assert "trace_overhead_pct" in modes
    assert (out / "trace.json").exists()


def test_contract_lines_carry_exactly_the_end_to_end_metrics(smoke_run):
    completed, _elapsed, _survivors, _out = smoke_run
    lines = [line for line in completed.stdout.splitlines() if line.startswith('{"correct"')]
    assert len(lines) == len(SPEC["workloads"])
    for line in lines:
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_benchmark_json_matches_the_code():
    import layers
    import run
    import workloads

    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (cls.name, cls.why) for cls in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER_UNITS


def test_compare_gates_a_regression(smoke_run, tmp_path):
    _completed, _elapsed, _survivors, out = smoke_run
    summary = json.loads((out / "BENCH_e2e.json").read_text())
    # No spread on either side, so only the bound decides.
    summary["workloads"]["grep"]["untraced"]["end_to_end"]["throughput_MBps"]["iqr"] = 0.0
    slower = copy.deepcopy(summary)
    slower["workloads"]["grep"]["untraced"]["end_to_end"]["throughput_MBps"]["value"] *= 0.5
    base, regressed = tmp_path / "base.json", tmp_path / "regressed.json"
    base.write_text(json.dumps(summary))
    regressed.write_text(json.dumps(slower))

    def compare(other: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(HERE / "compare.py"), str(base), str(other)],
            capture_output=True,
            text=True,
            timeout=60,
        )

    same = compare(base)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "worse" not in same.stdout
    worse = compare(regressed)
    assert worse.returncode == 1, worse.stdout + worse.stderr
    assert any("grep" in line and "worse" in line for line in worse.stdout.splitlines())


def test_failed_start_leaves_no_orphan(monkeypatch):
    import cluster

    before = node_processes()
    monkeypatch.setattr(cluster, "METADATA_NODE", HERE / "no_such_launcher.py")
    with pytest.raises(cluster.NodeStartError):
        cluster.Cluster("bsfs").start()
    assert node_processes() - before == set()
