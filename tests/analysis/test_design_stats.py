"""The design-size script reads its numbers from source, without imports."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "scripts" / "design_stats.py"
COMMITTED_BASELINE = ROOT / "benchmarks" / "baselines" / "BENCH_design.json"


def load_script():
    spec = importlib.util.spec_from_file_location("design_stats", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_settable_values_counts_config_fields_and_public_keyword_parameters(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        '__all__ = ["RunConfig", "run", "Runner"]\n'
        "@dataclass(frozen=True)\n"
        "class RunConfig:\n"
        "    workers: int = 2\n"
        "    names: list = field(default_factory=list)\n"
        "    LIMIT: ClassVar[int] = 9\n"
        "def run(job, retries=1, *, timeout, verbose=False):\n"
        "    pass\n"
        "class Runner:\n"
        "    def __init__(self, config, seed=0):\n"
        "        pass\n"
        "    def step(self, count=1):\n"
        "        pass\n"
        "def helper(option=1):\n"
        "    pass\n"
    )
    stats = load_script()
    # 2 config fields + run's retries/timeout/verbose + Runner's seed; the
    # unlisted helper and the method step are not public callables.
    assert stats.settable_values(tmp_path) == 6
    assert stats.public_symbols(tmp_path) == 3


def test_baseline_puts_each_number_beside_its_committed_value():
    stats = load_script()
    compared = stats.against_baseline(
        {"src_lines": 90, "public_symbols": 7, "settable_values": 12},
        {"src_lines": 100, "public_symbols": 7},
    )
    assert compared == {
        "src_lines": {"value": 90, "baseline": 100, "delta": -10},
        "public_symbols": {"value": 7, "baseline": 7, "delta": 0},
        # A number the baseline does not carry is shown, not compared.
        "settable_values": {"value": 12, "baseline": None, "delta": None},
    }


def test_main_reports_against_a_baseline_file_and_gates_nothing(tmp_path, capsys):
    stats = load_script()
    current = stats.design_stats(stats.SRC)
    # A baseline far below today's numbers: reported, never a failure.
    baseline = tmp_path / "BENCH_design.json"
    baseline.write_text(json.dumps({name: 0 for name in current}))
    assert stats.main(["--baseline", str(baseline)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == {
        name: {"value": value, "baseline": 0, "delta": value}
        for name, value in current.items()
    }


def test_main_without_a_baseline_prints_the_plain_numbers(capsys):
    stats = load_script()
    assert stats.main([]) == 0
    assert json.loads(capsys.readouterr().out) == stats.design_stats(stats.SRC)


def test_committed_baseline_carries_the_three_numbers():
    stats = load_script()
    committed = json.loads(COMMITTED_BASELINE.read_text())
    assert set(committed) == set(stats.design_stats(stats.SRC))
    assert all(isinstance(value, int) and value > 0 for value in committed.values())
