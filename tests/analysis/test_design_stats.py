"""The design-size script reads its numbers from source, without imports."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "design_stats.py"


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
