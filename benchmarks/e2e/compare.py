#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per (workload, metric).

    python benchmarks/e2e/compare.py A B

``A`` (the base) and ``B`` are each a ``BENCH_e2e.json`` or a directory
holding one per run (``--out runs/parent/01`` ... ``runs/parent/10``),
e.g. ten runs of the parent commit and ten of a change.  Every
end-to-end metric of every workload gets a row: both medians, the ratio
B/A, the bound from ``BENCHMARK.json``, the spread (interquartile range
over median across a side's runs; with one run per side, the spread
across that run's rounds) and a verdict:

* ``worse`` / ``better`` — B's median differs from A's in that direction
  by more than both the bound and the spread;
* ``unresolved`` — the spread is wider than the bound, so "no change"
  cannot be told from a change of the size the bound forbids;
* ``same`` — otherwise.

Counts from traced runs that are identical in every run of both sides are
listed as ``exact``: only those may back a later count-based claim.
Exits non-zero on any ``worse`` row or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import median_iqr

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(source: Path) -> list[dict]:
    """The per-workload results of every run under ``source``."""
    files = sorted(source.rglob("BENCH_e2e.json")) if source.is_dir() else [source]
    runs = [json.loads(path.read_text())["workloads"] for path in files]
    if not runs:
        raise SystemExit(f"{source}: no result files")
    return runs


def side(runs: list[dict], workload: str, metric: str) -> tuple[float, float, int]:
    """Median, relative spread and run count of one metric on one side."""
    entries = [
        run[workload]["untraced"]["end_to_end"][metric]
        for run in runs
        if "untraced" in run.get(workload, {})
    ]
    if not entries:
        return 0.0, 0.0, 0
    median, iqr = median_iqr([entry["value"] for entry in entries])
    if len(entries) == 1:
        iqr = entries[0].get("iqr", 0.0)  # spread across the run's rounds
    return median, (iqr / median if median else 0.0), len(entries)


def verdict(base: float, other: float, better: str, bound: float, spread: float) -> str:
    if not base:
        return "unresolved"
    worse_by = (other - base) / base * (1 if better == "lower" else -1)
    if worse_by > max(bound, spread):
        return "worse"
    if -worse_by > max(bound, spread):
        return "better"
    return "unresolved" if spread > bound else "same"


def exact_counts(a_runs: list[dict], b_runs: list[dict], workload: str) -> list[str]:
    """Count metrics with one identical value across every traced run."""
    traced = [
        run[workload]["traced"]
        for run in (*a_runs, *b_runs)
        if "traced" in run.get(workload, {})
    ]
    if len(traced) < 2:
        return []
    candidates = set(traced[0]["per_layer_exact"])
    for result in traced[1:]:
        candidates &= set(result["per_layer_exact"])
    return sorted(
        metric
        for metric in candidates
        if len({result["per_layer"][metric]["value"] for result in traced}) == 1
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a_runs, b_runs = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    spec = json.loads(BENCHMARK_JSON.read_text())
    failed = False
    print(
        f"{'workload':18s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
        f"{'B/A':>7s} {'bound':>6s} {'spread':>7s}  verdict   (runs A/B)"
    )
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, a_spread, a_n = side(a_runs, workload, name)
            b, b_spread, b_n = side(b_runs, workload, name)
            if not a_n or not b_n:
                continue
            spread = max(a_spread, b_spread)
            outcome = verdict(a, b, metric["better"], metric["bound"], spread)
            failed |= outcome == "worse"
            print(
                f"{workload:18s} {name:16s} {a:12.3f} {b:12.3f} {b / a if a else 0:7.3f} "
                f"{metric['bound']:6.2f} {spread:7.3f}  {outcome:10s}({a_n}/{b_n})"
            )
        a, _, a_n = side(a_runs, workload, "failed_share")
        b, _, b_n = side(b_runs, workload, "failed_share")
        if a_n and b_n:
            rose = b > a
            failed |= rose
            print(
                f"{workload:18s} {'failed_share':16s} {a:12.6f} {b:12.6f} {'':7s} "
                f"{0:6.2f} {'':7s}  {'worse' if rose else 'same'}"
            )
        exact = exact_counts(a_runs, b_runs, workload)
        if exact:
            print(f"{workload:18s} exact counts: {' '.join(exact)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
