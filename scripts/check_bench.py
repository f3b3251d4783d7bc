#!/usr/bin/env python3
"""Perf regression gate over BENCH_*.json benchmark artifacts.

Compares a freshly produced ``BENCH_*.json`` (written by
``pytest benchmarks --bench-json=DIR``) against the committed baseline in
``benchmarks/baselines/``.  The tolerance is deliberately generous — CI
runners are noisy and heterogeneous — so only a *catastrophic* slowdown
(default: more than 3x below baseline throughput) fails the build.

Usage:
    python scripts/check_bench.py \
        --fresh bench-artifacts/BENCH_rpc.json \
        --baseline benchmarks/baselines/BENCH_rpc.json \
        --metric ops_per_s --key scenario --tolerance 3.0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_rows(path: Path, key: str, metric: str) -> dict[str, float]:
    """Read one BENCH artifact and index ``metric`` by the ``key`` column."""
    data = json.loads(path.read_text())
    rows = {}
    for row in data.get("rows", []):
        if key in row and metric in row:
            rows[str(row[key])] = float(row[metric])
    if not rows:
        raise SystemExit(f"{path}: no rows with columns {key!r} and {metric!r}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", type=Path, required=True, help="new artifact")
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="committed baseline artifact",
    )
    parser.add_argument(
        "--metric",
        required=True,
        help="row column holding the higher-is-better throughput value",
    )
    parser.add_argument("--key", required=True, help="row column identifying a series")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="fail only when fresh < baseline / tolerance (default: 3.0)",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 1.0:
        parser.error("--tolerance must be >= 1.0")

    baseline = load_rows(args.baseline, args.key, args.metric)
    fresh = load_rows(args.fresh, args.key, args.metric)

    failures = []
    print(f"perf gate: {args.metric} (fail below baseline/{args.tolerance:g})")
    for series in sorted(baseline):
        base = baseline[series]
        floor = base / args.tolerance
        value = fresh.get(series)
        if value is None:
            failures.append(f"{series}: missing from fresh results")
            print(f"  {series:<8} baseline={base:.3f} fresh=MISSING  FAIL")
            continue
        verdict = "ok" if value >= floor else "FAIL"
        print(
            f"  {series:<8} baseline={base:.3f} fresh={value:.3f} "
            f"floor={floor:.3f}  {verdict}"
        )
        if value < floor:
            failures.append(
                f"{series}: {value:.3f} < floor {floor:.3f} "
                f"(baseline {base:.3f} / {args.tolerance:g})"
            )
    if failures:
        print("perf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
