#!/usr/bin/env python3
"""End-to-end benchmark: BSFS / HDFS / MapReduce on a real multi-process cluster.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N] [--seconds S]
                                 [--trace [0|1|both]] [--scale full|smoke] [--out DIR]

For each selected workload (default: all seven) the command stands up a
fresh cluster of OS processes over TCP, loads the workload's inputs,
runs one warm-up round and then measured rounds for ``--seconds``
seconds, verifies every output, and prints every metric by name with its
unit.  The last line of each workload's block is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics from an untraced run (``--trace 0``) or the per-layer metrics
from a traced run (``--trace 1``).  A bare ``--trace`` does both and adds
``trace_overhead_pct``.  ``--out DIR`` also writes ``BENCH_e2e.json``
(and ``trace.json`` when tracing) there.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from cluster import CLIENT_THREADS, REPO_ROOT, Cluster  # noqa: E402
from layers import PER_LAYER_UNITS, round_metrics, top_client_costs  # noqa: E402
from stats import median_iqr, tail  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import FULL, MB, SMOKE, WORKLOADS, RoundResult, Scale, Workload  # noqa: E402

#: Unit of every end-to-end metric (direction and bound live in BENCHMARK.json).
END_TO_END_UNITS = {"throughput_MBps": "MiB/s", "op_p50_ms": "ms", "setup_s": "s"}
#: Default ``--seconds``; equals ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 10
MIN_ROUNDS = 3
#: A measured round shorter than this is flagged (not failed: a later
#: speed-up must not turn the benchmark red).
MIN_ROUND_S = 1.5
#: Memory touched before a run: above the largest workload's footprint.
PREFAULT_MB = 2048
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_now = time.perf_counter


# -- /proc: the node processes seen from outside ----------------------------------------


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024
    return 0.0


def prefault(megabytes: int) -> None:
    """Touch and release ``megabytes`` of memory before anything is timed.

    On a lazily backed VM the first touch of a guest page costs several
    times a later one (the hypervisor allocates it then), and which runs
    meet untouched pages depends on what ran before.  Freed pages are
    handed out again first, so touching the run's footprint up front
    makes every round of every run see re-used memory.
    """
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | mmap.MAP_POPULATE
    mmap.mmap(-1, megabytes << 20, flags=flags).close()


# -- one run of one workload -------------------------------------------------------------


def set_up(workload: Workload) -> tuple[Cluster, float]:
    """Spawn nodes, handshake, connect stubs, load inputs; returns seconds."""
    started = _now()
    cluster = Cluster(workload.kind).start()
    try:
        workload.load(cluster)
    except BaseException:
        cluster.close()
        raise
    return cluster, _now() - started


def run_workload(
    name: str, *, seed: int, seconds: float, scale: Scale, tracer: Tracer
) -> dict:
    """Set up, warm up, measure and verify one workload; returns its result."""
    traced = tracer.installed
    workload = WORKLOADS[name](seed, scale, tracer)  # payloads: before any clock

    setups = []
    for _ in range(scale.setups - 1):
        cluster, took = set_up(workload)
        cluster.close()
        setups.append(took)
    cluster, took = set_up(workload)
    setups.append(took)

    rounds: list[RoundResult] = []
    layer_rounds: list[dict[str, float]] = []
    spans: list[tuple] = []
    node_cpu: list[float] = []
    client_cpu: list[float] = []
    retries: list[float] = []
    try:
        warm_up = workload.run_round(cluster, -1)
        tracer.drain()
        measured = 0.0
        while True:
            if workload.fresh_cluster_each_round:
                cluster.close()
                cluster, _ = set_up(workload)
            pids = cluster.node_pids()
            cpu_before = [cpu_seconds(pid) for pid in pids.values()]
            own_before = time.process_time()
            retried_before = cluster.calls_retried()
            result = workload.run_round(cluster, len(rounds))
            node_cpu.append(
                sum(cpu_seconds(pid) for pid in pids.values()) - sum(cpu_before)
            )
            client_cpu.append(time.process_time() - own_before)
            retries.append(cluster.calls_retried() - retried_before)
            rounds.append(result)
            measured += result.wall_s
            if traced:
                records, counters = tracer.drain()
                spans.extend(records)
                layer_rounds.append(
                    round_metrics(
                        records,
                        counters,
                        wall_s=result.wall_s,
                        user_bytes=result.user_bytes,
                        threads=workload.threads,
                        extra=result.extra,
                    )
                )
            if scale.rounds is not None:
                if len(rounds) >= scale.rounds:
                    break
            elif len(rounds) >= MIN_ROUNDS and measured + result.wall_s / 2 >= seconds:
                break
        final = workload.finish(cluster)
        node_rss = {node: rss_mb(pid) for node, pid in pids.items()}
    finally:
        cluster.close()

    everything = [warm_up, *rounds]
    attempted = sum(r.attempted for r in everything) + (final.attempted if final else 0)
    failed = sum(r.failed for r in everything) + (final.failed if final else 0)
    errors = [e for r in everything for e in r.errors] + (final.errors if final else [])

    throughputs = [r.user_bytes / MB / r.wall_s for r in rounds]
    latencies_ms = [s * 1e3 for r in rounds for s in r.latencies_s]
    throughput, throughput_iqr = median_iqr(throughputs)
    _, p50_iqr = median_iqr(
        [statistics.median(r.latencies_s) * 1e3 for r in rounds if r.latencies_s]
    )
    setup, setup_iqr = median_iqr(setups)
    walls = [r.wall_s for r in rounds]
    op_tail = tail(latencies_ms)
    result = {
        "workload": name,
        "traced": traced,
        "seed": seed,
        "scale": scale.name,
        "sizes": workload.sizes(),
        "client_threads": CLIENT_THREADS,
        "rounds": len(rounds),
        "round_wall_s": walls,
        "round_throughput_MBps": throughputs,
        "setups_s": setups,
        "end_to_end": {
            "throughput_MBps": {
                "value": throughput,
                "unit": "MiB/s",
                "iqr": throughput_iqr,
                "n": len(rounds),
            },
            "op_p50_ms": {
                "value": statistics.median(latencies_ms) if latencies_ms else 0.0,
                "unit": "ms",
                "iqr": p50_iqr,
                "n": len(latencies_ms),
                "op": workload.op,
            },
            "setup_s": {"value": setup, "unit": "s", "iqr": setup_iqr, "n": len(setups)},
            "failed_share": {
                "value": failed / attempted,
                "unit": "ratio",
                "failed": failed,
                "attempted": attempted,
            },
        },
        "ungated": {
            "op_tail_ms": (
                {"percentile": op_tail[0], "value": op_tail[1], "n": len(latencies_ms)}
                if op_tail
                else None
            ),
            "round_iqr_pct": 100 * throughput_iqr / throughput if throughput else 0.0,
        },
        "short_rounds": sum(wall < MIN_ROUND_S for wall in walls),
        "errors": errors[:10],
    }

    checks: dict[str, bool] = {}
    if traced:
        per_layer = {
            metric: statistics.median(r[metric] for r in layer_rounds)
            for metric in layer_rounds[0]
        }
        per_layer["net.retries"] = statistics.median(retries)
        per_layer["node.cpu_s"] = statistics.median(node_cpu)
        per_layer["node.rss_MB"] = sum(node_rss.values())
        per_layer["client.cpu_s"] = statistics.median(client_cpu)
        per_layer["client.rss_MB"] = rss_mb(os.getpid())
        result["per_layer"] = {
            metric: {"value": per_layer[metric], "unit": unit}
            for metric, unit in PER_LAYER_UNITS.items()
        }
        result["per_layer_exact"] = sorted(
            metric
            for metric in layer_rounds[0]
            if PER_LAYER_UNITS[metric] in ("count", "bytes")
            and len({r[metric] for r in layer_rounds}) == 1
        )
        result["client_top"] = top_client_costs(spans)
        result["node_rss_MB"] = node_rss
        result["spans"] = spans
        if scale is FULL:
            low, high = workload.hit_ratio_range
            checks["cache_hit_ratio_in_range"] = low <= per_layer["bsfs.cache_hit_ratio"] <= high
            if name == "sort-spill":
                checks["spilled_at_least_0.9_of_input"] = (
                    per_layer["shuffle.bytes_spilled"] >= 0.9 * rounds[0].user_bytes
                )
    result["self_checks"] = checks
    result["correct"] = failed == 0 and not errors and all(checks.values())
    return result


# -- output ----------------------------------------------------------------------------


def print_result(result: dict) -> None:
    e2e, ungated = result["end_to_end"], result["ungated"]
    mode = "traced" if result["traced"] else "untraced"
    print(
        f"== {result['workload']} ({mode}, seed {result['seed']}, scale {result['scale']}, "
        f"{result['rounds']} rounds, {result['client_threads']} client threads, closed loop) =="
    )
    print(f"   sizes: {result['sizes']}")
    if result["traced"]:
        print("   (traced run: end-to-end numbers below include tracing overhead)")
    t = e2e["throughput_MBps"]
    print(
        f"throughput_MBps  {t['value']:12.3f} MiB/s  "
        f"(median of {t['n']} rounds, IQR {t['iqr']:.3f}; round_iqr_pct "
        f"{ungated['round_iqr_pct']:.2f})"
    )
    p = e2e["op_p50_ms"]
    print(f"op_p50_ms        {p['value']:12.3f} ms     (op = one {p['op']}, n={p['n']})")
    if ungated["op_tail_ms"]:
        o = ungated["op_tail_ms"]
        print(
            f"op_tail_ms       {o['value']:12.3f} ms     "
            f"(p{o['percentile']:g}, n={o['n']}; not gated)"
        )
    else:
        print(f"op_tail_ms                n/a         (n={p['n']}: under 10 samples beyond p90)")
    s = e2e["setup_s"]
    print(f"setup_s          {s['value']:12.3f} s      (median of {s['n']} set-ups, IQR {s['iqr']:.3f})")
    f = e2e["failed_share"]
    print(
        f"failed_share     {f['value']:12.6f} ratio  "
        f"({f['failed']} failed / {f['attempted']} attempted)"
    )
    if result["short_rounds"]:
        print(f"   note: {result['short_rounds']} measured round(s) shorter than {MIN_ROUND_S} s")
    if result["traced"]:
        exact = set(result["per_layer_exact"])
        for metric, entry in result["per_layer"].items():
            mark = "  exact across rounds" if metric in exact else ""
            print(f"{metric:28s} {entry['value']:16.6g} {entry['unit']}{mark}")
    for cost in result.get("client_top", []):
        print(
            f"   client-thread cost {cost['span']:34s} {cost['self_s']:9.3f} s self "
            f"({100 * cost['share']:.1f}% of client time)"
        )
    for check, ok in result["self_checks"].items():
        print(f"   self-check {check}: {'ok' if ok else 'FAILED'}")
    for error in result["errors"]:
        print(f"   error: {error}")


def contract_line(result: dict) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    source = result["per_layer"] if result["traced"] else result["end_to_end"]
    names = PER_LAYER_UNITS if result["traced"] else END_TO_END_UNITS
    share = result["end_to_end"]["failed_share"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": share["attempted"],
            "failed": share["failed"],
            "metrics": {
                name: {"value": source[name]["value"], "unit": source[name]["unit"]}
                for name in names
            },
        }
    )


def environment(args: argparse.Namespace) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "client_threads": CLIENT_THREADS,
    }


def write_outputs(out: Path, env: dict, results: dict[str, dict]) -> None:
    """``BENCH_e2e.json`` (summary) and ``trace.json`` (every span)."""
    out.mkdir(parents=True, exist_ok=True)
    traces = {}
    for name, modes in results.items():
        traced = modes.get("traced")
        if traced is not None:
            traces[name] = {
                "columns": [
                    "id", "parent", "op", "name", "root", "start_s", "end_s",
                    "total_s", "self_s",
                ],
                "spans": traced.pop("spans"),
            }
    if traces:
        (out / "trace.json").write_text(json.dumps(traces))
    summary = {"benchmark": "e2e", "environment": env, "workloads": results, "claim": None}
    (out / "BENCH_e2e.json").write_text(json.dumps(summary, indent=1) + "\n")


# -- entry point -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=list(WORKLOADS),
        help="workload to run (repeatable; default: all seven)",
    )
    parser.add_argument("--seed", type=int, default=1, help="payload seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help="seconds of measured rounds per workload",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="both",
        default="0",
        choices=("0", "1", "both"),
        help="0: untraced, end-to-end metrics; 1: traced, per-layer metrics; "
        "bare --trace: both runs plus trace_overhead_pct",
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=None, help="directory for BENCH_e2e.json")
    args = parser.parse_args(argv)

    def terminate(*_: object) -> None:
        raise SystemExit(128 + signal.SIGTERM)

    signal.signal(signal.SIGTERM, terminate)  # unwind through Cluster.close
    scale = FULL if args.scale == "full" else SMOKE
    if scale is FULL:
        prefault(PREFAULT_MB)
    env = environment(args)
    print(f"environment: {json.dumps(env)}")

    results: dict[str, dict] = {}
    correct = True
    for name in args.workload or list(WORKLOADS):
        modes: dict = {}
        if args.trace in ("0", "both"):
            modes["untraced"] = run_workload(
                name, seed=args.seed, seconds=args.seconds, scale=scale, tracer=Tracer()
            )
        if args.trace in ("1", "both"):
            tracer = Tracer()
            tracer.install()
            try:
                modes["traced"] = run_workload(
                    name, seed=args.seed, seconds=args.seconds, scale=scale, tracer=tracer
                )
            finally:
                tracer.uninstall()
        for result in modes.values():
            print_result(result)
            correct = correct and result["correct"]
        if len(modes) == 2:
            plain = modes["untraced"]["end_to_end"]["throughput_MBps"]["value"]
            slowed = modes["traced"]["end_to_end"]["throughput_MBps"]["value"]
            modes["trace_overhead_pct"] = 100 * (1 - slowed / plain)
            print(f"trace_overhead_pct {modes['trace_overhead_pct']:10.2f} %")
        print(contract_line(modes.get("untraced") or modes["traced"]), flush=True)
        results[name] = modes

    if args.out is not None:
        write_outputs(args.out, env, results)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
