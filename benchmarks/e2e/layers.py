"""Per-layer metrics: their names, units and definitions over one round.

One place defines every per-layer number the benchmark prints, so
``BENCHMARK.json``, the README table and the output cannot drift apart.
All values are *per measured round*; ``run.py`` reports the median over
the rounds of a run.  ``*_s`` metrics are busy seconds — the summed
duration of the named spans on every thread — unless they say *self* or
*wait*; the client breakdown (``self_s.*``) is self time on client
threads only and, with ``self_s.idle``, adds up to threads x wall.
"""

from __future__ import annotations

from tracing import CLIENT_ROOTS, LAYERS, aggregate, layer_of

LAYER_NAMES = sorted(set(LAYERS.values()))

#: Metric name -> unit, in print order.
PER_LAYER_UNITS: dict[str, str] = {
    # net: Transport.call, frame/message codec
    "net.rpc_calls": "count",
    "net.rpc_s": "s",
    "net.codec_s": "s",
    "net.wire_bytes": "bytes",
    "net.ops_per_frame": "ratio",
    "net.retries": "count",
    # core.metadata: MetadataManager.lookup/build_version, MetadataDHT.get/put
    "meta.lookups": "count",
    "meta.lookup_s": "s",
    "meta.build_s": "s",
    "meta.dht_ops": "count",
    "meta.dht_ops_per_lookup": "ratio",
    # core.version_manager: assign_ticket, publish, wait_for_publication
    "vm.assign_s": "s",
    "vm.publish_s": "s",
    "vm.publish_wait_s": "s",
    "vm.versions": "count",
    # core.transfer: TransferEngine.map, RemoteDataProvider.put_page/get_page
    "xfer.pages": "count",
    "xfer.bytes": "bytes",
    "xfer.put_s": "s",
    "xfer.get_s": "s",
    "xfer.wait_s": "s",
    "xfer.bytes_per_user_byte": "ratio",
    # bsfs: VersionedBlockCache.get, streams; fs namespace
    "bsfs.cache_hits": "count",
    "bsfs.cache_misses": "count",
    "bsfs.block_fetches": "count",
    "bsfs.cache_hit_ratio": "ratio",
    "bsfs.stream_self_s": "s",
    "ns.ops": "count",
    "ns.s": "s",
    # hdfs: NameNode, RemoteDataNode.write_block/read_block
    "hdfs.namenode_s": "s",
    "hdfs.block_rpcs": "count",
    "hdfs.block_s": "s",
    # mapreduce: submit -> first task, scheduler, tasks, split reading, user code
    "mr.queue_wait_s": "s",
    "mr.assign_s": "s",
    "mr.map_s": "s",
    "mr.reduce_s": "s",
    "mr.read_s": "s",
    "mr.user_fn_s": "s",
    "mr.slot_idle_share": "ratio",
    "mr.locality_ratio": "ratio",
    # mapreduce.shuffle_service: spill_map_output, fetch_segments, merged_pairs
    "shuffle.spill_s": "s",
    "shuffle.fetch_s": "s",
    "shuffle.merge_s": "s",
    "shuffle.bytes_spilled": "bytes",
    "shuffle.segments": "count",
    # processes, from /proc (filled in by run.py)
    "node.cpu_s": "s",
    "node.rss_MB": "MB",
    "client.cpu_s": "s",
    "client.rss_MB": "MB",
    # client-thread breakdown: self seconds per layer, idle, and their cover
    **{f"self_s.{layer}": "s" for layer in LAYER_NAMES},
    "self_s.idle": "s",
    "trace.client_cover": "ratio",
    "trace.spans": "count",
}


def round_metrics(
    records: list[tuple],
    counters: dict[str, float],
    *,
    wall_s: float,
    user_bytes: int,
    threads: int,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every span-derived per-layer metric of one measured round."""
    sides = aggregate(records)
    client, background = sides["client"], sides["background"]

    def count(*names: str) -> float:
        return sum(
            side[name]["count"] for side in (client, background) for name in names if name in side
        )

    def busy(*names: str) -> float:
        return sum(
            side[name]["total_s"] for side in (client, background) for name in names if name in side
        )

    def self_time(prefix: str) -> float:
        return sum(
            row["self_s"]
            for side in (client, background)
            for name, row in side.items()
            if name.startswith(prefix)
        )

    def prefixed(prefix: str) -> list[str]:
        return [name for name in {*client, *background} if name.startswith(prefix)]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    lookup_ids = {record[0] for record in records if record[3] == "meta.lookup"}
    lookup_gets = sum(
        1 for record in records if record[3] == "meta.dht_get" and record[1] in lookup_ids
    )
    submits = [record[5] for record in records if record[3] == "mr.submit"]
    map_starts = [record[5] for record in records if record[3] == "mr.map_task"]
    queue_wait = min(map_starts) - min(submits) if submits and map_starts else 0.0

    # A block access is a hit only if no provider fetch paid for it: the
    # stream's read-ahead can turn the next access into a cache hit without
    # saving the fetch, so hits are counted against BlobSeer.read calls.
    accesses = counters.get("bsfs.cache_hits", 0) + counters.get("bsfs.cache_misses", 0)
    fetches = count("core.read")

    metrics = {
        "net.rpc_calls": count("net.call"),
        "net.rpc_s": busy("net.call"),
        "net.codec_s": busy("net.encode", "net.decode"),
        "net.wire_bytes": counters.get("net.wire_bytes", 0),
        "net.ops_per_frame": ratio(count("net.call"), counters.get("net.frames_sent", 0)),
        "meta.lookups": count("meta.lookup"),
        "meta.lookup_s": busy("meta.lookup"),
        "meta.build_s": busy("meta.build"),
        "meta.dht_ops": count("meta.dht_get", "meta.dht_put"),
        "meta.dht_ops_per_lookup": ratio(lookup_gets, count("meta.lookup")),
        "vm.assign_s": busy("vm.assign"),
        "vm.publish_s": busy("vm.publish"),
        "vm.publish_wait_s": busy("vm.wait"),
        "vm.versions": count("vm.publish"),
        "xfer.pages": count("xfer.put_page", "xfer.get_page"),
        "xfer.bytes": counters.get("xfer.bytes", 0),
        "xfer.put_s": busy("xfer.put_page"),
        "xfer.get_s": busy("xfer.get_page"),
        "xfer.wait_s": self_time("xfer.map"),
        "xfer.bytes_per_user_byte": ratio(counters.get("xfer.bytes", 0), user_bytes),
        "bsfs.cache_hits": counters.get("bsfs.cache_hits", 0),
        "bsfs.cache_misses": counters.get("bsfs.cache_misses", 0),
        "bsfs.block_fetches": fetches,
        "bsfs.cache_hit_ratio": max(0.0, 1.0 - ratio(fetches, accesses)) if accesses else 0.0,
        "bsfs.stream_self_s": self_time("bsfs.stream_"),
        "ns.ops": count(*prefixed("ns.")),
        "ns.s": busy(*prefixed("ns.")),
        "hdfs.namenode_s": busy(*prefixed("hdfs.nn_")),
        "hdfs.block_rpcs": count("hdfs.block_write", "hdfs.block_read"),
        "hdfs.block_s": busy("hdfs.block_write", "hdfs.block_read"),
        "mr.queue_wait_s": queue_wait,
        "mr.assign_s": busy("mr.assign"),
        "mr.map_s": busy("mr.map_task"),
        "mr.reduce_s": busy("mr.reduce_task"),
        "mr.read_s": busy(*prefixed("bsfs.open_read"), *prefixed("hdfs.open_read")),
        "mr.user_fn_s": busy("mr.user_fn"),
        "mr.slot_idle_share": (
            max(0.0, 1.0 - ratio(busy("mr.map_task"), 2 * wall_s)) if map_starts else 0.0
        ),
        "mr.locality_ratio": extra.get("mr.locality_ratio", 0.0),
        "shuffle.spill_s": busy("shuffle.spill"),
        "shuffle.fetch_s": busy("shuffle.fetch"),
        "shuffle.merge_s": busy("shuffle.merge"),
        "shuffle.bytes_spilled": counters.get("shuffle.bytes_spilled", 0),
        "shuffle.segments": extra.get("shuffle.segments", 0),
        "trace.spans": len(records),
    }

    # Client breakdown: self seconds per layer below client roots, plus the
    # part of threads x wall no client root covered.
    by_layer = dict.fromkeys(LAYER_NAMES, 0.0)
    for name, row in client.items():
        by_layer[layer_of(name)] += row["self_s"]
    # A client root is the only span named like its own root.
    covered = sum(r[7] for r in records if r[3] == r[4] and r[4] in CLIENT_ROOTS)
    for layer, seconds in by_layer.items():
        metrics[f"self_s.{layer}"] = seconds
    metrics["self_s.idle"] = max(0.0, threads * wall_s - covered)
    metrics["trace.client_cover"] = ratio(sum(by_layer.values()), threads * wall_s)
    return metrics


def top_client_costs(records: list[tuple], limit: int = 5) -> list[dict]:
    """The largest client-thread self times of a run, by span name.

    An RPC's wait is a leaf, so by layer nearly everything lands in
    ``net``; here a ``net.call`` is charged to the call it served
    (``net.call<-meta.dht_get``), which names the cost a follow-up can
    attack.  Shares are of the client roots' total time.
    """
    names = {record[0]: record[3] for record in records}
    costs: dict[str, float] = {}
    covered = 0.0
    for span_id, parent, _op, name, root, _start, _end, total, self_time in records:
        if root not in CLIENT_ROOTS:
            continue
        if name == root:
            covered += total
        if name == "net.call":
            name = f"net.call<-{names.get(parent, '?')}"
        costs[name] = costs.get(name, 0.0) + self_time
    ranked = sorted(costs.items(), key=lambda item: item[1], reverse=True)[:limit]
    return [
        {"span": name, "self_s": seconds, "share": seconds / covered if covered else 0.0}
        for name, seconds in ranked
    ]
