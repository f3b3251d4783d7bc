"""The seven workloads: inputs from a seed, timed rounds, verification.

Every workload follows one shape.  ``__init__`` builds all payloads from
the seed before any clock starts; ``load`` writes the input files (part
of ``setup_s``); ``run_round`` runs one closed-loop round with
``CLIENT_THREADS`` clients, timing the round and each client operation,
then verifies what the round produced *after* the clock stopped;
``finish`` does verification that is too expensive to repeat per round.

The program under test only ever sees the generated bytes.  Failures are
counted, never raised: an operation that raises, or output that does not
verify, adds to ``failed``.
"""

from __future__ import annotations

import os
import random
import re
import struct
import threading
import time
import traceback
import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from cluster import CLIENT_THREADS, Cluster
from repro.core import KB, MB
from repro.mapreduce.applications.distributed_grep import make_distributed_grep_job
from repro.mapreduce.applications.sort import make_sort_job
from tracing import Tracer

_now = time.perf_counter

GREP_PATTERN = "hellbender|lithograph"


@dataclass(frozen=True)
class Scale:
    """Absolute sizes; the ratios between workloads are the same at both."""

    name: str
    #: Bytes per client call (``pread``/``write``/``read``) and per split.
    chunk: int
    #: Bytes per ``concurrent_append``.
    record: int
    #: Repeat counts are divided by this.
    divisor: int
    #: Set-ups per run (``setup_s`` is their median).
    setups: int
    #: Measured rounds, or ``None`` to fill ``--seconds``.
    rounds: int | None

    def fewer(self, count: int) -> int:
        return max(1, count // self.divisor)


FULL = Scale("full", chunk=4 * MB, record=64 * KB, divisor=1, setups=3, rounds=None)
SMOKE = Scale("smoke", chunk=256 * KB, record=4 * KB, divisor=16, setups=1, rounds=1)


# -- payloads ----------------------------------------------------------------------------


def make_chunks(rng: random.Random, count: int, size: int, tag: int) -> list[bytes]:
    """``count`` distinct ``size``-byte chunks, fast.

    Each chunk is a random window of one random pool behind a unique
    header, so generating hundreds of MiB costs one memcpy per chunk while
    no two chunks — and no two pages — are equal.
    """
    pool = rng.randbytes(2 * size)
    chunks = []
    for seq in range(count):
        head = struct.pack(">4sII", b"e2e!", tag, seq) + rng.randbytes(4)
        start = rng.randrange(size // 64) * 64
        chunks.append(head + pool[start : start + size - len(head)])
    return chunks


def make_words(rng: random.Random, count: int) -> list[bytes]:
    letters = b"abcdefghijklmnopqrstuvwxyz"
    return [bytes(rng.choices(letters, k=rng.randint(3, 10))) for _ in range(count)]


def make_text(rng: random.Random, size: int) -> bytes:
    """At most ``size`` bytes of prose-like lines; ~1% carry a grep match."""
    words = make_words(rng, 2000)
    needles = GREP_PATTERN.encode().split(b"|")
    lines = []
    for index in range(4096):
        line = rng.choices(words, k=rng.randint(12, 28))
        if index % 100 == 0:
            line[rng.randrange(len(line))] = rng.choice(needles)
        lines.append(b" ".join(line) + b"\n")
    mean = sum(map(len, lines)) / len(lines)
    text = b"".join(rng.choices(lines, k=int(size / mean) + 64))
    return text[: text.rindex(b"\n", 0, size) + 1]


def make_records(rng: random.Random, size: int) -> bytes:
    """At most ``size`` bytes of ``key<TAB>value`` lines with repeated keys."""
    letters = b"abcdefghijklmnopqrstuvwxyz"
    keys = [bytes(rng.choices(letters, k=10)) for _ in range(50_000)]
    values = [bytes(rng.choices(letters + b"0123456789", k=80)) for _ in range(1000)]
    count = size // 92
    return b"".join(
        key + b"\t" + value + b"\n"
        for key, value in zip(rng.choices(keys, k=count), rng.choices(values, k=count))
    )


def lines_digest(data: bytes) -> tuple[int, int, int]:
    """Order-independent digest of a multiset of lines."""
    total = mixed = 0
    lines = data.splitlines()
    for line in lines:
        crc = zlib.crc32(line)
        total += crc
        mixed ^= crc * 0x9E3779B1 & 0xFFFFFFFFFFFFFFFF
    return len(lines), total, mixed


# -- per-client bookkeeping --------------------------------------------------------------


class OpLog:
    """One client's operations: latency samples, attempts, failures."""

    def __init__(self, tracer: Tracer, op: str) -> None:
        self._tracer = tracer
        self._span = f"op.{op}"
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn: Callable, *args: Any, timed: bool = True) -> Any:
        """Run one client operation; ``timed`` ones feed ``op_p50_ms``."""
        self.attempted += 1
        tracer = self._tracer
        token = tracer.enter(self._span if timed else "op.other") if tracer.enabled else None
        started = _now()
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            raise
        finally:
            if timed:
                self.latencies.append(_now() - started)
            if token is not None:
                tracer.exit(*token)
            # Let the other client run now rather than inside its or our
            # next timed operation: without this, interpreter hand-offs make
            # the median of a CPU-bound operation (read-shared-warm) flip
            # between one and two service times from round to round.
            os.sched_yield()

    def check(self, ok: bool, what: str) -> None:
        """Record one verification outcome (outside the clock)."""
        if not ok:
            self.failed += 1
            self.errors.append(f"verification failed: {what}")


@dataclass
class RoundResult:
    wall_s: float
    user_bytes: int
    latencies_s: list[float]
    attempted: int
    failed: int
    errors: list[str]
    #: Program outputs the per-layer summary needs (locality, spill stats).
    extra: dict[str, float] = field(default_factory=dict)


def run_clients(tracer: Tracer, logs: list[OpLog], bodies: list[Callable[[], None]]) -> float:
    """Run ``bodies`` on one thread each, released together; returns wall.

    A body that raises stops that client (the failed operation is already
    counted by its :class:`OpLog`); the others finish their round.
    """
    barrier = threading.Barrier(len(bodies) + 1)

    def client(log: OpLog, body: Callable[[], None]) -> None:
        barrier.wait()
        try:
            with tracer.span("client.round"):
                body()
        except Exception:
            log.errors.append(traceback.format_exc(limit=4))

    threads = [
        threading.Thread(target=client, args=pair, name=f"client-{index}")
        for index, pair in enumerate(zip(logs, bodies))
    ]
    for thread in threads:
        thread.start()
    tracer.enabled = tracer.installed
    barrier.wait()
    started = _now()
    for thread in threads:
        thread.join()
    wall = _now() - started
    tracer.enabled = False
    return wall


def collect(wall: float, user_bytes: int, logs: list[OpLog], **extra: float) -> RoundResult:
    return RoundResult(
        wall_s=wall,
        user_bytes=user_bytes,
        latencies_s=[sample for log in logs for sample in log.latencies],
        attempted=sum(log.attempted for log in logs),
        failed=sum(log.failed for log in logs),
        errors=[error for log in logs for error in log.errors],
        extra=dict(extra),
    )


def write_file(fs: Any, path: str, chunks: list[bytes]) -> None:
    with fs.create(path) as out:
        for chunk in chunks:
            out.write(chunk)


# -- workloads ---------------------------------------------------------------------------


class Workload:
    name: str
    why: str
    #: ``"bsfs"`` or ``"hdfs"``: which deployment the cluster harness builds.
    kind = "bsfs"
    #: The client operation whose latency is ``op_p50_ms``.
    op: str
    #: Threads whose time the client breakdown covers (see README).
    threads = CLIENT_THREADS
    #: Bounds of ``bsfs.cache_hit_ratio`` this workload must stay within.
    hit_ratio_range = (0.0, 1.0)
    #: Start every round on a new cluster (for rounds that leave data behind).
    fresh_cluster_each_round = False

    def __init__(self, seed: int, scale: Scale, tracer: Tracer) -> None:
        self.rng = random.Random(seed)
        self.scale = scale
        self.tracer = tracer

    def sizes(self) -> dict[str, int]:
        """Input sizes, recorded in the result's environment block."""
        raise NotImplementedError

    def load(self, cluster: Cluster) -> None:
        """Write the input files (counted in ``setup_s``)."""

    def run_round(self, cluster: Cluster, index: int) -> RoundResult:
        """One round; ``index`` -1 is the warm-up, which may do less work."""
        raise NotImplementedError

    def finish(self, cluster: Cluster) -> OpLog | None:
        """Expensive verification after the last round (outside any clock)."""
        return None


class ReadShared(Workload):
    """Clients ``pread`` disjoint halves of one shared BSFS file."""

    op = "pread"
    path = "/read-shared.bin"

    def __init__(self, seed, scale, tracer, *, chunks: int, passes: int) -> None:
        super().__init__(seed, scale, tracer)
        self.chunks = make_chunks(self.rng, chunks, scale.chunk, tag=0)
        self.passes = passes

    def sizes(self) -> dict[str, int]:
        return {
            "file_bytes": len(self.chunks) * self.scale.chunk,
            "call_bytes": self.scale.chunk,
            "passes": self.passes,
        }

    def load(self, cluster: Cluster) -> None:
        write_file(cluster.fs, self.path, self.chunks)

    def run_round(self, cluster: Cluster, index: int) -> RoundResult:
        fs, size = cluster.fs, self.scale.chunk
        share = len(self.chunks) // CLIENT_THREADS
        passes = self.passes if index >= 0 else 1  # one pass fills the cache
        logs = [OpLog(self.tracer, self.op) for _ in range(CLIENT_THREADS)]
        last_pass: list[list[bytes]] = [[] for _ in logs]
        short_reads = [0] * len(logs)

        def body(client: int) -> Callable[[], None]:
            mine = range(client * share, (client + 1) * share)
            log = logs[client]

            def run() -> None:
                with fs.open(self.path) as stream:
                    for turn in range(passes):
                        kept = []
                        for chunk in mine:
                            data = log.call(stream.pread, chunk * size, size)
                            short_reads[client] += len(data) != size
                            kept.append(data)
                        if turn == passes - 1:
                            last_pass[client] = kept

            return run

        wall = run_clients(self.tracer, logs, [body(c) for c in range(len(logs))])
        for client, log in enumerate(logs):
            log.check(short_reads[client] == 0, f"{short_reads[client]} short reads")
            expected = self.chunks[client * share : (client + 1) * share]
            log.check(len(last_pass[client]) == share, "client stopped early")
            for position, data in enumerate(last_pass[client]):
                log.check(data == expected[position], f"chunk {client * share + position} differs")
        moved = passes * share * CLIENT_THREADS * size
        return collect(wall, moved, logs)


class ReadSharedCold(ReadShared):
    name = "read-shared-cold"
    why = (
        "2 clients pread halves of a 64 MiB BSFS file, twice the 32 MiB block cache, 3 passes: "
        "every block is fetched (paper E1); stresses metadata lookup, page transfer, bulk receive"
    )
    hit_ratio_range = (0.0, 0.05)

    def __init__(self, seed, scale, tracer) -> None:
        super().__init__(seed, scale, tracer, chunks=16, passes=3)


class ReadSharedWarm(ReadShared):
    name = "read-shared-warm"
    why = (
        "same code on a 16 MiB file that fits the block cache, re-read 650x: only bsfs.cache and "
        "the stream copy work; the bypass for any read-path, metadata or wire change"
    )
    hit_ratio_range = (0.95, 1.0)

    def __init__(self, seed, scale, tracer) -> None:
        super().__init__(seed, scale, tracer, chunks=4, passes=scale.fewer(650))


class WriteDistinct(Workload):
    """Each client creates its own BSFS file and streams chunks into it."""

    name = "write-distinct"
    why = (
        "2 clients each stream 120 MiB into their own new BSFS file in 4 MiB writes (paper E3, "
        "reduce output): page push, build_version, publish, bulk send"
    )
    op = "write"
    chunks_per_client = 30
    # Written files stay (BSFS.delete costs ~3 s per 64 MiB at this commit:
    # a full-tree lookup per version plus three probes per page), so a
    # round would leave 240 MiB more in the providers than the one before.
    # On this lazily backed VM a first touch of guest memory costs four
    # times a re-used page, which made later rounds a third slower; new
    # node processes per round keep every round's footprint the same.
    fresh_cluster_each_round = True

    def __init__(self, seed, scale, tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.payloads = [
            make_chunks(self.rng, self.chunks_per_client, scale.chunk, tag=client)
            for client in range(CLIENT_THREADS)
        ]
        self.last_round = -1

    def sizes(self) -> dict[str, int]:
        return {
            "file_bytes": self.chunks_per_client * self.scale.chunk,
            "call_bytes": self.scale.chunk,
        }

    def path(self, index: int, client: int) -> str:
        return f"/write-distinct/round{index}-client{client}.bin"

    def run_round(self, cluster: Cluster, index: int) -> RoundResult:
        fs = cluster.fs
        count = self.chunks_per_client if index >= 0 else 8
        logs = [OpLog(self.tracer, self.op) for _ in range(CLIENT_THREADS)]

        def body(client: int) -> Callable[[], None]:
            log = logs[client]

            def run() -> None:
                with fs.create(self.path(index, client)) as out:
                    for chunk in self.payloads[client][:count]:
                        log.call(out.write, chunk)

            return run

        fs.mkdirs("/write-distinct")
        # The cluster is new: dial the connections and start the transfer
        # pool before the clock, as the warm-up round would have.
        for client, chunks in enumerate(self.payloads):
            write_file(fs, f"/write-distinct/prime-client{client}.bin", chunks[:1])
        wall = run_clients(self.tracer, logs, [body(c) for c in range(len(logs))])
        file_bytes = count * self.scale.chunk
        for client, log in enumerate(logs):
            size = fs.status(self.path(index, client)).size
            log.check(size == file_bytes, f"client {client} file is {size} bytes")
        self.last_round = index
        return collect(wall, CLIENT_THREADS * file_bytes, logs)

    def finish(self, cluster: Cluster) -> OpLog:
        """Read the last round's files back and compare every byte."""
        log = OpLog(self.tracer, "verify")
        for client, chunks in enumerate(self.payloads):
            expected = b"".join(chunks)
            stream = cluster.fs.open_read(self.path(self.last_round, client))
            actual = b"".join(stream)
            log.check(actual == expected, f"client {client} read-back differs")
        return log


_RECORD_HEAD = struct.Struct(">4sIII")


class AppendShared(Workload):
    """Clients ``concurrent_append`` small records to one shared file."""

    name = "append-shared"
    why = (
        "2 clients each issue 80 64-KiB concurrent_append calls to one shared BSFS file (paper "
        "section V): version tickets, ordered publish, tree build, boundary-page merge, small RPCs"
    )
    op = "concurrent_append"

    def __init__(self, seed, scale, tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.per_client = scale.fewer(80)
        body = scale.record - _RECORD_HEAD.size
        pool = self.rng.randbytes(2 * scale.record)
        self.records: list[list[bytes]] = []
        for client in range(CLIENT_THREADS):
            mine = []
            for seq in range(self.per_client):
                start = self.rng.randrange(scale.record)
                payload = pool[start : start + body]
                head = _RECORD_HEAD.pack(b"rec!", client, seq, zlib.crc32(payload))
                mine.append(head + payload)
            self.records.append(mine)

    def sizes(self) -> dict[str, int]:
        return {"appends_per_client": self.per_client, "call_bytes": self.scale.record}

    def run_round(self, cluster: Cluster, index: int) -> RoundResult:
        fs, size = cluster.fs, self.scale.record
        path = f"/append-shared/round{index}.bin"
        fs.mkdirs("/append-shared")
        # A fresh file each round: throughput drifts with file size otherwise.
        fs.create(path).close()
        per_client = self.per_client if index >= 0 else max(1, self.per_client // 4)
        logs = [OpLog(self.tracer, self.op) for _ in range(CLIENT_THREADS)]
        offsets: list[list[int]] = [[] for _ in logs]

        def body(client: int) -> Callable[[], None]:
            log = logs[client]

            def run() -> None:
                for record in self.records[client][:per_client]:
                    offsets[client].append(log.call(fs.concurrent_append, path, record))

            return run

        wall = run_clients(self.tracer, logs, [body(c) for c in range(len(logs))])

        total = CLIENT_THREADS * per_client
        content = fs.read_file(path)
        check = logs[0].check
        check(len(content) == total * size, f"file is {len(content)} bytes")
        published = len(fs.file_versions(path)) - 1  # version 0 is the empty file
        check(published == total, f"{published} versions for {total} appends")
        seen: Counter = Counter()
        for slot in range(len(content) // size):
            record = content[slot * size : (slot + 1) * size]
            magic, client, seq, crc = _RECORD_HEAD.unpack_from(record)
            intact = magic == b"rec!" and zlib.crc32(record[_RECORD_HEAD.size :]) == crc
            check(intact, f"slot {slot} is torn")
            if intact:
                seen[(client, seq)] += 1
                landed = seq < len(offsets[client]) and offsets[client][seq] == slot * size
                check(landed, f"record {(client, seq)} is not at its returned offset")
        for client in range(CLIENT_THREADS):
            for seq in range(per_client):
                times = seen[(client, seq)]
                check(times == 1, f"record {(client, seq)} present {times} times")
        return collect(wall, total * size, logs)


class JobWorkload(Workload):
    """One MapReduce job per round through ``repro.api``."""

    op = "job"
    input_path: str

    def __init__(self, seed, scale, tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.data = b""

    def sizes(self) -> dict[str, int]:
        return {"input_bytes": len(self.data), "split_bytes": self.scale.chunk}

    def load(self, cluster: Cluster) -> None:
        size = self.scale.chunk
        chunks = [self.data[start : start + size] for start in range(0, len(self.data), size)]
        write_file(cluster.fs, self.input_path, chunks)

    def make_job(self, output_dir: str):
        raise NotImplementedError

    def verify(self, check: Callable[[bool, str], None], outputs: list[bytes]) -> None:
        raise NotImplementedError

    def run_round(self, cluster: Cluster, index: int) -> RoundResult:
        job = self.make_job(f"/{self.name}-out/round{index}")
        tracer = self.tracer
        if tracer.installed:
            # The user's functions are per-record: time a sample of calls.
            job = replace(
                job,
                mapper=tracer.sampled(job.mapper, "mr.user_fn"),
                reducer=tracer.sampled(job.reducer, "mr.user_fn"),
                combiner=job.combiner and tracer.sampled(job.combiner, "mr.user_fn"),
            )
        log = OpLog(tracer, self.op)
        result = None
        tracer.enabled = tracer.installed
        started = _now()
        try:
            result = log.call(cluster.session.run, job)
        except Exception:
            log.errors.append(traceback.format_exc(limit=4))
        wall = _now() - started
        tracer.enabled = False

        extra: dict[str, float] = {}
        if result is not None:
            log.check(result.succeeded, "job did not succeed")
            outputs = [cluster.fs.read_file(path) for path in result.output_paths]
            self.verify(log.check, outputs)
            extra["mr.locality_ratio"] = result.locality.locality_ratio
            shuffle = result.shuffle or {}
            extra["shuffle.segments"] = shuffle.get("segments_spilled", 0)
            extra["shuffle.bytes_spilled"] = shuffle.get("bytes_spilled", 0)
        return collect(wall, len(self.data), [log], **extra)


class Grep(JobWorkload):
    name = "grep"
    why = (
        "distributed grep over one 36 MiB BSFS text file in 4 MiB splits (paper E5): adds "
        "scheduling, split reading and per-record task cost to the cold shared read; shuffle ~0"
    )
    input_path = "/grep-input.txt"

    def __init__(self, seed, scale, tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.data = make_text(self.rng, 9 * scale.chunk)
        self.expected = Counter(
            match.group(0) for match in re.finditer(GREP_PATTERN.encode(), self.data)
        )

    def make_job(self, output_dir: str):
        return make_distributed_grep_job(
            GREP_PATTERN, [self.input_path], output_dir=output_dir, split_size=self.scale.chunk
        )

    def verify(self, check, outputs) -> None:
        counts = {}
        for line in b"".join(outputs).splitlines():
            word, _, count = line.partition(b"\t")
            counts[word] = int(count)
        check(counts == dict(self.expected), f"grep counted {counts}, re finds {self.expected}")


class SortSpill(JobWorkload):
    name = "sort-spill"
    why = (
        "sort of 12 MiB key/value lines, 2 reducers, spill_to_fs: no combiner, so every byte is "
        "spilled, fetched and merged through BSFS; stresses shuffle_service, writes beside reads"
    )
    input_path = "/sort-input.txt"
    #: Two map slots plus the two reducers the overlapped shuffle starts
    #: alongside them.
    threads = 4

    def __init__(self, seed, scale, tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.data = make_records(self.rng, 3 * scale.chunk)
        self.digest = lines_digest(self.data)

    def make_job(self, output_dir: str):
        job = make_sort_job(
            [self.input_path],
            output_dir=output_dir,
            num_reduce_tasks=2,
            split_size=self.scale.chunk,
        )
        return replace(job, conf=replace(job.conf, spill_to_fs=True))

    def verify(self, check, outputs) -> None:
        for part, output in enumerate(outputs):
            keys = [line.partition(b"\t")[0] for line in output.splitlines()]
            check(all(a <= b for a, b in zip(keys, keys[1:])), f"part {part} is not sorted")
        check(lines_digest(b"".join(outputs)) == self.digest, "output records differ from input")


class HdfsReadWrite(Workload):
    """Each client writes files to HDFS and reads each back."""

    name = "hdfs-rw"
    why = (
        "2 clients each write then read back five 64 MiB HDFS files in 4 MiB calls: the paper's "
        "baseline; shares only net and fs with the BSFS workloads, so core/bsfs changes skip it"
    )
    kind = "hdfs"
    op = "read"
    chunks_per_file = 16
    files_per_client = 5

    def __init__(self, seed, scale, tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.payloads = [
            make_chunks(self.rng, self.chunks_per_file, scale.chunk, tag=client)
            for client in range(CLIENT_THREADS)
        ]

    def sizes(self) -> dict[str, int]:
        return {
            "file_bytes": self.chunks_per_file * self.scale.chunk,
            "files_per_client": self.files_per_client,
            "call_bytes": self.scale.chunk,
        }

    def file_chunks(self, client: int, number: int) -> list[bytes]:
        """The client's chunks, rotated so no two of its files are equal."""
        chunks = self.payloads[client]
        turn = number * 3 % len(chunks)
        return chunks[turn:] + chunks[:turn]

    def run_round(self, cluster: Cluster, index: int) -> RoundResult:
        fs, size = cluster.fs, self.scale.chunk
        files = self.files_per_client if index >= 0 else 1
        fs.mkdirs("/hdfs-rw")
        logs = [OpLog(self.tracer, self.op) for _ in range(CLIENT_THREADS)]
        read_back: list[list[list[bytes]]] = [[] for _ in logs]

        def path(client: int, number: int) -> str:
            return f"/hdfs-rw/round{index}-client{client}-file{number}.bin"

        def body(client: int) -> Callable[[], None]:
            log = logs[client]

            def run() -> None:
                for number in range(files):
                    # Writes count in throughput only, so the latency
                    # median is not a mix of two operations.
                    with fs.create(path(client, number)) as out:
                        for chunk in self.file_chunks(client, number):
                            log.call(out.write, chunk, timed=False)
                    chunks = []
                    with fs.open(path(client, number)) as stream:
                        for _ in range(self.chunks_per_file):
                            chunks.append(log.call(stream.read, size))
                    read_back[client].append(chunks)

            return run

        wall = run_clients(self.tracer, logs, [body(c) for c in range(len(logs))])
        for client, log in enumerate(logs):
            log.check(len(read_back[client]) == files, "client stopped early")
            for number, chunks in enumerate(read_back[client]):
                same = chunks == self.file_chunks(client, number)
                log.check(same, f"client {client} file {number} read-back differs")
                fs.delete(path(client, number))
        moved = 2 * CLIENT_THREADS * files * self.chunks_per_file * size
        return collect(wall, moved, logs)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        ReadSharedCold,
        ReadSharedWarm,
        WriteDistinct,
        AppendShared,
        Grep,
        SortSpill,
        HdfsReadWrite,
    )
}
