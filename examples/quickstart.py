#!/usr/bin/env python3
"""Quickstart: the BlobSeer core API and the BSFS file system in five minutes.

Run with::

    python examples/quickstart.py

The script walks through the storage stack bottom-up:

1. create a BlobSeer deployment and a blob, write/append/read it, and show
   how every mutation becomes an immutable, still-readable version;
2. show the data-layout exposure primitive (which providers hold which
   pages) — the hook that makes the MapReduce scheduler locality-aware;
3. switch to the BSFS file-system layer (namespace, streams, client-side
   caching) and do the same through file paths;
4. contrast with the HDFS baseline: no append, no overwrite, single writer;
5. address all backends uniformly through ``scheme://authority/path`` URIs
   and the pluggable scheme registry — the one-string backend swap;
6. wrap it all in the session facade — ``repro.connect`` bundles the
   storage handle and the deployment's job service into one object, the
   recommended application entry point.
"""

from __future__ import annotations

from repro import KB, MB, BlobSeer, BlobSeerConfig, connect
from repro.bsfs import BSFS
from repro.fs import copy_uri, get_filesystem, open_fs, registered_schemes
from repro.fs.errors import UnsupportedOperationError
from repro.hdfs import HDFS
from repro.mapreduce.applications import make_wordcount_job


def blobseer_tour() -> None:
    print("=== 1. BlobSeer: versioned blobs ===")
    config = BlobSeerConfig(page_size=64 * KB, num_providers=8, replication=2)
    blobseer = BlobSeer(config)
    blob = blobseer.create_blob()

    v1 = blobseer.append(blob, b"hello, blobseer! " * 1000)
    v2 = blobseer.write(blob, 0, b"HELLO")
    print(f"blob {blob}: versions now {blobseer.versions(blob)}")
    print(f"  latest read : {blobseer.read(blob, 0, 17)!r}")
    print(f"  version {v1} read: {blobseer.read(blob, 0, 17, version=v1)!r}")
    print(f"  size: {blobseer.get_size(blob)} bytes, page size {config.page_size}")

    print("\n=== 2. Data-layout exposure (locality primitive) ===")
    for location in blobseer.page_locations(blob, 0, 4 * config.page_size)[:4]:
        print(
            f"  page {location.page_index:3d} @ offset {location.offset:8d} "
            f"-> providers {location.providers} hosts {location.hosts}"
        )
    print(f"  provider load imbalance: {blobseer.stats()['imbalance']:.3f} (1.0 = perfect)")
    _ = v2


def bsfs_tour() -> None:
    print("\n=== 3. BSFS: the BlobSeer File System ===")
    bsfs = BSFS(
        config=BlobSeerConfig(page_size=64 * KB, num_providers=8),
        default_block_size=1 * MB,
    )
    with bsfs.create("/books/moby-dick.txt") as out:
        for i in range(5000):
            out.write(f"Call me Ishmael. Line {i}.\n".encode())
    status = bsfs.status("/books/moby-dick.txt")
    print(f"  wrote {status.path}: {status.size} bytes, block size {status.block_size}")

    snapshot = bsfs.snapshot("/books/moby-dick.txt")
    with bsfs.append("/books/moby-dick.txt") as out:
        out.write(b"THE END\n")
    print(f"  after append: {bsfs.status('/books/moby-dick.txt').size} bytes")
    with bsfs.open("/books/moby-dick.txt", version=snapshot) as stream:
        stream.seek(stream.size - 30)
        print(f"  snapshot {snapshot} still ends with: {stream.read()!r}")

    offset = bsfs.concurrent_append("/books/moby-dick.txt", b"appended concurrently\n")
    print(f"  concurrent_append landed at offset {offset}")
    print(f"  block locations: {len(bsfs.block_locations('/books/moby-dick.txt'))} blocks")


def hdfs_tour() -> None:
    print("\n=== 4. HDFS baseline: write-once semantics ===")
    hdfs = HDFS(num_datanodes=8, default_block_size=1 * MB, default_replication=3)
    with hdfs.create("/books/moby-dick.txt", client_host="node-2") as out:
        out.write(b"Call me Ishmael.\n" * 50000)
    locations = hdfs.block_locations("/books/moby-dick.txt")
    print(f"  wrote {hdfs.status('/books/moby-dick.txt').size} bytes in {len(locations)} blocks")
    print(f"  first block replicas: {locations[0].hosts} (first one is the writer's node)")
    try:
        hdfs.append("/books/moby-dick.txt")
    except UnsupportedOperationError as exc:
        print(f"  append -> {type(exc).__name__}: {exc}")


def registry_tour() -> None:
    print("\n=== 5. URI registry: one-string backend swaps ===")
    print(f"  registered schemes: {registered_schemes()}")
    # The same line of application code runs against any backend — only the
    # URI string changes (the paper's drop-in substitution, made literal).
    for uri in ("bsfs://quickstart", "hdfs://quickstart", "file://quickstart"):
        fs = get_filesystem(uri)
        fs.write_file("/demo/hello.txt", b"stored via " + uri.encode())
        print(f"  {uri:22s} -> {type(fs).__name__}: {fs.read_file('/demo/hello.txt')!r}")
    # Full URIs address individual files, here for a cross-backend copy.
    copied = copy_uri(
        "bsfs://quickstart/demo/hello.txt", "file://quickstart/demo/from-bsfs.txt"
    )
    fs, path = open_fs("file://quickstart/demo/from-bsfs.txt")
    print(f"  copy_uri moved {copied} bytes across backends: {fs.read_file(path)!r}")


def session_tour() -> None:
    print("\n=== 6. Session facade: connect once, use everything ===")
    # One call resolves the backend and builds (or joins) the deployment's
    # job service.
    session = connect("bsfs://quickstart-session")
    session.write("/in/words.txt", b"to be or not to be that is the question\n" * 200)
    print(f"  wrote {session.fs.size('/in/words.txt')} bytes")

    snapshot = session.snapshot("/in/words.txt")
    with session.append("/in/words.txt") as out:
        out.write(b"appended after the snapshot\n")
    as_of = session.read(f"/in/words.txt@v{snapshot}")
    print(f"  AS-OF read sees {len(as_of)} bytes (now {session.fs.size('/in/words.txt')})")

    job = make_wordcount_job(["/in/words.txt"], output_dir="/out/wc")
    handle = session.submit(job)  # queued FIFO on the shared job service
    result = handle.wait()
    top = result.counters.as_dict().get("wordcount.words", "?")
    print(f"  wordcount job {handle.job_id}: {handle.status()}, {top} words")


def main() -> None:
    blobseer_tour()
    bsfs_tour()
    hdfs_tour()
    registry_tour()
    session_tour()
    print("\nQuickstart finished.")


if __name__ == "__main__":
    main()
