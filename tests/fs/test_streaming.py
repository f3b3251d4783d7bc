"""Streaming-path correctness: ``open_read``/``open_write`` vs the legacy APIs.

The I/O engine refactor routes every byte path through streaming APIs with
concurrent page transfers and read-ahead.  These differential tests pin the
contract down: on every backend, streaming must be *byte-identical* to the
whole-object ``read_file``/``write_file`` paths — including unaligned
offsets, ranges crossing page/block boundaries, holes left by sparse
writers, and replica failover happening mid-stream.
"""

from __future__ import annotations

import errno
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlobSeer, BlobSeerConfig
from repro.core.errors import ProviderUnavailableError
from repro.fs.errors import FileSystemError

PAGE = 4 * 1024  # matches tests/conftest.TEST_PAGE_SIZE
BLOCK = 16 * 1024  # matches tests/conftest.TEST_BLOCK_SIZE


def _payload(size: int, seed: int = 5) -> bytes:
    return random.Random(seed).randbytes(size)


def _drain(chunks) -> bytes:
    return b"".join(bytes(chunk) for chunk in chunks)


class TestOpenReadDifferential:
    """``open_read`` must return exactly what ``read_file``/``pread`` return."""

    SIZE = 3 * BLOCK + 777  # several blocks plus an uneven tail

    def _prepare(self, fs) -> bytes:
        data = _payload(self.SIZE)
        fs.write_file("/stream/data.bin", data)
        return data

    def test_whole_file_matches_read_file(self, any_fs):
        data = self._prepare(any_fs)
        assert _drain(any_fs.open_read("/stream/data.bin")) == data
        assert any_fs.read_file("/stream/data.bin") == data

    @pytest.mark.parametrize(
        ("offset", "length"),
        [
            (0, 10),
            (1, 4095),  # unaligned head, sub-page
            (PAGE - 1, 2),  # straddles one page boundary
            (PAGE + 123, 2 * PAGE),  # unaligned interior range
            (BLOCK - 3, BLOCK + 6),  # straddles a block boundary
            (0, None),  # to EOF
            (4097, None),  # unaligned offset to EOF
            (3 * BLOCK + 770, None),  # inside the uneven tail
        ],
    )
    def test_ranges_match_positional_reads(self, any_fs, offset, length):
        data = self._prepare(any_fs)
        expected_end = self.SIZE if length is None else min(offset + length, self.SIZE)
        expected = data[offset:expected_end]
        got = _drain(
            any_fs.open_read("/stream/data.bin", offset=offset, length=length)
        )
        assert got == expected
        with any_fs.open("/stream/data.bin") as stream:
            assert stream.pread(offset, len(expected)) == expected

    def test_small_chunk_size_still_byte_identical(self, any_fs):
        data = self._prepare(any_fs)
        got = _drain(any_fs.open_read("/stream/data.bin", chunk_size=100))
        assert got == data

    def test_offset_at_eof_yields_nothing(self, any_fs):
        self._prepare(any_fs)
        assert _drain(any_fs.open_read("/stream/data.bin", offset=self.SIZE)) == b""

    def test_zero_length_yields_nothing(self, any_fs):
        self._prepare(any_fs)
        assert (
            _drain(any_fs.open_read("/stream/data.bin", offset=5, length=0)) == b""
        )

    def test_bad_arguments_rejected_identically(self, any_fs):
        self._prepare(any_fs)
        for kwargs in (
            {"offset": -1},
            {"length": -1},
            {"chunk_size": 0},
        ):
            with pytest.raises(ValueError):
                any_fs.open_read("/stream/data.bin", **kwargs)


class TestOpenWriteDifferential:
    """``open_write`` must produce byte-identical files to ``write_file``."""

    def test_many_odd_sized_chunks_roundtrip(self, any_fs):
        data = _payload(2 * BLOCK + 999, seed=11)
        any_fs.write_file("/w/legacy.bin", data)
        with any_fs.open_write("/w/streamed.bin") as sink:
            position = 0
            step = 313  # odd size: chunks never align with pages or blocks
            while position < len(data):
                sink.write(data[position : position + step])
                position += step
        assert any_fs.read_file("/w/streamed.bin") == any_fs.read_file(
            "/w/legacy.bin"
        )
        assert any_fs.size("/w/streamed.bin") == len(data)

    def test_open_write_respects_overwrite_flag(self, any_fs):
        any_fs.write_file("/w/x.bin", b"old")
        with pytest.raises(Exception):
            with any_fs.open_write("/w/x.bin"):
                pass
        with any_fs.open_write("/w/x.bin", overwrite=True) as sink:
            sink.write(b"new")
        assert any_fs.read_file("/w/x.bin") == b"new"

    def test_copy_between_backends_streams_identically(self, bsfs, hdfs, local_fs):
        from repro.fs.interface import copy_path

        data = _payload(BLOCK + 57, seed=21)
        local_fs.write_file("/src.bin", data)
        copy_path(local_fs, "/src.bin", bsfs, "/dst.bin", chunk_size=777)
        copy_path(bsfs, "/dst.bin", hdfs, "/dst2.bin", chunk_size=501)
        assert bsfs.read_file("/dst.bin") == data
        assert hdfs.read_file("/dst2.bin") == data


def fail_second_block_write(fs, monkeypatch) -> list:
    """Make the stream's second block write raise before it reserves storage."""
    owner, name = (fs.blobseer, "append") if fs.scheme == "bsfs" else (fs, "_write_block")
    original = getattr(owner, name)
    calls = []

    def write_block(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ProviderUnavailableError("injected block write failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, write_block)
    return []


def fail_storage_after_second_reservation(fs, monkeypatch) -> list:
    """Take every provider or datanode down once the second block reserved
    its range: a version ticket on BSFS, a block id on HDFS."""
    if fs.scheme == "bsfs":
        owner, name = fs.blobseer.version_manager, "assign_ticket"
        nodes = fs.blobseer.provider_manager.providers
    else:
        owner, name, nodes = fs.namenode, "add_block", fs.datanodes
    original = getattr(owner, name)
    calls = []

    def reserve(*args, **kwargs):
        reservation = original(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            for node in nodes:
                node.fail()
        return reservation

    monkeypatch.setattr(owner, name, reserve)
    return nodes


class TestFailedBlockWrite:
    """A block write that fails must not leave a file with a gap in it."""

    @staticmethod
    def write_torn(fs, monkeypatch, inject, payload: bytes) -> None:
        """Stream ``payload`` in 4 KiB blocks while ``inject`` fails block 1,
        then undo the injection."""
        nodes = inject(fs, monkeypatch)
        with pytest.raises(ProviderUnavailableError):
            with fs.create("/f", block_size=PAGE) as stream:
                stream.write(payload)
        monkeypatch.undo()
        for node in nodes:
            node.recover()

    @pytest.mark.parametrize(
        "inject", [fail_second_block_write, fail_storage_after_second_reservation]
    )
    @pytest.mark.parametrize("backend", ["bsfs", "hdfs"])
    def test_close_seals_only_the_blocks_before_the_failure(
        self, backend, inject, request, monkeypatch
    ):
        fs = request.getfixturevalue(backend)
        payload = _payload(10 * 1024, seed=41)
        self.write_torn(fs, monkeypatch, inject, payload)
        assert fs.size("/f") == PAGE
        assert fs.read_file("/f") == payload[:PAGE]
        # The lease is released: another writer may replace the file.
        with fs.create("/f", overwrite=True) as stream:
            stream.write(b"again")
        assert fs.read_file("/f") == b"again"

    @pytest.mark.parametrize("backend", ["bsfs", "hdfs"])
    def test_write_and_flush_after_a_failure_raise(self, backend, request, monkeypatch):
        fs = request.getfixturevalue(backend)
        fail_second_block_write(fs, monkeypatch)
        stream = fs.create("/f", block_size=PAGE)
        with pytest.raises(ProviderUnavailableError):
            stream.write(bytes(3 * PAGE))
        with pytest.raises(FileSystemError):
            stream.write(b"x")
        with pytest.raises(FileSystemError):
            stream.flush()
        stream.close()
        assert stream.closed
        assert fs.size("/f") == PAGE

    def test_hdfs_keeps_no_block_without_replicas(self, hdfs, monkeypatch):
        self.write_torn(
            hdfs, monkeypatch, fail_storage_after_second_reservation, bytes(10 * 1024)
        )
        blocks = hdfs.namenode.file_blocks("/f")
        assert [block.length for block in blocks] == [PAGE]
        assert all(block.locations for block in blocks)

    def test_hdfs_placement_failure_adds_no_block(self, hdfs):
        stream = hdfs.create("/f", block_size=PAGE)
        stream.write(bytes(PAGE))
        for node in hdfs.datanodes:
            node.fail()
        with pytest.raises(ProviderUnavailableError):
            stream.write(bytes(PAGE))
        stream.close()
        assert [block.length for block in hdfs.namenode.file_blocks("/f")] == [PAGE]

    def test_bsfs_reopened_append_skips_the_aborted_range(self, bsfs, monkeypatch):
        payload = _payload(10 * 1024, seed=45)
        self.write_torn(bsfs, monkeypatch, fail_storage_after_second_reservation, payload)
        # The aborted block keeps its range in the blob, so a later append
        # lands past it and the skipped range reads as zeros.
        with bsfs.append("/f") as stream:
            stream.write(b"tail")
        assert bsfs.read_file("/f") == payload[:PAGE] + bytes(PAGE) + b"tail"


class TestLocalFailedFlush:
    """A LocalFS stream whose final flush fails still closes and unleases."""

    class FullDisk:
        """File wrapper whose flush fails the way a full disk does."""

        def __init__(self, file) -> None:
            self.file = file

        def write(self, data: bytes) -> int:
            return self.file.write(data)

        def flush(self) -> None:
            raise OSError(errno.ENOSPC, "No space left on device")

        def close(self) -> None:
            self.file.close()

    def test_close_releases_the_lease_and_the_descriptor(self, local_fs):
        stream = local_fs.create("/f")
        real = stream._file
        stream._file = self.FullDisk(real)
        stream.write(b"data")
        with pytest.raises(OSError):
            stream.close()
        assert stream.closed
        assert real.closed
        local_fs.delete("/f")
        assert not local_fs.exists("/f")


class TestParallelTransfers:
    """The data plane must actually move pages concurrently."""

    def test_write_pushes_pages_to_providers_in_parallel(self):
        import threading

        from repro.core.persistence import MemoryStore
        from repro.core.provider import DataProvider

        barrier = threading.Barrier(4, timeout=5)

        class GatedStore(MemoryStore):
            def put(self, key, data):
                barrier.wait()
                super().put(key, data)

        providers = [DataProvider(i, store=GatedStore()) for i in range(4)]
        client = BlobSeer(
            BlobSeerConfig(
                page_size=PAGE, num_providers=4, transfer_workers=4
            ),
            providers=providers,
        )
        blob = client.create_blob()
        # Four pages across four providers: the append only completes if
        # all four page pushes overlap in time (else the barrier trips).
        client.append(blob, _payload(4 * PAGE, seed=2))
        assert client.read_all(blob) == _payload(4 * PAGE, seed=2)

    def test_replicas_of_one_page_written_in_parallel(self):
        import threading

        from repro.core.persistence import MemoryStore
        from repro.core.provider import DataProvider

        barrier = threading.Barrier(3, timeout=5)

        class GatedStore(MemoryStore):
            def put(self, key, data):
                barrier.wait()
                super().put(key, data)

        providers = [DataProvider(i, store=GatedStore()) for i in range(3)]
        client = BlobSeer(
            BlobSeerConfig(
                page_size=PAGE,
                num_providers=3,
                replication=3,
                transfer_workers=4,
            ),
            providers=providers,
        )
        blob = client.create_blob()
        client.append(blob, b"r" * PAGE)  # one page, three replicas
        for provider in providers:
            assert provider.stats().pages_stored == 1

    def test_sequential_mode_still_works(self):
        # transfer_workers=1 is the ablation baseline: everything inline.
        client = BlobSeer(
            BlobSeerConfig(page_size=PAGE, num_providers=4, transfer_workers=1)
        )
        blob = client.create_blob()
        data = _payload(6 * PAGE + 3, seed=7)
        client.append(blob, data)
        assert client.read_all(blob) == data
        assert _drain(client.open_read(blob)) == data


class TestClientStreaming:
    """BlobSeer-level streaming semantics: holes, versions, failover."""

    @pytest.fixture
    def client(self) -> BlobSeer:
        return BlobSeer(
            BlobSeerConfig(
                page_size=PAGE,
                num_providers=6,
                num_metadata_providers=3,
                replication=1,
            )
        )

    def test_holes_read_as_zeros_in_streams(self, client):
        blob = client.create_blob()
        client.append(blob, b"a" * PAGE)
        # Sparse write: pages 1-2 are never written — a hole, exactly what
        # an aborted writer leaves behind.
        client.write(blob, 3 * PAGE, b"z" * PAGE)
        expected = b"a" * PAGE + b"\x00" * (2 * PAGE) + b"z" * PAGE
        assert _drain(client.open_read(blob)) == expected
        assert client.read(blob, 0, 4 * PAGE) == expected

    def test_stream_pins_the_version_it_opened(self, client):
        blob = client.create_blob()
        v1 = client.append(blob, b"1" * (2 * PAGE))
        client.append(blob, b"2" * PAGE)
        assert _drain(client.open_read(blob, version=v1)) == b"1" * (2 * PAGE)
        assert _drain(client.open_read(blob)) == b"1" * (2 * PAGE) + b"2" * PAGE

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.integers(1, 3 * PAGE)),
                # A page-aligned write 0-2 pages past the end: a hole.
                st.tuples(st.just("write"), st.integers(0, 2), st.integers(1, 2 * PAGE)),
            ),
            min_size=1,
            max_size=5,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_stream_equals_one_read(self, ops, data):
        with BlobSeer(
            BlobSeerConfig(page_size=PAGE, num_providers=4)
        ) as client:
            blob = client.create_blob()
            for op in ops:
                if op[0] == "append":
                    client.append(blob, _payload(op[1], seed=op[1]))
                else:
                    end_page = -(-client.get_size(blob) // PAGE)
                    client.write(blob, (end_page + op[1]) * PAGE, _payload(op[2]))
            version = data.draw(st.sampled_from(client.versions(blob)), label="version")
            blob_size = client.get_size(blob, version)
            offset = data.draw(st.integers(0, blob_size), label="offset")
            size = data.draw(st.integers(0, blob_size - offset), label="size")
            chunk_size = data.draw(
                st.one_of(
                    st.integers(1, 5 * PAGE), st.sampled_from([PAGE, 2 * PAGE, 3 * PAGE])
                ),
                label="chunk_size",
            )
            chunks = [
                bytes(chunk)
                for chunk in client.open_read(
                    blob, offset, size, version=version, chunk_size=chunk_size
                )
            ]
            assert b"".join(chunks) == client.read(blob, offset, size, version=version)
            window = max(chunk_size // PAGE, 1) * PAGE
            assert all(0 < len(chunk) <= window for chunk in chunks)
            position = offset
            for chunk in chunks[:-1]:
                position += len(chunk)
                assert position % window == 0

    def test_concurrent_streams_on_a_small_pool_all_finish(self):
        # Each window's fetch runs on the pool and fans out through a
        # nested engine.map: with two workers and six streams, every
        # worker can be inside a window fetch at once, and the nested map
        # must still drain on its calling thread.
        client = BlobSeer(
            BlobSeerConfig(page_size=PAGE, num_providers=6, transfer_workers=2)
        )
        blob = client.create_blob()
        data = _payload(40 * PAGE + 123, seed=43)
        client.append(blob, data)
        results: dict[int, bytes] = {}

        def stream(index: int) -> None:
            results[index] = _drain(client.open_read(blob, chunk_size=4 * PAGE))

        threads = [threading.Thread(target=stream, args=(i,), daemon=True) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert results == dict.fromkeys(range(6), data)
        client.close()

    def test_stream_looks_up_only_the_windows_it_reaches(self, client, monkeypatch):
        WINDOW = 8  # pages per chunk
        blob = client.create_blob()
        data = _payload(5 * WINDOW * PAGE, seed=11)
        client.append(blob, data)
        ranges: list[tuple[int, int]] = []
        lookup = client.metadata_manager.lookup

        def recorded(root, first, last):
            ranges.append((first, last))
            return lookup(root, first, last)

        monkeypatch.setattr(client.metadata_manager, "lookup", recorded)
        # Opened to the end of the blob (as a record reader opens a split),
        # mid-window, but abandoned after the first chunk.
        offset = (WINDOW + 5) * PAGE + 7
        stream = client.open_read(blob, offset, chunk_size=WINDOW * PAGE)
        assert ranges == []  # nothing is looked up before the first chunk
        head = bytes(next(stream))
        stream.close()
        assert head == data[offset : 2 * WINDOW * PAGE]
        # The window it fetched, plus at most the one read ahead of it.
        assert ranges[0] == (WINDOW + 5, 2 * WINDOW)
        assert set(ranges) <= {(WINDOW + 5, 2 * WINDOW), (2 * WINDOW, 3 * WINDOW)}
        # Read to the end, the windows are aligned and cover the rest once.
        del ranges[:]
        assert _drain(client.open_read(blob, offset, chunk_size=WINDOW * PAGE)) == data[offset:]
        assert sorted(ranges) == [
            (WINDOW + 5, 2 * WINDOW),
            (2 * WINDOW, 3 * WINDOW),
            (3 * WINDOW, 4 * WINDOW),
            (4 * WINDOW, 5 * WINDOW),
        ]

    def test_interleaved_streams_on_one_thread(self):
        # Regression: one thread alternating between two open_read
        # streams (the k-way merge shape) must keep both progressing.
        client = BlobSeer(
            BlobSeerConfig(page_size=PAGE, num_providers=4)
        )
        blob = client.create_blob()
        data = _payload(6 * PAGE, seed=29)
        client.append(blob, data)
        s1 = client.open_read(blob, chunk_size=PAGE)
        s2 = client.open_read(blob, chunk_size=PAGE)
        got1, got2 = bytearray(), bytearray()
        for _ in range(6):
            got1 += bytes(next(s1))
            got2 += bytes(next(s2))
        assert bytes(got1) == data
        assert bytes(got2) == data

    def test_mid_stream_replica_failover(self):
        client = BlobSeer(
            BlobSeerConfig(
                page_size=PAGE,
                num_providers=4,
                num_metadata_providers=2,
                replication=2,
            )
        )
        blob = client.create_blob()
        data = _payload(8 * PAGE, seed=9)
        client.append(blob, data)
        stream = client.open_read(blob, chunk_size=PAGE)
        got = bytearray(bytes(next(stream)))
        # Kill one provider mid-stream: every page has a second replica, so
        # the remaining chunks must keep arriving, byte-identical.
        client.provider_manager.providers[0].fail()
        for chunk in stream:
            got += bytes(chunk)
        assert bytes(got) == data

    def test_mid_stream_failover_through_bsfs(self, bsfs):
        data = _payload(4 * BLOCK, seed=13)
        # Re-create the file with 2-way replication so failover is possible.
        bsfs.write_file("/f/replicated.bin", data, replication=2)
        stream = bsfs.open_read("/f/replicated.bin")
        first = bytes(next(stream))
        bsfs.blobseer.provider_manager.providers[1].fail()
        rest = _drain(stream)
        assert first + rest == data

    def test_mid_stream_failover_through_hdfs(self, hdfs):
        data = _payload(4 * BLOCK, seed=19)
        hdfs.write_file("/f/replicated.bin", data, replication=2)
        stream = hdfs.open_read("/f/replicated.bin", chunk_size=BLOCK // 4)
        first = bytes(next(stream))
        hdfs.datanodes[0].fail()
        rest = _drain(stream)
        assert first + rest == data
