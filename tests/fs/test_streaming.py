"""Streaming-path correctness: ``open_read``/``open_write`` vs the legacy APIs.

The I/O engine refactor routes every byte path through streaming APIs with
concurrent page transfers and read-ahead.  These differential tests pin the
contract down: on every backend, streaming must be *byte-identical* to the
whole-object ``read_file``/``write_file`` paths — including unaligned
offsets, ranges crossing page/block boundaries, holes left by sparse
writers, and replica failover happening mid-stream.
"""

from __future__ import annotations

import random

import pytest

from repro.core import BlobSeer, BlobSeerConfig

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
                page_size=PAGE, num_providers=4, transfer_workers=4, rng_seed=1
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
                rng_seed=1,
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
                rng_seed=17,
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

    def test_stream_looks_up_only_the_windows_it_reaches(self, client, monkeypatch):
        from repro.core.client import LOOKUP_WINDOW_PAGES as WINDOW

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
        # mid-window, but abandoned after three pages.
        offset = (WINDOW + 5) * PAGE + 7
        stream = client.open_read(blob, offset, read_ahead=2)
        assert ranges == []  # nothing is looked up before the first chunk
        head = b"".join(bytes(next(stream)) for _ in range(3))
        stream.close()
        assert head == data[offset : (WINDOW + 8) * PAGE]
        assert ranges == [(WINDOW + 5, 2 * WINDOW)]
        # Read to the end, the windows are aligned and cover the rest once.
        del ranges[:]
        assert _drain(client.open_read(blob, offset)) == data[offset:]
        assert ranges == [
            (WINDOW + 5, 2 * WINDOW),
            (2 * WINDOW, 3 * WINDOW),
            (3 * WINDOW, 4 * WINDOW),
            (4 * WINDOW, 5 * WINDOW),
        ]

    def test_open_write_matches_append_semantics(self, client):
        data = _payload(5 * PAGE + 321, seed=3)
        reference = client.create_blob()
        client.append(reference, data)
        streamed = client.create_blob()
        with client.open_write(streamed, flush_pages=2) as sink:
            for start in range(0, len(data), 997):
                sink.write(data[start : start + 997])
        assert sink.bytes_written == len(data)
        assert client.read_all(streamed) == client.read_all(reference) == data

    def test_interleaved_streams_with_tight_inflight_budget(self):
        # Regression (review finding): with max_inflight_bytes smaller
        # than two read-ahead windows, one thread alternating between two
        # open_read streams used to deadlock in budget.acquire — the
        # paused stream held bytes only this same thread could release.
        client = BlobSeer(
            BlobSeerConfig(
                page_size=PAGE,
                num_providers=4,
                max_inflight_bytes=PAGE,  # one page: no spare read-ahead
                rng_seed=31,
            )
        )
        blob = client.create_blob()
        data = _payload(6 * PAGE, seed=29)
        client.append(blob, data)
        s1 = client.open_read(blob)
        s2 = client.open_read(blob)
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
                rng_seed=23,
            )
        )
        blob = client.create_blob()
        data = _payload(8 * PAGE, seed=9)
        client.append(blob, data)
        stream = client.open_read(blob, read_ahead=1)
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
