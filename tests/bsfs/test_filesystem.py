"""BSFS-specific behaviour: blob mapping, append, versioning, locality."""

from __future__ import annotations

import threading

import pytest

from repro.bsfs import BSFS
from repro.core import KB, BlobSeerConfig
from repro.fs.errors import InvalidRangeError, LeaseConflictError, NoSuchPathError

BLOCK = 16 * KB


class TestFileToBlobMapping:
    def test_create_binds_a_fresh_blob(self, bsfs: BSFS):
        bsfs.write_file("/a.bin", b"a")
        bsfs.write_file("/b.bin", b"b")
        record_a = bsfs.namespace.record("/a.bin")
        record_b = bsfs.namespace.record("/b.bin")
        assert record_a.blob_id != record_b.blob_id
        assert bsfs.namespace.blob_of("/a.bin") == record_a.blob_id

    def test_delete_releases_blob_pages(self, bsfs: BSFS):
        bsfs.write_file("/big.bin", b"x" * (4 * BLOCK))
        stored_before = bsfs.blobseer.stats()["pages_stored"]
        assert stored_before > 0
        bsfs.delete("/big.bin")
        assert bsfs.blobseer.stats()["pages_stored"] == 0

    def test_overwrite_releases_old_blob(self, bsfs: BSFS):
        bsfs.write_file("/f.bin", b"old" * 10000)
        old_blob = bsfs.namespace.blob_of("/f.bin")
        bsfs.write_file("/f.bin", b"new", overwrite=True)
        assert bsfs.namespace.blob_of("/f.bin") != old_blob
        assert bsfs.read_file("/f.bin") == b"new"

    def test_all_records(self, bsfs: BSFS):
        bsfs.write_file("/x/1", b"1")
        bsfs.write_file("/y/2", b"22")
        records = {r.path: r.size for r in bsfs.namespace.all_records()}
        assert records == {"/x/1": 1, "/y/2": 2}


class TestWritePathAndCache:
    def test_small_writes_are_aggregated_into_block_appends(self, bsfs: BSFS):
        with bsfs.create("/agg.bin", block_size=BLOCK) as out:
            for _ in range(BLOCK // 64 * 2):  # exactly two blocks of 64-byte writes
                out.write(b"r" * 64)
        record = bsfs.namespace.record("/agg.bin")
        # Two blocks -> two blob versions (one append per block).
        assert bsfs.blobseer.latest_version(record.blob_id) == 2
        assert record.size == 2 * BLOCK

    def test_trailing_partial_block_flushed_on_close(self, bsfs: BSFS):
        with bsfs.create("/tail.bin", block_size=BLOCK) as out:
            out.write(b"t" * (BLOCK + 100))
        assert bsfs.size("/tail.bin") == BLOCK + 100
        assert bsfs.read_file("/tail.bin") == b"t" * (BLOCK + 100)

    def test_append_continues_existing_file(self, bsfs: BSFS):
        bsfs.write_file("/log.txt", b"first|")
        with bsfs.append("/log.txt") as out:
            out.write(b"second|")
        with bsfs.append("/log.txt") as out:
            out.write(b"third")
        assert bsfs.read_file("/log.txt") == b"first|second|third"

    def test_lease_prevents_concurrent_writers(self, bsfs: BSFS):
        stream = bsfs.create("/locked.bin")
        stream.write(b"x")
        with pytest.raises(LeaseConflictError):
            bsfs.append("/locked.bin")
        with pytest.raises(LeaseConflictError):
            bsfs.delete("/locked.bin")
        stream.close()
        with bsfs.append("/locked.bin") as out:
            out.write(b"y")
        assert bsfs.read_file("/locked.bin") == b"xy"

    def test_read_cache_statistics_exposed(self, bsfs: BSFS):
        bsfs.write_file("/cached.bin", b"c" * (2 * BLOCK))
        with bsfs.open("/cached.bin") as stream:
            for offset in range(0, BLOCK, 1024):
                stream.pread(offset, 512)
            assert stream.cache.stats.misses == 1
            assert stream.cache.stats.hits > 0


class TestConcurrentAppendExtension:
    def test_concurrent_append_returns_disjoint_offsets(self, bsfs: BSFS):
        bsfs.write_file("/shared.log", b"")
        offsets = [
            bsfs.concurrent_append("/shared.log", f"record-{i};".encode())
            for i in range(5)
        ]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == 5
        content = bsfs.read_file("/shared.log")
        for i in range(5):
            assert f"record-{i};".encode() in content

    def test_concurrent_append_size_never_moves_backwards(self, bsfs: BSFS):
        # Regression: the old check-then-act size update let two appenders
        # interleave read-current/compare/update and shrink the namespace
        # size.  With the monotonic update, the final size always equals the
        # total number of appended bytes, whatever the thread interleaving.
        bsfs.write_file("/race.log", b"")
        num_threads, appends_per_thread, chunk = 8, 25, 64
        barrier = threading.Barrier(num_threads)
        errors: list[BaseException] = []

        def appender() -> None:
            try:
                barrier.wait()
                for _ in range(appends_per_thread):
                    bsfs.concurrent_append("/race.log", b"x" * chunk)
            except BaseException as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=appender) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        expected = num_threads * appends_per_thread * chunk
        assert bsfs.size("/race.log") == expected
        assert len(bsfs.read_file("/race.log")) == expected

    def test_leased_append_close_does_not_shrink_past_concurrent_appends(
        self, bsfs: BSFS
    ):
        # Regression: a leased append's close used to publish
        # initial_size + bytes_written unconditionally, moving the
        # namespace size backwards past concurrent appends that landed
        # while the stream was open.
        bsfs.write_file("/mixed.log", b"a" * 100)
        stream = bsfs.append("/mixed.log")
        bsfs.concurrent_append("/mixed.log", b"b" * 50)
        stream.write(b"c" * 10)
        stream.close()
        assert bsfs.size("/mixed.log") == 160

    def test_monotonic_update_ignores_stale_observations(self, bsfs: BSFS):
        bsfs.write_file("/mono.log", b"abcdef")
        assert bsfs.namespace.update_size_monotonic("/mono.log", 2) == 6
        assert bsfs.size("/mono.log") == 6
        assert bsfs.namespace.update_size_monotonic("/mono.log", 10) == 10
        assert bsfs.size("/mono.log") == 10


class TestVersioning:
    def test_snapshot_isolated_from_later_appends(self, bsfs: BSFS):
        bsfs.write_file("/versioned.txt", b"version-one")
        snapshot = bsfs.snapshot("/versioned.txt")
        bsfs.concurrent_append("/versioned.txt", b"+more")
        with bsfs.open("/versioned.txt", version=snapshot) as stream:
            assert stream.read() == b"version-one"
        assert bsfs.read_file("/versioned.txt") == b"version-one+more"

    def test_file_versions_listing(self, bsfs: BSFS):
        with bsfs.create("/multi.bin", block_size=BLOCK) as out:
            out.write(b"m" * (3 * BLOCK))
        versions = bsfs.file_versions("/multi.bin")
        assert versions[0] == 0
        assert len(versions) == 4  # empty + 3 block appends


class TestLocality:
    def test_block_locations_rank_hosts_by_bytes(self, bsfs: BSFS):
        bsfs.write_file("/loc.bin", b"L" * (3 * BLOCK))
        locations = bsfs.block_locations("/loc.bin")
        assert len(locations) == 3
        provider_hosts = {p.host for p in bsfs.blobseer.provider_manager.providers}
        for location in locations:
            assert 1 <= len(location.hosts) <= 3
            assert set(location.hosts) <= provider_hosts

    def test_block_locations_of_range(self, bsfs: BSFS):
        bsfs.write_file("/loc2.bin", b"L" * (4 * BLOCK))
        locations = bsfs.block_locations("/loc2.bin", offset=BLOCK, length=BLOCK)
        assert len(locations) == 1
        assert locations[0].offset == BLOCK

    def test_missing_file_raises(self, bsfs: BSFS):
        with pytest.raises(NoSuchPathError):
            bsfs.block_locations("/ghost")

    def test_block_locations_past_eof_raises_invalid_range(self, bsfs: BSFS):
        # Regression: offset > size with length=None used to compute a
        # negative length and surface a misleading ValueError from deep
        # inside the locality code.
        bsfs.write_file("/eof.bin", b"E" * 100)
        with pytest.raises(InvalidRangeError) as excinfo:
            bsfs.block_locations("/eof.bin", offset=101)
        assert "/eof.bin" in str(excinfo.value)
        assert "101" in str(excinfo.value)
        with pytest.raises(InvalidRangeError):
            bsfs.block_locations("/eof.bin", offset=-1)
        with pytest.raises(InvalidRangeError, match="negative length"):
            bsfs.block_locations("/eof.bin", offset=0, length=-5)

    def test_block_locations_at_eof_and_overlong_length_clamp(self, bsfs: BSFS):
        bsfs.write_file("/eof2.bin", b"E" * (2 * BLOCK))
        assert bsfs.block_locations("/eof2.bin", offset=2 * BLOCK) == []
        locations = bsfs.block_locations("/eof2.bin", offset=BLOCK, length=10 * BLOCK)
        assert locations
        last = locations[-1]
        assert last.offset + last.length <= 2 * BLOCK


class TestStats:
    def test_stats_include_files_and_scheme(self, bsfs: BSFS):
        bsfs.write_file("/s1", b"1")
        stats = bsfs.stats()
        assert stats["scheme"] == "bsfs"
        assert stats["files"] == 1


class TestSequentialReadAhead:
    def test_miss_prefetches_next_block_in_background(self, bsfs: BSFS):
        import time

        bsfs.write_file("/ra.bin", b"r" * (3 * BLOCK))
        stream = bsfs.open("/ra.bin")
        stream.read(10)  # miss on block 0 schedules block 1 on the engine
        deadline = time.time() + 5
        while time.time() < deadline:
            if 1 in stream.cache.cached_blocks():
                break
            time.sleep(0.005)
        assert 1 in stream.cache.cached_blocks()
        hits_before = stream.cache.stats.hits
        assert stream.pread(BLOCK, 10) == b"r" * 10  # served from the cache
        assert stream.cache.stats.hits == hits_before + 1

    def test_read_ahead_does_not_cascade_past_one_block(self, bsfs: BSFS):
        import time

        bsfs.write_file("/ra2.bin", b"c" * (6 * BLOCK))
        stream = bsfs.open("/ra2.bin")
        stream.read(10)
        time.sleep(0.1)  # give a (wrong) cascade time to run away
        cached = set(stream.cache.cached_blocks())
        assert 0 in cached
        assert cached <= {0, 1}

    def test_hits_keep_the_prefetch_pipeline_primed(self, bsfs: BSFS):
        # Review finding: prefetch scheduled only on misses stalls on
        # every other block.  A *hit* on block k must keep block k+1's
        # fetch in flight too.
        import time

        bsfs.write_file("/ra4.bin", b"s" * (4 * BLOCK))
        stream = bsfs.open("/ra4.bin")
        stream.read(10)  # miss on 0 → prefetch 1

        def wait_cached(index):
            deadline = time.time() + 5
            while time.time() < deadline:
                if index in stream.cache.cached_blocks():
                    return True
                time.sleep(0.005)
            return False

        assert wait_cached(1)
        assert stream.pread(BLOCK, 10) == b"s" * 10  # hit on 1 → prefetch 2
        assert wait_cached(2)
        assert stream.cache.stats.read_ahead_blocks >= 2

    def test_read_ahead_can_be_disabled(self, bsfs: BSFS):
        import time

        bsfs.write_file("/ra5.bin", b"n" * (3 * BLOCK))
        stream = bsfs.open("/ra5.bin", read_ahead=False)
        stream.read(10)
        time.sleep(0.05)
        assert stream.cache.cached_blocks() == [0]
        assert stream.cache.stats.read_ahead_blocks == 0

    def test_prefetch_of_a_cached_block_fetches_nothing(self, bsfs: BSFS):
        bsfs.write_file("/ra3.bin", b"p" * (2 * BLOCK))
        stream = bsfs.open("/ra3.bin", read_ahead=False)
        data = stream.read(BLOCK)  # caches block 0
        assert not stream.cache.prefetch(0)  # already present
        assert stream.cache.prefetch(1)
        assert stream.cache.stats.read_ahead_blocks == 1
        assert stream.pread(0, BLOCK) == data


class TestOpenReadStream:
    def test_chunks_are_windows_of_the_requested_chunk_size(self, bsfs: BSFS):
        # open_read hands its chunk_size to the blob stream: every chunk
        # but the last ends on a chunk_size multiple of the file offset.
        page = bsfs.blobseer.config.page_size
        chunk_size = 2 * page
        data = bytes(range(256)) * (3 * BLOCK // 256) + b"t" * 777
        bsfs.write_file("/win.bin", data)
        offset = page + 5
        chunks = [
            bytes(chunk)
            for chunk in bsfs.open_read("/win.bin", offset=offset, chunk_size=chunk_size)
        ]
        assert b"".join(chunks) == data[offset:]
        ends = [offset]
        for chunk in chunks:
            ends.append(ends[-1] + len(chunk))
        assert ends[1] == chunk_size
        assert all(end % chunk_size == 0 for end in ends[1:-1])
        assert all(0 < len(chunk) <= chunk_size for chunk in chunks)


class TestSingleFlightBlockFetch:
    """Each block of a scan is read from the blob once, however the demand
    reads, the read-ahead and a second reader interleave."""

    BLOCKS = 8

    @staticmethod
    def count_blob_reads(bsfs: BSFS, monkeypatch) -> list[int]:
        import time

        offsets: list[int] = []
        read = bsfs.blobseer.read

        def counted(blob_id, offset, size, **kwargs):
            offsets.append(offset)
            time.sleep(0.002)  # long enough for demand and read-ahead to overlap
            return read(blob_id, offset, size, **kwargs)

        monkeypatch.setattr(bsfs.blobseer, "read", counted)
        return offsets

    def scan(self, bsfs: BSFS, path: str) -> bytes:
        with bsfs.open(path) as stream:
            return b"".join(stream.read(BLOCK) for _ in range(self.BLOCKS))

    def test_sequential_scan_reads_each_block_once(self, bsfs: BSFS, monkeypatch):
        content = bytes(range(256)) * (self.BLOCKS * BLOCK // 256)
        bsfs.write_file("/scan.bin", content)
        offsets = self.count_blob_reads(bsfs, monkeypatch)
        assert self.scan(bsfs, "/scan.bin") == content
        bsfs.blobseer.transfer.close()  # joins any read-ahead still running
        assert sorted(offsets) == [i * BLOCK for i in range(self.BLOCKS)]

    def test_two_racing_readers_read_each_block_once(self, bsfs: BSFS, monkeypatch):
        import threading

        content = bytes(range(256)) * (self.BLOCKS * BLOCK // 256)
        bsfs.write_file("/race.bin", content)
        offsets = self.count_blob_reads(bsfs, monkeypatch)
        scans: list[bytes] = []
        readers = [
            threading.Thread(target=lambda: scans.append(self.scan(bsfs, "/race.bin")))
            for _ in range(2)
        ]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(30)
        assert not any(reader.is_alive() for reader in readers)
        bsfs.blobseer.transfer.close()
        assert scans == [content, content]
        assert sorted(offsets) == [i * BLOCK for i in range(self.BLOCKS)]


class TestSharedBlobSeerDeployment:
    def test_bsfs_over_external_blobseer(self):
        from repro.core import BlobSeer

        service = BlobSeer(BlobSeerConfig(page_size=4 * KB, num_providers=4))
        fs = BSFS(blobseer=service, default_block_size=BLOCK)
        fs.write_file("/ext.bin", b"external")
        assert fs.read_file("/ext.bin") == b"external"
        assert service.blob_ids() if hasattr(service, "blob_ids") else True
