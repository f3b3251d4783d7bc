"""Shared-semantics tests for the FileSystem interface (run against BSFS and HDFS)."""

from __future__ import annotations

import pytest

from repro.fs.errors import (
    NoSuchPathError,
    PathExistsError,
    StreamClosedError,
)
from repro.fs.interface import BlockLocation, FileStatus, copy_path


class TestFileStatusAndBlockLocation:
    def test_file_status_flags(self):
        status = FileStatus(path="/f", is_dir=False, size=10, block_size=4, replication=1)
        assert status.is_file
        directory = FileStatus(path="/d", is_dir=True, size=0, block_size=0, replication=0)
        assert not directory.is_file

    def test_block_location_validation(self):
        with pytest.raises(ValueError):
            BlockLocation(offset=-1, length=10, hosts=())
        with pytest.raises(ValueError):
            BlockLocation(offset=0, length=-1, hosts=())


class TestCommonFileSystemSemantics:
    """Behaviour that must be identical for BSFS and the HDFS baseline."""

    def test_write_read_round_trip(self, any_fs):
        payload = b"0123456789" * 5000
        any_fs.write_file("/data/file.bin", payload)
        assert any_fs.read_file("/data/file.bin") == payload
        assert any_fs.size("/data/file.bin") == len(payload)

    def test_create_requires_overwrite_flag(self, any_fs):
        any_fs.write_file("/f", b"one")
        with pytest.raises(PathExistsError):
            any_fs.write_file("/f", b"two")
        any_fs.write_file("/f", b"two", overwrite=True)
        assert any_fs.read_file("/f") == b"two"

    def test_exists_is_dir_is_file(self, any_fs):
        any_fs.mkdirs("/dir/sub")
        any_fs.write_file("/dir/file", b"x")
        assert any_fs.exists("/dir/sub")
        assert any_fs.is_dir("/dir/sub")
        assert any_fs.is_file("/dir/file")
        assert not any_fs.exists("/nope")
        assert not any_fs.is_dir("/nope")

    def test_status_of_missing_path_raises(self, any_fs):
        with pytest.raises(NoSuchPathError):
            any_fs.status("/missing")
        with pytest.raises(NoSuchPathError):
            any_fs.open("/missing")

    def test_list_dir_and_list_files(self, any_fs):
        any_fs.write_file("/tree/a.txt", b"a")
        any_fs.write_file("/tree/sub/b.txt", b"b")
        entries = {status.path for status in any_fs.list_dir("/tree")}
        assert entries == {"/tree/a.txt", "/tree/sub"}
        files = [status.path for status in any_fs.list_files("/tree", recursive=True)]
        assert files == ["/tree/a.txt", "/tree/sub/b.txt"]

    def test_list_files_on_a_regular_file(self, any_fs):
        any_fs.write_file("/tree/only.txt", b"payload")
        statuses = any_fs.list_files("/tree/only.txt")
        assert [s.path for s in statuses] == ["/tree/only.txt"]
        assert statuses[0].is_file and statuses[0].size == 7
        with pytest.raises(NoSuchPathError):
            any_fs.list_files("/tree/absent.txt")

    def test_delete_and_rename(self, any_fs):
        any_fs.write_file("/old/name", b"data")
        any_fs.rename("/old/name", "/new/name")
        assert not any_fs.exists("/old/name")
        assert any_fs.read_file("/new/name") == b"data"
        any_fs.delete("/new/name")
        assert not any_fs.exists("/new/name")
        any_fs.write_file("/victim/a", b"1")
        any_fs.write_file("/victim/b", b"2")
        any_fs.delete("/victim", recursive=True)
        assert not any_fs.exists("/victim")

    def test_streams_reject_use_after_close(self, any_fs):
        stream = any_fs.create("/closed.bin")
        stream.write(b"x")
        stream.close()
        with pytest.raises(StreamClosedError):
            stream.write(b"y")
        reader = any_fs.open("/closed.bin")
        reader.close()
        with pytest.raises(StreamClosedError):
            reader.read()

    def test_positional_reads(self, any_fs):
        payload = bytes(range(256)) * 300
        any_fs.write_file("/pread.bin", payload)
        with any_fs.open("/pread.bin") as stream:
            assert stream.pread(1000, 50) == payload[1000:1050]
            assert stream.pread(len(payload) - 10, 100) == payload[-10:]
            assert stream.pread(len(payload) + 5, 10) == b""
            stream.seek(500)
            assert stream.read(10) == payload[500:510]
            assert stream.tell() == 510

    def test_stream_iteration(self, any_fs):
        payload = b"z" * (3 * 1024 * 1024 + 17)
        any_fs.write_file("/iter.bin", payload)
        with any_fs.open("/iter.bin") as stream:
            chunks = list(stream)
        assert b"".join(chunks) == payload

    def test_block_locations_cover_file(self, any_fs):
        payload = b"L" * (70 * 1024)  # > 4 blocks at the 16 KiB test block size
        any_fs.write_file("/located.bin", payload)
        locations = any_fs.block_locations("/located.bin")
        assert sum(loc.length for loc in locations) == len(payload)
        assert all(loc.hosts for loc in locations)
        offsets = [loc.offset for loc in locations]
        assert offsets == sorted(offsets)

    def test_write_file_helper_and_empty_file(self, any_fs):
        with any_fs.create("/empty.bin"):
            pass
        assert any_fs.size("/empty.bin") == 0
        assert any_fs.read_file("/empty.bin") == b""


class TestInputStreamCursor:
    """Sequential reads move one cursor; positional reads leave it alone."""

    PAYLOAD = bytes(range(200))

    @pytest.fixture
    def stream(self, any_fs):
        any_fs.write_file("/cursor.bin", self.PAYLOAD)
        with any_fs.open("/cursor.bin") as stream:
            yield stream

    def test_new_stream_starts_at_zero(self, stream):
        assert stream.tell() == 0
        assert stream.size == len(self.PAYLOAD)
        assert not stream.closed

    def test_sequential_reads_advance_the_cursor(self, stream):
        assert stream.read(50) == self.PAYLOAD[:50]
        assert stream.read(50) == self.PAYLOAD[50:100]
        assert stream.tell() == 100
        assert stream.read() == self.PAYLOAD[100:]
        assert stream.tell() == len(self.PAYLOAD)

    def test_seek_clamps_to_size_and_rejects_negative(self, stream):
        assert stream.seek(40) == 40
        assert stream.read(3) == self.PAYLOAD[40:43]
        assert stream.seek(10 * len(self.PAYLOAD)) == len(self.PAYLOAD)
        with pytest.raises(ValueError):
            stream.seek(-1)
        assert stream.tell() == len(self.PAYLOAD)

    def test_read_at_end_returns_empty(self, stream):
        stream.seek(len(self.PAYLOAD))
        assert stream.read(5) == b""
        assert stream.read() == b""
        assert stream.tell() == len(self.PAYLOAD)

    def test_pread_does_not_move_cursor(self, stream):
        stream.seek(2)
        assert stream.pread(4, 3) == self.PAYLOAD[4:7]
        assert stream.tell() == 2
        assert stream.read(2) == self.PAYLOAD[2:4]
        with pytest.raises(ValueError):
            stream.pread(-1, 1)


class TestCopyPath:
    def test_copy_between_filesystems(self, bsfs, hdfs):
        payload = b"copy-me" * 10000
        bsfs.write_file("/src.bin", payload)
        copied = copy_path(bsfs, "/src.bin", hdfs, "/dst.bin")
        assert copied == len(payload)
        assert hdfs.read_file("/dst.bin") == payload

    def test_copy_within_filesystem(self, any_fs):
        any_fs.write_file("/a.bin", b"abc" * 1000)
        copy_path(any_fs, "/a.bin", any_fs, "/b.bin")
        assert any_fs.read_file("/b.bin") == any_fs.read_file("/a.bin")
