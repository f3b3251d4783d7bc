"""Namespace sizes and membership under create, overwrite, append, delete
and rename, on every backend.

Each mutation is checked through the public view a job sees afterwards:
``status``/``size``/``list_files``/reads.  Racing appends check that the
monotonic size update loses no bytes, and a failing size commit must still
release the writer's lease.
"""

from __future__ import annotations

import threading

import pytest

from repro.bsfs import BSFS
from repro.core.errors import BlobNotFoundError
from repro.fs import LocalFS, NoSuchPathError, PathExistsError, UnsupportedOperationError
from repro.hdfs import HDFS

from ..conftest import TEST_BLOCK_SIZE


def write(fs, path: str, data: bytes, **kwargs) -> None:
    with fs.create(path, **kwargs) as out:
        out.write(data)


@pytest.fixture(params=["bsfs", "file"])
def appendable_fs(request, bsfs: BSFS, local_fs: LocalFS):
    """The backends with append and record-append (HDFS has neither)."""
    return {"bsfs": bsfs, "file": local_fs}[request.param]


class TestCreate:
    def test_every_created_file_is_listed(self, any_fs):
        for i in range(5):
            write(any_fs, f"/many/f{i}", b"x" * (i + 1))
        listed = any_fs.list_files("/many", recursive=True)
        assert [s.path for s in listed] == [f"/many/f{i}" for i in range(5)]
        assert [s.size for s in listed] == [1, 2, 3, 4, 5]

    def test_overwrite_replaces_bytes_and_keeps_one_entry(self, any_fs):
        write(any_fs, "/a", b"old-bytes")
        write(any_fs, "/a", b"new", overwrite=True)
        assert any_fs.read_file("/a") == b"new"
        assert any_fs.size("/a") == 3
        assert [s.path for s in any_fs.list_dir("/")] == ["/a"]

    def test_rejected_create_leaves_the_file_intact(self, any_fs):
        write(any_fs, "/keep", b"original")
        with pytest.raises(PathExistsError):
            any_fs.create("/keep")
        assert any_fs.read_file("/keep") == b"original"
        assert any_fs.size("/keep") == 8


class TestSize:
    def test_streaming_write_counts_every_chunk(self, any_fs):
        chunk = bytes(range(256)) * 10
        chunks = 3 * TEST_BLOCK_SIZE // len(chunk) + 1  # spans several blocks
        with any_fs.create("/big") as out:
            for _ in range(chunks):
                out.write(chunk)
        assert any_fs.size("/big") == chunks * len(chunk)
        assert any_fs.status("/big").size == chunks * len(chunk)
        assert any_fs.read_file("/big") == chunk * chunks

    def test_append_by_a_second_writer_grows_the_file(self, appendable_fs):
        write(appendable_fs, "/shared", b"a" * 10)
        with appendable_fs.append("/shared") as out:
            out.write(b"b" * 20)
        assert appendable_fs.size("/shared") == 30
        assert appendable_fs.read_file("/shared") == b"a" * 10 + b"b" * 20

    def test_hdfs_has_no_append(self, hdfs: HDFS):
        write(hdfs, "/shared", b"a" * 10)
        with pytest.raises(UnsupportedOperationError):
            hdfs.append("/shared")
        assert hdfs.size("/shared") == 10


class TestDelete:
    def test_delete_removes_the_file_and_keeps_its_parent(self, any_fs):
        write(any_fs, "/d/f", b"x" * 64)
        any_fs.delete("/d/f")
        assert not any_fs.exists("/d/f")
        assert any_fs.is_dir("/d")
        assert any_fs.list_files("/d", recursive=True) == []
        with pytest.raises(NoSuchPathError):
            any_fs.status("/d/f")

    def test_recursive_delete_removes_every_file(self, any_fs):
        for i in range(3):
            write(any_fs, f"/tree/sub/f{i}", b"y" * 10)
        any_fs.delete("/tree", recursive=True)
        assert not any_fs.exists("/tree")
        assert any_fs.list_files("/", recursive=True) == []

    def test_recreate_after_delete_starts_fresh(self, any_fs):
        write(any_fs, "/again", b"first-contents")
        any_fs.delete("/again")
        write(any_fs, "/again", b"2nd")
        assert any_fs.size("/again") == 3
        assert any_fs.read_file("/again") == b"2nd"

    def test_delete_with_pinned_version_unlinks_at_once(self, bsfs: BSFS):
        """The namespace entry goes at delete time; only the blob's storage
        waits for the pin to drain."""
        write(bsfs, "/pinned", b"p" * 100)
        blob_id = bsfs.namespace.record("/pinned").blob_id
        pin = bsfs.pin("/pinned")
        bsfs.delete("/pinned")
        assert not bsfs.exists("/pinned")
        assert bsfs.stats()["files"] == 0
        assert bsfs.blobseer.read(blob_id, 0, 100, version=pin.version) == b"p" * 100
        pin.release()
        with pytest.raises(BlobNotFoundError):
            bsfs.blobseer.read(blob_id, 0, 100, version=pin.version)


class TestRename:
    def test_rename_keeps_bytes_and_size(self, any_fs):
        write(any_fs, "/src", b"z" * 32)
        any_fs.rename("/src", "/dst")
        assert not any_fs.exists("/src")
        assert any_fs.size("/dst") == 32
        assert any_fs.read_file("/dst") == b"z" * 32

    def test_renamed_file_deletes_under_its_new_name(self, any_fs):
        write(any_fs, "/src", b"z" * 32)
        any_fs.rename("/src", "/moved/dst")
        any_fs.delete("/moved/dst")
        assert any_fs.list_files("/", recursive=True) == []

    def test_rename_directory_carries_every_file(self, any_fs):
        for i in range(3):
            write(any_fs, f"/old/f{i}", bytes([65 + i]) * (i + 1))
        any_fs.rename("/old", "/new")
        listed = any_fs.list_files("/new", recursive=True)
        assert [(s.path, s.size) for s in listed] == [
            (f"/new/f{i}", i + 1) for i in range(3)
        ]
        assert any_fs.read_file("/new/f2") == b"CCC"


class TestConcurrentAppend:
    def test_two_racing_appends_both_land(self, appendable_fs):
        write(appendable_fs, "/log", b"s" * 50)
        barrier = threading.Barrier(2)
        offsets: list[int] = []
        lock = threading.Lock()

        def append_chunk(fill: bytes) -> None:
            barrier.wait()
            offset = appendable_fs.concurrent_append("/log", fill * 80)
            with lock:
                offsets.append(offset)

        threads = [threading.Thread(target=append_chunk, args=(b,)) for b in (b"c", b"d")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert sorted(offsets) == [50, 130]
        assert appendable_fs.size("/log") == 210
        data = appendable_fs.read_file("/log")
        assert sorted([data[50:130], data[130:210]]) == [b"c" * 80, b"d" * 80]

    def test_many_appenders_each_land_contiguously(self, appendable_fs):
        write(appendable_fs, "/log", b"")
        landed: dict[int, int] = {}
        lock = threading.Lock()

        def append_chunk(i: int) -> None:
            offset = appendable_fs.concurrent_append("/log", bytes([65 + i]) * 90)
            with lock:
                landed[i] = offset

        threads = [threading.Thread(target=append_chunk, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert sorted(landed.values()) == [i * 90 for i in range(8)]
        assert appendable_fs.size("/log") == 720
        data = appendable_fs.read_file("/log")
        for i, offset in landed.items():
            assert data[offset : offset + 90] == bytes([65 + i]) * 90


class TestFailedSizeCommit:
    """A write whose size commit fails still releases its lease, so the
    file stays deletable and writable instead of leased forever."""

    def test_bsfs_failed_commit_releases_the_lease(self, bsfs: BSFS, monkeypatch):
        def failing_commit(*args, **kwargs):
            raise RuntimeError("size commit failed")

        monkeypatch.setattr(bsfs, "_commit_size", failing_commit)
        with pytest.raises(RuntimeError, match="size commit failed"):
            write(bsfs, "/f", b"x" * 10)
        monkeypatch.undo()
        bsfs.delete("/f")
        assert not bsfs.exists("/f")

    def test_local_failed_size_update_releases_the_lease(
        self, local_fs: LocalFS, monkeypatch
    ):
        tree = local_fs._tree

        def failing_update(*args, **kwargs):
            raise RuntimeError("size update failed")

        monkeypatch.setattr(tree, "update_file", failing_update)
        with pytest.raises(RuntimeError, match="size update failed"):
            write(local_fs, "/f", b"x" * 10)
        monkeypatch.undo()
        with local_fs.append("/f") as out:  # the lease is free again
            out.write(b"y")
        local_fs.delete("/f")
        assert not local_fs.exists("/f")
