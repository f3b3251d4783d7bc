"""The session facade: connect() → Session wiring storage and jobs."""

from __future__ import annotations

import pytest

from repro.api import Session, connect
from repro.bsfs import BSFS
from repro.core import KB, BlobSeerConfig
from repro.fs import LocalFS, clear_instance_cache
from repro.mapreduce import JobService
from repro.mapreduce.applications import make_wordcount_job
from repro.workloads import write_text_file

TEST_BLOCK_SIZE = 16 * KB


def make_local(tmp_path, tag: str = "x") -> LocalFS:
    return LocalFS(
        root=str(tmp_path / f"localfs-{tag}"), default_block_size=TEST_BLOCK_SIZE
    )


def make_bsfs() -> BSFS:
    return BSFS(
        config=BlobSeerConfig(
            page_size=4 * KB,
            num_providers=4,
            num_metadata_providers=2,
            replication=1,
        ),
        default_block_size=TEST_BLOCK_SIZE,
    )


class TestConnect:
    def test_connect_accepts_filesystem_instance(self, tmp_path):
        fs = make_local(tmp_path)
        session = connect(fs)
        assert isinstance(session, Session)
        assert session.fs is fs

    def test_sessions_share_one_service_per_deployment(self, tmp_path):
        fs = make_local(tmp_path)
        first = connect(fs)
        second = connect(fs)
        assert first is not second
        assert first.service is second.service

    def test_connect_uri_builds_backend_through_registry(self, tmp_path):
        try:
            session = connect(
                "file://session-uri-test",
                root=str(tmp_path / "uri-root"),
            )
            session.write("/hello.txt", b"hi via uri")
            assert session.read("/hello.txt") == b"hi via uri"
        finally:
            clear_instance_cache("file")

    def test_explicit_service_is_not_replaced(self, tmp_path):
        fs = make_local(tmp_path)
        service = JobService.local(fs, num_trackers=1, slots_per_tracker=1)
        session = connect(fs, service=service)
        assert session.service is service
        # The explicit service is not cached onto the deployment.
        other = connect(fs)
        assert other.service is not service

    def test_first_connect_sets_the_cluster_shape(self, tmp_path):
        fs = make_local(tmp_path)
        session = connect(fs, num_trackers=3, slots_per_tracker=1, max_concurrent_jobs=2)
        trackers = session.service.tracker.trackers
        assert len(trackers) == 3
        assert all(t.slots == 1 for t in trackers)
        assert session.service.max_concurrent_jobs == 2
        # Later sessions reuse that service; their shape keywords are unused.
        assert connect(fs, num_trackers=1).service is session.service


class TestStoragePlane:
    def test_write_read_roundtrip_and_helpers(self, tmp_path):
        session = connect(make_local(tmp_path))
        session.mkdirs("/data")
        session.write("/data/a.txt", b"alpha")
        assert session.exists("/data/a.txt")
        assert session.read("/data/a.txt") == b"alpha"
        assert [s.path for s in session.list_dir("/data")] == ["/data/a.txt"]
        session.delete("/data/a.txt")
        assert not session.exists("/data/a.txt")

    def test_as_of_read_over_snapshot(self, tmp_path):
        session = connect(make_bsfs())
        session.write("/log", b"first")
        v1 = session.snapshot("/log")
        with session.append("/log") as out:
            out.write(b"-second")
        assert session.read("/log") == b"first-second"
        assert session.read("/log", version=v1) == b"first"
        # The @vN path suffix addresses the same snapshot.
        assert session.read(f"/log@v{v1}") == b"first"

    def test_pin_holds_a_snapshot_for_the_default_owner(self, tmp_path):
        session = connect(make_bsfs())
        session.write("/log", b"first")
        with session.pin("/log") as pin:
            assert pin.owner == "reader"
            with session.append("/log") as out:
                out.write(b"-second")
            assert session.read("/log", version=pin.version) == b"first"
        assert pin.released

    def test_open_read_streams_a_byte_range(self, tmp_path):
        session = connect(make_local(tmp_path))
        session.write("/r", b"0123456789")
        chunks = session.open_read("/r", offset=2, length=5, chunk_size=2)
        assert b"".join(bytes(c) for c in chunks) == b"23456"


class TestJobPlane:
    def test_submit_returns_a_handle(self, tmp_path):
        fs = make_local(tmp_path)
        session = connect(fs)
        write_text_file(fs, "/in/words.txt", 30, seed=3)
        job = make_wordcount_job(["/in/words.txt"], output_dir="/out/wc")
        handle = session.submit(job)
        result = handle.wait()
        assert result.succeeded
        assert session.exists("/out/wc/part-r-00000")

    def test_run_is_submit_and_wait(self, tmp_path):
        fs = make_local(tmp_path)
        session = connect(fs)
        write_text_file(fs, "/in/words.txt", 30, seed=3)
        result = session.run(make_wordcount_job(["/in/words.txt"], output_dir="/out"))
        assert result.succeeded

    def test_context_manager_form(self, tmp_path):
        with connect(make_local(tmp_path)) as session:
            session.write("/f", b"x")
            assert session.read("/f") == b"x"

    def test_run_reraises_configuration_errors(self, tmp_path):
        session = connect(make_local(tmp_path))
        bad = make_wordcount_job(["bsfs://other/in.txt"], output_dir="/out")
        with pytest.raises(ValueError, match="scheme"):
            session.run(bad)
