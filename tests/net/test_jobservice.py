"""The job-submission RPC surface: JobServiceEndpoint over loopback and TCP."""

from __future__ import annotations

import pytest

from repro.fs import LocalFS
from repro.mapreduce import AdmissionError, JobService, JobServiceEndpoint
from repro.mapreduce.applications import make_wordcount_job
from repro.net import (
    ClusterConfig,
    NodeServer,
    connect_jobservice,
    loopback_jobservice_stub,
)
from repro.workloads import write_text_file


def make_service(tmp_path, *, max_concurrent_jobs=4):
    fs = LocalFS(root=str(tmp_path / "fs"), default_block_size=16 * 1024)
    service = JobService.local(
        fs,
        num_trackers=2,
        slots_per_tracker=1,
        max_concurrent_jobs=max_concurrent_jobs,
    )
    return fs, service


class TestLoopbackStub:
    def test_submit_wait_status_roundtrip(self, tmp_path):
        fs, service = make_service(tmp_path)
        stub = loopback_jobservice_stub(JobServiceEndpoint(service))
        write_text_file(fs, "/in/words.txt", 30, seed=3)
        job = make_wordcount_job(["/in/words.txt"], output_dir="/out")
        job_id = stub.submit_job(job, tenant="alice")
        assert isinstance(job_id, int)
        summary = stub.wait_job(job_id, 30.0)
        assert summary["succeeded"] is True
        assert summary["map_tasks"] >= 1
        assert stub.job_status(job_id) == "SUCCEEDED"
        assert job_id in stub.job_ids()
        assert fs.exists("/out/part-r-00000")

    def test_cancel_queued_job_over_the_wire(self, tmp_path):
        # A zero-concurrency tenant never starts anything: its jobs queue,
        # which makes the remote cancel path deterministic.
        fs, service = make_service(tmp_path)
        service.register_tenant("alice", max_concurrent_jobs=0)
        stub = loopback_jobservice_stub(JobServiceEndpoint(service))
        write_text_file(fs, "/in/words.txt", 5, seed=1)
        job_id = stub.submit_job(make_wordcount_job(["/in/words.txt"]), "alice")
        assert stub.job_status(job_id) == "QUEUED"
        assert stub.cancel_job(job_id) is True
        assert stub.job_status(job_id) == "CANCELLED"
        assert stub.cancel_job(job_id) is False

    def test_admission_error_reraises_at_the_client(self, tmp_path):
        fs, service = make_service(tmp_path)
        service.register_tenant("alice", max_concurrent_jobs=0, max_queued_jobs=1)
        stub = loopback_jobservice_stub(JobServiceEndpoint(service))
        write_text_file(fs, "/in/words.txt", 5, seed=1)
        stub.submit_job(make_wordcount_job(["/in/words.txt"]), "alice")
        with pytest.raises(AdmissionError) as excinfo:
            stub.submit_job(
                make_wordcount_job(["/in/words.txt"], output_dir="/out2"), "alice"
            )
        assert excinfo.value.tenant == "alice"

    def test_service_stats_travel_as_plain_dicts(self, tmp_path):
        fs, service = make_service(tmp_path)
        service.register_tenant("alice", weight=2.0, max_concurrent_jobs=0)
        stub = loopback_jobservice_stub(JobServiceEndpoint(service))
        write_text_file(fs, "/in/words.txt", 5, seed=1)
        stub.submit_job(make_wordcount_job(["/in/words.txt"]), "alice")
        stats = stub.service_stats()
        assert stats["tenants"]["alice"]["queued"] == 1
        assert stats["tenants"]["alice"]["running"] == 0
        assert stats["total_running"] == 0


class TestNodeServerClassification:
    def test_endpoint_is_classified_as_jobservice(self, tmp_path):
        _, service = make_service(tmp_path)
        server = NodeServer(JobServiceEndpoint(service))
        assert server.kind == "jobservice"
        assert server.numeric_id == 0

    def test_block_report_payload_is_the_job_list(self, tmp_path):
        fs, service = make_service(tmp_path)
        service.register_tenant("alice", max_concurrent_jobs=0)
        endpoint = JobServiceEndpoint(service)
        server = NodeServer(endpoint)
        assert server.block_report_payload() == []
        write_text_file(fs, "/in/words.txt", 5, seed=1)
        job_id = endpoint.submit_job(make_wordcount_job(["/in/words.txt"]), "alice")
        assert server.block_report_payload() == [job_id]


class TestTcpJobService:
    def test_submit_and_wait_over_tcp(self, tmp_path):
        fs, service = make_service(tmp_path)
        write_text_file(fs, "/in/words.txt", 30, seed=3)
        server = NodeServer(JobServiceEndpoint(service), host="127.0.0.1", port=0)
        host, port = server.start()
        try:
            stub = connect_jobservice(host, port)
            job_id = stub.submit_job(
                make_wordcount_job(["/in/words.txt"], output_dir="/out"), "alice"
            )
            summary = stub.wait_job(job_id, 30.0)
            assert summary["succeeded"] is True
            assert stub.job_status(job_id) == "SUCCEEDED"
            stub.close()
        finally:
            server.stop()
        assert fs.exists("/out/part-r-00000")

    def test_wait_longer_than_the_rpc_timeout_gets_the_remote_timeout(
        self, tmp_path
    ):
        # A queued job never starts for a zero-concurrency tenant, so the
        # remote wait runs out: the caller must see that TimeoutError,
        # not the transport giving up first on a shorter RPC timeout.
        fs, service = make_service(tmp_path)
        service.register_tenant("alice", max_concurrent_jobs=0)
        write_text_file(fs, "/in/words.txt", 5, seed=1)
        server = NodeServer(JobServiceEndpoint(service), host="127.0.0.1", port=0)
        host, port = server.start()
        try:
            stub = connect_jobservice(
                host, port, config=ClusterConfig(rpc_timeout=0.5), timeout=0.5
            )
            job_id = stub.submit_job(make_wordcount_job(["/in/words.txt"]), "alice")
            with pytest.raises(TimeoutError):
                stub.wait_job(job_id, 1.5)
            assert stub.job_status(job_id) == "QUEUED"
            stub.close()
        finally:
            server.stop()
