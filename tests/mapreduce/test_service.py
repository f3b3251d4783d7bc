"""Multi-tenant JobService tests: submission API, fair share, admission,
cancellation, cooperative preemption — and the scheduler's typed
no-healthy-tracker failure."""

from __future__ import annotations

import pickle
import threading
from dataclasses import replace

import pytest

from repro.bsfs import BSFS
from repro.core import KB, BlobSeerConfig
from repro.fs import LocalFS, QuotaExceededError
from repro.hdfs import HDFS
from repro.mapreduce import (
    AdmissionError,
    Job,
    JobCancelledError,
    JobConf,
    JobHandle,
    JobService,
    NoHealthyTrackerError,
    SlotLedger,
    TaskTracker,
)
from repro.mapreduce.applications import make_wordcount_job
from repro.mapreduce.scheduler import LocalityAwareScheduler
from repro.mapreduce.service import (
    JOB_CANCELLED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_SUCCEEDED,
)
from repro.workloads import write_text_file

TEST_PAGE_SIZE = 4 * KB
TEST_BLOCK_SIZE = 16 * KB


def make_fs(kind: str, tmp_path, *, tag: str = "x"):
    """A small deterministic file system; same kind+seed → same layout."""
    if kind == "bsfs":
        return BSFS(
            config=BlobSeerConfig(
                page_size=TEST_PAGE_SIZE,
                num_providers=4,
                num_metadata_providers=2,
                replication=1,
                rng_seed=7,
            ),
            default_block_size=TEST_BLOCK_SIZE,
        )
    if kind == "hdfs":
        return HDFS(
            num_datanodes=4,
            racks=2,
            default_block_size=TEST_BLOCK_SIZE,
            default_replication=1,
            seed=7,
        )
    return LocalFS(root=str(tmp_path / f"localfs-{tag}"), default_block_size=TEST_BLOCK_SIZE)


def read_outputs(fs, output_dir: str) -> dict[str, bytes]:
    """Output file basename → bytes, for byte-identical comparison."""
    outputs = {}
    for status in fs.list_dir(output_dir):
        if status.is_file:
            with fs.open(status.path) as stream:
                outputs[status.path.rsplit("/", 1)[-1]] = stream.read()
    return outputs


def tenant_job(tenant: str, index: int, *, num_reduce_tasks: int = 2) -> Job:
    job = make_wordcount_job(
        [f"/in/{tenant}-{index}.txt"],
        output_dir=f"/out/{tenant}/{index}",
        num_reduce_tasks=num_reduce_tasks,
    )
    return replace(
        job, conf=replace(job.conf, name=f"wc-{tenant}-{index}", tenant=tenant)
    )


def blocking_job(
    name: str,
    release: threading.Event,
    started: threading.Event | None = None,
    *,
    tenant: str | None = None,
) -> Job:
    """A one-map job whose mapper parks on ``release`` (tiny synthetic input)."""

    def mapper(key, value, ctx):
        if started is not None:
            started.set()
        assert release.wait(timeout=30), "blocking mapper never released"
        ctx.emit("k", 1)

    def reducer(key, values, ctx):
        ctx.emit(key, sum(values))

    conf = JobConf(
        name=name,
        input_paths=(f"/in/{name}.txt",),
        output_dir=f"/out/{name}",
        num_reduce_tasks=1,
        tenant=tenant,
    )
    return Job(conf=conf, mapper=mapper, reducer=reducer)


class TestConcurrentVsSequentialParity:
    @pytest.mark.parametrize("kind", ["bsfs", "hdfs", "file"])
    def test_two_tenants_four_jobs_byte_identical(self, kind, tmp_path):
        """Acceptance: 2 tenants × 4 concurrent jobs produce byte-identical
        output to the same jobs run sequentially, on every backend."""
        specs = [(tenant, i) for tenant in ("alice", "bob") for i in range(4)]

        concurrent_fs = make_fs(kind, tmp_path, tag="concurrent")
        sequential_fs = make_fs(kind, tmp_path, tag="sequential")
        for fs in (concurrent_fs, sequential_fs):
            for tenant, i in specs:
                write_text_file(
                    fs, f"/in/{tenant}-{i}.txt", 30, seed=hash((tenant, i)) % 1000
                )

        service = JobService.local(concurrent_fs, num_trackers=2, max_concurrent_jobs=4)
        service.register_tenant("alice")
        service.register_tenant("bob")
        handles = [service.submit(tenant_job(tenant, i)) for tenant, i in specs]
        for handle in handles:
            assert handle.wait(timeout=120).succeeded

        sequential = JobService.local(sequential_fs, num_trackers=2)
        for tenant, i in specs:
            assert sequential.submit(tenant_job(tenant, i)).wait().succeeded

        for tenant, i in specs:
            out_dir = f"/out/{tenant}/{i}"
            concurrent = read_outputs(concurrent_fs, out_dir)
            sequential = read_outputs(sequential_fs, out_dir)
            assert concurrent == sequential, f"divergence in {out_dir}"


class TestFairShare:
    def test_weighted_stride_ordering(self, tmp_path):
        """With one global slot, a weight-3 tenant gets three starts per
        weight-1 start — the stride scheduler's deterministic pattern."""
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=1, max_concurrent_jobs=1)
        service.register_tenant("light", weight=1.0)
        service.register_tenant("heavy", weight=3.0)

        starts: list[str] = []
        lock = threading.Lock()

        def traced_job(tenant: str, i: int) -> Job:
            def mapper(key, value, ctx):
                with lock:
                    starts.append(tenant)
                ctx.emit("k", 1)

            conf = JobConf(
                name=f"{tenant}-{i}",
                input_paths=(f"/in/{tenant}.txt",),
                output_dir=f"/out/{tenant}-{i}",
                num_reduce_tasks=0,
                tenant=tenant,
            )
            return Job(conf=conf, mapper=mapper)

        for tenant in ("light", "heavy"):
            write_text_file(fs, f"/in/{tenant}.txt", 1, seed=1)

        # Hold the single slot so both queues fill before draining starts.
        release = threading.Event()
        started = threading.Event()
        write_text_file(fs, "/in/gate.txt", 1, seed=1)
        gate = service.submit(blocking_job("gate", release, started))
        assert started.wait(timeout=10)

        handles = [service.submit(traced_job("light", i)) for i in range(4)]
        handles += [service.submit(traced_job("heavy", i)) for i in range(4)]
        release.set()
        assert gate.wait(timeout=30).succeeded
        for handle in handles:
            assert handle.wait(timeout=60).succeeded

        # First four drained starts: heavy runs 3× for light's 1×.
        first_four = starts[:4]
        assert first_four.count("heavy") == 3
        assert first_four.count("light") == 1

    def test_slot_ledger_drains_to_zero(self, tmp_path):
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=2)
        write_text_file(fs, "/in/alice-0.txt", 20, seed=3)
        handle = service.submit(tenant_job("alice", 0))
        assert handle.wait(timeout=60).succeeded
        assert service.slot_ledger.running("alice") == 0
        assert service.slot_ledger.total_running() == 0


class TestAdmissionControl:
    def test_queue_limit_rejects_at_submit(self, tmp_path):
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=1, max_concurrent_jobs=1)
        service.register_tenant("alice", max_queued_jobs=1)

        release = threading.Event()
        started = threading.Event()
        events = [threading.Event() for _ in range(3)]
        for i, name in enumerate(("run", "queued", "rejected")):
            write_text_file(fs, f"/in/a-{name}.txt", 1, seed=i)

        running = service.submit(
            blocking_job("a-run", release, started, tenant="alice")
        )
        assert started.wait(timeout=10)
        queued = service.submit(blocking_job("a-queued", release, tenant="alice"))
        assert queued.status() == JOB_QUEUED
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(blocking_job("a-rejected", release, tenant="alice"))
        assert excinfo.value.tenant == "alice"
        assert excinfo.value.limit == 1

        release.set()
        assert running.wait(timeout=60).succeeded
        assert queued.wait(timeout=60).succeeded
        del events

    def test_per_tenant_concurrency_cap_queues(self, tmp_path):
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=2, max_concurrent_jobs=4)
        service.register_tenant("alice", max_concurrent_jobs=1)

        release = threading.Event()
        started = threading.Event()
        write_text_file(fs, "/in/a-first.txt", 1, seed=0)
        write_text_file(fs, "/in/a-second.txt", 1, seed=1)
        write_text_file(fs, "/in/b-free.txt", 1, seed=2)

        first = service.submit(blocking_job("a-first", release, started, tenant="alice"))
        assert started.wait(timeout=10)
        second = service.submit(blocking_job("a-second", release, tenant="alice"))
        assert second.status() == JOB_QUEUED  # tenant cap, not cluster cap

        b_started = threading.Event()
        b_release = threading.Event()
        other = service.submit(
            blocking_job("b-free", b_release, b_started, tenant="bob")
        )
        assert b_started.wait(timeout=10)  # bob is unaffected by alice's cap
        b_release.set()
        release.set()
        for handle in (first, second, other):
            assert handle.wait(timeout=60).succeeded


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=1, max_concurrent_jobs=1)
        release = threading.Event()
        started = threading.Event()
        write_text_file(fs, "/in/hold.txt", 1, seed=0)
        write_text_file(fs, "/in/doomed.txt", 1, seed=1)

        hold = service.submit(blocking_job("hold", release, started))
        assert started.wait(timeout=10)
        doomed = service.submit(blocking_job("doomed", release))
        assert doomed.status() == JOB_QUEUED
        assert doomed.cancel() is True
        assert doomed.status() == JOB_CANCELLED
        with pytest.raises(JobCancelledError):
            doomed.wait(timeout=5)

        release.set()
        assert hold.wait(timeout=60).succeeded
        assert hold.cancel() is False  # finished jobs cannot be cancelled

    def test_cancel_running_job_stops_remaining_attempts(self, tmp_path):
        """Cooperative cancel: the in-flight attempt finishes, attempts not
        yet started come back as failures, the job reports CANCELLED."""
        fs = make_fs("file", tmp_path)
        service = JobService.local(
            fs, num_trackers=1, slots_per_tracker=1, max_concurrent_jobs=1
        )
        release = threading.Event()
        started = threading.Event()
        cancelled = threading.Event()

        def mapper(key, value, ctx):
            if not started.is_set():
                started.set()
                assert cancelled.wait(timeout=30)
            ctx.emit("k", 1)

        write_text_file(fs, "/in/c.txt", 40, seed=5)
        conf = JobConf(
            name="cancel-running",
            input_paths=("/in/c.txt",),
            output_dir="/out/c",
            num_reduce_tasks=0,
            split_size=256,  # several map tasks over the one-worker pool
        )
        handle = service.submit(Job(conf=conf, mapper=mapper))
        assert started.wait(timeout=10)
        assert handle.status() == JOB_RUNNING
        assert handle.cancel() is True
        cancelled.set()
        release.set()

        result = handle.wait(timeout=60)
        assert handle.status() == JOB_CANCELLED
        assert not result.succeeded
        assert any(
            "cancelled" in str(r.error) for r in result.failed_tasks
        )


class TestSubmitAndWait:
    def test_wait_reraises_configuration_errors(self, tmp_path):
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=1)
        bad = make_wordcount_job(["bsfs://other/in.txt"], output_dir="/out")
        with pytest.raises(ValueError, match="scheme"):
            service.submit(bad).wait()

    def test_join_returns_only_after_every_handle_finished(self, tmp_path, monkeypatch):
        """The service counts a job as running until its handle is final:
        join() never returns while a handle still reads RUNNING."""
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=2)
        write_text_file(fs, "/in/alice-0.txt", 20, seed=1)
        finish = JobHandle._finish
        idle_during_finish: list[bool] = []

        def observed_finish(handle, result, error):
            idle_during_finish.append(service.join(timeout=0))
            finish(handle, result, error)

        monkeypatch.setattr(JobHandle, "_finish", observed_finish)
        handle = service.submit(tenant_job("alice", 0))
        assert service.join(timeout=10)
        assert handle.status() == JOB_SUCCEEDED
        assert handle.result is not None
        assert idle_during_finish == [False]

    def test_task_conf_is_the_submitted_conf(self, tmp_path):
        """Runtime controls travel beside the job, not in its conf: a
        mapper sees the user's properties unchanged, and the conf pickles."""
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=1)
        write_text_file(fs, "/in/conf.txt", 5, seed=1)
        seen = []

        def mapper(key, value, ctx):
            seen.append(ctx.job_conf)
            ctx.emit("k", 1)

        conf = JobConf(
            name="conf",
            input_paths=("/in/conf.txt",),
            output_dir="/out/conf",
            num_reduce_tasks=0,
            properties={"app.flag": "on"},
        )
        handle = service.submit(Job(conf=conf, mapper=mapper), tenant="alice")
        assert handle.wait(timeout=60).succeeded
        assert seen
        for job_conf in seen:
            assert not [key for key in job_conf.properties if key.startswith("__")]
            assert job_conf.properties == {"app.flag": "on"}
            assert job_conf.tenant == "alice"
            assert pickle.loads(pickle.dumps(job_conf)) == job_conf

    def test_dunder_properties_are_plain_user_data(self, tmp_path):
        """No conf key is reserved for the engine: properties named like the
        old runtime controls reach the tasks untouched and steer nothing."""
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=1)
        write_text_file(fs, "/in/dunder.txt", 5, seed=1)
        properties = {"__cancel_event": "set", "__progress": 0, "__speculation_gate": None}
        seen = []

        def mapper(key, value, ctx):
            seen.append(dict(ctx.job_conf.properties))
            ctx.emit("k", 1)

        conf = JobConf(
            name="dunder",
            input_paths=("/in/dunder.txt",),
            output_dir="/out/dunder",
            num_reduce_tasks=0,
            properties=properties,
        )
        handle = service.submit(Job(conf=conf, mapper=mapper))
        result = handle.wait(timeout=60)
        assert result.succeeded
        assert handle.status() == JOB_SUCCEEDED
        assert seen and all(props == properties for props in seen)


class TestQuotaMidJob:
    def test_over_quota_job_fails_cleanly(self, tmp_path):
        """A tenant exceeding its byte quota mid-job fails the job with a
        QuotaExceededError task failure, leaves usage within the limit,
        and deleting the output returns usage to the pre-job level."""
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=2)
        service.register_tenant("alice", max_bytes=200)
        write_text_file(fs, "/in/alice-big.txt", 10, seed=2)
        before = service.quotas.usage("alice")

        def mapper(key, value, ctx):
            ctx.emit(value, "x" * 50)  # inflate far beyond the quota

        def reducer(key, values, ctx):
            for value in values:
                ctx.emit(key, value)

        conf = JobConf(
            name="over-quota",
            input_paths=("/in/alice-big.txt",),
            output_dir="/out/over",
            num_reduce_tasks=1,
            tenant="alice",
            max_task_attempts=1,
        )
        handle = service.submit(Job(conf=conf, mapper=mapper, reducer=reducer))
        result = handle.wait(timeout=60)
        assert not result.succeeded
        assert any(
            "QuotaExceededError" in (r.error or "") for r in result.failed_tasks
        )
        usage = service.quotas.usage("alice")
        assert usage.bytes <= 200
        assert usage.reserved == 0
        if fs.exists("/out/over"):
            fs.delete("/out/over", recursive=True)
        after = service.quotas.usage("alice")
        assert after.files == before.files
        assert after.bytes == before.bytes


class TestNoHealthyTracker:
    def test_pick_tracker_raises_typed_error(self):
        trackers = [TaskTracker(f"h{i}", slots=1) for i in range(2)]
        scheduler = LocalityAwareScheduler(trackers)
        scheduler.mark_dead("h0")
        scheduler.mark_dead("h1")
        with pytest.raises(NoHealthyTrackerError) as excinfo:
            scheduler.pick_tracker()
        assert excinfo.value.blacklisted == {"h0", "h1"}
        assert "h0" in str(excinfo.value)
        with pytest.raises(NoHealthyTrackerError):
            scheduler.pick_tracker_round_robin()

    def test_report_task_failure_spares_last_healthy_host(self):
        trackers = [TaskTracker(f"h{i}", slots=1) for i in range(2)]
        scheduler = LocalityAwareScheduler(trackers)
        for _ in range(5 * LocalityAwareScheduler.BLACKLIST_AFTER_FAILURES):
            scheduler.report_task_failure("h0")
            scheduler.report_task_failure("h1")
        # One of the two survives: failure reporting alone can never
        # blacklist the whole cluster.
        assert len(scheduler.blacklisted_hosts) == 1
        scheduler.pick_tracker()  # does not raise

    def test_dead_cluster_surfaces_in_failed_tasks(self, tmp_path):
        """Every tracker dying mid-job fails the job with typed
        no-healthy-tracker errors in ``failed_tasks`` instead of an
        opaque crash (or burning every retry against dead hosts)."""
        from repro.mapreduce import FaultPlan, kill_tracker

        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=2, slots_per_tracker=1)
        write_text_file(fs, "/in/doom.txt", 60, seed=1)
        # Retries against a dead host fail in microseconds while the
        # liveness registry needs a few missed 20ms heartbeats to declare
        # the host dead, so the attempt budget is deliberately oversized:
        # the retry loop must still be alive when both hosts get
        # blacklisted, proving that the typed placement failure — not
        # attempt exhaustion — is what ends the job.
        conf = JobConf(
            name="dead-cluster",
            input_paths=("/in/doom.txt",),
            output_dir="/out/doom",
            num_reduce_tasks=1,
            split_size=256,
            max_task_attempts=10_000,
        )
        plan = FaultPlan(
            [kill_tracker(t.host, after_tasks=2) for t in service.tracker.trackers]
        )
        result = service.submit(Job(conf=conf), fault_plan=plan).wait()
        assert not result.succeeded
        assert any(
            "no healthy task tracker" in (r.error or "")
            for r in result.failed_tasks
        )


class TestSlotLedgerUnit:
    def test_counts_clamp_and_aggregate(self):
        ledger = SlotLedger()
        ledger.task_started("a")
        ledger.task_started("a")
        ledger.task_started(None)
        assert ledger.running("a") == 2
        assert ledger.running(None) == 1
        assert ledger.total_running() == 3
        ledger.task_finished("a")
        ledger.task_finished("a")
        ledger.task_finished("a")  # over-release clamps at zero
        assert ledger.running("a") == 0
        assert ledger.snapshot() == {"a": 0, "": 1}
