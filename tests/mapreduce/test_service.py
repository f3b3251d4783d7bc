"""JobService tests: submission API, FIFO start order, cancellation,
cooperative preemption — and the scheduler's typed no-healthy-tracker
failure."""

from __future__ import annotations

import pickle
import threading
from dataclasses import replace

import pytest

from repro.bsfs import BSFS
from repro.core import KB, BlobSeerConfig
from repro.fs import LocalFS
from repro.hdfs import HDFS
from repro.mapreduce import (
    Job,
    JobCancelledError,
    JobConf,
    JobHandle,
    JobService,
    NoHealthyTrackerError,
    TaskTracker,
)
from repro.mapreduce.applications import make_wordcount_job
from repro.mapreduce.scheduler import LocalityAwareScheduler
from repro.mapreduce.service import (
    JOB_CANCELLED,
    JOB_FAILED,
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
            ),
            default_block_size=TEST_BLOCK_SIZE,
        )
    if kind == "hdfs":
        return HDFS(
            num_datanodes=4,
            racks=2,
            default_block_size=TEST_BLOCK_SIZE,
            default_replication=1,
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


def wordcount_job(index: int, *, num_reduce_tasks: int = 2) -> Job:
    job = make_wordcount_job(
        [f"/in/wc-{index}.txt"],
        output_dir=f"/out/wc/{index}",
        num_reduce_tasks=num_reduce_tasks,
    )
    return replace(job, conf=replace(job.conf, name=f"wc-{index}"))


def blocking_job(
    name: str,
    release: threading.Event,
    started: threading.Event | None = None,
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
    )
    return Job(conf=conf, mapper=mapper, reducer=reducer)


class TestConcurrentVsSequentialParity:
    @pytest.mark.parametrize("kind", ["bsfs", "hdfs", "file"])
    def test_eight_concurrent_jobs_byte_identical(self, kind, tmp_path):
        """Eight jobs, four running at once, produce byte-identical output
        to the same jobs run one after another, on every backend."""
        specs = range(8)

        concurrent_fs = make_fs(kind, tmp_path, tag="concurrent")
        sequential_fs = make_fs(kind, tmp_path, tag="sequential")
        for fs in (concurrent_fs, sequential_fs):
            for i in specs:
                write_text_file(fs, f"/in/wc-{i}.txt", 30, seed=100 + i)

        service = JobService.local(concurrent_fs, num_trackers=2, max_concurrent_jobs=4)
        handles = [service.submit(wordcount_job(i)) for i in specs]
        for handle in handles:
            assert handle.wait(timeout=120).succeeded

        sequential = JobService.local(sequential_fs, num_trackers=2)
        for i in specs:
            assert sequential.submit(wordcount_job(i)).wait().succeeded

        for i in specs:
            out_dir = f"/out/wc/{i}"
            concurrent = read_outputs(concurrent_fs, out_dir)
            sequential = read_outputs(sequential_fs, out_dir)
            assert concurrent == sequential, f"divergence in {out_dir}"


class TestFifoOrder:
    def test_jobs_start_in_submission_order(self, tmp_path):
        """With one job slot, queued jobs start oldest first."""
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=1, max_concurrent_jobs=1)
        starts: list[str] = []
        lock = threading.Lock()

        def traced_job(name: str) -> Job:
            def mapper(key, value, ctx):
                with lock:
                    starts.append(name)
                ctx.emit("k", 1)

            conf = JobConf(
                name=name,
                input_paths=("/in/fifo.txt",),
                output_dir=f"/out/{name}",
                num_reduce_tasks=0,
            )
            return Job(conf=conf, mapper=mapper)

        write_text_file(fs, "/in/fifo.txt", 1, seed=1)
        # Hold the single slot so every job queues before the first starts.
        release = threading.Event()
        started = threading.Event()
        write_text_file(fs, "/in/gate.txt", 1, seed=1)
        gate = service.submit(blocking_job("gate", release, started))
        assert started.wait(timeout=10)

        names = [f"job-{i}" for i in range(6)]
        handles = [service.submit(traced_job(name)) for name in names]
        assert all(handle.status() == JOB_QUEUED for handle in handles)
        release.set()
        assert gate.wait(timeout=30).succeeded
        for handle in handles:
            assert handle.wait(timeout=60).succeeded
        assert starts == names


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

    def test_cancel_racing_the_start_never_finishes_a_running_job(
        self, tmp_path, monkeypatch
    ):
        """A cancel arriving while the service starts a job either dequeues
        it (and it never executes) or finds it RUNNING and stops it
        cooperatively: it never reports "cancelled before it started" for
        a job that then runs."""
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=1, max_concurrent_jobs=1)
        write_text_file(fs, "/in/race.txt", 1, seed=0)
        executed = threading.Event()
        execute = service.tracker.execute

        def traced_execute(*args, **kwargs):
            executed.set()
            return execute(*args, **kwargs)

        monkeypatch.setattr(service.tracker, "execute", traced_execute)

        mark_running = JobHandle._mark_running
        racers: list[threading.Thread] = []
        outcomes: list[str] = []

        def cancel_then_look(handle):
            handle.cancel()
            try:
                handle.wait(timeout=0)
                outcomes.append("finished")
            except JobCancelledError:
                outcomes.append("cancelled-before-start")
            except TimeoutError:
                outcomes.append("running")

        def racing_mark_running(handle):
            # Land a concurrent cancel in the start window: give it up to
            # half a second before the job is marked RUNNING.
            racer = threading.Thread(target=cancel_then_look, args=(handle,))
            racers.append(racer)
            racer.start()
            racer.join(timeout=0.5)
            mark_running(handle)

        monkeypatch.setattr(JobHandle, "_mark_running", racing_mark_running)
        conf = JobConf(
            name="race",
            input_paths=("/in/race.txt",),
            output_dir="/out/race",
            num_reduce_tasks=0,
        )
        handle = service.submit(Job(conf=conf))
        assert service.join(timeout=30)
        for racer in racers:
            racer.join(timeout=10)
        assert len(outcomes) == 1
        if outcomes[0] == "cancelled-before-start":
            assert not executed.is_set(), "a job reported cancelled was run anyway"
            assert handle.status() == JOB_CANCELLED
        else:
            assert executed.is_set()


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
        write_text_file(fs, "/in/wc-0.txt", 20, seed=1)
        finish = JobHandle._finish
        idle_during_finish: list[bool] = []

        def observed_finish(handle, result, error):
            idle_during_finish.append(service.join(timeout=0))
            finish(handle, result, error)

        monkeypatch.setattr(JobHandle, "_finish", observed_finish)
        handle = service.submit(wordcount_job(0))
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
        handle = service.submit(Job(conf=conf, mapper=mapper))
        assert handle.wait(timeout=60).succeeded
        assert seen
        for job_conf in seen:
            assert not [key for key in job_conf.properties if key.startswith("__")]
            assert job_conf.properties == {"app.flag": "on"}
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


def traced_job(name: str, starts: list[str], lock: threading.Lock) -> Job:
    """A one-map job over ``/in/fifo.txt`` that records when it starts."""

    def mapper(key, value, ctx):
        with lock:
            starts.append(name)
        ctx.emit("k", 1)

    conf = JobConf(
        name=name,
        input_paths=("/in/fifo.txt",),
        output_dir=f"/out/{name}",
        num_reduce_tasks=0,
    )
    return Job(conf=conf, mapper=mapper)


def gated_service(tmp_path):
    """A one-job-at-a-time service whose slot is held by a running ``gate``.

    Returns ``(fs, service, gate_handle, release)``; setting ``release``
    lets the gate finish.
    """
    fs = make_fs("file", tmp_path)
    service = JobService.local(fs, num_trackers=2, max_concurrent_jobs=1)
    write_text_file(fs, "/in/fifo.txt", 1, seed=1)
    write_text_file(fs, "/in/gate.txt", 1, seed=1)
    release = threading.Event()
    started = threading.Event()
    gate = service.submit(blocking_job("gate", release, started))
    assert started.wait(timeout=10)
    return fs, service, gate, release


class TestConcurrencyCap:
    def test_cap_bounds_the_running_jobs(self, tmp_path):
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=2, max_concurrent_jobs=2)
        release = threading.Event()
        started = [threading.Event() for _ in range(4)]
        for i in range(4):
            write_text_file(fs, f"/in/cap-{i}.txt", 1, seed=i)
        handles = [
            service.submit(blocking_job(f"cap-{i}", release, started[i]))
            for i in range(4)
        ]
        assert started[0].wait(timeout=10) and started[1].wait(timeout=10)
        assert [h.status() for h in handles] == [
            JOB_RUNNING,
            JOB_RUNNING,
            JOB_QUEUED,
            JOB_QUEUED,
        ]
        release.set()
        for handle in handles:
            assert handle.wait(timeout=60).succeeded
        assert all(event.is_set() for event in started)

    def test_unbounded_service_starts_every_job(self, tmp_path):
        fs = make_fs("file", tmp_path)
        service = JobService.local(
            fs, num_trackers=2, slots_per_tracker=2, max_concurrent_jobs=None
        )
        release = threading.Event()
        started = [threading.Event() for _ in range(3)]
        for i in range(3):
            write_text_file(fs, f"/in/all-{i}.txt", 1, seed=i)
        handles = [
            service.submit(blocking_job(f"all-{i}", release, started[i]))
            for i in range(3)
        ]
        # Every job is running before any is released.
        assert all(event.wait(timeout=10) for event in started)
        assert all(h.status() == JOB_RUNNING for h in handles)
        release.set()
        assert service.join(timeout=60)
        assert all(h.status() == JOB_SUCCEEDED for h in handles)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_non_positive_cap_is_rejected(self, tmp_path, cap):
        fs = make_fs("file", tmp_path)
        with pytest.raises(ValueError, match="max_concurrent_jobs"):
            JobService.local(fs, num_trackers=1, max_concurrent_jobs=cap)


class TestWaitingAndJoin:
    def test_wait_times_out_while_queued(self, tmp_path):
        _fs, service, gate, release = gated_service(tmp_path)
        starts: list[str] = []
        queued = service.submit(traced_job("late", starts, threading.Lock()))
        with pytest.raises(TimeoutError, match="QUEUED"):
            queued.wait(timeout=0.05)
        assert queued.result is None
        release.set()
        assert queued.wait(timeout=60).succeeded
        assert queued.result is not None
        assert starts == ["late"]

    def test_join_times_out_while_a_job_runs(self, tmp_path):
        _fs, service, gate, release = gated_service(tmp_path)
        assert service.join(timeout=0.05) is False
        assert gate.status() == JOB_RUNNING
        release.set()
        assert service.join(timeout=60) is True
        assert gate.status() == JOB_SUCCEEDED

    def test_submissions_from_many_threads_all_run(self, tmp_path):
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=2, max_concurrent_jobs=2)
        write_text_file(fs, "/in/fifo.txt", 1, seed=1)
        starts: list[str] = []
        lock = threading.Lock()
        handles: list[JobHandle] = []

        def submit_two(t: int) -> None:
            for j in range(2):
                handle = service.submit(traced_job(f"t{t}-{j}", starts, lock))
                with lock:
                    handles.append(handle)

        threads = [threading.Thread(target=submit_two, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert service.join(timeout=60)
        assert sorted(h.job_id for h in handles) == list(range(1, 9))
        assert all(h.status() == JOB_SUCCEEDED for h in handles)
        assert sorted(starts) == sorted(f"t{t}-{j}" for t in range(4) for j in range(2))

    def test_job_ids_follow_submission_order(self, tmp_path):
        _fs, service, gate, release = gated_service(tmp_path)
        starts: list[str] = []
        lock = threading.Lock()
        handles = [service.submit(traced_job(f"id-{i}", starts, lock)) for i in range(3)]
        assert [h.job_id for h in handles] == [gate.job_id + 1 + i for i in range(3)]
        assert [h.job_name for h in handles] == ["id-0", "id-1", "id-2"]
        release.set()
        assert service.join(timeout=60)


class TestQueuedCancellation:
    def test_cancelled_job_leaves_the_rest_in_fifo_order(self, tmp_path):
        _fs, service, gate, release = gated_service(tmp_path)
        starts: list[str] = []
        lock = threading.Lock()
        handles = [service.submit(traced_job(f"q-{i}", starts, lock)) for i in range(3)]
        assert handles[1].cancel() is True
        release.set()
        assert service.join(timeout=60)
        assert starts == ["q-0", "q-2"]
        assert [h.status() for h in handles] == [
            JOB_SUCCEEDED,
            JOB_CANCELLED,
            JOB_SUCCEEDED,
        ]

    def test_second_cancel_has_no_effect(self, tmp_path):
        _fs, service, gate, release = gated_service(tmp_path)
        queued = service.submit(traced_job("twice", [], threading.Lock()))
        assert queued.cancel() is True
        assert queued.cancel() is False
        assert queued.status() == JOB_CANCELLED
        release.set()
        assert service.join(timeout=60)


class TestOutcomes:
    def test_failing_mapper_reports_failed(self, tmp_path):
        fs = make_fs("file", tmp_path)
        service = JobService.local(fs, num_trackers=1)
        write_text_file(fs, "/in/boom.txt", 1, seed=1)

        def mapper(key, value, ctx):
            raise RuntimeError("mapper exploded")

        conf = JobConf(
            name="boom",
            input_paths=("/in/boom.txt",),
            output_dir="/out/boom",
            num_reduce_tasks=0,
            max_task_attempts=2,
        )
        handle = service.submit(Job(conf=conf, mapper=mapper))
        result = handle.wait(timeout=60)
        assert not result.succeeded
        assert handle.status() == JOB_FAILED
        assert any("mapper exploded" in (r.error or "") for r in result.failed_tasks)

    def test_progress_callbacks_reach_every_task(self, tmp_path):
        """Callbacks registered while the job is queued see each phase
        count up to its total."""
        fs, service, gate, release = gated_service(tmp_path)
        write_text_file(fs, "/in/wc-0.txt", 30, seed=1)
        events: list[tuple[str, int, int]] = []
        lock = threading.Lock()

        def record(phase: str, completed: int, total: int) -> None:
            with lock:
                events.append((phase, completed, total))

        handle = service.submit(wordcount_job(0, num_reduce_tasks=2))
        assert handle.on_progress(record) is handle
        release.set()
        assert handle.wait(timeout=60).succeeded
        for phase in ("map", "reduce"):
            seen = [(done, total) for p, done, total in events if p == phase]
            assert seen, f"no {phase} progress"
            total = seen[0][1]
            assert sorted(done for done, _ in seen) == list(range(1, total + 1))
            assert all(t == total for _, t in seen)
        assert len([e for e in events if e[0] == "reduce"]) == 2
