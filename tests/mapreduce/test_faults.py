"""Fault-tolerance scenarios: injection, retries, blacklist, stragglers.

Covers the recovery subsystem end to end: deterministic failure injection
(:mod:`repro.mapreduce.faults`), bounded task retries on different
trackers, flaky-tracker blacklisting, one committed attempt per task,
replica-aware storage re-reads, and the acceptance scenario —
a job with an injected map failure, an injected reduce failure and one
straggler completes with output byte-identical to a fault-free run, on
every backend.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.bsfs import BSFS
from repro.core import KB, BlobSeerConfig
from repro.core.errors import ProviderUnavailableError
from repro.mapreduce import (
    FaultPlan,
    InjectedTaskFailure,
    JobService,
    TrackerDeadError,
    delay_task,
    fail_storage,
    fail_task,
    kill_tracker,
)
from repro.mapreduce.applications import make_wordcount_job
from repro.workloads import write_text_file

from .conftest import assert_run_layout


def wordcount(input_path, output_dir, **conf_overrides):
    """A small multi-split wordcount job with conf overrides applied."""
    job = make_wordcount_job(
        [input_path], output_dir=output_dir, num_reduce_tasks=2, split_size=4 * KB
    )
    if conf_overrides:
        job = replace(job, conf=replace(job.conf, **conf_overrides))
    return job


def read_output(fs, result):
    """Output bytes keyed by part-file basename (output dirs differ)."""
    return {
        path.rsplit("/", 1)[-1]: fs.read_file(path) for path in result.output_paths
    }


def run_reference(fs, input_path, output_dir, **conf_overrides):
    """Run the fault-free job the faulty runs must be byte-identical to."""
    result = JobService.local(fs).submit(wordcount(input_path, output_dir, **conf_overrides)).wait()
    assert result.succeeded
    return read_output(fs, result)


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        first = FaultPlan.random(seed=42, failure_rate=0.3, delay_rate=0.2)
        second = FaultPlan.random(seed=42, failure_rate=0.3, delay_rate=0.2)
        grid = first.schedule("map", 50, attempts=3)
        assert grid == second.schedule("map", 50, attempts=3)
        assert grid == first.schedule("map", 50, attempts=3)  # replay-stable
        # The rates actually materialise as injected faults somewhere.
        actions = {action for action, _ in grid.values()}
        assert "fail" in actions

    def test_different_seed_differs(self):
        first = FaultPlan.random(seed=1, failure_rate=0.3)
        second = FaultPlan.random(seed=2, failure_rate=0.3)
        assert first.schedule("map", 100) != second.schedule("map", 100)

    def test_random_faults_only_hit_attempt_zero(self):
        plan = FaultPlan.random(seed=7, failure_rate=0.9, delay_rate=0.9)
        for index in range(30):
            for attempt in (1, 2, 3):
                assert plan.decide("map", index, attempt) == (None, 0.0)
                assert plan.decide("reduce", index, attempt) == (None, 0.0)

    def test_explicit_specs_target_exact_attempts(self):
        plan = FaultPlan(
            [fail_task("map", 3, attempts=(0, 1)), delay_task("reduce", 1, 0.25)]
        )
        assert plan.decide("map", 3, 0) == ("fail", 0.0)
        assert plan.decide("map", 3, 1) == ("fail", 0.0)
        assert plan.decide("map", 3, 2) == (None, 0.0)
        assert plan.decide("map", 2, 0) == (None, 0.0)
        assert plan.decide("reduce", 1, 0) == ("delay", 0.25)
        assert plan.decide("reduce", 1, 1) == (None, 0.0)

    def test_injection_raises_and_counts(self):
        plan = FaultPlan([fail_task("map", 0)])
        with pytest.raises(InjectedTaskFailure):
            plan.on_task_start(kind="map", index=0, attempt=0, tracker_host="h")
        assert plan.injected_failures == 1
        # Attempt 1 of the same task runs clean.
        plan.on_task_start(kind="map", index=0, attempt=1, tracker_host="h")


class TestTaskRetries:
    def test_injected_map_failure_recovers(self, any_fs, run_layout):
        write_text_file(any_fs, "/in/retry.txt", num_lines=900, seed=5)
        reference = JobService.local(any_fs).submit(
            wordcount("/in/retry.txt", "/retry-ref")
        ).wait()
        assert reference.succeeded
        plan = FaultPlan([fail_task("map", 1)])
        result = JobService.local(any_fs).submit(
            wordcount("/in/retry.txt", "/retry-out", **run_layout),
            fault_plan=plan,
        ).wait()
        assert result.succeeded
        assert_run_layout(result, reference, run_layout)
        assert read_output(any_fs, result) == read_output(any_fs, reference)
        assert result.retries >= 1
        attempts = [r for r in result.task_results if r.task_id == "map-00001"]
        failed = [r for r in attempts if not r.succeeded]
        winners = [r for r in attempts if r.succeeded and not r.discarded]
        assert failed and failed[0].attempt == 0
        assert "injected failure" in failed[0].error
        assert len(winners) == 1 and winners[0].attempt >= 1
        # Re-execution happened on a *different* tracker.
        assert winners[0].tracker_host != failed[0].tracker_host
        summary = result.summary()
        assert summary["retries"] >= 1
        assert summary["task_attempts"] > summary["map_tasks"] + summary["reduce_tasks"]

    def test_injected_reduce_failure_recovers(self, any_fs, run_layout):
        write_text_file(any_fs, "/in/retry.txt", num_lines=900, seed=5)
        reference = JobService.local(any_fs).submit(
            wordcount("/in/retry.txt", "/rretry-ref")
        ).wait()
        assert reference.succeeded
        plan = FaultPlan([fail_task("reduce", 0)])
        result = JobService.local(any_fs).submit(
            wordcount("/in/retry.txt", "/rretry-out", **run_layout),
            fault_plan=plan,
        ).wait()
        assert result.succeeded
        assert_run_layout(result, reference, run_layout)
        assert read_output(any_fs, result) == read_output(any_fs, reference)
        attempts = [r for r in result.task_results if r.task_id == "reduce-00000"]
        assert any(not r.succeeded for r in attempts)
        assert any(r.succeeded and not r.discarded for r in attempts)

    def test_retries_are_bounded_by_max_task_attempts(self, bsfs):
        write_text_file(bsfs, "/in/retry.txt", num_lines=300, seed=5)
        plan = FaultPlan([fail_task("map", 0, attempts=range(10))])
        result = JobService.local(bsfs).submit(
            wordcount("/in/retry.txt", "/bounded-out", max_task_attempts=2),
            fault_plan=plan,
        ).wait()
        assert not result.succeeded
        failures = [r for r in result.task_results if r.task_id == "map-00000"]
        assert len(failures) == 2
        assert all(not r.succeeded for r in failures)
        assert "map-00000" in result.summary()["failed_tasks"]

    def test_one_slot_cluster_retries_too(self, bsfs):
        """With a single slot, tasks and their retries run one at a time."""
        write_text_file(bsfs, "/in/retry.txt", num_lines=300, seed=5)
        reference = run_reference(bsfs, "/in/retry.txt", "/one-slot-ref")
        plan = FaultPlan([fail_task("map", 0), fail_task("reduce", 1)])
        result = JobService.local(bsfs, num_trackers=1, slots_per_tracker=1).submit(
            wordcount("/in/retry.txt", "/one-slot-out"), fault_plan=plan
        ).wait()
        assert result.succeeded
        assert result.retries >= 2
        assert read_output(bsfs, result) == reference


class TestSchedulerBlacklist:
    def test_assign_routes_around_blacklisted_hosts(self):
        from repro.mapreduce import InputSplit, LocalityAwareScheduler, TaskTracker

        scheduler = LocalityAwareScheduler([TaskTracker("a"), TaskTracker("b")])
        for _ in range(LocalityAwareScheduler.BLACKLIST_AFTER_FAILURES):
            scheduler.report_task_failure("a")
        assert scheduler.is_blacklisted("a")
        splits = [
            InputSplit(split_id=i, path=None, offset=i, length=0, hosts=("a",))
            for i in range(4)
        ]
        assignments = scheduler.assign(splits)
        # Data-local on "a", but "a" is blacklisted: everything lands on "b".
        assert all(a.tracker.host == "b" for a in assignments)
        assert all(a.locality == "remote" for a in assignments)

    def test_last_healthy_host_is_never_blacklisted(self):
        from repro.mapreduce import LocalityAwareScheduler, TaskTracker

        scheduler = LocalityAwareScheduler([TaskTracker("solo")])
        for _ in range(10 * LocalityAwareScheduler.BLACKLIST_AFTER_FAILURES):
            assert not scheduler.report_task_failure("solo")
        assert not scheduler.is_blacklisted("solo")
        assert scheduler.pick_tracker().host == "solo"


class TestTrackerFailure:
    def test_killed_tracker_is_blacklisted_and_job_recovers(self, bsfs):
        write_text_file(bsfs, "/in/tracker.txt", num_lines=900, seed=9)
        reference = run_reference(bsfs, "/in/tracker.txt", "/tk-ref")
        service = JobService.local(bsfs)
        victim = service.tracker.trackers[0].host
        plan = FaultPlan([kill_tracker(victim, after_tasks=1)])
        result = service.submit(
            wordcount("/in/tracker.txt", "/tk-out"), fault_plan=plan
        ).wait()
        assert result.succeeded
        assert read_output(bsfs, result) == reference
        assert victim in result.blacklisted_hosts
        # Every winning attempt of the recovered job ran elsewhere.
        dead_tracker_failures = [
            r
            for r in result.failed_tasks
            if r.tracker_host == victim and TrackerDeadError.__name__ in r.error
        ]
        assert dead_tracker_failures
        assert result.summary()["blacklisted_hosts"] == [victim]

    def test_late_heartbeats_never_blacklist_a_live_tracker(self, bsfs):
        # Every heartbeat arrives later than two 20 ms intervals, as from a
        # starved pump thread: only the killed tracker may be declared dead.
        write_text_file(bsfs, "/in/tracker.txt", num_lines=900, seed=9)
        service = JobService.local(bsfs)
        victim = service.tracker.trackers[0].host

        class LateHeartbeats(FaultPlan):
            def tracker_is_dead(self, host):
                time.sleep(0.05)
                return super().tracker_is_dead(host)

        plan = LateHeartbeats([kill_tracker(victim, after_tasks=1)])
        result = service.submit(
            wordcount("/in/tracker.txt", "/tk-late"), fault_plan=plan
        ).wait()
        assert result.succeeded
        assert result.blacklisted_hosts == [victim]

    def test_dead_tracker_raises_for_every_later_attempt(self):
        plan = FaultPlan([kill_tracker("node-1", after_tasks=0)])
        with pytest.raises(TrackerDeadError):
            plan.on_task_start(kind="map", index=0, attempt=0, tracker_host="node-1")
        assert plan.tracker_is_dead("node-1")
        # Other trackers are unaffected.
        plan.on_task_start(kind="map", index=1, attempt=0, tracker_host="node-2")


class TestNetworkFaults:
    """Wire-level fault specs and their materialisation for transports."""

    def test_spec_validation(self):
        from repro.mapreduce import NetworkFault

        with pytest.raises(ValueError, match="unknown network fault action"):
            NetworkFault(action="explode", peer="node-1")
        with pytest.raises(ValueError, match="concrete peer"):
            NetworkFault(action="kill")  # "*" cannot be killed
        with pytest.raises(ValueError, match="both endpoints"):
            NetworkFault(action="partition", peer="node-1")
        with pytest.raises(ValueError, match="non-negative"):
            NetworkFault(action="delay", peer="node-1", seconds=-1.0)
        # Drop rules may be fully wildcarded.
        NetworkFault(action="drop")

    def test_helpers_build_the_right_specs(self):
        from repro.mapreduce import (
            delay_messages,
            drop_messages,
            kill_node,
            partition_peer,
        )

        assert kill_node("node-3").action == "kill"
        partition = partition_peer("node-1", "node-2")
        assert (partition.peer, partition.other) == ("node-1", "node-2")
        drop = drop_messages(src="client", dst="node-0", count=2, method="put_page")
        assert (drop.count, drop.method) == (2, "put_page")
        assert delay_messages("node-4", 0.25).seconds == 0.25

    def test_network_plan_materialises_specs(self):
        from repro.mapreduce import drop_messages, kill_node
        from repro.net import PeerUnavailableError, RpcTimeoutError

        plan = FaultPlan(
            [
                kill_node("node-0"),
                drop_messages(src="client", dst="node-1", count=1),
                fail_task("map", 0),  # runtime faults coexist with wire faults
            ]
        )
        assert len(plan.network_faults) == 2
        wire = plan.network_plan(sleep=lambda _s: None)
        assert wire.is_killed("node-0")
        with pytest.raises(PeerUnavailableError):
            wire.on_message("client", "node-0")
        with pytest.raises(RpcTimeoutError):
            wire.on_message("client", "node-1")  # the one dropped message
        wire.on_message("client", "node-1")  # rule exhausted: delivered
        assert wire.messages_dropped == 1

    def test_network_plan_is_fresh_per_call(self):
        from repro.mapreduce import drop_messages
        from repro.net import RpcTimeoutError

        plan = FaultPlan([drop_messages(src="a", dst="b", count=1)])
        first = plan.network_plan(sleep=lambda _s: None)
        with pytest.raises(RpcTimeoutError):
            first.on_message("a", "b")
        # A second materialisation starts with its drop budget intact.
        second = plan.network_plan(sleep=lambda _s: None)
        with pytest.raises(RpcTimeoutError):
            second.on_message("a", "b")

    def test_delay_spec_injects_latency(self):
        from repro.mapreduce import delay_messages

        plan = FaultPlan([delay_messages("node-2", 0.5)])
        slept = []
        wire = plan.network_plan(sleep=slept.append)
        wire.on_message("client", "node-2")
        assert slept == [0.5]
        assert wire.messages_delayed == 1


class TestAttemptCommit:
    @staticmethod
    def fail_mid_split(job, task_id, after_records):
        """``job`` whose mapper counts every record it sees, and whose first
        execution of ``task_id`` raises after ``after_records`` of them."""
        mapper = job.mapper
        lock = threading.Lock()
        state = {"seen": 0, "failed": False}

        def flaky(key, value, context):
            context.counters.increment("records_seen")
            mapper(key, value, context)
            if context.task_id != task_id:
                return
            with lock:
                if state["failed"]:
                    return
                state["seen"] += 1
                if state["seen"] < after_records:
                    return
                state["failed"] = True
            raise RuntimeError("failure mid-split")

        return replace(job, mapper=flaky)

    def test_failed_attempt_counters_are_not_merged(self, bsfs, run_layout):
        # The failed attempt processed part of its split and counted it;
        # only the retry that committed contributes counters (Hadoop
        # semantics: failed attempts do not pollute job counters).
        write_text_file(bsfs, "/in/mid.txt", num_lines=900, seed=13)
        # The same splits: the combiner's counts depend on them.
        reference = JobService.local(bsfs).submit(
            wordcount("/in/mid.txt", "/mid-ref", **run_layout)
        ).wait()
        assert reference.succeeded
        job = self.fail_mid_split(
            wordcount("/in/mid.txt", "/mid-out", **run_layout),
            "map-00000",
            5,  # fewer records than the smallest split holds
        )
        result = JobService.local(bsfs).submit(job).wait()
        assert result.succeeded and result.retries == 1
        assert_run_layout(result, reference, run_layout)
        assert read_output(bsfs, result) == read_output(bsfs, reference)
        assert result.counter("records_seen") == reference.counter(
            "map_input_records"
        )
        for counter in (
            "map_input_records",
            "map_output_records",
            "reduce_input_records",
            "reduce_output_records",
        ):
            assert result.counter(counter) == reference.counter(counter), counter

    def test_a_straggler_is_waited_for_and_commits_once(self, bsfs):
        write_text_file(bsfs, "/in/slow.txt", num_lines=600, seed=13)
        reference = run_reference(bsfs, "/in/slow.txt", "/slow-ref")
        plan = FaultPlan([delay_task("map", 0, 0.2)])
        result = JobService.local(bsfs).submit(
            wordcount("/in/slow.txt", "/slow-out"), fault_plan=plan
        ).wait()
        assert result.succeeded
        assert read_output(bsfs, result) == reference
        straggler = [r for r in result.task_results if r.task_id == "map-00000"]
        assert [(r.attempt, r.succeeded, r.discarded) for r in straggler] == [
            (0, True, False)
        ]
        assert result.retries == 0
        assert len(result.task_results) == result.map_tasks + result.reduce_tasks


class TestStorageFailure:
    def test_hdfs_read_fails_over_to_surviving_replica(self, hdfs):
        # The hdfs fixture replicates blocks twice: killing one replica's
        # datanode mid-read must transparently re-read from the other.
        payload = b"replica-read\n" * 4096
        with hdfs.create("/data.bin") as stream:
            stream.write(payload)
        locations = hdfs.block_locations("/data.bin", 0, len(payload))
        assert all(len(loc.hosts) >= 2 for loc in locations)
        victim = locations[0].hosts[0]
        for node in hdfs.datanodes:
            if node.host == victim:
                node.fail()
        assert hdfs.read_file("/data.bin") == payload

    def test_hdfs_read_raises_once_every_replica_is_dead(self, hdfs):
        payload = b"gone\n" * 1024
        with hdfs.create("/gone.bin") as stream:
            stream.write(payload)
        for node in hdfs.datanodes:
            node.fail()
        with pytest.raises(ProviderUnavailableError):
            hdfs.read_file("/gone.bin")

    def test_bsfs_read_fails_over_to_surviving_page_replica(self):
        fs = BSFS(
            config=BlobSeerConfig(
                page_size=4 * KB,
                num_providers=6,
                num_metadata_providers=3,
                replication=2,
                rng_seed=3,
            ),
            default_block_size=16 * KB,
        )
        payload = b"page-replica\n" * 4096
        with fs.create("/data.bin") as stream:
            stream.write(payload)
        fs.blobseer.provider_manager.providers[0].fail()
        assert fs.read_file("/data.bin") == payload

    def test_job_survives_injected_storage_failure(self, hdfs):
        write_text_file(hdfs, "/in/storage.txt", num_lines=900, seed=21)
        reference = run_reference(hdfs, "/in/storage.txt", "/st-ref")
        locations = hdfs.block_locations("/in/storage.txt", 0, 1)
        victim = locations[0].hosts[0]
        plan = FaultPlan([fail_storage(victim, after_task_starts=2)])
        result = JobService.local(hdfs).submit(
            wordcount("/in/storage.txt", "/st-out"), fault_plan=plan
        ).wait()
        assert result.succeeded
        assert read_output(hdfs, result) == reference
        victims = [d for d in hdfs.datanodes if d.host == victim]
        assert victims and not victims[0].available


class TestAcceptanceScenario:
    """Map failure + reduce failure + straggler in one job, every backend."""

    FAULTS = (
        fail_task("map", 1),
        fail_task("reduce", 0),
        delay_task("map", 0, 0.4),
    )

    def test_recovers_to_byte_identical_output(self, any_fs, run_layout):
        write_text_file(any_fs, "/in/accept.txt", num_lines=900, seed=29)
        reference = JobService.local(any_fs).submit(
            wordcount("/in/accept.txt", "/accept-ref")
        ).wait()
        assert reference.succeeded
        result = JobService.local(any_fs).submit(
            wordcount("/in/accept.txt", "/accept-out", **run_layout),
            fault_plan=FaultPlan(self.FAULTS),
        ).wait()
        assert result.succeeded
        assert_run_layout(result, reference, run_layout)
        assert read_output(any_fs, result) == read_output(any_fs, reference)
        assert result.retries >= 2

    def test_single_output_file_never_duplicates_under_faults(self, bsfs):
        write_text_file(bsfs, "/in/accept.txt", num_lines=900, seed=29)
        ref = JobService.local(bsfs).submit(
            wordcount("/in/accept.txt", "/sref", single_output_file=True)
        ).wait()
        assert ref.succeeded
        reference = sorted(bsfs.read_file("/sref/output.txt").splitlines())
        result = JobService.local(bsfs).submit(
            wordcount("/in/accept.txt", "/sout", single_output_file=True),
            fault_plan=FaultPlan(self.FAULTS),
        ).wait()
        assert result.succeeded
        assert result.output_paths == ["/sout/output.txt"]
        produced = sorted(bsfs.read_file("/sout/output.txt").splitlines())
        assert produced == reference
