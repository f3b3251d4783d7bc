"""Locality-aware task scheduling.

"One of the optimization techniques the MapReduce framework employs, is to
ship the computation to nodes that store the input data; the goal is to
minimize data transfers between nodes.  For this reason, the storage layer
must be able to provide the information about the location of the data."

The scheduler assigns each map task to a task tracker, preferring trackers
whose host appears in the split's block locations (node-local), then any
tracker with a free slot.  It records how many assignments achieved
locality — the statistic both the integration tests and the EXPERIMENTS
report use to show that BSFS's layout-exposure primitive feeds the
scheduler as well as HDFS's native one does.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from .splitter import InputSplit
from .tasktracker import TaskTracker

__all__ = [
    "Assignment",
    "LocalityStats",
    "LocalityAwareScheduler",
    "NoHealthyTrackerError",
]


class NoHealthyTrackerError(RuntimeError):
    """Raised when every tracker host is blacklisted/dead for a job.

    Previously this surfaced as an opaque low-level error from the fallback
    chain; the typed exception names the dead hosts so the job layer can
    record a meaningful permanent task failure in
    :attr:`~repro.mapreduce.jobtracker.JobResult.failed_tasks`.
    """

    def __init__(self, blacklisted: set[str]) -> None:
        super().__init__(
            "no healthy task tracker available: all hosts blacklisted "
            f"({', '.join(sorted(blacklisted)) or 'none known'})"
        )
        self.blacklisted = frozenset(blacklisted)


@dataclass(frozen=True, slots=True)
class Assignment:
    """One scheduling decision: a split bound to a tracker."""

    split: InputSplit
    tracker: TaskTracker
    locality: str  # "node-local" | "remote" | "any"


@dataclass
class LocalityStats:
    """Aggregate locality achieved by a job's map phase."""

    node_local: int = 0
    remote: int = 0

    @property
    def total(self) -> int:
        """Total number of scheduled map tasks."""
        return self.node_local + self.remote

    @property
    def locality_ratio(self) -> float:
        """Fraction of map tasks that ran on a node holding their data."""
        return self.node_local / self.total if self.total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """JSON-friendly snapshot."""
        return {
            "node_local": self.node_local,
            "remote": self.remote,
            "locality_ratio": self.locality_ratio,
        }


class LocalityAwareScheduler:
    """Greedy scheduler assigning splits to trackers with data locality first.

    Beyond the initial locality-aware wave, the scheduler maintains a
    per-job *blacklist* of flaky tracker hosts: hosts accumulating
    :data:`BLACKLIST_AFTER_FAILURES` task failures stop receiving work,
    exactly like Hadoop's per-job tracker blacklist (a killed tracker is
    blacklisted by :meth:`mark_dead` from the first attempt that finds it
    dead).  Failure reports never blacklist the last healthy host, so a
    single-tracker cluster keeps making progress.
    """

    #: Task failures on one host before it is blacklisted for the job.
    BLACKLIST_AFTER_FAILURES = 3

    def __init__(self, trackers: list[TaskTracker]) -> None:
        if not trackers:
            raise ValueError("the scheduler needs at least one task tracker")
        self._trackers = list(trackers)
        self._by_host: dict[str, list[TaskTracker]] = {}
        for tracker in self._trackers:
            self._by_host.setdefault(tracker.host, []).append(tracker)
        self._round_robin = itertools.cycle(self._trackers)
        # pick_tracker_round_robin is called from concurrent reduce worker
        # threads; advancing the shared cycle iterator must be serialised,
        # and the blacklist is fed from concurrent attempt-failure handlers.
        self._round_robin_lock = threading.Lock()
        self._failure_counts: dict[str, int] = {}
        self._blacklisted: set[str] = set()
        self.stats = LocalityStats()

    @property
    def trackers(self) -> list[TaskTracker]:
        """The task trackers known to the scheduler."""
        return list(self._trackers)

    # -- blacklist ---------------------------------------------------------------------
    @property
    def blacklisted_hosts(self) -> set[str]:
        """Hosts currently excluded from scheduling (copy)."""
        with self._round_robin_lock:
            return set(self._blacklisted)

    def is_blacklisted(self, host: str) -> bool:
        """Whether ``host`` is blacklisted for this job."""
        with self._round_robin_lock:
            return host in self._blacklisted

    def report_task_failure(self, host: str) -> bool:
        """Record one task failure on ``host``; returns whether the host is
        now blacklisted.

        A host is blacklisted only after :data:`BLACKLIST_AFTER_FAILURES`
        strikes — a crashing *task* should not take down a healthy tracker.
        """
        with self._round_robin_lock:
            count = self._failure_counts.get(host, 0) + 1
            self._failure_counts[host] = count
            if host in self._blacklisted:
                return True
            if count < self.BLACKLIST_AFTER_FAILURES:
                return False
            healthy = {t.host for t in self._trackers} - self._blacklisted
            if healthy == {host}:
                # Never blacklist the last healthy host: a one-tracker
                # cluster must keep retrying rather than deadlock.
                return False
            self._blacklisted.add(host)
            return True

    def mark_dead(self, host: str) -> None:
        """Blacklist ``host`` unconditionally (an attempt found it dead).

        Unlike :meth:`report_task_failure`, this bypasses the
        last-healthy-host guard: retrying against a dead process is futile,
        so a fully dead cluster surfaces as
        :class:`NoHealthyTrackerError` from the pickers instead of hanging.
        """
        with self._round_robin_lock:
            self._failure_counts[host] = self._failure_counts.get(host, 0) + 1
            self._blacklisted.add(host)

    def pick_tracker(self, *, exclude: set[str] = frozenset()) -> TaskTracker:
        """Least-loaded tracker avoiding ``exclude`` and blacklisted hosts.

        Used for task re-execution: a retried attempt must land on a
        *different* tracker than its failed predecessors whenever the
        cluster has one.  If every host is excluded (but some are healthy)
        the exclusion is relaxed — better a repeat host than no retry at
        all.  Raises :class:`NoHealthyTrackerError` when every host is
        blacklisted (only :meth:`mark_dead` can reach that state).
        """
        with self._round_robin_lock:
            blacklisted = set(self._blacklisted)
        banned = set(exclude) | blacklisted
        candidates = [t for t in self._trackers if t.host not in banned]
        if not candidates:
            candidates = [
                t for t in self._trackers if t.host not in blacklisted
            ]
        if not candidates:
            raise NoHealthyTrackerError(blacklisted)
        return min(
            candidates,
            key=lambda t: (t.running_tasks, t.tasks_executed),
        )

    def assign(self, splits: list[InputSplit]) -> list[Assignment]:
        """Assign every split to a tracker, balancing load and preferring locality.

        The algorithm mirrors Hadoop's behaviour at a high level: process
        splits in order, give each to a local tracker if one still has
        spare capacity in this scheduling wave, otherwise to the least
        loaded tracker.  ``pending`` tracks per-tracker assignments made in
        this wave so a single call spreads tasks evenly even though no task
        has started yet.
        """
        assignments: list[Assignment] = []
        pending: dict[int, int] = {id(t): 0 for t in self._trackers}
        banned = self.blacklisted_hosts
        pool = [t for t in self._trackers if t.host not in banned] or self._trackers

        def load(tracker: TaskTracker) -> tuple[int, int]:
            return (
                tracker.running_tasks + pending[id(tracker)],
                tracker.tasks_executed,
            )

        for split in splits:
            local_candidates = [
                tracker
                for host in split.hosts
                for tracker in self._by_host.get(host, [])
                if tracker in pool
            ]
            tracker: TaskTracker | None = None
            locality = "remote"
            if local_candidates:
                best_local = min(local_candidates, key=load)
                # Prefer locality unless the local tracker is clearly
                # saturated compared to the cluster average.
                cluster_min = min(load(t)[0] for t in pool)
                if load(best_local)[0] <= cluster_min + max(best_local.slots, 1):
                    tracker = best_local
                    locality = "node-local"
            if tracker is None:
                tracker = min(pool, key=load)
                locality = "node-local" if tracker.host in split.hosts else "remote"
            pending[id(tracker)] += 1
            if locality == "node-local":
                self.stats.node_local += 1
            else:
                self.stats.remote += 1
            assignments.append(
                Assignment(split=split, tracker=tracker, locality=locality)
            )
        return assignments

    def pick_tracker_round_robin(self) -> TaskTracker:
        """Round-robin tracker choice (used for reduce tasks, which have no locality).

        Thread-safe: reduce tasks are dispatched from a worker pool, so the
        shared iterator is advanced under a lock.  Blacklisted hosts are
        skipped; when every host is blacklisted (all trackers dead via
        :meth:`mark_dead`) a :class:`NoHealthyTrackerError` is raised.
        """
        with self._round_robin_lock:
            for _ in range(len(self._trackers)):
                tracker = next(self._round_robin)
                if tracker.host not in self._blacklisted:
                    return tracker
            raise NoHealthyTrackerError(set(self._blacklisted))
