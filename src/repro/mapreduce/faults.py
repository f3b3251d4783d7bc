"""Deterministic, seedable failure injection for the MapReduce engine.

The paper's evaluation runs MapReduce on a large testbed where task
failures, tracker crashes and stragglers are the norm, not the exception.
This module makes those scenarios *expressible* so the fault-tolerance
subsystem (bounded retries and tracker blacklisting — see
:mod:`repro.mapreduce.jobtracker`) has something to recover from:

* :class:`FaultPlan` is a schedule of injected faults, built either from
  explicit specs (``fail_task``, ``delay_task``, ``kill_tracker``,
  ``fail_storage``) or from a seeded random rate
  (:meth:`FaultPlan.random`);
* every decision is a pure function of ``(seed, kind, index, attempt)``,
  so the same plan replayed over the same job injects exactly the same
  faults regardless of thread scheduling — the property the determinism
  tests pin down;
* random plans only ever hit *attempt 0* of a task, which guarantees that
  a bounded retry budget always converges: chaos runs still must produce
  byte-identical output.

The plan is threaded through :class:`~repro.mapreduce.tasktracker.TaskTracker`:
every task attempt calls :meth:`FaultPlan.on_task_start` before touching
any data, which may raise (injected task failure, dead tracker), sleep
(injected straggler), or fail a storage node mid-job (exercising the
replica-aware re-read paths of BSFS and HDFS).
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "FaultInjectedError",
    "InjectedTaskFailure",
    "TrackerDeadError",
    "TaskFault",
    "TrackerFault",
    "StorageFault",
    "fail_task",
    "delay_task",
    "kill_tracker",
    "fail_storage",
    "kill_storage_host",
    "FaultPlan",
]


class FaultInjectedError(RuntimeError):
    """Base class of every error raised by failure injection."""


class InjectedTaskFailure(FaultInjectedError):
    """An injected crash of one task attempt."""


class TrackerDeadError(FaultInjectedError):
    """Raised by every task attempt starting on a killed tracker."""


@dataclass(frozen=True, slots=True)
class TaskFault:
    """Fail or delay one task (``kind`` + ``index``) on selected attempts."""

    kind: str  # "map" | "reduce"
    index: int
    action: str  # "fail" | "delay"
    attempts: tuple[int, ...] = (0,)
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("map", "reduce"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.action not in ("fail", "delay"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.action == "delay" and self.delay < 0:
            raise ValueError("delay must be non-negative")


@dataclass(frozen=True, slots=True)
class TrackerFault:
    """Kill one task tracker after it has *started* ``after_tasks`` attempts.

    Every attempt starting on the dead tracker raises
    :class:`TrackerDeadError`; the jobtracker reacts by blacklisting the
    host and re-executing elsewhere.
    """

    host: str
    after_tasks: int = 0


@dataclass(frozen=True, slots=True)
class StorageFault:
    """Fail one *storage* node once the job has started ``after_task_starts`` attempts.

    Storage faults exercise the replica-aware re-read paths: BSFS fails
    over to another page replica, HDFS to another block replica.  On
    ``file://`` there is no storage node to kill, so the fault is a no-op.
    """

    host: str
    after_task_starts: int = 0


def fail_task(kind: str, index: int, *, attempts: Iterable[int] = (0,)) -> TaskFault:
    """Spec: task ``index`` of ``kind`` crashes on the given attempt numbers."""
    return TaskFault(kind=kind, index=index, action="fail", attempts=tuple(attempts))


def delay_task(
    kind: str,
    index: int,
    seconds: float,
    *,
    attempts: Iterable[int] = (0,),
) -> TaskFault:
    """Spec: task ``index`` of ``kind`` is a straggler, sleeping ``seconds``."""
    return TaskFault(
        kind=kind,
        index=index,
        action="delay",
        attempts=tuple(attempts),
        delay=seconds,
    )


def kill_tracker(host: str, *, after_tasks: int = 0) -> TrackerFault:
    """Spec: tracker ``host`` dies after starting ``after_tasks`` attempts."""
    return TrackerFault(host=host, after_tasks=after_tasks)


def fail_storage(host: str, *, after_task_starts: int = 0) -> StorageFault:
    """Spec: storage node ``host`` fails once the job started N attempts."""
    return StorageFault(host=host, after_task_starts=after_task_starts)


def kill_storage_host(fs, host: str) -> bool:
    """Fail the storage node named ``host`` on ``fs`` (BSFS provider or
    HDFS datanode); returns whether a node was found and killed.

    ``file://`` has no storage daemons, so the call is a no-op there.
    """
    blobseer = getattr(fs, "blobseer", None)
    if blobseer is not None:
        for provider in blobseer.provider_manager.providers:
            if provider.host == host:
                provider.fail()
                return True
    namenode = getattr(fs, "namenode", None)
    if namenode is not None:
        for datanode in namenode.datanodes:
            if datanode.host == host:
                datanode.fail()
                return True
    return False


#: Salt strings keeping the fail and delay decision streams independent.
_FAIL_SALT = "fail"
_DELAY_SALT = "delay"


def _fraction(seed: int, salt: str, kind: str, index: int, attempt: int) -> float:
    """Deterministic uniform fraction in [0, 1) for one decision point."""
    token = f"{seed}:{salt}:{kind}:{index}:{attempt}".encode()
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


class FaultPlan:
    """A deterministic schedule of injected faults for one job run.

    Decisions (:meth:`decide`) are pure; only the *trigger* state (how many
    attempts each tracker started, which storage faults already fired) is
    mutable, guarded by a lock because task attempts start concurrently.

    A plan instance is meant to drive a single job run: tracker deaths and
    storage failures do not reset between runs.
    """

    def __init__(
        self,
        faults: Iterable[TaskFault | TrackerFault | StorageFault] = (),
        *,
        seed: int = 0,
        failure_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay: float = 0.05,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be within [0, 1]")
        if not 0.0 <= delay_rate <= 1.0:
            raise ValueError("delay_rate must be within [0, 1]")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.seed = seed
        self.failure_rate = failure_rate
        self.delay_rate = delay_rate
        self.delay = delay
        self.task_faults: list[TaskFault] = []
        self.tracker_faults: list[TrackerFault] = []
        self.storage_faults: list[StorageFault] = []
        for fault in faults:
            if isinstance(fault, TaskFault):
                self.task_faults.append(fault)
            elif isinstance(fault, TrackerFault):
                self.tracker_faults.append(fault)
            elif isinstance(fault, StorageFault):
                self.storage_faults.append(fault)
            else:
                raise TypeError(f"unknown fault spec {fault!r}")
        self._lock = threading.Lock()
        self._task_starts = 0
        self._tracker_starts: dict[str, int] = {}
        self._dead_trackers: set[str] = set()
        self._fired_storage: set[int] = set()
        self.injected_failures = 0
        self.injected_delays = 0

    @classmethod
    def random(
        cls,
        *,
        seed: int,
        failure_rate: float = 0.1,
        delay_rate: float = 0.0,
        delay: float = 0.05,
    ) -> "FaultPlan":
        """A seeded random plan: each task's *first* attempt fails with
        probability ``failure_rate`` and straggles with ``delay_rate``.

        Only attempt 0 is ever hit, so any ``max_task_attempts >= 2``
        budget recovers every injected fault — the chaos-test contract.
        """
        return cls(
            seed=seed,
            failure_rate=failure_rate,
            delay_rate=delay_rate,
            delay=delay,
        )

    # -- pure decision function --------------------------------------------------------
    def decide(self, kind: str, index: int, attempt: int) -> tuple[str | None, float]:
        """Return ``(action, delay_seconds)`` for one attempt — pure and
        deterministic, the function the determinism tests replay."""
        for fault in self.task_faults:
            if fault.kind == kind and fault.index == index and attempt in fault.attempts:
                return fault.action, fault.delay
        if attempt == 0 and self.failure_rate > 0.0:
            if _fraction(self.seed, _FAIL_SALT, kind, index, attempt) < self.failure_rate:
                return "fail", 0.0
        if attempt == 0 and self.delay_rate > 0.0:
            if _fraction(self.seed, _DELAY_SALT, kind, index, attempt) < self.delay_rate:
                return "delay", self.delay
        return None, 0.0

    def schedule(self, kind: str, count: int, *, attempts: int = 1) -> dict:
        """Snapshot of :meth:`decide` over a task grid (determinism tests)."""
        return {
            (kind, index, attempt): self.decide(kind, index, attempt)
            for index in range(count)
            for attempt in range(attempts)
        }

    # -- runtime hooks -----------------------------------------------------------------
    def on_task_start(
        self,
        *,
        kind: str,
        index: int,
        attempt: int,
        tracker_host: str,
        fs=None,
    ) -> None:
        """Injection point called by every task attempt before it reads data.

        May raise :class:`TrackerDeadError` (tracker killed),
        :class:`InjectedTaskFailure` (task crash), sleep (straggler), and
        fire pending storage faults against ``fs``.
        """
        pending_storage: list[StorageFault] = []
        with self._lock:
            self._task_starts += 1
            started_total = self._task_starts
            started_here = self._tracker_starts.get(tracker_host, 0) + 1
            self._tracker_starts[tracker_host] = started_here
            for fault in self.tracker_faults:
                if fault.host == tracker_host and started_here > fault.after_tasks:
                    self._dead_trackers.add(tracker_host)
            for position, fault in enumerate(self.storage_faults):
                if position in self._fired_storage:
                    continue
                if started_total > fault.after_task_starts:
                    self._fired_storage.add(position)
                    pending_storage.append(fault)
            tracker_dead = tracker_host in self._dead_trackers
        for fault in pending_storage:
            if fs is not None:
                kill_storage_host(fs, fault.host)
        if tracker_dead:
            raise TrackerDeadError(f"tracker {tracker_host!r} was killed by the fault plan")
        action, delay = self.decide(kind, index, attempt)
        if action == "fail":
            with self._lock:
                self.injected_failures += 1
            raise InjectedTaskFailure(f"injected failure of {kind}-{index:05d} attempt {attempt}")
        if action == "delay" and delay > 0:
            with self._lock:
                self.injected_delays += 1
            time.sleep(delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(task={len(self.task_faults)}, "
            f"tracker={len(self.tracker_faults)}, "
            f"storage={len(self.storage_faults)}, seed={self.seed}, "
            f"failure_rate={self.failure_rate}, delay_rate={self.delay_rate})"
        )
