"""Task attempts: the retry and blacklist protocol of one phase.

:class:`_RetryingPhase` runs the tasks of one MapReduce phase (all maps or
all reduces of a job) as bounded sequences of attempts on a worker pool;
:class:`~repro.mapreduce.jobtracker.JobTracker` builds one per phase and
supplies the callables that run, place and record an attempt.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from .scheduler import NoHealthyTrackerError
from .tasktracker import TaskResult, TaskTracker


class _TaskEntry:
    """Mutable per-task attempt bookkeeping (guarded by the phase lock)."""

    __slots__ = (
        "index",
        "attempts_started",
        "running",
        "banned_hosts",
        "winner",
        "permanent_failure",
        "done",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.attempts_started = 0
        self.running = 0
        self.banned_hosts: set[str] = set()
        self.winner: TaskResult | None = None
        self.permanent_failure: TaskResult | None = None
        self.done = False


class _RetryingPhase:
    """Executes one phase's tasks as bounded attempt sequences.

    The phase owns the full fault-tolerance protocol for its tasks:

    * a failed attempt is retried on a different tracker (``pick_tracker``
      receives the set of hosts that already failed this task) until
      ``max_attempts`` executions are spent or a non-retryable error hits;
    * every failure is reported to ``on_attempt_failed`` with the failed
      attempt's host (feeding the scheduler blacklist);
    * the first attempt to succeed wins; attempts of one task never
      overlap, so no other attempt of the task is running then;
    * a task with no surviving attempt triggers ``on_permanent_failure``
      (used to abort the shuffle so overlapped reducers do not wait
      forever) and fails the phase.

    The ``execute`` callable runs one attempt and returns ``(result,
    retryable)``.  It must only raise
    ``BaseException``s (SystemExit and friends), which the phase records
    and re-raises from :meth:`finish`.
    """

    def __init__(
        self,
        *,
        total: int,
        max_attempts: int,
        execute: Callable[[int, int, TaskTracker], tuple[TaskResult, bool]],
        pick_tracker: Callable[[int, int, set[str]], TaskTracker],
        make_failure: Callable[[int, int, BaseException], TaskResult],
        on_winner: Callable[[TaskResult], None] | None = None,
        on_attempt_failed: Callable[[str], None] | None = None,
        on_permanent_failure: Callable[[int, TaskResult], None] | None = None,
    ) -> None:
        self._max_attempts = max_attempts
        self._execute = execute
        self._pick_tracker = pick_tracker
        self._on_winner = on_winner
        self._on_attempt_failed = on_attempt_failed
        self._on_permanent_failure = on_permanent_failure
        self._make_failure = make_failure
        self._cond = threading.Condition()
        self._entries = [_TaskEntry(i) for i in range(total)]
        self._results: list[TaskResult] = []
        self._pool: ThreadPoolExecutor | None = None
        self._fatal: BaseException | None = None

    # -- results -----------------------------------------------------------------------
    @property
    def results(self) -> list[TaskResult]:
        """Every attempt result recorded so far (read after the pool closed)."""
        with self._cond:
            return list(self._results)

    @property
    def succeeded(self) -> bool:
        """Whether every task of the phase committed a winning attempt."""
        with self._cond:
            return all(e.winner is not None for e in self._entries)

    # -- orchestration -----------------------------------------------------------------
    def _fail_no_tracker(
        self, entry: _TaskEntry, attempt: int, exc: NoHealthyTrackerError
    ) -> None:
        """Record a permanent failure for a task that cannot be placed.

        Every tracker host is dead/blacklisted, so the attempt fails without
        ever launching.
        """
        result = self._make_failure(entry.index, attempt, exc)
        permanent: TaskResult | None = None
        with self._cond:
            self._results.append(result)
            if entry.winner is None and not entry.done and entry.running == 0:
                entry.permanent_failure = result
                entry.done = True
                permanent = result
            self._cond.notify_all()
        if permanent is not None and self._on_permanent_failure is not None:
            self._on_permanent_failure(entry.index, permanent)

    def start(self, pool: ThreadPoolExecutor) -> None:
        """Submit attempt 0 of every task to ``pool`` and return immediately."""
        self._pool = pool
        with self._cond:
            for entry in self._entries:
                try:
                    tracker = self._pick_tracker(entry.index, 0, set())
                except NoHealthyTrackerError as exc:
                    self._fail_no_tracker(entry, 0, exc)
                    continue
                self._launch(entry, tracker)

    def finish(self) -> list[TaskResult]:
        """Block until every task is decided.

        Attempts of one task never overlap (a retry is launched only from
        its failed predecessor's :meth:`_record`), so every attempt is
        recorded by then; its worker may still be running the
        ``on_winner`` or ``on_attempt_failed`` callback until the pool is
        joined.
        """
        with self._cond:
            while self._fatal is None and not all(e.done for e in self._entries):
                self._cond.wait()
        if self._fatal is not None:
            raise self._fatal
        return self.results

    def run(self, pool: ThreadPoolExecutor) -> list[TaskResult]:
        """``start`` + ``finish``: submit every task, then block until each
        is decided."""
        self.start(pool)
        return self.finish()

    def _launch(self, entry: _TaskEntry, tracker: TaskTracker) -> None:
        """Submit one attempt of ``entry`` (phase lock held)."""
        attempt = entry.attempts_started
        entry.attempts_started += 1
        entry.running += 1
        assert self._pool is not None
        try:
            self._pool.submit(self._attempt, entry, attempt, tracker)
        except RuntimeError:
            # The pool is shutting down (fatal error elsewhere): undo the
            # launch bookkeeping so the entry does not look in-flight.
            entry.attempts_started -= 1
            entry.running -= 1

    def _attempt(self, entry: _TaskEntry, attempt: int, tracker: TaskTracker) -> None:
        try:
            result, retryable = self._execute(entry.index, attempt, tracker)
        except BaseException as exc:
            # ``execute`` traps Exception; anything escaping is a
            # SystemExit-class event that must fail the whole phase instead
            # of vanishing inside the worker pool.
            with self._cond:
                if self._fatal is None:
                    self._fatal = exc
                entry.running -= 1
                self._cond.notify_all()
            raise
        self._record(entry, result, retryable)

    def _record(self, entry: _TaskEntry, result: TaskResult, retryable: bool) -> None:
        """Fold one finished attempt into the entry's state machine."""
        relaunch = False
        permanent: TaskResult | None = None
        host_failed = False
        won = False
        with self._cond:
            entry.running -= 1
            if result.succeeded:
                entry.winner = result
                entry.done = True
                won = True
            else:
                entry.banned_hosts.add(result.tracker_host)
                host_failed = True
                if (
                    entry.winner is None
                    and retryable
                    and entry.attempts_started < self._max_attempts
                    and self._fatal is None
                ):
                    relaunch = True
                elif entry.winner is None and entry.running == 0 and not entry.done:
                    entry.permanent_failure = result
                    entry.done = True
                    permanent = result
            self._results.append(result)
            self._cond.notify_all()
        if won and self._on_winner is not None:
            self._on_winner(result)
        if host_failed and self._on_attempt_failed is not None:
            self._on_attempt_failed(result.tracker_host)
        if relaunch:
            with self._cond:
                banned = set(entry.banned_hosts)
                next_attempt = entry.attempts_started
            try:
                tracker = self._pick_tracker(entry.index, next_attempt, banned)
            except NoHealthyTrackerError as exc:
                self._fail_no_tracker(entry, next_attempt, exc)
                return
            with self._cond:
                if entry.winner is None and self._fatal is None:
                    self._launch(entry, tracker)
                elif entry.running == 0 and entry.winner is None and not entry.done:
                    entry.permanent_failure = result
                    entry.done = True
                    permanent = result
                    self._cond.notify_all()
        if permanent is not None and self._on_permanent_failure is not None:
            self._on_permanent_failure(entry.index, permanent)
