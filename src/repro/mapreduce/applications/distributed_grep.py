"""Distributed Grep: the paper's second real MapReduce application.

"Distributed Grep ... scans huge input data to find occurrences of
particular expressions.  ... distributed grep generates an access pattern
of concurrent reads from the same huge file" — the map tasks all read
disjoint chunks of one big input file (the E2 microbenchmark pattern), and
a small reduce phase counts the matches per expression.
"""

from __future__ import annotations

import re

from ..job import Job, JobConf, TaskContext

__all__ = ["make_distributed_grep_job"]


class _GrepMapper:
    """Emits ``(matched expression, 1)`` for every match in the input line;
    the expression is compiled once per job, as in Hadoop's ``RegexMapper``."""

    def __init__(self, pattern: str, ignore_case: bool) -> None:
        self._regex = re.compile(pattern, re.IGNORECASE if ignore_case else 0)

    def __call__(self, key: int, value: bytes, context: TaskContext) -> None:
        for match in self._regex.finditer(value.decode("utf-8", errors="replace")):
            context.emit(match.group(0), 1)
            context.counters.increment("grep.matches")


def _count_reducer(key: str, values, context: TaskContext) -> None:
    """Sum the per-map match counts of one expression."""
    context.emit(key, sum(values))


def make_distributed_grep_job(
    pattern: str,
    input_paths: list[str] | tuple[str, ...],
    *,
    output_dir: str = "/grep-output",
    num_reduce_tasks: int = 1,
    split_size: int | None = None,
    ignore_case: bool = False,
) -> Job:
    """Build a Distributed Grep job over ``input_paths``.

    The mapper emits every substring matching ``pattern`` (a regular
    expression) and the reducer counts occurrences per matched string,
    mirroring Hadoop's bundled ``grep`` example (minus the second sorting
    job, which does not affect the storage access pattern the paper
    studies).
    """
    if not pattern:
        raise ValueError("distributed grep needs a non-empty pattern")
    conf = JobConf(
        name="distributed-grep",
        input_paths=tuple(input_paths),
        output_dir=output_dir,
        num_reduce_tasks=num_reduce_tasks,
        split_size=split_size,
    )
    return Job(
        conf=conf,
        mapper=_GrepMapper(pattern, ignore_case),
        reducer=_count_reducer,
        combiner=_count_reducer,
    )
