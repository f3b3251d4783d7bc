"""WordCount: the canonical MapReduce example, used by the quickstart example
and by integration tests as an end-to-end sanity workload over both BSFS and
HDFS."""

from __future__ import annotations

from ..job import Job, JobConf, TaskContext

__all__ = ["make_wordcount_job"]


def _wordcount_mapper(key: int, value: bytes, context: TaskContext) -> None:
    """Emit ``(word, 1)`` for every whitespace-separated token of the line."""
    words = value.decode("utf-8", errors="replace").split()
    for word in words:
        context.emit(word, 1)
    if words:
        context.counters.increment("wordcount.words", len(words))


def _sum_reducer(key: str, values, context: TaskContext) -> None:
    """Sum the occurrence counts of one word."""
    context.emit(key, sum(values))


def make_wordcount_job(
    input_paths: list[str] | tuple[str, ...],
    *,
    output_dir: str = "/wordcount-output",
    num_reduce_tasks: int = 1,
    split_size: int | None = None,
) -> Job:
    """Build a WordCount job over ``input_paths``."""
    conf = JobConf(
        name="wordcount",
        input_paths=tuple(input_paths),
        output_dir=output_dir,
        num_reduce_tasks=num_reduce_tasks,
        split_size=split_size,
    )
    return Job(
        conf=conf,
        mapper=_wordcount_mapper,
        reducer=_sum_reducer,
        combiner=_sum_reducer,
    )
