"""Hadoop-style MapReduce engine running over any repro FileSystem.

The engine reproduces the structure the paper describes: a jobtracker
master, tasktracker slaves (one per node), input splitting aligned on
storage blocks, locality-aware map scheduling, shuffle/sort, and reduce
output written back to the distributed file system.
"""

from . import applications
from .faults import (
    FaultInjectedError,
    FaultPlan,
    InjectedTaskFailure,
    StorageFault,
    TaskFault,
    TrackerDeadError,
    TrackerFault,
    delay_task,
    fail_storage,
    fail_task,
    kill_storage_host,
    kill_tracker,
)
from .job import (
    Counters,
    Job,
    JobConf,
    TaskContext,
    identity_mapper,
    identity_reducer,
)
from .jobtracker import JobResult, JobTracker
from .scheduler import (
    Assignment,
    LocalityAwareScheduler,
    LocalityStats,
    NoHealthyTrackerError,
)
from .service import JobCancelledError, JobHandle, JobService
from .shuffle import (
    MapOutputCollector,
    SingleFileOutputFormat,
    TextOutputFormat,
    group_by_key,
    group_sorted_pairs,
    hash_partitioner,
)
from .shuffle_service import (
    ShuffleAbortedError,
    ShuffleService,
    SpilledSegment,
)
from .splitter import InputSplit, LineRecordReader, SyntheticInputFormat, TextInputFormat
from .tasktracker import TaskResult, TaskTracker

__all__ = [
    "Job",
    "JobConf",
    "JobResult",
    "JobTracker",
    "JobService",
    "JobHandle",
    "JobCancelledError",
    "NoHealthyTrackerError",
    "FaultInjectedError",
    "FaultPlan",
    "InjectedTaskFailure",
    "StorageFault",
    "TaskFault",
    "TrackerDeadError",
    "TrackerFault",
    "delay_task",
    "fail_storage",
    "fail_task",
    "kill_storage_host",
    "kill_tracker",
    "Counters",
    "TaskContext",
    "TaskTracker",
    "TaskResult",
    "LocalityAwareScheduler",
    "LocalityStats",
    "Assignment",
    "InputSplit",
    "LineRecordReader",
    "TextInputFormat",
    "SyntheticInputFormat",
    "MapOutputCollector",
    "TextOutputFormat",
    "SingleFileOutputFormat",
    "hash_partitioner",
    "group_by_key",
    "group_sorted_pairs",
    "ShuffleService",
    "ShuffleAbortedError",
    "SpilledSegment",
    "identity_mapper",
    "identity_reducer",
    "applications",
]
