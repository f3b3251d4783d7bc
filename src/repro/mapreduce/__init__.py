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
    NetworkFault,
    StorageFault,
    TaskFault,
    TrackerDeadError,
    TrackerFault,
    delay_messages,
    delay_task,
    drop_messages,
    fail_storage,
    fail_task,
    kill_node,
    kill_storage_host,
    kill_tracker,
    partition_peer,
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
    SlotLedger,
)
from .service import (
    AdmissionError,
    JobCancelledError,
    JobHandle,
    JobService,
    JobServiceEndpoint,
    TenantConfig,
)
from .shuffle import (
    MapOutputCollector,
    SingleFileOutputFormat,
    TextOutputFormat,
    group_by_key,
    group_sorted_pairs,
    hash_partitioner,
)
from .shuffle_service import (
    SegmentReader,
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
    "JobServiceEndpoint",
    "TenantConfig",
    "AdmissionError",
    "JobCancelledError",
    "NoHealthyTrackerError",
    "SlotLedger",
    "FaultInjectedError",
    "FaultPlan",
    "InjectedTaskFailure",
    "NetworkFault",
    "StorageFault",
    "TaskFault",
    "TrackerDeadError",
    "TrackerFault",
    "delay_messages",
    "delay_task",
    "drop_messages",
    "fail_storage",
    "fail_task",
    "kill_node",
    "kill_storage_host",
    "kill_tracker",
    "partition_peer",
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
    "SegmentReader",
    "SpilledSegment",
    "identity_mapper",
    "identity_reducer",
    "applications",
]
