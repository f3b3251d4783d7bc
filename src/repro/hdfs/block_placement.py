"""HDFS block placement policy, exactly as the paper describes it.

    "HDFS employs a different policy when allocating chunks to datanodes;
    the first replica of a chunk is always written locally; for fault
    tolerance, the second replica is stored on a datanode in the same rack
    as the first replica, and the third copy is sent to a datanode
    belonging to a different rack (randomly chosen)."

This policy is the crux of the paper's explanation for why HDFS throughput
degrades under heavy concurrency relative to BSFS: a single writer's blocks
concentrate on its local datanode (making that node a hotspot for later
concurrent readers of the same file), and concurrent writers each hammer
their own local disk instead of striping across the cluster.  The policy is
reused verbatim by the cluster simulator so the simulated curves reflect
the real algorithm.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence

from ..core.errors import AllocationError
from .datanode import DataNode

__all__ = [
    "BlockPlacementPolicy",
    "DefaultPlacementPolicy",
    "RandomPlacementPolicy",
    "make_placement_policy",
]


class BlockPlacementPolicy(ABC):
    """Strategy choosing the datanodes that will store one block's replicas."""

    @abstractmethod
    def choose_targets(
        self,
        datanodes: Sequence[DataNode],
        replication: int,
        *,
        writer_host: str | None = None,
    ) -> list[DataNode]:
        """Return ``replication`` distinct datanodes for one new block."""


class DefaultPlacementPolicy(BlockPlacementPolicy):
    """The rack-aware policy quoted above (local, same rack, remote rack).

    Candidates are the datanodes whose ``available`` is true, a check that
    sends nothing: a remote datanode's stub answers from what its own calls
    saw, as Hadoop's namenode places blocks from heartbeat state.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose_targets(
        self,
        datanodes: Sequence[DataNode],
        replication: int,
        *,
        writer_host: str | None = None,
    ) -> list[DataNode]:
        live = [d for d in datanodes if d.available]
        if replication < 1:
            raise AllocationError("replication must be at least 1")
        if replication > len(live):
            raise AllocationError(
                f"replication {replication} exceeds live datanodes ({len(live)})"
            )
        chosen: list[DataNode] = []

        def remaining() -> list[DataNode]:
            return [d for d in live if d not in chosen]

        # Replica 1: the writer's local datanode when it runs on one.
        local = [d for d in live if writer_host is not None and d.host == writer_host]
        first = local[0] if local else self._rng.choice(live)
        chosen.append(first)

        # Replica 2: a different datanode in the same rack as the first.
        if len(chosen) < replication:
            same_rack = [d for d in remaining() if d.rack == first.rack]
            pool = same_rack if same_rack else remaining()
            chosen.append(self._rng.choice(pool))

        # Replica 3: a datanode in a different rack, randomly chosen.
        if len(chosen) < replication:
            other_rack = [d for d in remaining() if d.rack != first.rack]
            pool = other_rack if other_rack else remaining()
            chosen.append(self._rng.choice(pool))

        # Additional replicas (replication > 3): random remaining nodes.
        while len(chosen) < replication:
            chosen.append(self._rng.choice(remaining()))
        return chosen


class RandomPlacementPolicy(BlockPlacementPolicy):
    """Uniformly random placement (ablation baseline, ignores racks and locality)."""

    def __init__(self, *, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose_targets(
        self,
        datanodes: Sequence[DataNode],
        replication: int,
        *,
        writer_host: str | None = None,
    ) -> list[DataNode]:
        live = [d for d in datanodes if d.available]
        if replication > len(live):
            raise AllocationError(
                f"replication {replication} exceeds live datanodes ({len(live)})"
            )
        return self._rng.sample(live, replication)


_POLICIES = {
    "default": DefaultPlacementPolicy,
    "random": RandomPlacementPolicy,
}


def make_placement_policy(name: str, *, seed: int = 0) -> BlockPlacementPolicy:
    """Instantiate a placement policy by name (``"default"`` or ``"random"``)."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise AllocationError(f"unknown placement policy {name!r}") from None
    return factory(seed=seed)
