"""HDFS-specific behaviour: write-once semantics, pipeline, replica reads."""

from __future__ import annotations

import time

import pytest

from repro.core.errors import ProviderUnavailableError
from repro.core import KB
from repro.fs.errors import InvalidRangeError, UnsupportedOperationError
from repro.hdfs import HDFS, DefaultPlacementPolicy
from repro.hdfs.filesystem import READ_AHEAD_CHUNKS

BLOCK = 16 * KB


class TestWriteOnceSemantics:
    def test_append_is_unsupported(self, hdfs: HDFS):
        hdfs.write_file("/f.bin", b"data")
        with pytest.raises(UnsupportedOperationError):
            hdfs.append("/f.bin")

    def test_closed_files_are_sealed(self, hdfs: HDFS):
        hdfs.write_file("/sealed.bin", b"data")
        with pytest.raises(UnsupportedOperationError):
            hdfs.namenode.add_block("/sealed.bin")


class TestBlockAllocationAndPipeline:
    def test_blocks_split_at_block_size(self, hdfs: HDFS):
        payload = b"p" * (2 * BLOCK + 500)
        hdfs.write_file("/split.bin", payload)
        blocks = hdfs.namenode.file_blocks("/split.bin")
        assert [b.length for b in blocks] == [BLOCK, BLOCK, 500]
        assert hdfs.read_file("/split.bin") == payload

    def test_replication_pipeline_stores_all_replicas(self, hdfs: HDFS):
        hdfs.write_file("/rep.bin", b"r" * BLOCK, replication=3)
        meta = hdfs.namenode.file_blocks("/rep.bin")[0]
        assert len(meta.locations) == 3
        for node_id in meta.locations:
            assert hdfs.namenode.datanode(node_id).has_block(meta.block_id)

    def test_local_first_placement_with_client_host(self, hdfs: HDFS):
        with hdfs.create("/local.bin", client_host="node-3") as out:
            out.write(b"l" * (3 * BLOCK))
        for meta in hdfs.namenode.file_blocks("/local.bin"):
            first_replica = hdfs.namenode.datanode(meta.locations[0])
            assert first_replica.host == "node-3"

    def test_write_survives_partial_pipeline_failure(self, hdfs: HDFS):
        hdfs.datanodes[1].fail()
        hdfs.write_file("/tolerant.bin", b"t" * BLOCK, replication=3)
        meta = hdfs.namenode.file_blocks("/tolerant.bin")[0]
        assert 1 not in meta.locations
        assert len(meta.locations) >= 1
        assert hdfs.read_file("/tolerant.bin") == b"t" * BLOCK

    def test_write_with_every_datanode_down_raises_unavailable(self):
        # The all-known-down case raises what a write whose chosen nodes
        # failed raises, so one handler covers both; the file gets no block.
        hdfs = HDFS(num_datanodes=3)
        for datanode in hdfs.datanodes:
            datanode.fail()
        with pytest.raises(ProviderUnavailableError):
            hdfs.write_file("/down.bin", b"x" * BLOCK)
        assert hdfs.namenode.file_blocks("/down.bin") == []

    def test_replica_pushes_run_concurrently(self):
        # The write pipeline must push one block's replicas to the chosen
        # datanodes in parallel: three barrier-gated datanodes can only all
        # accept the block if their writes overlap in time.
        import threading

        from repro.hdfs import DataNode

        barrier = threading.Barrier(3, timeout=5)

        class GatedDataNode(DataNode):
            def write_block(self, block_id, data):
                barrier.wait()
                super().write_block(block_id, data)

        nodes = [GatedDataNode(i, host=f"g{i}", rack=f"r{i}") for i in range(3)]
        fs = HDFS(datanodes=nodes, default_block_size=BLOCK, default_replication=3)
        fs.write_file("/parallel.bin", b"p" * BLOCK)
        meta = fs.namenode.file_blocks("/parallel.bin")[0]
        assert sorted(meta.locations) == [0, 1, 2]

    def test_many_small_writes_do_linear_copy_work(self, hdfs: HDFS):
        # Regression for the O(n²) block-writer buffer: 20k one-byte writes
        # against a 16 KiB block must not re-copy the pending buffer per
        # write.  Asserted on the chunk buffer's join counter (op count),
        # not on wall clock.
        writes = 20_000
        stream = hdfs.create("/tiny-writes.bin")
        for _ in range(writes):
            stream.write(b"k")
        buffer_joined = stream._buffer.bytes_joined
        stream.close()
        assert buffer_joined <= 2 * writes
        assert hdfs.size("/tiny-writes.bin") == writes
        assert hdfs.read_file("/tiny-writes.bin") == b"k" * writes


class TestReads:
    def test_reader_prefers_local_replica(self, hdfs: HDFS):
        with hdfs.create("/near.bin", client_host="node-2", replication=2) as out:
            out.write(b"n" * BLOCK)
        local = next(d for d in hdfs.datanodes if d.host == "node-2")
        before = local.stats().blocks_read
        with hdfs.open("/near.bin", client_host="node-2") as stream:
            stream.read()
        assert local.stats().blocks_read == before + 1

    def test_read_fails_over_to_surviving_replica(self, hdfs: HDFS):
        hdfs.write_file("/failover.bin", b"f" * BLOCK, replication=2)
        meta = hdfs.namenode.file_blocks("/failover.bin")[0]
        hdfs.namenode.datanode(meta.locations[0]).fail()
        assert hdfs.read_file("/failover.bin") == b"f" * BLOCK

    def test_read_with_all_replicas_down_raises(self, hdfs: HDFS):
        hdfs.write_file("/doomed.bin", b"d" * BLOCK, replication=1)
        meta = hdfs.namenode.file_blocks("/doomed.bin")[0]
        hdfs.namenode.datanode(meta.locations[0]).fail()
        with pytest.raises(ProviderUnavailableError):
            hdfs.read_file("/doomed.bin")


    @staticmethod
    def record_node_calls(hdfs: HDFS, monkeypatch) -> tuple[list[int], list[int]]:
        """Node ids of every ``stats()`` call and of every block read."""
        loads: list[int] = []
        reads: list[int] = []
        for node in hdfs.datanodes:

            def stats(node=node, inner=node.stats):
                loads.append(node.node_id)
                return inner()

            def read_block(*args, node=node, inner=node.read_block):
                reads.append(node.node_id)
                return inner(*args)

            monkeypatch.setattr(node, "stats", stats)
            monkeypatch.setattr(node, "read_block", read_block)
        return loads, reads

    def test_single_replica_read_asks_no_node_for_its_load(self, hdfs: HDFS, monkeypatch):
        hdfs.write_file("/lone.bin", b"l" * (3 * BLOCK), replication=1)
        loads, reads = self.record_node_calls(hdfs, monkeypatch)
        assert hdfs.read_file("/lone.bin") == b"l" * (3 * BLOCK)
        assert loads == [] and len(reads) == 3

    def test_replicas_are_still_ordered_by_distance_then_load(self, hdfs: HDFS, monkeypatch):
        # "Load" is the blocks this client read from each node: no node is
        # asked, so the client's own first read is what makes one busy.
        hdfs.write_file("/pair.bin", b"p" * BLOCK, replication=2)
        meta = hdfs.namenode.file_blocks("/pair.bin")[0]
        loads, reads = self.record_node_calls(hdfs, monkeypatch)
        hdfs.read_file("/pair.bin")
        (busy_id,) = reads
        (idle_id,) = set(meta.locations) - {busy_id}
        busy = hdfs.namenode.datanode(busy_id)
        # A client on the busier replica's host reads locally regardless.
        reads.clear()
        with hdfs.open("/pair.bin", client_host=busy.host) as stream:
            stream.read()
        assert reads == [busy_id]
        # Same distance from a host-less client: the less read goes first.
        reads.clear()
        hdfs.read_file("/pair.bin")
        assert reads == [idle_id]
        assert loads == []

    def test_a_down_replica_is_tried_last_even_when_local(self, hdfs: HDFS, monkeypatch):
        hdfs.write_file("/pair.bin", b"p" * BLOCK, replication=2)
        meta = hdfs.namenode.file_blocks("/pair.bin")[0]
        local, other = (hdfs.namenode.datanode(i) for i in meta.locations)
        local.fail()
        loads, reads = self.record_node_calls(hdfs, monkeypatch)
        with hdfs.open("/pair.bin", client_host=local.host) as stream:
            assert stream.read() == b"p" * BLOCK
        assert reads == [other.node_id]
        assert loads == []

    def test_open_read_fetches_at_most_read_ahead_chunks_ahead(
        self, hdfs: HDFS, monkeypatch
    ):
        data = bytes(range(256)) * (4 * BLOCK // 256)
        hdfs.write_file("/ahead.bin", data, replication=1)
        fetched: list[int] = []
        read_block = hdfs._read_block

        def recorded(meta, offset, length, client_host):
            fetched.append(offset)
            return read_block(meta, offset, length, client_host)

        monkeypatch.setattr(hdfs, "_read_block", recorded)
        stream = hdfs.open_read("/ahead.bin", chunk_size=BLOCK // 8)
        assert fetched == []  # nothing is read before the first chunk
        first = bytes(next(stream))
        time.sleep(0.05)  # give a runaway read-ahead time to show
        assert 1 <= len(fetched) <= READ_AHEAD_CHUNKS
        assert first + b"".join(bytes(chunk) for chunk in stream) == data
        assert len(fetched) == 32


class TestNamenodeBookkeeping:
    def test_block_locations_expose_hosts(self, hdfs: HDFS):
        hdfs.write_file("/where.bin", b"w" * (2 * BLOCK), replication=2)
        locations = hdfs.block_locations("/where.bin")
        assert len(locations) == 2
        for location in locations:
            assert len(location.hosts) == 2

    def test_block_locations_past_eof_raises_invalid_range(self, hdfs: HDFS):
        # Mirrors the BSFS check: a past-EOF offset is a proper
        # InvalidRangeError naming the file, not a silent empty list.
        hdfs.write_file("/eof.bin", b"E" * 100)
        with pytest.raises(InvalidRangeError) as excinfo:
            hdfs.block_locations("/eof.bin", offset=101)
        assert "/eof.bin" in str(excinfo.value)
        with pytest.raises(InvalidRangeError):
            hdfs.block_locations("/eof.bin", offset=-1)
        with pytest.raises(InvalidRangeError, match="negative length"):
            hdfs.block_locations("/eof.bin", offset=0, length=-5)
        assert hdfs.block_locations("/eof.bin", offset=100) == []

    def test_delete_releases_datanode_blocks(self, hdfs: HDFS):
        hdfs.write_file("/gone.bin", b"g" * (3 * BLOCK))
        assert sum(d.stats().blocks_stored for d in hdfs.datanodes) > 0
        hdfs.delete("/gone.bin")
        assert sum(d.stats().blocks_stored for d in hdfs.datanodes) == 0

    def test_overwrite_releases_old_blocks(self, hdfs: HDFS):
        hdfs.write_file("/ow.bin", b"1" * (2 * BLOCK))
        hdfs.write_file("/ow.bin", b"2" * 100, overwrite=True)
        assert hdfs.read_file("/ow.bin") == b"2" * 100
        total_bytes = sum(d.stats().bytes_stored for d in hdfs.datanodes)
        assert total_bytes == 100 * hdfs.namenode.default_replication

    def test_deregister_datanode_is_idempotent(self, hdfs: HDFS):
        removed = hdfs.namenode.deregister_datanode(0)
        assert removed is not None and removed.node_id == 0
        assert hdfs.namenode.deregister_datanode(0) is None
        assert hdfs.namenode.deregister_datanode(99) is None
        assert len(hdfs.datanodes) == 5

    def test_reregistration_replaces_stale_entry(self, hdfs: HDFS):
        from repro.hdfs import DataNode

        restarted = DataNode(2, host="node-2", rack="rack-2")
        hdfs.namenode.register_datanode(restarted)
        assert len(hdfs.datanodes) == 6  # replaced, not appended
        assert hdfs.namenode.datanode(2) is restarted

    def test_block_report_reconciles_locations(self, hdfs: HDFS):
        hdfs.write_file("/br.bin", b"b" * BLOCK, replication=2)
        meta = hdfs.namenode.file_blocks("/br.bin")[0]
        node_id = meta.locations[0]
        other = meta.locations[1]
        # The node restarted empty: its report no longer lists the block.
        outcome = hdfs.namenode.apply_block_report(node_id, [])
        assert outcome["removed"] == 1
        meta = hdfs.namenode.block_meta(meta.block_id)
        assert meta.locations == (other,)
        # The report is authoritative the other way too.
        outcome = hdfs.namenode.apply_block_report(node_id, [meta.block_id])
        assert outcome["added"] == 1
        assert set(hdfs.namenode.block_meta(meta.block_id).locations) == {
            node_id,
            other,
        }
        # Unknown block ids (deleted files) are ignored.
        outcome = hdfs.namenode.apply_block_report(node_id, [meta.block_id, 424242])
        assert outcome == {"added": 0, "removed": 0}

    def test_dead_datanode_triggers_re_replication(self, hdfs: HDFS):
        payload = b"x" * (2 * BLOCK)
        hdfs.write_file("/rerep.bin", payload, replication=2)
        metas = hdfs.namenode.file_blocks("/rerep.bin")
        victim = metas[0].locations[0]
        hdfs.namenode.datanode(victim).fail()
        copied = hdfs.namenode.handle_dead_datanode(victim)
        assert copied >= 1
        for meta in hdfs.namenode.file_blocks("/rerep.bin"):
            assert victim not in meta.locations
            assert len(meta.locations) == 2  # replica count restored
            for node_id in meta.locations:
                assert hdfs.namenode.datanode(node_id).has_block(meta.block_id)
        assert hdfs.read_file("/rerep.bin") == payload

    def test_dead_datanode_with_lost_only_replica_degrades_gracefully(
        self, hdfs: HDFS
    ):
        hdfs.write_file("/lost.bin", b"l" * BLOCK, replication=1)
        meta = hdfs.namenode.file_blocks("/lost.bin")[0]
        victim = meta.locations[0]
        hdfs.namenode.datanode(victim).fail()
        copied = hdfs.namenode.handle_dead_datanode(victim)
        assert copied == 0  # nothing to copy from; no crash
        assert hdfs.namenode.block_meta(meta.block_id).locations == ()

    def test_re_replication_targets_the_least_loaded_node_of_the_block_map(
        self, monkeypatch
    ):
        from repro.hdfs import DataNode

        nodes = [DataNode(i, host=f"node-{i}", rack=f"rack-{i % 2}") for i in range(4)]
        fs = HDFS(datanodes=nodes, default_block_size=BLOCK)
        # Local first replica on node 0, second in its rack: node 2.
        with fs.create("/rerep.bin", replication=2, client_host="node-0") as out:
            out.write(b"x" * BLOCK)
        assert fs.namenode.file_blocks("/rerep.bin")[0].locations == (0, 2)
        with fs.create("/load.bin", replication=1, client_host="node-1") as out:
            out.write(b"l" * (2 * BLOCK))
        # Node 3 stores strays the block map does not know: only its own
        # counters call it the busier candidate.
        for block_id in range(900, 905):
            nodes[3].write_block(block_id, b"stray")
        for node in nodes:
            monkeypatch.setattr(node, "stats", lambda: pytest.fail("stats() asked"))
        nodes[0].fail()
        assert fs.namenode.handle_dead_datanode(0) == 1
        assert fs.namenode.file_blocks("/rerep.bin")[0].locations == (2, 3)

    def test_report_asks_each_datanode_once(self, hdfs: HDFS, monkeypatch):
        calls = []
        for node in hdfs.datanodes:
            stats = node.stats

            def counted(stats=stats, node_id=node.node_id):
                calls.append(node_id)
                return stats()

            monkeypatch.setattr(node, "stats", counted)
        hdfs.write_file("/r.bin", b"r" * BLOCK)
        report = hdfs.stats()
        assert sorted(calls) == sorted(report["datanodes"])
        assert sum(d["blocks"] for d in report["datanodes"].values()) == 2

    def test_report_structure(self, hdfs: HDFS):
        hdfs.write_file("/r.bin", b"r" * BLOCK)
        report = hdfs.stats()
        assert report["scheme"] == "hdfs"
        assert report["files"] == 1
        assert report["blocks"] == 1
        assert len(report["datanodes"]) == 6

    def test_abandon_file_removes_partial_write(self, hdfs: HDFS):
        stream = hdfs.create("/partial.bin")
        stream.write(b"x" * BLOCK)  # first block committed
        holder = stream._lease_holder
        hdfs.namenode.abandon_file("/partial.bin", holder)
        assert not hdfs.exists("/partial.bin")


class TestCustomDeployment:
    def test_explicit_datanodes_and_policy(self):
        from repro.hdfs import DataNode

        nodes = [DataNode(i, host=f"host{i}", rack=f"r{i % 2}") for i in range(4)]
        fs = HDFS(
            datanodes=nodes,
            default_block_size=BLOCK,
            default_replication=2,
            placement_policy=DefaultPlacementPolicy(seed=1),
        )
        fs.write_file("/custom.bin", b"c" * BLOCK)
        assert fs.read_file("/custom.bin") == b"c" * BLOCK
        assert {d.host for d in fs.datanodes} == {"host0", "host1", "host2", "host3"}
