"""Shared fixtures for the test suite.

The fixtures build deliberately small deployments (tiny pages, few
providers) so every test runs in milliseconds while still exercising the
same code paths as the paper-scale configurations.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.bsfs import BSFS
from repro.core import BlobSeer, BlobSeerConfig, KB
from repro.fs import LocalFS
from repro.hdfs import HDFS
from repro.mapreduce.task_workers import workers

#: Small page size used across the test suite (keeps blobs multi-page).
TEST_PAGE_SIZE = 4 * KB
#: Small block size so files span several blocks without being large.
TEST_BLOCK_SIZE = 16 * KB


@pytest.fixture
def config() -> BlobSeerConfig:
    """A small, deterministic BlobSeer configuration."""
    return BlobSeerConfig(
        page_size=TEST_PAGE_SIZE,
        num_providers=6,
        num_metadata_providers=3,
        replication=1,
    )


@pytest.fixture
def blobseer(config: BlobSeerConfig) -> BlobSeer:
    """A fresh in-memory BlobSeer deployment."""
    return BlobSeer(config)


@pytest.fixture
def replicated_blobseer() -> BlobSeer:
    """A BlobSeer deployment with 2-way page replication."""
    return BlobSeer(
        BlobSeerConfig(
            page_size=TEST_PAGE_SIZE,
            num_providers=6,
            num_metadata_providers=3,
            replication=2,
        )
    )


@pytest.fixture
def bsfs() -> BSFS:
    """A fresh BSFS file system over a small BlobSeer deployment."""
    return BSFS(
        config=BlobSeerConfig(
            page_size=TEST_PAGE_SIZE,
            num_providers=6,
            num_metadata_providers=3,
            replication=1,
        ),
        default_block_size=TEST_BLOCK_SIZE,
    )


@pytest.fixture
def hdfs() -> HDFS:
    """A fresh HDFS baseline deployment."""
    return HDFS(
        num_datanodes=6,
        racks=3,
        default_block_size=TEST_BLOCK_SIZE,
        default_replication=2,
    )


@pytest.fixture
def local_fs(tmp_path) -> LocalFS:
    """A LocalFS (``file://``) sandboxed under pytest's tmp_path."""
    return LocalFS(root=str(tmp_path / "localfs"), default_block_size=TEST_BLOCK_SIZE)


@pytest.fixture(params=["bsfs", "hdfs", "file"])
def any_fs(request, bsfs: BSFS, hdfs: HDFS, local_fs: LocalFS):
    """Parametrised fixture yielding every backend (shared-semantics tests)."""
    return {"bsfs": bsfs, "hdfs": hdfs, "file": local_fs}[request.param]


def pytest_sessionfinish(session, exitstatus):
    """Stop the shared task workers; fail the run if a child process outlives them."""
    workers.shutdown()
    children = multiprocessing.active_children()
    if children:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write_line(f"child processes outlived the session: {children}", red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
