"""MapReduce over URI-addressed storage: backend chosen by one string."""

from __future__ import annotations

import pytest

from repro.fs.registry import clear_instance_cache, get_filesystem, registered_schemes
from repro.mapreduce import JobConf, JobService
from repro.mapreduce.applications import make_wordcount_job


@pytest.fixture(autouse=True)
def _fresh_deployments():
    clear_instance_cache()
    yield
    clear_instance_cache()


def _write_input(uri: str) -> None:
    fs = get_filesystem(uri)
    fs.write_file("/in/words.txt", b"alpha beta alpha\ngamma beta alpha\n")


@pytest.mark.parametrize("scheme", sorted(registered_schemes()))
def test_wordcount_runs_on_every_scheme(scheme):
    uri = f"{scheme}://wc"
    _write_input(uri)
    service = JobService.local(uri, num_trackers=2)
    job = make_wordcount_job(
        [f"{uri}/in/words.txt"], output_dir=f"{uri}/out", num_reduce_tasks=1
    )
    result = service.submit(job).wait()
    assert result.succeeded
    assert result.counter("wordcount.words") == 6
    fs = get_filesystem(uri)
    output = b"".join(
        fs.read_file(status.path) for status in fs.list_files("/out", recursive=True)
    )
    assert b"alpha\t3" in output
    assert b"beta\t2" in output
    assert b"gamma\t1" in output


def test_plain_paths_keep_working():
    fs = get_filesystem("file://plain")
    fs.write_file("/in/words.txt", b"one two one\n")
    service = JobService.local(fs, num_trackers=2)
    job = make_wordcount_job(["/in/words.txt"], output_dir="/out", num_reduce_tasks=1)
    result = service.submit(job).wait()
    assert result.succeeded
    assert result.counter("wordcount.words") == 3


def test_mixed_scheme_job_paths_are_rejected():
    _write_input("file://mixed")
    service = JobService.local("file://mixed", num_trackers=1)
    job = make_wordcount_job(["bsfs://mixed/in/words.txt"], output_dir="/out")
    with pytest.raises(ValueError, match="scheme"):
        service.submit(job).wait()


def test_mismatched_authority_is_rejected():
    _write_input("file://here")
    service = JobService.local("file://here", num_trackers=1)
    job = make_wordcount_job(["file://elsewhere/in/words.txt"], output_dir="/out")
    with pytest.raises(ValueError, match="deployment"):
        service.submit(job).wait()


def test_authority_uri_rejected_on_constructor_built_fs():
    """A URI naming a deployment must not silently run on an anonymous fs."""
    from repro.fs import LocalFS

    fs = LocalFS()
    try:
        fs.write_file("/in/words.txt", b"a b\n")
        service = JobService.local(fs, num_trackers=1)
        job = make_wordcount_job(["file://prod/in/words.txt"], output_dir="/out")
        with pytest.raises(ValueError, match="deployment"):
            service.submit(job).wait()
    finally:
        fs.close()


def test_resolve_for_is_identity_for_plain_confs():
    conf = JobConf(name="noop", input_paths=("/a", "/b"), output_dir="/out")
    fs = get_filesystem("file://identity")
    assert conf.resolve_for(fs) is conf
