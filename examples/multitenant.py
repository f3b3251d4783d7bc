#!/usr/bin/env python3
"""Multi-tenant serving: one deployment, many tenants, fair shares.

Run with::

    python examples/multitenant.py

The script walks the job-serving plane end to end:

1. build one shared deployment and its :class:`JobService`, register
   tenants with different fair-share weights and resource limits;
2. submit concurrent job bursts from every tenant and watch the weighted
   stride queue split the cluster between them;
3. hit the guard rails on purpose: admission control rejecting a queue
   flood, the namespace quota rejecting an over-budget write, and
   cancellation of queued work;
4. do the same through the session facade (``repro.connect``), the
   recommended application entry point.
"""

from __future__ import annotations

from repro import KB, connect
from repro.fs import LocalFS, QuotaExceededError
from repro.mapreduce import AdmissionError, JobService
from repro.mapreduce.applications import make_distributed_grep_job, make_wordcount_job
from repro.workloads import write_text_file

TENANTS = {"alice": 3.0, "bob": 1.0, "carol": 1.0}
JOBS_PER_TENANT = 4


def build_service() -> tuple[LocalFS, JobService]:
    print("=== 1. One deployment, three tenants ===")
    fs = LocalFS()
    service = JobService.local(
        fs, num_trackers=4, slots_per_tracker=2, max_concurrent_jobs=3
    )
    for tenant, weight in TENANTS.items():
        service.register_tenant(
            tenant,
            weight=weight,
            max_queued_jobs=16,
            max_bytes=512 * KB,
        )
        write_text_file(fs, f"/in/{tenant}.txt", 80, seed=len(tenant))
        print(f"  registered {tenant!r} with weight {weight}")
    return fs, service


def concurrent_bursts(service: JobService) -> None:
    print("\n=== 2. Concurrent bursts under fair-share scheduling ===")
    handles = []
    for index in range(JOBS_PER_TENANT):
        for tenant in TENANTS:
            if index % 2 == 0:
                job = make_wordcount_job(
                    [f"/in/{tenant}.txt"], output_dir=f"/out/{tenant}/wc{index}"
                )
            else:
                job = make_distributed_grep_job(
                    r"[a-z]{6,}",
                    [f"/in/{tenant}.txt"],
                    output_dir=f"/out/{tenant}/grep{index}",
                )
            handles.append(service.submit(job, tenant=tenant))
    snapshot = service.stats()
    queued = {t: s["queued"] for t, s in snapshot["tenants"].items()}
    print(f"  right after submission: {snapshot['total_running']} running, queued={queued}")
    for handle in handles:
        result = handle.wait()
        assert result.succeeded
    served = {t: s["served"] for t, s in service.stats()["tenants"].items()}
    print(f"  all {len(handles)} jobs done; stride passes served: {served}")
    print("  (alice, at triple weight, advances her stride a third as fast)")


def guard_rails(fs: LocalFS, service: JobService) -> None:
    print("\n=== 3. Guard rails: admission, quotas, cancellation ===")
    service.register_tenant("mallory", max_queued_jobs=1, max_concurrent_jobs=0)
    flood = make_wordcount_job(["/in/alice.txt"], output_dir="/out/mallory/0")
    queued = service.submit(flood, tenant="mallory")
    try:
        service.submit(
            make_wordcount_job(["/in/alice.txt"], output_dir="/out/mallory/1"),
            tenant="mallory",
        )
    except AdmissionError as exc:
        print(f"  flood rejected: {exc}")
    print(f"  queued job cancelled: {queued.cancel()} -> {queued.status()}")

    session = connect(fs, tenant="alice", service=service)
    try:
        session.write("/in/too-big.bin", b"x" * (600 * KB))
    except QuotaExceededError as exc:
        print(f"  over-quota write rejected: {exc}")
    print(f"  alice's usage stays at {session.usage()}")


def session_facade(fs: LocalFS, service: JobService) -> None:
    print("\n=== 4. The session facade ===")
    session = connect(fs, tenant="bob", service=service)
    phases: list[str] = []
    handle = session.submit(
        make_wordcount_job(["/in/bob.txt"], output_dir="/out/bob/final")
    ).on_progress(lambda phase, done, total: phases.append(f"{phase} {done}/{total}"))
    result = handle.wait()
    print(f"  bob's job: {handle.status()}, progress events: {phases}")
    print(f"  output files: {[s.path for s in session.list_dir('/out/bob/final')]}")
    assert result.succeeded


def main() -> None:
    fs, service = build_service()
    concurrent_bursts(service)
    guard_rails(fs, service)
    session_facade(fs, service)
    print("\nMulti-tenant tour finished.")


if __name__ == "__main__":
    main()
