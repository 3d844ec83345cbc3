"""Exactly-once delivery: a driver session's only way out is the
callback each job was submitted with.

One session, with a structural cache and a quarantine file, resolves a
job on every path -- a cache hit and a quarantine refusal inside
``submit``, an executed leader and its dedupe follower and a job that
degrades after its retries inside a pump, and work abandoned by
``close(drain=False)`` -- and every callback must fire exactly once,
with its own job's result, leaving no per-job state behind.  The same
holds one layer up, through the serve scheduler.  The 2-worker pool
variants are marked ``parallel``.
"""

from collections import defaultdict, deque

import pytest

from repro.driver import (
    DriverSession,
    FunctionJob,
    QuarantineList,
    quarantine_key,
)
from repro.serve.scheduler import Scheduler


def _ir_job(name, local="a", bump=1):
    """``return %local + bump``, spelled with the given names: jobs
    sharing ``bump`` are structurally identical."""
    return FunctionJob(name=name, ir_text=(
        f"define i32 @{name}(i32 %{local}) {{\nentry:\n"
        f"  %{local}.1 = add i32 %{local}, {bump}\n"
        f"  ret i32 %{local}.1\n}}\n"
    ))


CACHED = _ir_job("cached", bump=1)
CACHED_TWIN = _ir_job("cached_twin", "x", bump=1)
QUARANTINED = _ir_job("quarantined", bump=2)
LEADER = _ir_job("leader", bump=3)
FOLLOWER = _ir_job("follower", "y", bump=3)
BROKEN = FunctionJob(name="broken", c_source="int broken( {")
ABANDONED = _ir_job("abandoned", bump=4)
ABANDONED_TWIN = _ir_job("abandoned_twin", "z", bump=4)
JOBS = (
    CACHED, CACHED_TWIN, QUARANTINED, LEADER, FOLLOWER, BROKEN,
    ABANDONED, ABANDONED_TWIN,
)


@pytest.fixture(params=[
    pytest.param(1, id="serial"),
    pytest.param(2, id="pool", marks=pytest.mark.parallel),
])
def session(request, tmp_path):
    """A session whose quarantine list already refuses QUARANTINED."""
    qfile = str(tmp_path / "quarantine.json")
    quarantine = QuarantineList(qfile)
    for _ in range(quarantine.threshold):
        quarantine.record_failure(
            quarantine_key(QUARANTINED), QUARANTINED.name, "crash", "boom"
        )
    quarantine.save()
    session = DriverSession(
        workers=request.param,
        cache_dir=str(tmp_path / "cache"),
        quarantine_file=qfile,
        retries=1,
        retry_backoff=0.0,
    )
    yield session
    session.close(drain=False)


def _assert_delivered_once(calls, follower_may_hit_cache=False):
    """One result per job, carrying that job's name, on its path."""
    assert sorted(calls) == sorted(job.name for job in JOBS)
    assert {name: len(got) for name, got in calls.items()} == {
        job.name: 1 for job in JOBS
    }
    result = {name: got[0] for name, got in calls.items()}
    assert all(r.name == name for name, r in result.items())
    assert result["cached_twin"].cache_hit
    assert not result["cached_twin"].failed
    assert result["quarantined"].error_kind == "quarantined"
    assert not result["leader"].failed and not result["leader"].dedupe_hit
    assert not result["follower"].failed
    if follower_may_hit_cache:
        assert result["follower"].dedupe_hit or result["follower"].cache_hit
    else:
        assert result["follower"].dedupe_hit
    assert result["broken"].error_kind == "crash"
    assert result["broken"].attempts == 2
    assert result["abandoned"].error_kind == "pool"
    assert result["abandoned_twin"].error_kind == "pool"
    assert result["abandoned_twin"].dedupe_hit


def _containers(obj):
    return {
        name: len(value) for name, value in vars(obj).items()
        if isinstance(value, (dict, set, list, deque)) and value
    }


def test_every_callback_fires_once(session):
    calls = defaultdict(list)

    def submit(job):
        session.submit(job, calls[job.name].append)

    submit(CACHED)
    assert session.drain() is True
    # A cache hit and a quarantine refusal resolve inside submit.
    submit(CACHED_TWIN)
    assert len(calls[CACHED_TWIN.name]) == 1
    submit(QUARANTINED)
    assert len(calls[QUARANTINED.name]) == 1
    for job in (LEADER, FOLLOWER, BROKEN):
        submit(job)
    assert session.drain() is True
    assert session.pending == 0
    for job in (ABANDONED, ABANDONED_TWIN):
        submit(job)
    session.close(drain=False)

    _assert_delivered_once(calls)
    assert session.pending == 0
    assert _containers(session) == {}
    # A closed session delivers nothing more.
    session.close()
    assert sum(len(got) for got in calls.values()) == len(JOBS)


def test_every_scheduler_entry_completes_once(session):
    scheduler = Scheduler(session)
    scheduler.start(threaded=False)
    calls = defaultdict(list)

    def offer(job):
        assert scheduler.offer(job, "t", calls[job.name].append) is None

    def settle():
        while not scheduler.idle:
            scheduler.pump_once(wait=None)

    offer(CACHED)
    settle()
    for job in (CACHED_TWIN, QUARANTINED, LEADER, FOLLOWER, BROKEN):
        offer(job)
    settle()
    for job in (ABANDONED, ABANDONED_TWIN):
        offer(job)
    # No time to drain: the stop abandons both through the session.
    scheduler.stop(drain_timeout=0)

    # Over a pool the scheduler dispatches each entry as it submits it,
    # so the leader may finish, and be cached, before its follower
    # arrives.
    _assert_delivered_once(
        calls, follower_may_hit_cache=session.workers > 1
    )
    assert scheduler.stats.completed == len(JOBS)
    assert scheduler.admission.outstanding == 0
    assert _containers(scheduler) == {}
    assert _containers(session) == {}
