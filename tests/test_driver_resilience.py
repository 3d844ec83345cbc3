"""Resilience tests for the fault-tolerant corpus driver.

Every scenario is driven through ``repro.faultinject`` plans, so crash,
hang, and corruption behaviour is deterministic; injected hangs consume
virtual deadline seconds, so nothing here sleeps.  Pool-based scenarios
(worker death, watchdog kills) carry the ``parallel`` marker like the
rest of the pool suite.
"""

import json
import os
from functools import partial
from time import perf_counter

import pytest

from repro.bench import angha
from repro.driver import (
    DriverSession,
    FunctionJob,
    QuarantineList,
    optimize_functions,
    quarantine_key,
    run_one_guarded,
)
from repro.driver import core
from repro.driver.core import _Failure
from repro.driver.types import DriverStats
from repro.faultinject import FaultPlan, clear_plan
from repro.transforms.pass_manager import PassError, PassManager

pytestmark = pytest.mark.fault


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def _jobs(count, seed=2022):
    return [
        FunctionJob(
            name=cs.name, c_source=cs.source, metadata=(("family", cs.family),)
        )
        for cs in angha.generate_sources(count=count, seed=seed)
    ]


class TestGuardedAttempt:
    def test_clean_job_returns_result(self):
        outcome = run_one_guarded(_jobs(1)[0])
        assert not isinstance(outcome, _Failure)
        assert outcome.optimized_ir

    def test_injected_crash_becomes_failure(self):
        job = _jobs(1)[0]
        plan = FaultPlan.parse("driver.worker.start:raise")
        from repro.faultinject import active_plan

        with active_plan(plan):
            outcome = run_one_guarded(job)
        assert isinstance(outcome, _Failure)
        assert outcome.kind == "crash"
        assert "InjectedFault" in outcome.message

    def test_injected_hang_becomes_timeout(self):
        job = _jobs(1)[0]
        plan = FaultPlan.parse("driver.worker.roll:hang")
        from repro.faultinject import active_plan

        with active_plan(plan):
            outcome = run_one_guarded(job, deadline=5.0)
        assert isinstance(outcome, _Failure)
        assert outcome.kind == "timeout"
        assert "deadline" in outcome.message


class TestSerialResilience:
    def test_crash_on_nth_degrades_only_that_job(self, tmp_path):
        jobs = _jobs(4)
        report = optimize_functions(
            jobs,
            workers=1,
            retries=0,
            retry_backoff=0.0,
            fault_plan="driver.worker.start:raise@3",
        )
        assert len(report.results) == len(jobs)
        failed = [r for r in report.results if r.failed]
        assert [r.name for r in failed] == [jobs[2].name]
        assert failed[0].error_kind == "crash"
        assert failed[0].optimized_ir == jobs[2].text
        assert report.stats.crashed == 1
        assert report.stats.failed == 1

    def test_hang_hits_deadline_virtually(self):
        jobs = _jobs(3)
        report = optimize_functions(
            jobs,
            workers=1,
            deadline=5.0,
            retries=0,
            retry_backoff=0.0,
            fault_plan="driver.worker.roll:hang@2",
        )
        failed = [r for r in report.results if r.failed]
        assert [r.name for r in failed] == [jobs[1].name]
        assert failed[0].error_kind == "timeout"
        assert report.stats.timed_out == 1
        # The 1e9-second stall was virtual: the run itself stayed fast.
        assert report.stats.wall_seconds < 30.0

    def test_retry_then_succeed(self):
        jobs = _jobs(3)
        # times=1: only the first attempt of job 2 fails.
        report = optimize_functions(
            jobs,
            workers=1,
            retries=1,
            retry_backoff=0.0,
            fault_plan="driver.worker.start:raise@2x1",
        )
        assert not any(r.failed for r in report.results)
        assert report.stats.retried == 1
        assert report.results[1].attempts == 2
        assert report.results[0].attempts == 1

    def test_retry_exhausted_quarantines(self, tmp_path):
        jobs = _jobs(3)
        qfile = tmp_path / "quarantine.json"
        report = optimize_functions(
            jobs,
            workers=1,
            retries=1,
            retry_backoff=0.0,
            quarantine_file=str(qfile),
            fault_plan="driver.worker.start:raise@2x2",
        )
        assert report.results[1].failed
        assert report.results[1].attempts == 2
        quarantine = QuarantineList(str(qfile))
        key = quarantine_key(jobs[1])
        assert quarantine.failures(key) == 2
        assert quarantine.is_quarantined(key)
        # The other jobs never failed and are not in the list.
        assert not quarantine.failures(quarantine_key(jobs[0]))

    def test_quarantine_skips_across_runs(self, tmp_path):
        jobs = _jobs(3)
        qfile = str(tmp_path / "quarantine.json")
        optimize_functions(
            jobs,
            workers=1,
            retries=1,
            retry_backoff=0.0,
            quarantine_file=qfile,
            fault_plan="driver.worker.start:raise@2x2",
        )
        # Second run: no faults at all, but job 2 is known bad.
        rerun = optimize_functions(
            jobs, workers=1, quarantine_file=qfile
        )
        assert rerun.stats.quarantined == 1
        result = rerun.results[1]
        assert result.error_kind == "quarantined"
        assert result.attempts == 0
        assert result.optimized_ir == jobs[1].text
        assert "quarantined after 2 failed attempt(s)" in result.error
        # The healthy jobs ran normally.
        assert not rerun.results[0].failed and not rerun.results[2].failed

    def test_quarantine_file_corruption_tolerated(self, tmp_path):
        qfile = tmp_path / "quarantine.json"
        qfile.write_bytes(b"{definitely not json")
        quarantine = QuarantineList(str(qfile))
        assert quarantine.corrupt_file
        assert len(quarantine) == 0
        quarantine.record_failure("k", "fn", "crash", "boom")
        quarantine.save()
        assert json.loads(qfile.read_text())["entries"]["k"]["failures"] == 1

    def test_error_results_never_cached(self, tmp_path):
        jobs = _jobs(2)
        cache_dir = str(tmp_path / "cache")
        first = optimize_functions(
            jobs,
            workers=1,
            cache_dir=cache_dir,
            retries=0,
            retry_backoff=0.0,
            fault_plan="driver.worker.start:raise@1x*",
        )
        assert all(r.failed for r in first.results)
        # Fault-free rerun with the same config string must recompute:
        # nothing was memoized for the failed jobs.
        rerun = optimize_functions(
            jobs,
            workers=1,
            cache_dir=cache_dir,
            fault_plan="unmatched.site:raise@999",
        )
        assert rerun.stats.cache_hits == 0
        assert not any(r.failed for r in rerun.results)


class TestCacheSelfHealing:
    def test_garbage_bytes_are_a_logged_miss(self, tmp_path):
        jobs = _jobs(2)
        cache_dir = str(tmp_path / "cache")
        first = optimize_functions(jobs, workers=1, cache_dir=cache_dir)
        assert first.stats.cache_writes == 2

        # Regression: a truncated/garbage entry used to crash the read.
        from repro.driver.cache import job_key
        from repro.rolag import RolagConfig

        key = job_key(jobs[0], RolagConfig())
        path = os.path.join(cache_dir, key[:2], key + ".json")
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage{{{")

        warm = optimize_functions(jobs, workers=1, cache_dir=cache_dir)
        assert warm.stats.cache_corrupt == 1
        assert warm.stats.cache_hits == 1
        assert warm.stats.cache_misses == 1
        assert not any(r.failed for r in warm.results)
        # The entry was rewritten: a third run is fully warm.
        third = optimize_functions(jobs, workers=1, cache_dir=cache_dir)
        assert third.stats.cache_hits == 2
        assert third.stats.cache_corrupt == 0

    def test_truncated_entry_heals(self, tmp_path):
        jobs = _jobs(1)
        cache_dir = str(tmp_path / "cache")
        optimize_functions(jobs, workers=1, cache_dir=cache_dir)
        from repro.driver.cache import job_key
        from repro.rolag import RolagConfig

        key = job_key(jobs[0], RolagConfig())
        path = os.path.join(cache_dir, key[:2], key + ".json")
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        warm = optimize_functions(jobs, workers=1, cache_dir=cache_dir)
        assert warm.stats.cache_corrupt == 1
        assert not warm.results[0].failed

    def test_checksum_mismatch_is_corrupt(self, tmp_path):
        jobs = _jobs(1)
        cache_dir = str(tmp_path / "cache")
        optimize_functions(jobs, workers=1, cache_dir=cache_dir)
        from repro.driver.cache import job_key
        from repro.rolag import RolagConfig

        key = job_key(jobs[0], RolagConfig())
        path = os.path.join(cache_dir, key[:2], key + ".json")
        envelope = json.loads(open(path).read())
        envelope["result"]["rolag_size"] = 12345  # silent bit-flip
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        warm = optimize_functions(jobs, workers=1, cache_dir=cache_dir)
        assert warm.stats.cache_corrupt == 1
        assert warm.results[0].rolag_size != 12345

    def test_injected_read_corruption_heals(self, tmp_path):
        jobs = _jobs(3)
        cache_dir = str(tmp_path / "cache")
        optimize_functions(jobs, workers=1, cache_dir=cache_dir)
        warm = optimize_functions(
            jobs,
            workers=1,
            cache_dir=cache_dir,
            fault_plan="cache.read:corrupt@2",
        )
        assert warm.stats.cache_corrupt == 1
        assert warm.stats.cache_hits == 2
        assert not any(r.failed for r in warm.results)

    def test_injected_write_failure_is_swallowed(self, tmp_path):
        jobs = _jobs(2)
        cache_dir = str(tmp_path / "cache")
        report = optimize_functions(
            jobs,
            workers=1,
            cache_dir=cache_dir,
            fault_plan="cache.write:raise@1x*",
        )
        assert not any(r.failed for r in report.results)
        assert report.stats.cache_write_errors == 2
        assert report.stats.cache_writes == 0

    @pytest.mark.parametrize("fsync", [False, True])
    def test_atomic_write_replaces_or_leaves_the_old_file(
        self, tmp_path, fsync
    ):
        from repro.driver.cache import atomic_write

        path = str(tmp_path / "sub" / "state.json")
        atomic_write(path, lambda handle: handle.write("old"), fsync=fsync)

        def failing(handle):
            handle.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, failing, fsync=fsync)
        assert open(path).read() == "old"
        assert os.listdir(tmp_path / "sub") == ["state.json"]
        atomic_write(path, lambda handle: handle.write("new"), fsync=fsync)
        assert open(path).read() == "new"
        assert os.listdir(tmp_path / "sub") == ["state.json"]


class TestPassErrorContext:
    def test_pass_error_names_pass_and_function(self):
        from repro.frontend import compile_c

        module = compile_c("int f(int x) { return x + 1; }")

        def bad_pass(fn):
            raise ZeroDivisionError("kaboom")

        pm = PassManager().add("badpass", bad_pass)
        with pytest.raises(PassError) as info:
            pm.run(module)
        assert info.value.pass_name == "badpass"
        assert info.value.function_name == "f"
        assert "badpass" in str(info.value) and "'f'" in str(info.value)

    def test_injected_pass_fault_wrapped_with_context(self):
        job = _jobs(1)[0]
        report = optimize_functions(
            [job],
            workers=1,
            retries=0,
            retry_backoff=0.0,
            fault_plan="pipeline.pass:raise",
        )
        result = report.results[0]
        assert result.failed and result.error_kind == "crash"
        assert "PassError" in result.error
        assert "pass" in result.error

    def test_rolag_crash_wrapped_with_function_context(self):
        job = _jobs(1)[0]
        report = optimize_functions(
            [job],
            workers=1,
            retries=0,
            retry_backoff=0.0,
            fault_plan="rolag.roll:raise",
        )
        result = report.results[0]
        assert result.failed and result.error_kind == "crash"
        assert "'rolag'" in result.error


class TestAcceptanceBatch:
    """The ISSUE acceptance scenario: a 20-function batch survives a
    plan injecting a crasher, a hang, and cache corruption."""

    def test_cold_run_with_crash_and_hang(self, tmp_path):
        jobs = _jobs(20)
        qfile = str(tmp_path / "quarantine.json")
        cache_dir = str(tmp_path / "cache")
        plan = "driver.worker.start:raise@5x2;driver.worker.roll:hang@12x1"
        report = optimize_functions(
            jobs,
            workers=1,
            cache_dir=cache_dir,
            deadline=5.0,
            retries=1,
            retry_backoff=0.0,
            quarantine_file=qfile,
            fault_plan=plan,
        )
        assert len(report.results) == 20

        # Job 5 (hits 5 and 6 of driver.worker.start) crashed twice.
        crashed = report.results[4]
        assert crashed.failed and crashed.error_kind == "crash"
        assert crashed.optimized_ir == jobs[4].text
        assert crashed.attempts == 2

        # The hang victim timed out once, then its retry succeeded.
        hung = report.results[12]
        assert not hung.failed
        assert hung.attempts == 2

        everyone_else = [
            r for i, r in enumerate(report.results) if i not in (4, 12)
        ]
        assert all(not r.failed and r.attempts == 1 for r in everyone_else)

        stats = report.stats
        assert stats.crashed == 1
        assert stats.timed_out == 0  # the timeout was retried away
        assert stats.retried == 2
        assert stats.failed == 1

        quarantine = QuarantineList(qfile)
        assert quarantine.is_quarantined(quarantine_key(jobs[4]))
        assert quarantine.failures(quarantine_key(jobs[12])) == 1

        # Warm rerun: corrupt one cached entry, and the crasher is now
        # quarantined instead of being retried.
        warm = optimize_functions(
            jobs,
            workers=1,
            cache_dir=cache_dir,
            deadline=5.0,
            retries=1,
            retry_backoff=0.0,
            quarantine_file=qfile,
            fault_plan="cache.read:corrupt@3",
        )
        assert len(warm.results) == 20
        assert warm.stats.cache_corrupt == 1
        assert warm.stats.cache_hits == 18
        assert warm.stats.quarantined == 1
        assert warm.results[4].error_kind == "quarantined"
        assert sum(1 for r in warm.results if r.failed) == 1


@pytest.mark.parallel
class TestPoolResilience:
    def test_pool_respawn_after_worker_death(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "MAX_POOL_RESPAWNS", 5)
        jobs = _jobs(8)
        qfile = str(tmp_path / "quarantine.json")
        # Every worker hard-exits on its third job: the pool breaks,
        # in-flight jobs are requeued uncharged, and a respawned pool
        # finishes the batch.
        report = optimize_functions(
            jobs,
            workers=2,
            retries=1,
            retry_backoff=0.0,
            quarantine_file=qfile,
            fault_plan="driver.worker.start:abort@3",
        )
        assert len(report.results) == 8
        assert not any(r.failed for r in report.results)
        assert report.stats.pool_respawns >= 1
        # Abrupt deaths are unattributable: nobody gets blamed.
        assert len(QuarantineList(qfile)) == 0

    def test_poison_pool_drains_to_structured_errors(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_POOL_RESPAWNS", 1)
        jobs = _jobs(4)
        # Every worker dies on its *first* job: no pool can make
        # progress, so after the respawn budget the driver abandons the
        # leftovers as structured errors instead of deadlocking.
        report = optimize_functions(
            jobs,
            workers=2,
            retries=1,
            retry_backoff=0.0,
            fault_plan="driver.worker.start:abort@1",
        )
        assert len(report.results) == 4
        assert all(r.failed for r in report.results)
        assert all(r.error_kind == "pool" for r in report.results)
        assert all(r.optimized_ir == job.text
                   for job, r in zip(jobs, report.results))
        assert report.stats.pool_respawns == 2
        assert report.stats.crashed == 4

    def test_noncooperative_hang_killed_by_watchdog(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_POOL_RESPAWNS", 3)
        jobs = _jobs(4)
        # Each worker's first job stalls in a real (non-cooperative)
        # sleep far past the deadline; the parent watchdog kills the
        # pool and charges the hung jobs a timeout.
        report = optimize_functions(
            jobs,
            workers=2,
            deadline=0.3,
            retries=0,
            retry_backoff=0.0,
            fault_plan="driver.worker.start:sleep~20",
        )
        assert len(report.results) == 4
        timeouts = [r for r in report.results if r.error_kind == "timeout"]
        assert timeouts
        assert report.stats.pool_respawns >= 1
        for r in timeouts:
            assert "deadline" in r.error

    def test_pool_crash_isolation(self):
        jobs = _jobs(6)
        # A plain raise inside a worker is contained by the guard --
        # the pool never even breaks.
        report = optimize_functions(
            jobs,
            workers=2,
            retries=0,
            retry_backoff=0.0,
            fault_plan="driver.worker.start:raise@2",
        )
        assert len(report.results) == 6
        # Each worker's second job fails (fresh per-process counters),
        # so between one and two jobs degrade; the rest are clean.
        failed = [r for r in report.results if r.failed]
        assert 1 <= len(failed) <= 2
        assert all(r.error_kind == "crash" for r in failed)
        assert report.stats.crashed == len(failed)


class TestLatencyStats:
    """The service-stats plumbing the serve daemon reports from."""

    def test_percentile_nearest_rank(self):
        from repro.driver import percentile

        samples = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert percentile(samples, 0.50) == 0.3
        assert percentile(samples, 0.99) == 0.5
        assert percentile([], 0.99) == 0.0
        assert percentile([7.0], 0.50) == 7.0

    def test_record_latency_rejects_garbage(self):
        from repro.driver import DriverStats, ServiceStats
        from repro.driver.types import LATENCY_WINDOW

        for stats in (DriverStats(), ServiceStats()):
            stats.record_latency(0.25)
            stats.record_latency(-1.0)       # negative: dropped
            stats.record_latency(float("nan"))
            stats.record_latency("bogus")
            assert stats.latency_seconds == [0.25]
            # Bounded: only the most recent LATENCY_WINDOW samples stay.
            for i in range(LATENCY_WINDOW + 10):
                stats.record_latency(1.0 + i)
            samples = stats.latency_seconds
            assert len(samples) == LATENCY_WINDOW
            assert samples[0] == 11.0
            assert samples[-1] == float(LATENCY_WINDOW + 10)

    def test_serial_run_populates_latency(self):
        report = optimize_functions(_jobs(3), workers=1)
        assert len(report.stats.latency_seconds) == 3
        assert report.stats.latency_p50 > 0.0
        assert report.stats.latency_p99 >= report.stats.latency_p50


class TestDriverSessionResilience:
    """The incremental front end the serve daemon runs on."""

    def test_close_degrades_unpumped_work(self):
        from repro.driver import DriverSession

        session = DriverSession(workers=1)
        jobs = _jobs(2)
        resolved = {}
        for index, job in enumerate(jobs):
            session.submit(job, partial(resolved.__setitem__, index))
        session.close(drain=False)
        assert sorted(resolved) == list(range(len(jobs)))
        for index, job in enumerate(jobs):
            result = resolved[index]
            assert result.failed and result.error_kind == "pool"
            assert result.optimized_ir == job.text
        with pytest.raises(RuntimeError):
            session.submit(jobs[0], lambda result: None)

    def test_session_restores_ambient_fault_plan(self):
        from repro.driver import DriverSession
        from repro.faultinject import get_active_plan

        assert get_active_plan() is None
        session = DriverSession(
            workers=1,
            fault_plan="driver.worker.start:raise@1",
        )
        assert get_active_plan() is not None
        session.close()
        assert get_active_plan() is None

    def test_resolved_tickets_leave_no_state(self, tmp_path):
        # A long-lived daemon must not keep every job it ever saw: once
        # 2,000 tickets (executed, deduped and cache hits) resolve, no
        # per-ticket container holds anything.
        from collections import deque

        from repro.driver import DriverSession

        def job(i):
            return FunctionJob(name=f"f{i}", ir_text=(
                f"define i32 @f{i}(i32 %a) {{\nentry:\n"
                f"  %b = add i32 %a, {i}\n  ret i32 %b\n}}\n"
            ))

        done = []
        with DriverSession(
            workers=1, cache_dir=str(tmp_path / "cache")
        ) as session:
            for batch in range(20):
                # 50 fresh jobs, each submitted twice (the second copy
                # coalesces), then 50 cache hits on earlier jobs.
                fresh = [job(batch * 50 + i) for i in range(50)]
                for item in fresh + fresh:
                    session.submit(item, done.append)
                assert session.drain() is True
                assert len(done) == 100 * (batch + 1)
            for i in range(0, 1000, 20):
                session.submit(job(i), done.append)
            # Cache hits resolve inside submit.
            assert len(done) == 2050
            assert session.pending == 0
            assert session.stats.jobs == 2050
            assert session.stats.cache_hits == 50
            containers = {
                name: value for name, value in vars(session).items()
                if isinstance(value, (dict, set, list, deque))
            }
            assert containers
            assert all(not value for value in containers.values()), {
                name: len(value) for name, value in containers.items()
                if value
            }

    def test_injected_crash_degrades_one_ticket(self):
        from repro.driver import DriverSession

        jobs = _jobs(3)
        with DriverSession(
            workers=1, retries=0,
            fault_plan="driver.worker.start:raise@2x1",
        ) as session:
            resolved = {}
            for index, job in enumerate(jobs):
                session.submit(job, partial(resolved.__setitem__, index))
            assert session.drain() is True
        failed = [i for i in range(len(jobs)) if resolved[i].failed]
        assert len(failed) == 1
        assert resolved[failed[0]].error_kind == "crash"


@pytest.mark.parallel
class TestPoolCollectExceptionSafety:
    def test_exception_mid_collect_degrades_not_crashes(self, monkeypatch):
        # A bug (or signal) inside the collect loop must tear the pool
        # down, requeue the in-flight work, and degrade it through the
        # serial fallback -- never leak workers or lose the batch.
        # Collecting a pooled result records its latency before it
        # settles the ticket, so ``DriverStats.record_latency`` is the
        # seam.
        real_record = DriverStats.record_latency
        calls = {"n": 0}

        def exploding_record(stats, seconds):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected collect failure")
            return real_record(stats, seconds)

        monkeypatch.setattr(DriverStats, "record_latency", exploding_record)
        jobs = _jobs(4)
        report = optimize_functions(
            jobs, workers=2, retries=0, serial_fallback=True,
        )
        assert len(report.results) == 4
        # The serial fallback recomputed everything the broken collect
        # loop abandoned: the batch still succeeds end to end.
        assert not any(r.failed for r in report.results)

    def test_exception_mid_collect_without_fallback_is_structured(
        self, monkeypatch
    ):
        def always_exploding_record(stats, seconds):
            raise RuntimeError("injected collect failure")

        monkeypatch.setattr(
            DriverStats, "record_latency", always_exploding_record
        )
        monkeypatch.setattr(core, "MAX_POOL_RESPAWNS", 1)
        jobs = _jobs(3)
        report = optimize_functions(
            jobs, workers=2, retries=0, serial_fallback=False,
        )
        assert len(report.results) == 3
        assert all(r.failed for r in report.results)
        assert all(r.error_kind == "pool" for r in report.results)
        # The pool error's cause is surfaced, not swallowed.
        assert any(
            "injected collect failure" in (r.error or "")
            for r in report.results
        )


@pytest.mark.parallel
class TestWakeUps:
    """The session blocks on its one wake-up: pool completions and
    :meth:`DriverSession.wake` set it, and timers bound the wait."""

    def test_pool_batch_never_sleeps(self, monkeypatch):
        # Only the in-process retry backoff may sleep in the session;
        # a pooled batch with nothing failing must never call it.
        # Forked workers inherit the patch, so it raises only here.
        parent, real_sleep = os.getpid(), core.sleep

        def no_sleep(seconds):
            if os.getpid() == parent:
                raise AssertionError(f"session slept {seconds}s")
            real_sleep(seconds)

        monkeypatch.setattr(core, "sleep", no_sleep)
        jobs = _jobs(4)
        report = optimize_functions(jobs, workers=2)
        assert not any(r.failed for r in report.results)
        with DriverSession(workers=2) as session:
            resolved = {}
            for index, job in enumerate(jobs):
                session.submit(job, partial(resolved.__setitem__, index))
            assert session.drain() is True
        assert [resolved[i].stable_dict() for i in range(len(jobs))] == [
            r.stable_dict() for r in report.results
        ]

    def test_pool_retry_backoff_fires_without_a_completion(self):
        # The retried ticket waits out its backoff in the queue with no
        # future in flight to wake the session: its timer must.  Hit
        # counters are per worker, so each of the two workers raises
        # once, on its first job: two retries cover a job whose retry
        # lands on the other worker.
        jobs = _jobs(2)
        resolved = {}
        start = perf_counter()

        def done(index, result):
            resolved[index] = (result, perf_counter() - start)

        with DriverSession(
            workers=2, retries=2, retry_backoff=0.2,
            fault_plan="driver.worker.start:raise@1",
        ) as session:
            for index, job in enumerate(jobs):
                session.submit(job, partial(done, index))
            assert session.drain(timeout=10) is True
        assert not any(result.failed for result, _ in resolved.values())
        retried = [
            after for result, after in resolved.values()
            if result.attempts > 1
        ]
        assert retried and session.stats.retried == sum(
            result.attempts - 1 for result, _ in resolved.values()
        )
        assert all(after >= 0.2 for after in retried)


class TestTerminatePoolWorkers:
    """Regression: pool teardown must SIGTERM worker *processes*.

    A precedence bug once made the kill loop iterate the executor's
    ``_processes`` dict KEYS (pids) instead of its values, so
    ``proc.terminate()`` raised AttributeError into a bare except and
    hung workers were never terminated.
    """

    class _FakeProc:
        def __init__(self):
            self.terminated = False

        def terminate(self):
            self.terminated = True

    def test_terminates_every_live_worker(self):
        from repro.driver.core import _terminate_pool_workers

        procs = {101: self._FakeProc(), 202: self._FakeProc()}

        class FakeExecutor:
            _processes = procs

        _terminate_pool_workers(FakeExecutor())
        assert all(p.terminated for p in procs.values())

    def test_tolerates_missing_processes_attr(self):
        from repro.driver.core import _terminate_pool_workers

        _terminate_pool_workers(object())  # no _processes: no-op

    def test_tolerates_terminate_raising(self):
        from repro.driver.core import _terminate_pool_workers

        class AngryProc:
            def terminate(self):
                raise OSError("already gone")

        ok = self._FakeProc()

        class FakeExecutor:
            _processes = {1: AngryProc(), 2: ok}

        _terminate_pool_workers(FakeExecutor())
        assert ok.terminated
