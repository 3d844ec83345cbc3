"""Durability tests for ``repro serve``: journal, supervisor, recovery.

Covers the crash windows one at a time rather than statistically:
torn-tail truncation at the journal layer, SIGKILL between
admission-ack and pool submit (``serve.admitted:kill``), SIGKILL
mid-result-write (``serve.result:kill``), the supervisor circuit
breaker (``serve.boot:kill``), and the reconnecting client's
at-most-once resubmission.  The statistical version of the same claim
-- a supervised daemon SIGKILLed repeatedly under load -- lives in the
kill-chaos harness (``repro chaos --serve --kill-daemon``) and the
servebench ``recovery`` scenario.
"""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.driver.quarantine import QuarantineList
from repro.faultinject import ACTIONS, FaultPlan, clear_plan
from repro.serve import (
    JobJournal,
    LoopbackClient,
    OptimizeService,
    ServeClient,
    ServeConfig,
    ServeError,
    SupervisorReport,
    decode_frame,
    encode_frame,
    read_pid_file,
    run_supervised,
    write_pid_file,
)
from repro.serve.journal import JOURNAL_FILE
from repro.serve.scheduler import AdmissionController

pytestmark = pytest.mark.serve


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


IR = """
define i32 @f(i32 %n) {
entry:
  %a = add i32 %n, 1
  %b = add i32 %a, 2
  %c = add i32 %b, 3
  ret i32 %c
}
"""

IR_RESPELLED = (
    IR.replace("@f", "@g").replace("%a", "%x").replace("%b", "%y")
)


def unthreaded_service(**overrides):
    config = ServeConfig(**overrides)
    service = OptimizeService(config)
    service.start(threaded=False)
    return service


class TestJournalFrames:
    def test_frame_roundtrip(self):
        payload = {"op": "done", "seq": 3}
        line = encode_frame(payload)
        assert line.endswith("\n")
        assert decode_frame(line) == payload

    def test_tampered_body_fails_checksum(self):
        line = encode_frame({"op": "done", "seq": 3})
        tampered = line.replace('"seq":3', '"seq":4')
        with pytest.raises(ValueError):
            decode_frame(tampered)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_frame("XX deadbeef {}")


class TestJobJournal:
    def _admit(self, journal, req_id, text=IR, key=None):
        return journal.append_admit(
            req_id=req_id,
            tenant="ci",
            name="f",
            fmt="ir",
            text=text,
            emit_ir=True,
            idempotency_key=key,
        )

    def test_admit_then_reboot_replays(self, tmp_path):
        journal = JobJournal(str(tmp_path), sync="always")
        self._admit(journal, req_id=7, key="k7")
        journal._handle.close()  # simulate death: no clean close
        journal._handle = None

        reborn = JobJournal(str(tmp_path), sync="always")
        records = reborn.replay_records()
        assert reborn.recovered == 1
        assert len(records) == 1
        assert records[0].req_id == 7
        assert records[0].idempotency_key == "k7"
        assert records[0].text == IR
        assert records[0].emit_ir is True
        reborn.close()

    def test_done_records_do_not_replay(self, tmp_path):
        journal = JobJournal(str(tmp_path), sync="always")
        seq1 = self._admit(journal, req_id=1)
        self._admit(journal, req_id=2, text=IR_RESPELLED)
        journal.record_done(seq1)
        journal._handle.close()
        journal._handle = None

        reborn = JobJournal(str(tmp_path), sync="always")
        records = reborn.replay_records()
        assert [r.req_id for r in records] == [2]
        reborn.close()

    def test_torn_tail_is_dropped_and_counted(self, tmp_path):
        journal = JobJournal(str(tmp_path), sync="always")
        self._admit(journal, req_id=1)
        journal.close()
        path = os.path.join(str(tmp_path), JOURNAL_FILE)
        with open(path, "a", encoding="utf-8") as fh:
            # A torn write: half a frame, no trailing newline.
            fh.write(encode_frame({"op": "admit", "seq": 9})[:20])

        reborn = JobJournal(str(tmp_path), sync="always")
        assert reborn.torn_tail == 1
        assert [r.req_id for r in reborn.replay_records()] == [1]
        reborn.close()

    def test_corrupt_midfile_line_is_skipped(self, tmp_path):
        journal = JobJournal(str(tmp_path), sync="always")
        self._admit(journal, req_id=1)
        journal._handle.close()
        journal._handle = None
        path = os.path.join(str(tmp_path), JOURNAL_FILE)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage that is not a frame\n")
            fh.write(encode_frame({"op": "done", "seq": 999}))

        reborn = JobJournal(str(tmp_path), sync="always")
        assert reborn.corrupt_lines == 1
        assert [r.req_id for r in reborn.replay_records()] == [1]
        reborn.close()

    def test_boot_compaction_drops_settled_frames(self, tmp_path):
        journal = JobJournal(str(tmp_path), sync="always")
        for i in range(4):
            journal.record_done(self._admit(journal, req_id=i))
        journal._handle.close()
        journal._handle = None
        path = os.path.join(str(tmp_path), JOURNAL_FILE)
        assert sum(1 for _ in open(path, encoding="utf-8")) == 8

        reborn = JobJournal(str(tmp_path), sync="always")
        assert reborn.live == 0
        # Boot compaction rewrote the file down to live records only.
        assert open(path, encoding="utf-8").read() == ""
        assert reborn.compactions >= 1
        reborn.close()

    def test_unknown_sync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JobJournal(str(tmp_path), sync="sometimes")


class TestKillFaultAction:
    def test_kill_is_in_the_plan_grammar(self):
        assert "kill" in ACTIONS
        plan = FaultPlan.parse("serve.admitted:kill@2x1")
        assert plan.specs[0].action == "kill"
        assert plan.specs[0].at == 2

    def test_kill_terminates_the_process_with_sigkill(self):
        code = (
            "from repro.faultinject import FaultPlan, install_plan, fire\n"
            "install_plan(FaultPlan.parse('x:kill'))\n"
            "fire('x')\n"
            "print('survived')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL
        assert "survived" not in proc.stdout


class TestForcedAdmission:
    def test_force_bypasses_busy_and_quota_but_not_draining(self):
        admission = AdmissionController(max_queue=1, tenant_quota=1)
        assert admission.admit("a") is None
        assert admission.admit("a") == "busy"
        # Replay must re-enter journalled jobs even over the watermark.
        assert admission.admit("a", force=True) is None
        assert admission.admit("b", force=True) is None
        admission.start_draining()
        assert admission.admit("a", force=True) == "shutting_down"


class TestIdempotency:
    def test_duplicate_keys_execute_once(self):
        service = unthreaded_service()
        client = LoopbackClient(service)
        try:
            leader = client.submit_optimize(
                IR, name="f", tenant="ci", emit_ir=True,
                idempotency_key="dup",
            )
            piggyback = client.submit_optimize(
                IR_RESPELLED, name="g", tenant="ci", emit_ir=True,
                idempotency_key="dup",
            )
            # The duplicate parks on the in-flight leader: no response
            # until the leader's single execution settles.
            assert client.poll(piggyback) is None
            service.pump_once()

            first = client.wait(leader)["result"]
            assert first["status"] == "ok"
            assert "idempotent_hit" not in first
            second = client.wait(piggyback)["result"]
            assert second["status"] == "ok"
            assert second["idempotent_hit"] is True

            # After settlement the key answers from the memo, inline.
            memo = client.submit_optimize(
                IR, name="f", idempotency_key="dup"
            )
            third = client.poll(memo)["result"]
            assert third["idempotent_hit"] is True

            stats = client.stats()
            assert stats["idempotent_hits"] == 2
            assert stats["driver"]["executed"] == 1
        finally:
            client.close()

    # The two edges below pin where "at most once" stops holding: a
    # settled key lives only in the in-memory memo of one daemon
    # generation, capped at IDEMPOTENCY_MEMO_CAP entries.

    @staticmethod
    def _settle(client, service, key):
        rid = client.submit_optimize(IR, name="f", idempotency_key=key)
        service.pump_once()
        return client.wait(rid)["result"]

    def test_resend_after_memo_eviction_re_executes(self, monkeypatch):
        import repro.serve.service as service_mod

        monkeypatch.setattr(service_mod, "IDEMPOTENCY_MEMO_CAP", 2)
        service = unthreaded_service()
        client = LoopbackClient(service)
        try:
            assert "idempotent_hit" not in self._settle(client, service, "old")
            self._settle(client, service, "newer-1")
            self._settle(client, service, "newer-2")
            assert client.stats()["driver"]["executed"] == 3

            # Two newer settles pushed "old" out of the memo: the
            # resend is a fresh execution, not a memo answer.
            again = self._settle(client, service, "old")
            assert again["status"] == "ok"
            assert "idempotent_hit" not in again
            stats = client.stats()
            assert stats["driver"]["executed"] == 4
            assert stats["idempotent_hits"] == 0
        finally:
            client.close()

    def test_resend_after_clean_restart_re_executes(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        service = unthreaded_service(
            journal_dir=journal_dir, journal_sync="always"
        )
        client = LoopbackClient(service)
        try:
            first = self._settle(client, service, "k")
            assert "idempotent_hit" not in first
        finally:
            client.close()

        # A clean shutdown records the job ``done``; the next
        # generation replays nothing and has an empty memo.
        service = unthreaded_service(
            journal_dir=journal_dir, journal_sync="always"
        )
        client = LoopbackClient(service)
        try:
            assert service.replay_journal() == 0
            again = self._settle(client, service, "k")
            assert again["status"] == "ok"
            assert "idempotent_hit" not in again
            stats = client.stats()
            assert stats["driver"]["executed"] == 1
            assert stats["idempotent_hits"] == 0
        finally:
            client.close()

    def test_blank_idempotency_key_rejected(self):
        service = unthreaded_service()
        client = LoopbackClient(service)
        try:
            with pytest.raises(ServeError) as excinfo:
                client.call(
                    "optimize", {"ir": IR, "idempotency_key": ""}
                )
            assert excinfo.value.kind == "params"
        finally:
            client.close()


class TestJournalReplay:
    def test_replay_answers_under_original_ids(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        # Build the journal a dead generation would leave behind --
        # directly, because a clean service shutdown records ``done``
        # and leaves nothing to replay.
        journal = JobJournal(journal_dir, sync="always")
        journal.append_admit(
            req_id=7, tenant="ci", name="f", fmt="ir", text=IR,
            emit_ir=True, idempotency_key="k7",
        )
        done = journal.append_admit(
            req_id=8, tenant="ci", name="g", fmt="ir",
            text=IR_RESPELLED, emit_ir=False,
        )
        journal.record_done(done)
        journal.close()

        service = unthreaded_service(
            journal_dir=journal_dir, journal_sync="always"
        )
        lines = []
        try:
            replayed = service.replay_journal(lines.append)
            assert replayed == 1
            service.pump_once()
            responses = [json.loads(line) for line in lines]
            assert len(responses) == 1
            response = responses[0]
            assert response["id"] == 7
            result = response["result"]
            assert result["status"] == "ok"
            assert result["replayed"] is True
            assert "@f" in result["optimized_ir"]

            snap = service.stats_snapshot()
            assert snap["journal"]["recovered"] == 1
            assert snap["journal"]["live"] == 0

            # The replayed job settled its idempotency key: the
            # client's resend coalesces instead of re-executing.
            client = LoopbackClient(service)
            resend = client.submit_optimize(
                IR, name="f", emit_ir=True, idempotency_key="k7"
            )
            again = client.poll(resend)["result"]
            assert again["idempotent_hit"] is True
            assert snap["driver"]["executed"] == 1
        finally:
            service.stop()

    def test_replay_with_no_journal_is_a_noop(self):
        service = unthreaded_service()
        try:
            assert service.replay_journal() == 0
        finally:
            service.stop()

    def test_bad_journal_dir_fails_boot(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        with pytest.raises(OSError):
            OptimizeService(
                ServeConfig(journal_dir=str(blocker))
            )


class TestSupervisorUnit:
    def test_pid_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "nested" / "serve.pid")
        write_pid_file(path, 1234, 3)
        assert read_pid_file(path) == {"pid": 1234, "generation": 3}

    def test_pid_file_damage_reads_as_none(self, tmp_path):
        path = str(tmp_path / "serve.pid")
        assert read_pid_file(path) is None
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{torn")
        assert read_pid_file(path) is None

    def test_restarts_until_clean_exit(self, tmp_path):
        counter = tmp_path / "count"
        envlog = tmp_path / "envlog"
        script = (
            "import os, pathlib, sys\n"
            "p = pathlib.Path(sys.argv[1])\n"
            "n = int(p.read_text()) if p.exists() else 0\n"
            "p.write_text(str(n + 1))\n"
            "with open(sys.argv[2], 'a') as fh:\n"
            "    fh.write(os.environ['REPRO_SERVE_GENERATION'] + ' '\n"
            "             + os.environ['REPRO_SERVE_RESTARTS'] + '\\n')\n"
            "sys.exit(0 if n >= 2 else 1)\n"
        )
        report = SupervisorReport()
        pid_file = str(tmp_path / "serve.pid")
        code = run_supervised(
            [],
            command=[sys.executable, "-c", script,
                     str(counter), str(envlog)],
            max_restarts=5,
            restart_backoff=0.0,
            pid_file=pid_file,
            log=io.StringIO(),
            report=report,
        )
        assert code == 0
        assert report.generations == 3
        assert report.restarts == 2
        assert not report.gave_up
        # Generation / restart counts rode into each child's env.
        assert envlog.read_text().splitlines() == ["1 0", "2 1", "3 2"]
        # A clean exit retires the pid file.
        assert read_pid_file(pid_file) is None

    def test_circuit_breaker_trips_on_a_crash_loop(self, tmp_path):
        report = SupervisorReport()
        code = run_supervised(
            [],
            command=[sys.executable, "-c", "import sys; sys.exit(7)"],
            max_restarts=3,
            restart_window=60.0,
            restart_backoff=0.0,
            pid_file=str(tmp_path / "serve.pid"),
            log=io.StringIO(),
            report=report,
        )
        assert code == 1
        assert report.gave_up
        assert report.generations == 3
        assert [c for c, _ in report.crashes] == [7, 7, 7]
        assert read_pid_file(str(tmp_path / "serve.pid")) is None


def _spawn_supervised(tmp_path, *extra):
    """A real supervised daemon over pipes (stderr inherited)."""
    args = [
        sys.executable, "-m", "repro", "serve",
        "--supervise",
        "--restart-backoff", "0.05",
        "--journal-dir", str(tmp_path / "journal"),
        "--journal-sync", "always",
        "--cache-dir", str(tmp_path / "cache"),
        *extra,
    ]
    return subprocess.Popen(
        args,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def _read_response(proc, req_id, timeout=90.0):
    """The response frame for ``req_id``, skipping noise, or None."""
    box = {}

    def reader():
        while True:
            line = proc.stdout.readline()
            if not line:
                return
            try:
                msg = json.loads(line)
            except ValueError:
                continue  # torn frame from a killed generation
            if not isinstance(msg, dict):
                continue
            if msg.get("id") == req_id and (
                "result" in msg or "error" in msg
            ):
                box["msg"] = msg
                return

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout)
    return box.get("msg")


def _optimize_frame(req_id, key):
    return json.dumps({
        "jsonrpc": "2.0",
        "id": req_id,
        "method": "optimize",
        "params": {
            "ir": IR,
            "name": "f",
            "emit_ir": True,
            "idempotency_key": key,
        },
    }) + "\n"


def _frame(req_id, method):
    return json.dumps({
        "jsonrpc": "2.0", "id": req_id, "method": method, "params": {},
    }) + "\n"


class TestCrashWindows:
    """SIGKILL at each durability-critical instant, one at a time."""

    def _run_window(self, tmp_path, site):
        proc = _spawn_supervised(
            tmp_path, "--fault-plan", f"{site}:kill@1x1"
        )
        try:
            proc.stdin.write(_optimize_frame(1, "w1"))
            proc.stdin.flush()
            response = _read_response(proc, 1)
            assert response is not None, (
                f"no response recovered after {site} SIGKILL"
            )
            result = response["result"]
            assert result["status"] == "ok"
            assert result.get("replayed") is True
            assert "@f" in result["optimized_ir"]

            # The response frame is written *before* the journal's
            # ``done`` record (crash-safe order), so poll briefly for
            # the journal to drain.
            stats = None
            for attempt in range(50):
                proc.stdin.write(_frame(100 + attempt, "stats"))
                proc.stdin.flush()
                stats = _read_response(proc, 100 + attempt)["result"]
                if stats["journal"]["live"] == 0:
                    break
            assert stats["supervisor"]["generation"] >= 2
            assert stats["journal"]["live"] == 0

            proc.stdin.write(_frame(3, "shutdown"))
            proc.stdin.flush()
            assert _read_response(proc, 3) is not None
            proc.stdin.close()
            assert proc.wait(timeout=90) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_sigkill_between_ack_and_pool_submit(self, tmp_path):
        # Dies right after the journal append / admission ack: the
        # job never reached the pool, so replay is its only hope.
        self._run_window(tmp_path, "serve.admitted")

    def test_sigkill_mid_result_write(self, tmp_path):
        # Dies after the job computed but before its response frame:
        # replay re-resolves (cache-hot) and answers the original id.
        self._run_window(tmp_path, "serve.result")

    def test_boot_crash_loop_trips_the_breaker(self, tmp_path):
        proc = _spawn_supervised(
            tmp_path,
            "--fault-plan", "serve.boot:kill",
            "--max-restarts", "2",
        )
        try:
            assert proc.wait(timeout=90) == 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


class TestClientDisconnect:
    def test_wait_raises_typed_disconnected_then_fails_fast(self):
        client = ServeClient.spawn(
            "--fault-plan", "serve.admitted:kill@1x1"
        )
        try:
            ticket = client.submit_optimize(IR, name="f")
            with pytest.raises(ServeError) as excinfo:
                client.wait(ticket)
            assert excinfo.value.kind == "disconnected"
            # The client is dead, not wedged: later calls fail fast.
            with pytest.raises(ServeError) as excinfo:
                client.ping()
            assert excinfo.value.kind == "disconnected"
        finally:
            client.close(shutdown=False)

    def test_reconnect_resends_and_executes_at_most_once(self, tmp_path):
        client = ServeClient.spawn(
            "--journal-dir", str(tmp_path / "journal"),
            "--journal-sync", "always",
            "--cache-dir", str(tmp_path / "cache"),
            "--fault-plan", "serve.admitted:kill@1x1",
            reconnect=True,
        )
        try:
            # The daemon SIGKILLs itself on this admission; the client
            # respawns it and resends under the auto idempotency key,
            # which coalesces with the journal replay of the same job.
            result = client.optimize(IR, name="f", emit_ir=True)
            assert result["status"] == "ok"
            assert "@f" in result["optimized_ir"]
            assert client._reconnects == 1

            # The response frame lands before the journal's ``done``
            # record (crash-safe order): poll briefly for the drain.
            stats = client.stats()
            for _ in range(50):
                if stats["journal"]["live"] == 0:
                    break
                time.sleep(0.05)
                stats = client.stats()
            assert stats["journal"]["live"] == 0
            assert stats["driver"]["executed"] <= 1
        finally:
            client.close()


class TestOrphanedWorkers:
    def test_pool_workers_exit_when_their_parent_dies(self):
        # Forked pool siblings hold each other's queue pipes open, so
        # without the parent-watch a SIGKILLed daemon generation
        # (kill-chaos) leaks its workers forever -- and they pin any
        # inherited stdio pipes open with them.
        script = (
            "import time\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.driver import core\n"
            "ex = ProcessPoolExecutor(\n"
            "    max_workers=2,\n"
            "    initializer=core._init_worker,\n"
            "    initargs=(core.run_one_guarded, None),\n"
            ")\n"
            "for f in [ex.submit(time.sleep, 0.2) for _ in range(2)]:\n"
            "    f.result()\n"
            "pids = sorted(p.pid for p in ex._processes.values())\n"
            "print(' '.join(str(p) for p in pids), flush=True)\n"
            "time.sleep(600)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
        )
        workers = []
        try:
            line = proc.stdout.readline()
            workers = [int(token) for token in line.split()]
            assert len(workers) == 2
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            remaining = set(workers)
            deadline = time.monotonic() + 20.0
            while remaining and time.monotonic() < deadline:
                for pid in list(remaining):
                    try:
                        os.kill(pid, 0)
                    except ProcessLookupError:
                        remaining.discard(pid)
                time.sleep(0.2)
            assert not remaining, (
                f"orphaned pool workers survived: {sorted(remaining)}"
            )
        finally:
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestQuarantineFsync:
    def test_fsync_save_persists_and_reloads(self, tmp_path):
        path = str(tmp_path / "quarantine.json")
        quarantine = QuarantineList(path, threshold=2, fsync=True)
        quarantine.record_failure("key1", "f", "crash", "boom")
        assert quarantine.record_failure("key1", "f", "crash", "boom")
        quarantine.save()

        reloaded = QuarantineList(path, threshold=2, fsync=True)
        assert reloaded.is_quarantined("key1")
        assert reloaded.failures("key1") == 2
