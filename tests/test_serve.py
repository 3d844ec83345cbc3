"""Integration tests for the ``repro serve`` streaming daemon.

The daemon is exercised both **in-process** (an
:class:`~repro.serve.OptimizeService` driven through
:class:`~repro.serve.LoopbackClient`, unthreaded where determinism
matters) and **over a real subprocess pipe** (``python -m repro
serve`` behind :meth:`~repro.serve.ServeClient.spawn`).  Admission
edges -- per-tenant quota, the global backpressure watermark,
cross-tenant structural dedupe -- are pinned with the unthreaded
scheduler: submissions land deterministically before a single
``pump_once`` resolves them, so there are no sleeps and no races.
The chaos acceptance storm rides the shared fault-injection plans
(injected hangs consume *virtual* deadline seconds).
"""

import json
import threading
import time

import pytest

from repro.driver import DriverSession, FunctionJob
from repro.faultinject import clear_plan
from repro.rolag import RolagConfig
from repro.serve import (
    LoopbackClient,
    OptimizeService,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeError,
    encode_line,
    error_response,
    ok_response,
    parse_request,
    response_error_kind,
)
from repro.serve.scheduler import Scheduler

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

#: The same computation, alpha-renamed: different symbol, different
#: register spellings, identical structure.
IR_RESPELLED = (
    IR.replace("@f", "@g").replace("%a", "%x").replace("%b", "%y")
)


def unthreaded_service(**overrides):
    config = ServeConfig(**overrides)
    service = OptimizeService(config)
    service.start(threaded=False)
    return service


class TestProtocol:
    def test_parse_roundtrip(self):
        line = encode_line(
            {"jsonrpc": "2.0", "id": 3, "method": "ping", "params": {}}
        )
        request = parse_request(line)
        assert request == {"id": 3, "method": "ping", "params": {}}

    def test_unparsable_line_is_parse_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request("{nope")
        assert excinfo.value.kind == "parse"

    def test_non_object_request_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request("[1, 2]")
        assert excinfo.value.kind == "invalid"

    def test_missing_method_keeps_request_id(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(json.dumps({"id": 9}))
        assert excinfo.value.req_id == 9

    def test_error_response_carries_typed_kind(self):
        response = error_response(1, "busy", "full up")
        assert response_error_kind(response) == "busy"
        assert response["error"]["code"] == -32000

    def test_ok_response_has_no_kind(self):
        assert response_error_kind(ok_response(1, {"pong": True})) is None


class TestInProcessDaemon:
    def test_ping_optimize_stats_roundtrip(self):
        service = unthreaded_service()
        client = LoopbackClient(service)
        try:
            ticket = client.submit_optimize(
                IR, name="f", tenant="ci", emit_ir=True
            )
            service.pump_once()
            result = client.wait(ticket)["result"]
            assert result["status"] == "ok"
            assert result["name"] == "f"
            assert result["size_before"] > 0
            assert "@f" in result["optimized_ir"]
            assert client.ping()
            stats = client.stats()
            assert stats["accepted"] == 1
            assert stats["completed"] == 1
            assert stats["tenants"]["ci"]["completed"] == 1
            assert stats["latency_p99"] > 0.0
        finally:
            client.close()
        assert not service.alive

    def test_failed_job_is_an_ok_response_with_error_status(self):
        service = unthreaded_service(
            driver=dict(fault_plan="driver.worker.start:raise@1x9", retries=0)
        )
        client = LoopbackClient(service)
        try:
            ticket = client.submit_optimize(IR, name="f", emit_ir=True)
            service.pump_once()
            result = client.wait(ticket)["result"]
            assert result["status"] == "error"
            assert result["error_kind"] == "crash"
            # Degraded responses keep the original text: the client
            # can always fall back to its own input.
            assert result["optimized_ir"] == IR
        finally:
            client.close()

    def test_evaluator_reaches_the_validation_gate(self, monkeypatch):
        from repro.validation import Validator

        gate_evaluators = []
        from_config = Validator.from_config

        def recording_from_config(config, *args, **kwargs):
            gate_evaluators.append(config.validate_evaluator)
            return from_config(config, *args, **kwargs)

        monkeypatch.setattr(Validator, "from_config", recording_from_config)
        service = unthreaded_service(
            rolag=RolagConfig(validate="safe", validate_evaluator="compiled"),
            driver=dict(evaluator="compiled"),
        )
        client = LoopbackClient(service)
        try:
            ticket = client.submit_optimize(IR, name="f")
            service.pump_once()
            assert client.wait(ticket)["result"]["status"] == "ok"
        finally:
            client.close()
        assert gate_evaluators
        assert set(gate_evaluators) == {"compiled"}

    def test_malformed_params_rejected_inline(self):
        service = unthreaded_service()
        client = LoopbackClient(service)
        try:
            with pytest.raises(ServeError) as excinfo:
                client.call("optimize", {"tenant": "ci"})  # no source
            assert excinfo.value.kind == "params"
            with pytest.raises(ServeError) as excinfo:
                client.call("optimize", {"ir": IR, "c": "int f(){}"})
            assert excinfo.value.kind == "params"
            with pytest.raises(ServeError) as excinfo:
                client.call("nope")
            assert excinfo.value.kind == "method"
            assert client.stats()["rejected_invalid"] == 2
        finally:
            client.close()

    def test_cross_tenant_structural_dedupe_executes_once(self):
        service = unthreaded_service()
        client = LoopbackClient(service)
        try:
            first = client.submit_optimize(
                IR, name="f", tenant="alice", emit_ir=True
            )
            second = client.submit_optimize(
                IR_RESPELLED, name="g", tenant="bob", emit_ir=True
            )
            service.pump_once()
            leader = client.wait(first)["result"]
            follower = client.wait(second)["result"]
            assert not leader["dedupe_hit"]
            assert follower["dedupe_hit"]
            # The follower's answer lives in *its* namespace.
            assert "@g" in follower["optimized_ir"]
            assert leader["size_after"] == follower["size_after"]
            stats = client.stats()
            assert stats["dedupe_hits"] == 1
            assert stats["tenants"]["bob"]["dedupe_hits"] == 1
            assert stats["driver"]["executed"] == 1
        finally:
            client.close()

    def test_quota_rejection_is_typed_and_recoverable(self):
        service = unthreaded_service(tenant_quota=2, max_queue=64)
        client = LoopbackClient(service)
        try:
            tickets = [
                client.submit_optimize(IR + f"; v{i}\n", name="f",
                                       tenant="greedy")
                for i in range(2)
            ]
            refused = client.submit_optimize(
                IR + "; v9\n", name="f", tenant="greedy"
            )
            response = client.poll(refused)
            assert response_error_kind(response) == "quota"
            # Another tenant is unaffected by the greedy one's quota.
            other = client.submit_optimize(IR, name="f", tenant="modest")
            assert client.poll(other) is None
            service.pump_once()
            for ticket in tickets + [other]:
                assert client.wait(ticket)["result"]["status"] == "ok"
            # Slots freed: the refused submission now goes through.
            retry = client.submit_optimize(
                IR + "; v9\n", name="f", tenant="greedy"
            )
            service.pump_once()
            assert client.wait(retry)["result"]["status"] == "ok"
            stats = client.stats()
            assert stats["rejected_quota"] == 1
            assert stats["tenants"]["greedy"]["rejected_quota"] == 1
        finally:
            client.close()

    def test_backpressure_watermark_returns_busy(self):
        service = unthreaded_service(max_queue=2, tenant_quota=64)
        client = LoopbackClient(service)
        try:
            for i in range(2):
                client.submit_optimize(
                    IR + f"; v{i}\n", name="f", tenant=f"t{i}"
                )
            refused = client.submit_optimize(IR, name="f", tenant="t9")
            response = client.poll(refused)
            assert response_error_kind(response) == "busy"
            assert response["error"]["code"] == -32000
            service.pump_once()
            # Watermark cleared: same submission is admitted now.
            retry = client.submit_optimize(IR, name="f", tenant="t9")
            assert client.poll(retry) is None
            service.pump_once()
            assert client.wait(retry)["result"]["status"] == "ok"
            assert client.stats()["rejected_busy"] == 1
        finally:
            client.close()

    def test_shared_cache_across_daemon_lifetime(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = OptimizeService(
            ServeConfig(driver=dict(cache_dir=cache_dir))
        )
        first.start(threaded=False)
        client = LoopbackClient(first)
        ticket = client.submit_optimize(IR, name="f")
        first.pump_once()
        assert not client.wait(ticket)["result"]["cache_hit"]
        client.close()

        second = OptimizeService(
            ServeConfig(driver=dict(cache_dir=cache_dir))
        )
        second.start(threaded=False)
        client = LoopbackClient(second)
        # A *respelling* of the cached job: structural keys must hit.
        ticket = client.submit_optimize(IR_RESPELLED, name="g")
        second.pump_once()
        result = client.wait(ticket)["result"]
        assert result["cache_hit"]
        assert client.stats()["tenants"]["anon"]["cache_hits"] == 1
        client.close()

    def test_drain_refuses_new_work_but_stays_alive(self):
        service = unthreaded_service()
        client = LoopbackClient(service)
        try:
            ticket = client.submit_optimize(IR, name="f")
            assert client.drain() is True
            refused = client.submit_optimize(IR, name="f")
            assert response_error_kind(client.poll(refused)) == (
                "shutting_down"
            )
            # Drained the in-flight job, still answering control traffic.
            assert client.wait(ticket)["result"]["status"] == "ok"
            assert client.ping()
            assert service.alive
        finally:
            client.close()

    def test_stop_degrades_unfinished_work(self):
        service = unthreaded_service()
        client = LoopbackClient(service)
        ticket = client.submit_optimize(IR, name="f", emit_ir=True)
        # Stop without ever pumping: the admitted job must still be
        # answered -- degraded, original text intact.
        service.stop(drain_timeout=0.0)
        response = client.wait(ticket)
        result = response["result"]
        assert result["status"] == "error"
        assert result["error_kind"] == "pool"
        assert result["optimized_ir"] == IR
        assert not service.alive
        service.stop()  # idempotent


class TestConcurrentClients:
    def test_two_threaded_clients_interleave(self):
        service = OptimizeService(ServeConfig())
        service.start(threaded=True)

        outcomes = {}

        def conversation(tag, text, name):
            client = LoopbackClient(service)
            results = [
                client.optimize(
                    text + f"; run{i}\n", name=name, tenant=tag
                )["status"]
                for i in range(3)
            ]
            outcomes[tag] = results
            client.close(shutdown=False)

        threads = [
            threading.Thread(
                target=conversation, args=("alice", IR, "f")
            ),
            threading.Thread(
                target=conversation,
                args=("bob", IR_RESPELLED, "g"),
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        service.stop()
        assert outcomes["alice"] == ["ok", "ok", "ok"]
        assert outcomes["bob"] == ["ok", "ok", "ok"]
        snapshot = service.stats_snapshot()
        assert snapshot["completed"] == 6
        assert set(snapshot["tenants"]) == {"alice", "bob"}


class TestSubprocessDaemon:
    """The real thing: ``python -m repro serve`` over its stdio pipe."""

    def test_pipe_roundtrip_and_clean_exit(self):
        client = ServeClient.spawn("--workers", "1", "--no-cache")
        try:
            assert client.ping()
            first = client.submit_optimize(
                IR, name="f", tenant="alice", emit_ir=True
            )
            second = client.submit_optimize(
                IR_RESPELLED, name="g", tenant="bob"
            )
            leader = client.wait(first)["result"]
            follower = client.wait(second)["result"]
            assert leader["status"] == "ok"
            assert follower["status"] == "ok"
            # In-flight coalescing across the pipe: at most one
            # execution between the two spellings.
            stats = client.stats()
            assert stats["completed"] == 2
            assert (
                stats["driver"]["executed"]
                + stats["driver"]["cache_hits"]
                <= 2
            )
            assert stats["dedupe_hits"] + stats["cache_hits"] >= (
                stats["completed"] - stats["driver"]["executed"]
            )
        finally:
            exit_code = client.close()
        assert exit_code == 0

    def test_eof_shuts_the_daemon_down(self):
        client = ServeClient.spawn("--workers", "1", "--no-cache")
        assert client.ping()
        # Slam the pipe shut with no shutdown handshake: the daemon
        # must notice EOF, drain, and exit zero on its own.
        exit_code = client.close(shutdown=False)
        assert exit_code == 0

    def test_cli_client_prints_batch_table(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "fn.ll"
        source.write_text(IR)
        code = main(["client", str(source), "--", "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fn.ll" in out
        assert "ok" in out


class TestChaosUnderServe:
    """The acceptance storm: seeded faults against the live daemon."""

    def test_storm_holds_service_invariants(self, tmp_path):
        from repro.faultinject.chaos import run_serve_chaos

        report = run_serve_chaos(
            seed=0,
            job_count=12,
            workers=1,
            validate="safe",
            base_dir=str(tmp_path),
        )
        assert report.ok, report.summary()
        row = report.to_json()
        # Every admitted job answered; daemon alive throughout.
        assert row["completed"] == row["accepted"]
        assert row["pings_ok"] >= 2
        # The validation gate held: degradation is per-job and typed,
        # wrong outputs are zero even with corrupt-ir faults firing.
        assert row["wrong_outputs"] == 0
        assert row["success_rate"] >= 0.99
        # Cross-tenant duplicates coalesced rather than re-executed.
        assert row["duplicates"] > 0
        assert row["coalesced"] == row["duplicates"]

    def test_storm_is_deterministic_per_seed(self, tmp_path):
        from repro.faultinject.chaos import run_serve_chaos

        first = run_serve_chaos(
            seed=5, job_count=6, workers=1,
            base_dir=str(tmp_path / "a"),
        )
        second = run_serve_chaos(
            seed=5, job_count=6, workers=1,
            base_dir=str(tmp_path / "b"),
        )
        first, second = first.to_json(), second.to_json()
        assert first["plan"] == second["plan"]
        assert first["ok"] and second["ok"]
        assert (first["submitted"], first["failed"], first["coalesced"]) == (
            second["submitted"], second["failed"], second["coalesced"]
        )

    def test_throughput_snapshot_precedes_the_oracle(
        self, tmp_path, monkeypatch
    ):
        """The storm's jobs/s and wall time must not bill the oracle."""
        from repro.faultinject import chaos

        calls = []
        snapshot = OptimizeService.stats_snapshot
        verdict = chaos.evidence_verdict

        def logged_snapshot(service):
            calls.append("snapshot")
            return snapshot(service)

        def logged_verdict(*args):
            calls.append("oracle")
            return verdict(*args)

        monkeypatch.setattr(OptimizeService, "stats_snapshot", logged_snapshot)
        monkeypatch.setattr(chaos, "evidence_verdict", logged_verdict)
        report = chaos.run_serve_chaos(
            seed=5, job_count=6, workers=1, base_dir=str(tmp_path),
        )
        assert report.ok, report.summary()
        assert calls.count("snapshot") == 1 and "oracle" in calls
        assert "oracle" not in calls[:calls.index("snapshot")], calls


@pytest.mark.parallel
class TestPoolServe:
    """Pool-backed daemon: real worker processes behind the scheduler."""

    def test_pool_roundtrip_and_no_orphans(self):
        service = OptimizeService(
            ServeConfig(driver=dict(workers=2))
        )
        service.start(threaded=True)
        client = LoopbackClient(service)
        try:
            tickets = [
                client.submit_optimize(
                    IR + f"; job{i}\n", name="f", tenant="pool"
                )
                for i in range(4)
            ]
            for ticket in tickets:
                assert client.wait(ticket)["result"]["status"] == "ok"
        finally:
            client.close()
        session = service.scheduler.session
        assert session._executor is None, "pool outlived the daemon"
        assert not service.alive


@pytest.mark.parallel
class TestEventDrivenScheduler:
    """The threaded loop blocks on the session's wake-up: no steps
    while idle, and an offer wakes it."""

    def test_idle_scheduler_takes_no_steps(self):
        scheduler = Scheduler(DriverSession(workers=2))
        steps = []
        real_pump_once = scheduler.pump_once

        def counted(wait=0.0):
            steps.append(wait)
            return real_pump_once(wait)

        scheduler.pump_once = counted
        scheduler.start()
        try:
            time.sleep(0.5)
            assert len(steps) <= 1, f"{len(steps)} steps while idle"
            results, done = [], threading.Event()

            def complete(result):
                results.append(result)
                done.set()

            job = FunctionJob(name="f", ir_text=IR)
            assert scheduler.offer(job, "t", complete) is None
            assert done.wait(5.0), "the offer did not wake the loop"
            assert not results[0].failed
        finally:
            scheduler.stop()


class TestHttpTransport:
    """The localhost HTTP mode: same handler core, plus header edges."""

    @staticmethod
    def _boot():
        from repro.serve.httpd import serve_http

        service = OptimizeService(
            ServeConfig()
        ).start()
        started = threading.Event()
        address_box = {}
        thread = threading.Thread(
            target=serve_http,
            args=(service, 0, started, address_box),
            daemon=True,
        )
        thread.start()
        assert started.wait(timeout=10.0)
        host, port = address_box["address"]
        return service, thread, host, port

    def test_rpc_roundtrip_and_malformed_content_length(self):
        import http.client

        service, thread, host, port = self._boot()
        try:
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                # Liveness probe.
                conn.request("GET", "/healthz")
                reply = conn.getresponse()
                assert reply.status == 200
                assert json.loads(reply.read())["ok"] is True

                # One optimize round-trip through POST /rpc.
                body = encode_line(
                    {
                        "id": 1,
                        "method": "optimize",
                        "params": {"ir": IR, "name": "f"},
                    }
                )
                conn.request(
                    "POST", "/rpc", body=body.encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                assert reply.status == 200
                payload = json.loads(reply.read())
                assert payload["result"]["status"] == "ok"

                # A malformed Content-Length must come back as a typed
                # 400, not an aborted connection.
                conn.putrequest("POST", "/rpc")
                conn.putheader("Content-Length", "banana")
                conn.endheaders()
                reply = conn.getresponse()
                assert reply.status == 400
                assert response_error_kind(json.loads(reply.read())) == (
                    "invalid"
                )
            finally:
                conn.close()

            # A shutdown request stops the HTTP server loop too.
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                body = encode_line({"id": 2, "method": "shutdown"})
                conn.request("POST", "/rpc", body=body.encode("utf-8"))
                assert conn.getresponse().status == 200
            finally:
                conn.close()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        finally:
            service.stop()
        assert not service.alive


@pytest.mark.parallel
class TestSubprocessPoolDaemon:
    """Regression: a pool-backed daemon over the real stdio pipe.

    Pool workers are forked from the scheduler thread while the
    transport thread sits inside ``sys.stdin``'s buffered readline;
    before ``serve_stdio`` detached ``sys.stdin``, the forked child
    inherited the held reader lock and deadlocked in multiprocessing's
    ``_close_stdin`` bootstrap -- two distinct concurrent jobs hung
    the client forever.
    """

    def test_two_distinct_jobs_complete_over_pipe(self):
        ir_other = IR.replace("@f", "@h").replace(
            "add i32 %n, 1", "add i32 %n, 7"
        )
        client = ServeClient.spawn("--workers", "2", "--no-cache")
        watchdog = threading.Timer(60.0, client._process.kill)
        watchdog.start()
        try:
            first = client.submit_optimize(IR, name="f", tenant="a")
            second = client.submit_optimize(ir_other, name="h", tenant="b")
            assert client.wait(first)["result"]["status"] == "ok"
            assert client.wait(second)["result"]["status"] == "ok"
        finally:
            watchdog.cancel()
            exit_code = client.close()
        assert exit_code == 0
