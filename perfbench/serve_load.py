"""The ``serve-mixed`` workload: a closed loop against ``repro serve``.

One timed pass spawns a daemon (its own session, fresh structural cache
and journal), waits for its first ``ping`` answer (``setup_s``), then
keeps ``SERVE_OUTSTANDING`` optimize requests outstanding on the one
stdio connection until the whole seeded request stream is answered
(``wall_s``; latency is client-side, from send to response).  The pass
ends with a ``stats`` snapshot, ``shutdown``, and a kill of the
daemon's process group.  Passes repeat until ``--seconds`` have passed;
every pass must answer with the same outputs as the first.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.driver import optimize_functions
from repro.driver.types import percentile
from repro.serve.protocol import encode_line

from . import layers, workloads
from .batch import MIN_REPS
from .check import check_outputs, output_digest
from .outcome import (
    ROOT,
    Outcome,
    apply_check,
    compare_summaries,
    deterministic_summary,
    fresh_dir,
    median,
    p50_p95_ms,
    program_env,
    rolag_counts,
    size_metrics,
)
from .procs import ProcessGuard, peak_rss_mb, tree_peak_rss_mb
from .speed import HostSpeed
from .trace import replay

#: Seconds to wait for any one response before declaring the daemon hung.
RESPONSE_TIMEOUT = 60.0


class Connection:
    """One stdio connection; a reader thread timestamps each response
    as it arrives, so responses are timed in completion order."""

    def __init__(self, process: subprocess.Popen) -> None:
        self.process = process
        self.lines: "queue.Queue" = queue.Queue()
        self._next_control_id = 0
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        try:
            for line in self.process.stdout:
                if line.strip():
                    self.lines.put((perf_counter(), line))
        except (OSError, ValueError):
            pass
        self.lines.put((perf_counter(), None))

    def send(self, req_id, method: str, params: Optional[dict] = None) -> None:
        frame = {"jsonrpc": "2.0", "id": req_id, "method": method,
                 "params": params or {}}
        self.process.stdin.write(encode_line(frame))
        self.process.stdin.flush()

    def receive(self, timeout: float = RESPONSE_TIMEOUT):
        """``(arrival time, response)``; raises on EOF or timeout."""
        try:
            arrived, line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(f"no response within {timeout:.0f}s") from None
        if line is None:
            raise EOFError("daemon closed its stdout")
        return arrived, json.loads(line)

    def call(self, method: str, params: Optional[dict] = None) -> dict:
        """A control request while no optimize is outstanding."""
        self._next_control_id += 1
        req_id = f"control-{self._next_control_id}"
        self.send(req_id, method, params)
        _arrived, response = self.receive()
        if response.get("id") != req_id or "error" in response:
            raise RuntimeError(f"{method} failed: {response}")
        return response["result"]

    def close(self) -> None:
        try:
            self.process.stdin.close()
        except (OSError, ValueError):
            pass
        self.reader.join(timeout=15)


@dataclass
class PassResult:
    setup: float = 0.0
    wall: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: Per request, in send order: the ok response payload or None.
    payloads: List[Optional[dict]] = field(default_factory=list)
    degraded: int = 0
    refused: int = 0
    unanswered: int = 0
    stats: Dict[str, object] = field(default_factory=dict)
    rss: float = 0.0
    daemon_rss: float = 0.0

    @property
    def failed(self) -> int:
        return self.degraded + self.refused + self.unanswered

    def summary(self) -> Dict[str, object]:
        ok = [p for p in self.payloads if p is not None]
        return {
            "output_digest": output_digest(
                p["optimized_ir"] if p else "" for p in self.payloads
            ),
            "size_before": sum(p["size_before"] for p in ok),
            "rolag_size": sum(p["size_after"] for p in ok),
            "rolled_loops": sum(p["rolled"] for p in ok),
            "guard_rollbacks": sum(p["guard_rollbacks"] for p in ok),
        }


def _serve_pass(
    requests: List[workloads.ServeRequest], guard: ProcessGuard,
    workdir: str, index: int,
) -> PassResult:
    outcome = PassResult(payloads=[None] * len(requests))
    argv = [
        sys.executable, "-m", "repro", "serve", *workloads.SERVE_ARGS,
        "--cache-dir", fresh_dir(workdir, f"serve-cache-{index}"),
        "--journal-dir", fresh_dir(workdir, f"serve-journal-{index}"),
    ]
    log = open(os.path.join(workdir, f"serve-{index}.log"), "w")
    start = perf_counter()
    process = guard.spawn_daemon(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
        text=True, env=program_env(), cwd=ROOT,
    )
    connection = Connection(process)
    try:
        connection.call("ping")
        outcome.setup = perf_counter() - start
        outstanding: Dict[int, float] = {}
        sent = 0
        begin = perf_counter()
        try:
            while sent < len(requests) or outstanding:
                while (
                    sent < len(requests)
                    and len(outstanding) < workloads.SERVE_OUTSTANDING
                ):
                    job = requests[sent].job
                    outstanding[sent] = perf_counter()
                    connection.send(sent, "optimize", {
                        "ir": job.ir_text, "name": job.name,
                        "tenant": "perfbench", "emit_ir": True,
                    })
                    sent += 1
                arrived, response = connection.receive()
                req = response.get("id")
                if req not in outstanding:
                    raise RuntimeError(f"unexpected response {response}")
                outcome.latencies.append(arrived - outstanding.pop(req))
                result = response.get("result")
                if "error" in response or not isinstance(result, dict):
                    outcome.refused += 1
                elif result.get("status") != "ok":
                    outcome.degraded += 1
                else:
                    outcome.payloads[req] = result
        except (TimeoutError, EOFError):
            outcome.unanswered = len(outstanding) + len(requests) - sent
        outcome.wall = perf_counter() - begin
        outcome.stats = connection.call("stats")
        outcome.rss = tree_peak_rss_mb(process.pid)
        outcome.daemon_rss = peak_rss_mb(process.pid)
        connection.call("shutdown")
    finally:
        connection.close()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        guard.kill_group(process)
        log.close()
        shutil.rmtree(os.path.join(workdir, f"serve-cache-{index}"), True)
        shutil.rmtree(os.path.join(workdir, f"serve-journal-{index}"), True)
    return outcome


def _batch_mismatches(requests, payloads, workdir, workers) -> Dict[str, float]:
    """Optimized IR a batch run gives for each input, against serve's.

    Returns ``{"mismatches": n, "wall": batch wall seconds}``.
    """
    jobs = [r.job for r in requests]
    start = perf_counter()
    report = optimize_functions(
        jobs, workloads.serve_config(), workers=workers,
        cache_dir=fresh_dir(workdir, "batch-cache"),
    )
    wall = perf_counter() - start
    shutil.rmtree(os.path.join(workdir, "batch-cache"), True)
    mismatches = sum(
        1 for payload, result in zip(payloads, report.results)
        if payload is not None and payload["optimized_ir"] != result.optimized_ir
    )
    return {"mismatches": mismatches, "wall": wall}


def run_serve(
    seed: int, seconds: float, trace: bool, workdir: str,
    guard: ProcessGuard, size: Optional[int] = None,
) -> Outcome:
    requests = workloads.serve_requests(
        seed, size or workloads.SERVE_REQUESTS
    )
    outcome = Outcome()
    passes: List[PassResult] = []
    speed = HostSpeed()
    deadline = perf_counter() + seconds
    min_passes = 1 if trace else MIN_REPS
    while len(passes) < min_passes or (
        not trace and perf_counter() < deadline
    ):
        speed.sample()
        result = _serve_pass(requests, guard, workdir, len(passes))
        passes.append(result)
        outcome.attempted += len(requests)
        outcome.failed += result.failed
        if len(passes) > 1:
            compare_summaries(
                outcome, f"pass {len(passes)}", passes[0].summary(),
                result.summary(),
            )
    first = passes[0]
    summary = first.summary()
    pairs = [
        (r.job, p["optimized_ir"])
        for r, p in zip(requests, first.payloads) if p is not None
    ]
    apply_check(outcome, check_outputs(pairs))
    # Cross-path check: a batch run of the same inputs must print the
    # same optimized IR the daemon answered with.
    batch = _batch_mismatches(
        requests, first.payloads, workdir, workers=1 if trace else 2
    )
    outcome.wrong += batch["mismatches"]
    kinds = [r.kind for r in requests]
    outcome.info.update(
        requests=len(requests), passes=len(passes),
        latency_samples=sum(len(p.latencies) for p in passes),
        pass_walls=[round(p.wall, 4) for p in passes],
        output_digest=summary["output_digest"],
        batch_mismatches=batch["mismatches"],
        request_mix={k: kinds.count(k) for k in sorted(set(kinds))},
    )
    if trace:
        _traced(outcome, requests, first, summary, batch, workdir)
        return outcome
    latencies = [s for p in passes for s in p.latencies]
    scale = speed.factor
    wall = median([p.wall for p in passes]) * scale
    outcome.metrics.update(
        setup_s=median([p.setup for p in passes]) * scale,
        wall_s=wall,
        jobs_per_s=len(requests) / wall,
        peak_rss_mb=median([p.rss for p in passes]),
        **p50_p95_ms(latencies, scale),
        **size_metrics(summary),
    )
    outcome.info["host_speed_factor"] = round(scale, 4)
    return outcome


def _traced(outcome, requests, first, summary, batch, workdir) -> None:
    """Per-layer numbers: client spans and the daemon's final stats,
    plus a traced serial replay of the same request stream."""
    jobs = [r.job for r in requests]
    traced = replay(
        jobs, workloads.serve_config(),
        cache_dir=fresh_dir(workdir, "replay-cache"),
        check_semantics=False, evaluator="interp",
    )
    shutil.rmtree(os.path.join(workdir, "replay-cache"), True)
    replayed = output_digest(r.optimized_ir for r in traced.results)
    if replayed != summary["output_digest"]:
        outcome.problems.append(
            "traced replay drifted from the daemon: output digest "
            f"{replayed[:16]} != {summary['output_digest'][:16]}"
        )
    outcome.problems.extend(
        f"missing span {name}"
        for name in layers.missing_spans("serve-mixed", traced)
    )
    stats = first.stats
    driver = stats.get("driver", {})
    journal = stats.get("journal", {})
    client_p50 = 1000.0 * percentile(first.latencies, 0.5)
    daemon_p50 = 1000.0 * float(stats.get("latency_p50", 0.0))
    executed = layers.executed_walls(traced.results)
    busy = sum(executed)
    jobs_seen = float(driver.get("jobs", 0))
    hits = float(driver.get("cache_hits", 0))
    outcome.metrics.update(layers.replay_metrics(traced, batch["wall"]))
    outcome.metrics.update(rolag_counts(deterministic_summary(traced.results)))
    outcome.metrics.update({
        "validation.rollbacks": float(summary["guard_rollbacks"]),
        # Busy time and dispatch overhead are estimated from the
        # replay's per-job compute time: responses carry no worker wall.
        "driver.core.worker_busy_s": busy,
        "driver.core.dispatch_overhead_ms_p50": (
            1000.0 * float(driver.get("latency_p50", 0.0))
            - 1000.0 * percentile(executed, 0.5)
        ),
        "driver.core.pool_utilization": (
            busy / (workloads.WORKERS * first.wall) if first.wall else 0.0
        ),
        "driver.cache.hits": hits,
        "driver.cache.misses": jobs_seen - hits,
        "driver.cache.hit_ratio": hits / jobs_seen if jobs_seen else 0.0,
        "driver.dedupe_hits": float(driver.get("dedupe_hits", 0)),
        "driver.executed": float(driver.get("executed", 0)),
        "driver.retried": float(driver.get("retried", 0)),
        "driver.pool_respawns": float(driver.get("pool_respawns", 0)),
        "serve.stdio.transport_ms_p50": client_p50 - daemon_p50,
        "serve.service.latency_p50_ms": daemon_p50,
        "serve.service.latency_p99_ms": (
            1000.0 * float(stats.get("latency_p99", 0.0))
        ),
        # An estimate: admission-to-response median minus the driver's
        # dispatch-to-completion median.  Cache hits answer without a
        # dispatch and pull only the first median down, so it can read
        # below zero.
        "serve.scheduler.queue_wait_ms_p50": (
            daemon_p50 - 1000.0 * float(driver.get("latency_p50", 0.0))
        ),
        "serve.scheduler.refused_busy": float(stats.get("rejected_busy", 0)),
        "serve.scheduler.refused_quota": float(stats.get("rejected_quota", 0)),
        "serve.journal.appends": float(journal.get("appends", 0)),
        "serve.journal.fsyncs": float(journal.get("fsyncs", 0)),
        "serve.daemon_rss_mb": first.daemon_rss,
    })
    outcome.info.update(
        replay_wall_s=traced.wall_seconds, untraced_serial_wall_s=batch["wall"],
    )
