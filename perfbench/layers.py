"""Per-layer metrics from a traced replay and the driver's counters."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.driver import DriverStats, FunctionResult
from repro.driver.types import percentile

from .trace import Replay

#: Per-layer time metric -> the span whose self time it sums.
SPAN_SECONDS = {
    "frontend.compile_s": "compile_c",
    "ir.parser.parse_s": "parse_module",
    "ir.verifier.verify_s": "verify_module",
    "ir.printer.print_s": "print_module",
    "ir.structhash.hash_s": "job_struct_summary",
    "transforms.reroll_s": "reroll_loops",
    "transforms.txn_s": "txn.run",
    "objsize.measure_s": "function_size",
    "validation.begin_s": "Validator.begin",
    "validation.gate_s": "Validator.commit_or_rollback",
    "difftest.oracle_s": "check_module_semantics",
    "driver.cache.get_s": "ResultCache.get",
    "driver.cache.put_s": "ResultCache.put",
    "driver.cache.retarget_s": "retarget",
}

#: Per-layer call-count metric -> span name.
SPAN_CALLS = {
    "frontend.calls": "compile_c",
    "ir.parser.calls": "parse_module",
    "ir.structhash.calls": "job_struct_summary",
}

#: ``RolagStats(timed=True)`` phases reported per layer.
ROLAG_PHASES = ("seeds", "alignment", "scheduling", "codegen")

#: Spans every replay of a workload must record at least once.  A
#: missing one fails the run instead of reading as zero.
EXPECTED_SPANS = {
    "campaign-angha": (
        "compile_c", "verify_module", "reroll_loops", "roll_loops_in_module",
        "function_size", "print_module", "job_struct_summary",
        "ResultCache.get", "ResultCache.put",
    ),
    "tsvc-checked": (
        "parse_module", "verify_module", "txn.run", "reroll_loops",
        "roll_loops_in_module", "function_size", "print_module",
        "Validator.begin", "Validator.commit_or_rollback",
        "check_module_semantics",
    ),
    "serve-mixed": (
        "parse_module", "verify_module", "txn.run", "reroll_loops",
        "roll_loops_in_module", "function_size", "print_module",
        "Validator.begin", "Validator.commit_or_rollback",
        "job_struct_summary", "ResultCache.get", "ResultCache.put",
        "retarget",
    ),
}


def missing_spans(workload: str, replay: Replay) -> List[str]:
    counts = replay.tracer.counts()
    return [name for name in EXPECTED_SPANS[workload] if not counts.get(name)]


def replay_metrics(replay: Replay, untraced_wall: float) -> Dict[str, float]:
    """Layer times and counts seen by the traced serial replay."""
    seconds = replay.tracer.self_seconds()
    counts = replay.tracer.counts()
    metrics = {m: seconds.get(s, 0.0) for m, s in SPAN_SECONDS.items()}
    metrics.update({m: float(counts.get(s, 0)) for m, s in SPAN_CALLS.items()})
    for phase in ROLAG_PHASES:
        metrics[f"rolag.{phase}_s"] = replay.phase_seconds.get(phase, 0.0)
    metrics["transforms.reroll_rolled"] = float(
        sum(r.llvm_rolled for r in replay.results if not r.failed)
    )
    metrics["difftest.eval_steps"] = float(replay.eval_steps)
    metrics["trace.unattributed_pct"] = replay.tracer.unattributed_pct()
    metrics["trace.overhead_pct"] = (
        100.0 * (replay.wall_seconds - untraced_wall) / untraced_wall
        if untraced_wall
        else 0.0
    )
    return metrics


def executed_walls(results: Sequence[FunctionResult]) -> List[float]:
    """In-worker wall seconds of the jobs that actually ran."""
    return [
        r.wall_seconds for r in results
        if not (r.cache_hit or r.dedupe_hit or r.failed)
    ]


def driver_metrics(
    stats: DriverStats, results: Sequence[FunctionResult], wall: float
) -> Dict[str, float]:
    """The batch driver's own counters from one pool run."""
    executed = executed_walls(results)
    busy = sum(executed)
    lookups = stats.cache_hits + stats.cache_misses
    return {
        "driver.core.worker_busy_s": busy,
        # An estimate: the driver does not pair each dispatch latency
        # with its job, so this compares the two medians.
        "driver.core.dispatch_overhead_ms_p50": 1000.0 * (
            percentile(stats.latency_seconds, 0.5) - percentile(executed, 0.5)
        ),
        "driver.core.pool_utilization": (
            busy / (stats.workers * wall) if wall else 0.0
        ),
        "driver.cache.hits": float(stats.cache_hits),
        "driver.cache.misses": float(stats.cache_misses),
        "driver.cache.hit_ratio": stats.cache_hits / lookups if lookups else 0.0,
        "driver.dedupe_hits": float(stats.dedupe_hits),
        "driver.executed": float(stats.executed),
        "driver.retried": float(stats.retried),
        "driver.pool_respawns": float(stats.pool_respawns),
    }
