"""What a workload run hands back to ``run.py``, and shared helpers."""

from __future__ import annotations

import os
import shutil
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.driver import FunctionResult
from repro.driver.types import percentile

from .check import CheckReport, output_digest

#: Repository root of the checkout the benchmark runs in.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Outcome:
    """One workload run: metrics by name plus the verdict inputs."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    #: Failures that are not wrong outputs: determinism breaks, a
    #: drifted replay, a missing span.  Any entry fails the run.
    problems: List[str] = field(default_factory=list)
    #: Context printed beside the metrics (digest, sample counts...).
    info: Dict[str, object] = field(default_factory=dict)


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses: this checkout's sources."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def fresh_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p50_p95_ms(samples: Sequence[float], scale: float) -> Dict[str, float]:
    """Latency percentiles of ``samples`` (seconds) times ``scale``."""
    return {
        "latency_p50_ms": 1000.0 * scale * percentile(list(samples), 0.50),
        "latency_p95_ms": 1000.0 * scale * percentile(list(samples), 0.95),
    }


def deterministic_summary(results: Sequence[FunctionResult]) -> Dict[str, object]:
    """Everything about a run's outputs that must repeat exactly."""
    ok = [r for r in results if not r.failed]
    return {
        "output_digest": output_digest(r.optimized_ir for r in results),
        "size_before": sum(r.size_before for r in ok),
        "rolag_size": sum(r.rolag_size for r in ok),
        "rolled_loops": sum(r.rolag_rolled for r in ok),
        "llvm_rolled": sum(r.llvm_rolled for r in ok),
        "attempted": sum(r.attempted for r in ok),
        "schedule_rejected": sum(r.schedule_rejected for r in ok),
        "unprofitable": sum(r.unprofitable for r in ok),
        "guard_rollbacks": sum(len(r.guard_reports) for r in ok),
    }


def size_metrics(summary: Dict[str, object]) -> Dict[str, float]:
    before = float(summary["size_before"])
    after = float(summary["rolag_size"])
    return {
        "code_size_reduction_pct": (
            100.0 * (before - after) / before if before else 0.0
        ),
        "rolled_loops": float(summary["rolled_loops"]),
    }


def rolag_counts(summary: Dict[str, object]) -> Dict[str, float]:
    attempted = float(summary["attempted"])
    rolled = float(summary["rolled_loops"])
    return {
        "rolag.attempted": attempted,
        "rolag.rolled": rolled,
        "rolag.schedule_rejected": float(summary["schedule_rejected"]),
        "rolag.unprofitable": float(summary["unprofitable"]),
        "rolag.roll_ratio": rolled / attempted if attempted else 0.0,
    }


def apply_check(outcome: Outcome, report: CheckReport) -> None:
    outcome.wrong += report.wrong
    outcome.info["checked_outputs"] = report.checked
    if report.details:
        outcome.info["wrong_output_details"] = report.details
    outcome.metrics["dynamic_steps_ratio"] = report.steps_ratio


def compare_summaries(
    outcome: Outcome, label: str, first: Dict[str, object],
    other: Dict[str, object],
) -> None:
    """Flag any difference in the deterministic payload as a failure."""
    for key, value in first.items():
        if other.get(key) != value:
            outcome.problems.append(
                f"nondeterministic {key}: {label} gave {other.get(key)!r}, "
                f"first run gave {value!r}"
            )
