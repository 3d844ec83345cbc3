"""Experiment harness: one entry point per paper table/figure.

Each ``run_*`` function regenerates the data behind an exhibit of the
paper's evaluation section and returns plain dataclasses the reporting
module (and the pytest-benchmark suite) renders.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

from ..analysis.costmodel import CodeSizeCostModel
from ..driver import DriverStats, FunctionJob, optimize_functions
from ..ir import parse_module, print_module
from ..ir.compile_eval import make_machine
from ..ir.module import Module
from ..ir.verifier import verify_module
from ..rolag import RolagConfig, roll_loops_in_module
from ..transforms.reroll import reroll_loops
from . import angha, programs, tsvc
from .objsize import function_size, measure_module, reduction_percent


# --------------------------------------------------------------------------
# Fig. 15 / Fig. 16 -- AnghaBench
# --------------------------------------------------------------------------


@dataclass
class AnghaFunctionResult:
    """Per-function outcome of the corpus experiment."""
    name: str
    family: str
    size_before: int
    size_after: int
    rolag_rolled: int
    llvm_rolled: int

    @property
    def reduction(self) -> float:
        """Relative size reduction in percent."""
        return reduction_percent(self.size_before, self.size_after)

    @property
    def affected(self) -> bool:
        """Whether either technique changed the function."""
        return self.rolag_rolled > 0 or self.llvm_rolled > 0


@dataclass
class AnghaExperiment:
    """Aggregated Fig. 15/16 results."""
    results: List[AnghaFunctionResult]
    node_counts: Counter
    #: The underlying driver run (worker count, cache hit counters).
    driver_stats: Optional[DriverStats] = None

    @property
    def affected(self) -> List[AnghaFunctionResult]:
        """The functions either technique changed."""
        return [r for r in self.results if r.affected]

    @property
    def curve(self) -> List[float]:
        """Per-affected-function reduction %, descending (Fig. 15)."""
        return sorted((r.reduction for r in self.affected), reverse=True)

    @property
    def mean_reduction(self) -> float:
        """Mean reduction over affected functions (percent)."""
        curve = self.curve
        return statistics.mean(curve) if curve else 0.0

    @property
    def rolag_triggered(self) -> int:
        """Functions RoLAG rolled at least one loop in."""
        return sum(1 for r in self.results if r.rolag_rolled)

    @property
    def llvm_triggered(self) -> int:
        """Functions the reroll baseline changed."""
        return sum(1 for r in self.results if r.llvm_rolled)


def run_angha_experiment(
    count: int = 200,
    seed: int = 2022,
    config: Optional[RolagConfig] = None,
    measure_model: Optional[CodeSizeCostModel] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> AnghaExperiment:
    """Fig. 15/16: per-function reductions over the synthetic corpus.

    ``measure_model`` measures the final sizes with a *different* cost
    model than the one profitability consulted, reproducing the paper's
    Section V-A observation that "cost models can be inaccurate":
    decisions that looked like wins at the IR level can come out
    negative in the measured binary.

    Runs on the parallel driver: ``jobs`` worker processes optimize
    the corpus (``jobs=1`` is the deterministic serial path),
    and ``cache_dir`` memoizes per-function results so an unchanged
    rerun is near-instant.
    """
    fjobs = [
        FunctionJob(
            name=cs.name,
            c_source=cs.source,
            metadata=(("family", cs.family),),
        )
        for cs in angha.generate_sources(count=count, seed=seed)
    ]
    report = optimize_functions(
        fjobs,
        config=config,
        workers=jobs,
        cache_dir=cache_dir,
        measure_model=measure_model,
    )
    # Degraded results (a crash, e.g. under the config's fault plan)
    # carry no measurements; keep them out of the exhibit aggregates --
    # the failure counters on ``stats`` tell the story.
    results = [
        AnghaFunctionResult(
            r.name,
            r.metadata["family"],
            r.size_before,
            r.rolag_size,
            r.rolag_rolled,
            r.llvm_rolled,
        )
        for r in report.results
        if not r.failed
    ]
    node_counts: Counter = Counter()
    for r in report.results:
        node_counts.update(r.node_counts)
    return AnghaExperiment(results, node_counts, report.stats)


# --------------------------------------------------------------------------
# Table I -- full programs
# --------------------------------------------------------------------------


@dataclass
class ProgramResult:
    """One Table I row as measured."""
    suite: str
    name: str
    size_before: int
    size_after: int
    rolled_loops: int
    llvm_rerolled: int

    @property
    def reduction_bytes(self) -> int:
        """Absolute bytes saved."""
        return self.size_before - self.size_after

    @property
    def reduction_percent(self) -> float:
        """Relative reduction in percent."""
        return reduction_percent(self.size_before, self.size_after)


def run_programs_experiment(
    scale: float = 1.0,
    config: Optional[RolagConfig] = None,
) -> List[ProgramResult]:
    """Table I: per-program sizes, reductions and rolled-loop counts."""
    rows: List[ProgramResult] = []
    for spec in programs.PROGRAMS:
        module = programs.build_program(spec, scale)
        before = measure_module(module)
        llvm = sum(
            reroll_loops(f) for f in module.functions if not f.is_declaration
        )
        rolled = roll_loops_in_module(module, config=config)
        verify_module(module)
        after = measure_module(module)
        rows.append(
            ProgramResult(
                spec.suite,
                spec.name,
                before.total,
                after.total,
                rolled,
                llvm,
            )
        )
    return rows


# --------------------------------------------------------------------------
# Fig. 17 / Fig. 18 / Fig. 19 / Sec. V-D -- TSVC
# --------------------------------------------------------------------------


@dataclass
class TsvcKernelResult:
    """Per-kernel sizes/counts for the TSVC experiments."""
    name: str
    base_size: int
    llvm_size: int
    rolag_size: int
    oracle_size: int
    llvm_rolled: int
    rolag_rolled: int
    steps_base: int = 0
    steps_rolag: int = 0

    @property
    def llvm_reduction(self) -> float:
        """Baseline reduction vs the unrolled kernel (percent)."""
        return reduction_percent(self.base_size, self.llvm_size)

    @property
    def rolag_reduction(self) -> float:
        """RoLAG reduction vs the unrolled kernel (percent)."""
        return reduction_percent(self.base_size, self.rolag_size)

    @property
    def oracle_reduction(self) -> float:
        """Rolled-source reduction vs the unrolled kernel (percent)."""
        return reduction_percent(self.base_size, self.oracle_size)

    @property
    def performance_ratio(self) -> float:
        """base steps / rolag steps; < 1 means the rolled code is slower."""
        if self.steps_rolag == 0:
            return 1.0
        return self.steps_base / self.steps_rolag


@dataclass
class TsvcExperiment:
    """Aggregated Fig. 17/18/19 results."""
    results: List[TsvcKernelResult]
    node_counts: Counter
    #: The underlying driver run (worker count, cache hit counters).
    driver_stats: Optional[DriverStats] = None

    def mean(self, attr: str) -> float:
        """Average of a reduction attribute across ALL kernels."""
        return statistics.mean(getattr(r, attr) for r in self.results)

    @property
    def llvm_kernels(self) -> int:
        """Kernels the baseline rerolled."""
        return sum(1 for r in self.results if r.llvm_rolled)

    @property
    def rolag_kernels(self) -> int:
        """Kernels RoLAG profitably rolled."""
        return sum(1 for r in self.results if r.rolag_rolled)


def _run_kernel_dynamic(
    module: Module, name: str, evaluator: str = "interp"
) -> int:
    machine = make_machine(module, evaluator)
    tsvc.init_machine(machine)
    machine.call(module.get_function(name), [])
    return machine.steps


def run_tsvc_experiment(
    factor: int = 8,
    config: Optional[RolagConfig] = None,
    measure_dynamic: bool = False,
    kernels: Optional[List[str]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    evaluator: str = "interp",
) -> TsvcExperiment:
    """Fig. 17/18 (and V-D with ``measure_dynamic``): the TSVC study.

    Each unrolled kernel is printed to IR text and handed to the
    parallel driver, whose workers measure the base size and run the
    reroll baseline and RoLAG on independent fresh parses -- exactly the
    three-module protocol the serial harness used.  ``jobs`` and
    ``cache_dir`` behave as in :func:`run_angha_experiment`.

    ``evaluator`` picks the backend for the dynamic-step measurements
    (step counts are backend-independent; only wall time changes), and
    that wall time is booked into the report's ``eval`` phase timer so
    overhead studies can separate rolling cost from evaluation cost.
    """
    config = config or RolagConfig(fast_math=True)
    names = list(kernels or tsvc.kernel_names())
    fjobs = [
        FunctionJob(
            name=name,
            ir_text=print_module(tsvc.build_unrolled_kernel(name, factor)),
        )
        for name in names
    ]
    report = optimize_functions(
        fjobs,
        config=config,
        workers=jobs,
        cache_dir=cache_dir,
    )

    results: List[TsvcKernelResult] = []
    node_counts: Counter = Counter()
    for job, r in zip(fjobs, report.results):
        if r.failed:
            # No measurements to aggregate; the stats counters record it.
            continue
        node_counts.update(r.node_counts)
        oracle_module = tsvc.build_kernel(r.name)
        oracle_size = function_size(oracle_module.get_function(r.name))

        steps_base = steps_rolag = 0
        if measure_dynamic:
            eval_start = perf_counter()
            steps_base = _run_kernel_dynamic(
                parse_module(job.ir_text), r.name, evaluator
            )
            steps_rolag = _run_kernel_dynamic(
                parse_module(r.optimized_ir), r.name, evaluator
            )
            report.stats.phase_seconds["eval"] = (
                report.stats.phase_seconds.get("eval", 0.0)
                + perf_counter()
                - eval_start
            )

        results.append(
            TsvcKernelResult(
                r.name,
                r.size_before,
                r.llvm_size,
                r.rolag_size,
                oracle_size,
                r.llvm_rolled,
                r.rolag_rolled,
                steps_base,
                steps_rolag,
            )
        )
    return TsvcExperiment(results, node_counts, report.stats)


def run_tsvc_ablation(factor: int = 8) -> Tuple[int, int]:
    """Fig. 19's headline: profitable rolls with/without special nodes.

    Returns (rolls with all nodes, rolls with special nodes disabled).
    """
    full = run_tsvc_experiment(factor)
    disabled = run_tsvc_experiment(
        factor, config=RolagConfig(fast_math=True).all_special_disabled()
    )
    return full.rolag_kernels, disabled.rolag_kernels
