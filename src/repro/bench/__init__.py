"""Benchmark substrates and the experiment harness for every exhibit."""

from . import angha, programs, structcache, tsvc
from .harness import (
    AnghaExperiment,
    AnghaFunctionResult,
    ProgramResult,
    TsvcExperiment,
    TsvcKernelResult,
    run_angha_experiment,
    run_programs_experiment,
    run_tsvc_ablation,
    run_tsvc_experiment,
)
from .objsize import SizeReport, function_size, measure_module, reduction_percent
from .reporting import ascii_curve, format_table, histogram

__all__ = [
    "AnghaExperiment",
    "AnghaFunctionResult",
    "ProgramResult",
    "SizeReport",
    "TsvcExperiment",
    "TsvcKernelResult",
    "angha",
    "ascii_curve",
    "format_table",
    "function_size",
    "histogram",
    "measure_module",
    "programs",
    "reduction_percent",
    "run_angha_experiment",
    "run_programs_experiment",
    "run_tsvc_ablation",
    "run_tsvc_experiment",
    "tsvc",
]
