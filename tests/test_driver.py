"""Tests for the parallel, memoizing optimization driver."""

import os

import pytest

from repro.bench import angha, run_angha_experiment, run_tsvc_experiment
from repro.cli import build_arg_parser, driver_options_from_args
from repro.driver import (
    FunctionJob,
    default_worker_count,
    job_key,
    optimize_functions,
    optimize_one,
)
from repro.ir import parse_module, print_module
from repro.rolag import RolagConfig, RolagStats, roll_loops_in_module
from repro.rolag.config import PHASE_NAMES


def _corpus_jobs(count=8, seed=2022):
    return [
        FunctionJob(
            name=cs.name, c_source=cs.source, metadata=(("family", cs.family),)
        )
        for cs in angha.generate_sources(count=count, seed=seed)
    ]


class TestConfigFingerprint:
    def test_stable_across_instances(self):
        assert RolagConfig().fingerprint() == RolagConfig().fingerprint()

    def test_every_knob_matters(self):
        base = RolagConfig().fingerprint()
        assert RolagConfig(min_lanes=3).fingerprint() != base
        assert RolagConfig(fast_math=True).fingerprint() != base
        assert RolagConfig(enable_joint=False).fingerprint() != base

    def test_profile_participates(self):
        base = RolagConfig().fingerprint()
        profiled = RolagConfig(profile={("f", "entry"): 500}).fingerprint()
        assert profiled != base


class TestSerialDriver:
    def test_results_in_job_order(self):
        jobs = _corpus_jobs(count=6)
        report = optimize_functions(jobs, workers=1)
        assert [r.name for r in report.results] == [j.name for j in jobs]
        assert report.stats.jobs == 6
        assert report.stats.cache_hits == 0

    def test_ir_and_c_jobs_agree(self):
        corpus = angha.generate_corpus(count=4, seed=7)
        for cf in corpus:
            from_c = optimize_one(FunctionJob(name=cf.name, c_source=cf.source))
            from_ir = optimize_one(
                FunctionJob(name=cf.name, ir_text=print_module(cf.module))
            )
            assert from_c.size_before == from_ir.size_before
            assert from_c.rolag_size == from_ir.rolag_size
            assert from_c.rolag_rolled == from_ir.rolag_rolled

    def test_optimized_ir_parses_back(self):
        job = _corpus_jobs(count=1)[0]
        result = optimize_one(job)
        parse_module(result.optimized_ir)

    @pytest.mark.parametrize("literal,spelling", [
        ("1e20", "1e+20"), ("1e-5", "1e-05"), ("4.9e-324", "5e-324"),
    ])
    def test_c_job_with_an_exponent_float_literal(self, literal, spelling):
        # The printer spells these doubles without a ``.``; the job's
        # printed IR must parse back in the worker.
        from repro.driver import FunctionResult
        from repro.driver.core import run_one_guarded

        source = f"double f(double x) {{ return x * {literal}; }}"
        outcome = run_one_guarded(FunctionJob(name="f", c_source=source))
        assert isinstance(outcome, FunctionResult), outcome
        assert f"fmul double %x, {spelling}\n" in outcome.optimized_ir


class TestResultCache:
    def test_warm_run_is_byte_identical(self, tmp_path):
        jobs = _corpus_jobs(count=8)
        cold = optimize_functions(jobs, workers=1, cache_dir=str(tmp_path))
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_writes == len(jobs)
        warm = optimize_functions(jobs, workers=1, cache_dir=str(tmp_path))
        assert warm.stats.cache_hits == len(jobs)
        assert warm.stats.cache_misses == 0
        assert [r.stable_dict() for r in warm.results] == [
            r.stable_dict() for r in cold.results
        ]
        assert all(r.cache_hit for r in warm.results)

    def test_changed_config_misses(self, tmp_path):
        jobs = _corpus_jobs(count=4)
        optimize_functions(jobs, workers=1, cache_dir=str(tmp_path))
        rerun = optimize_functions(
            jobs,
            config=RolagConfig(min_lanes=3),
            workers=1,
            cache_dir=str(tmp_path),
        )
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.cache_misses == len(jobs)

    def test_changed_input_misses(self, tmp_path):
        jobs = _corpus_jobs(count=4, seed=1)
        optimize_functions(jobs, workers=1, cache_dir=str(tmp_path))
        other = _corpus_jobs(count=4, seed=2)
        rerun = optimize_functions(other, workers=1, cache_dir=str(tmp_path))
        assert rerun.stats.cache_hits == 0

    def test_no_cache_bypasses(self, tmp_path):
        jobs = _corpus_jobs(count=2)
        optimize_functions(jobs, workers=1, cache_dir=str(tmp_path))
        args = build_arg_parser().parse_args(
            ["x.c", "--cache-dir", str(tmp_path), "--no-cache"]
        )
        bypassed = optimize_functions(
            jobs, workers=1, **driver_options_from_args(args)
        )
        assert bypassed.stats.cache_hits == 0
        assert bypassed.stats.cache_writes == 0

    def test_entries_are_sharded_json(self, tmp_path):
        jobs = _corpus_jobs(count=2)
        optimize_functions(jobs, workers=1, cache_dir=str(tmp_path))
        key = job_key(jobs[0], RolagConfig())
        path = os.path.join(str(tmp_path), key[:2], key + ".json")
        assert os.path.exists(path)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        jobs = _corpus_jobs(count=1)
        optimize_functions(jobs, workers=1, cache_dir=str(tmp_path))
        key = job_key(jobs[0], RolagConfig())
        with open(os.path.join(str(tmp_path), key[:2], key + ".json"), "w") as fh:
            fh.write("{not json")
        rerun = optimize_functions(jobs, workers=1, cache_dir=str(tmp_path))
        assert rerun.stats.cache_hits == 0
        assert rerun.results[0].rolag_size >= 0


class TestHarnessCaching:
    def test_angha_warm_matches_cold_serial(self, tmp_path):
        cold = run_angha_experiment(
            count=8, seed=2022, jobs=1, cache_dir=str(tmp_path)
        )
        warm = run_angha_experiment(
            count=8, seed=2022, jobs=1, cache_dir=str(tmp_path)
        )
        assert warm.results == cold.results
        assert warm.node_counts == cold.node_counts
        assert warm.driver_stats.cache_hits == len(cold.results)

    def test_tsvc_warm_matches_cold_serial(self, tmp_path):
        kernels = ["s000", "s112", "s276"]
        cold = run_tsvc_experiment(
            kernels=kernels, jobs=1, cache_dir=str(tmp_path)
        )
        warm = run_tsvc_experiment(
            kernels=kernels, jobs=1, cache_dir=str(tmp_path)
        )
        assert warm.results == cold.results
        assert warm.node_counts == cold.node_counts
        assert warm.driver_stats.cache_hits == len(kernels)

    def test_angha_config_change_misses(self, tmp_path):
        run_angha_experiment(count=4, jobs=1, cache_dir=str(tmp_path))
        rerun = run_angha_experiment(
            count=4,
            jobs=1,
            cache_dir=str(tmp_path),
            config=RolagConfig().all_special_disabled(),
        )
        assert rerun.driver_stats.cache_hits == 0

    def test_harness_matches_legacy_serial_protocol(self):
        # The driver's three-parse protocol must reproduce the numbers
        # the pre-driver serial harness computed for TSVC.
        from repro.bench import tsvc
        from repro.bench.objsize import function_size
        from repro.ir import verify_module
        from repro.transforms.reroll import reroll_loops

        exp = run_tsvc_experiment(kernels=["s000", "s1119"], jobs=1)
        for r in exp.results:
            base = tsvc.build_unrolled_kernel(r.name, 8)
            assert r.base_size == function_size(base.get_function(r.name))
            rolag = tsvc.build_unrolled_kernel(r.name, 8)
            rolled = roll_loops_in_module(
                rolag, config=RolagConfig(fast_math=True)
            )
            verify_module(rolag)
            assert r.rolag_rolled == rolled
            assert r.rolag_size == function_size(rolag.get_function(r.name))
            llvm = tsvc.build_unrolled_kernel(r.name, 8)
            rerolled = sum(
                reroll_loops(f) for f in llvm.functions if not f.is_declaration
            )
            assert r.llvm_rolled == rerolled
            assert r.llvm_size == function_size(llvm.get_function(r.name))


class TestPhaseTimers:
    def _rolling_module(self):
        corpus = angha.generate_corpus(count=1, seed=2022)
        return corpus[0].module

    def test_disabled_by_default(self):
        stats = RolagStats()
        roll_loops_in_module(self._rolling_module(), stats=stats)
        assert stats.phase_seconds == {}

    def test_all_phases_present_when_timed(self):
        stats = RolagStats(timed=True)
        rolled = roll_loops_in_module(self._rolling_module(), stats=stats)
        assert rolled >= 1
        assert set(stats.phase_seconds) == set(PHASE_NAMES)
        assert all(v >= 0.0 for v in stats.phase_seconds.values())
        assert sum(stats.phase_seconds.values()) > 0.0

    def test_counters_accumulate_monotonically(self):
        stats = RolagStats(timed=True)
        roll_loops_in_module(self._rolling_module(), stats=stats)
        snapshot = dict(stats.phase_seconds)
        roll_loops_in_module(self._rolling_module(), stats=stats)
        for phase in PHASE_NAMES:
            assert stats.phase_seconds[phase] >= snapshot[phase]

    def test_merge_folds_phase_times(self):
        a = RolagStats(timed=True)
        a.add_phase_time("seeds", 1.0)
        b = RolagStats(timed=True)
        b.add_phase_time("seeds", 0.5)
        b.add_phase_time("codegen", 2.0)
        a.merge(b)
        assert a.phase_seconds == {"seeds": 1.5, "codegen": 2.0}

    def test_driver_aggregates_timers(self):
        report = optimize_functions(_corpus_jobs(count=2), workers=1, timed=True)
        assert set(report.stats.phase_seconds) == set(PHASE_NAMES)


class TestWorkerDefaults:
    def test_default_worker_count(self):
        expected = max(1, min(os.cpu_count() or 1, 8))
        assert default_worker_count() == expected

    def test_workers_none_uses_default(self):
        report = optimize_functions(_corpus_jobs(count=1))
        assert report.stats.workers == default_worker_count()


@pytest.mark.parallel
class TestParallelIdentity:
    """Pool results must be bit-identical to the serial path."""

    def test_pooled_matches_serial_on_angha(self):
        jobs = _corpus_jobs(count=8)
        serial = optimize_functions(jobs, workers=1)
        pooled = optimize_functions(jobs, workers=2, chunk_size=2)
        assert [r.stable_dict() for r in pooled.results] == [
            r.stable_dict() for r in serial.results
        ]

    def test_pooled_matches_serial_on_tsvc(self):
        kernels = ["s000", "s112", "s276", "s1119"]
        serial = run_tsvc_experiment(kernels=kernels, jobs=1)
        pooled = run_tsvc_experiment(kernels=kernels, jobs=2)
        assert pooled.results == serial.results
        assert pooled.node_counts == serial.node_counts

    def test_pool_fills_cache_serial_reads_it(self, tmp_path):
        jobs = _corpus_jobs(count=6)
        pooled = optimize_functions(jobs, workers=2, cache_dir=str(tmp_path))
        assert pooled.stats.cache_writes == len(jobs)
        warm = optimize_functions(jobs, workers=1, cache_dir=str(tmp_path))
        assert warm.stats.cache_hits == len(jobs)
        assert [r.stable_dict() for r in warm.results] == [
            r.stable_dict() for r in pooled.results
        ]


def test_cold_import_of_driver_package():
    # ``repro.driver`` and ``repro.bench`` import each other; each must
    # still import cleanly into a fresh interpreter in either order
    # (this regressed silently: only bench-first ever ran in-process).
    import subprocess
    import sys

    for first in ("repro.driver", "repro.bench"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import {first}; import repro.cli"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
