"""Validated TSVC jobs: pinned output at ``safe`` and backend parity at
``strict``.

At ``safe`` with the compiled oracle, the gate observes candidates with
the backend that captured the job's evidence (the oracle's).  Which
backend observes must not change what the pipeline emits: the digest
below is sha256 over, per kernel in name order, the job's
``optimized_ir`` and its ``guard_reports`` as sorted-key JSON; the same
digest comes out when the oracle, and so the gate, run on the
interpreter instead.

``strict`` adds cross-backend parity to the gate: every candidate must
behave identically (step counts included) under the interpreter and
the compiling evaluator.  That parity is the contract which lets one
backend stand in for the other, so every TSVC kernel must roll through
it with no guard report.
"""

import hashlib
import json

import pytest

from repro.bench import tsvc
from repro.driver import FunctionJob, optimize_one
from repro.ir import print_module
from repro.rolag import RolagConfig

pytestmark = [pytest.mark.guard, pytest.mark.usefixtures("stamp_checker")]

#: ``tsvc_safe_digest(8)``: every kernel unrolled by 8.
SAFE_DIGEST_8 = "9cf925715e1d94e52a52ace2d0dfbfa46ec22573c09c3757e0fbd4087fa058de"


def tsvc_job(name, factor):
    return FunctionJob(
        name=name,
        ir_text=print_module(tsvc.build_unrolled_kernel(name, factor)),
    )


def run_validated(name, factor, level):
    return optimize_one(
        tsvc_job(name, factor),
        RolagConfig(fast_math=True, validate=level),
        check_semantics=True,
        evaluator="compiled",
    )


def tsvc_safe_digest(factor):
    digest = hashlib.sha256()
    for name in tsvc.kernel_names():
        result = run_validated(name, factor, "safe")
        assert result.semantics_ok, (name, result.semantics_mismatches)
        digest.update(result.optimized_ir.encode())
        digest.update(
            json.dumps(result.guard_reports, sort_keys=True).encode()
        )
    return digest.hexdigest()


def test_safe_jobs_unrolled_by_8_emit_pinned_output():
    assert tsvc_safe_digest(8) == SAFE_DIGEST_8


def assert_strict_clean(names, factor):
    rolled = 0
    for name in names:
        result = run_validated(name, factor, "strict")
        assert result.guard_reports == [], (name, result.guard_reports)
        assert result.semantics_ok, (name, result.semantics_mismatches)
        rolled += result.rolag_rolled
    return rolled


def test_strict_parity_holds_on_kernels_unrolled_by_8():
    # Each of these rolls at least once, so the gate checks parity on
    # real candidates.
    names = ["s000", "s1112", "s176", "s351", "vdotr", "vpvts", "vsumr"]
    assert assert_strict_clean(names, 8) >= len(names)


@pytest.mark.slow
@pytest.mark.parametrize("factor", [4, 8, 16])
def test_strict_parity_holds_on_every_kernel(factor):
    assert_strict_clean(tsvc.kernel_names(), factor)
