"""One RoLAG option surface: batch, serve and difftest agree.

Batch, ``repro serve`` and ``repro difftest`` take the RoLAG options
from one flag group and build their :class:`RolagConfig` with one
builder, :func:`repro.cli.rolag_config_from_args`.  So a daemon booted
with ``--fast-math --validate safe`` runs ``tsvc_config()`` and answers
the TSVC kernels whose float reductions need re-association exactly as
the batch driver does.
"""

import threading

import pytest

from perfbench.workloads import SERVE_ARGS, tsvc_config, tsvc_jobs
from repro.bench import tsvc
from repro.cli import (
    build_arg_parser,
    build_difftest_parser,
    build_serve_parser,
    rolag_config_from_args,
    serve_config_from_args,
)
from repro.driver import FunctionJob, optimize_functions
from repro.ir import print_module
from repro.rolag import RolagConfig
from repro.serve import LoopbackClient, OptimizeService, ServeClient

pytestmark = pytest.mark.serve

#: The TSVC kernels a daemon without ``--fast-math`` answers
#: differently from ``tsvc_config()`` batch (unrolled by 8).
FAST_MATH_KERNELS = (
    "s311", "s3110", "s312", "s313", "s352", "s4115", "vdotr", "vsumr",
)

TSVC_ARGV = ["--fast-math", "--validate", "safe"]


def kernel_jobs(names, factor=8):
    return [
        FunctionJob(
            name=name,
            ir_text=print_module(tsvc.build_unrolled_kernel(name, factor)),
        )
        for name in names
    ]


def batch_outputs(jobs):
    report = optimize_functions(jobs, tsvc_config(), workers=1)
    return [(r.optimized_ir, r.rolag_rolled) for r in report.results]


def daemon_outputs(client, jobs):
    outputs = []
    for job in jobs:
        result = client.optimize(job.ir_text, name=job.name, emit_ir=True)
        assert result["status"] == "ok", result
        outputs.append((result["optimized_ir"], result["rolled"]))
    return outputs


def loopback_daemon(argv):
    args = build_serve_parser().parse_args(argv)
    service = OptimizeService(serve_config_from_args(args)).start()
    return LoopbackClient(service)


def test_serve_fast_math_answers_as_batch():
    jobs = kernel_jobs(("s311", "s312", "vsumr"))
    client = loopback_daemon(TSVC_ARGV)
    try:
        served = daemon_outputs(client, jobs)
    finally:
        client.close()
    assert served == batch_outputs(jobs)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--fast-math"],
        ["--loop-aware", "--no-special-nodes"],
        ["--fast-math", "--loop-aware", "--evaluator", "compiled"],
    ],
)
def test_rolag_argv_fingerprints_agree(argv):
    configs = [
        rolag_config_from_args(build_arg_parser().parse_args(["x.c", *argv])),
        serve_config_from_args(build_serve_parser().parse_args(argv)).rolag,
        rolag_config_from_args(build_difftest_parser().parse_args(argv)),
    ]
    assert len({config.fingerprint() for config in configs}) == 1


def test_serve_mixed_daemon_config_is_unchanged():
    config = serve_config_from_args(
        build_serve_parser().parse_args(list(SERVE_ARGS))
    )
    assert config.rolag.fingerprint() == (
        RolagConfig(validate="safe").fingerprint()
    )


def test_guard_dir_only_where_named():
    for parse in (
        lambda argv: build_arg_parser().parse_args(["x.c", *argv]),
        build_serve_parser().parse_args,
    ):
        assert rolag_config_from_args(
            parse(["--validate", "safe"])
        ).guard_dir is None
        assert rolag_config_from_args(
            parse(["--validate", "safe", "--guard-dir", "guards"])
        ).guard_dir == "guards"


@pytest.mark.parallel
def test_stdio_pool_daemon_answers_fast_math_kernels_as_batch():
    """The subprocess argv path: a real stdio daemon over a 2-worker
    pool, booted with the TSVC options on its command line."""
    jobs = kernel_jobs(FAST_MATH_KERNELS)
    client = ServeClient.spawn("--workers", "2", *TSVC_ARGV)
    watchdog = threading.Timer(300.0, client._process.kill)
    watchdog.start()
    try:
        served = daemon_outputs(client, jobs)
    finally:
        watchdog.cancel()
        exit_code = client.close()
    assert exit_code == 0
    assert served == batch_outputs(jobs)


@pytest.mark.slow
def test_tsvc_checked_sweep_through_the_daemon():
    jobs = tsvc_jobs(1)
    assert len(jobs) == 453
    client = loopback_daemon(TSVC_ARGV)
    try:
        served = daemon_outputs(client, jobs)
    finally:
        client.close()
    batch = batch_outputs(jobs)
    identical = sum(s == b for s, b in zip(served, batch))
    assert identical == len(jobs)
    assert sum(rolled for _, rolled in served) == 245
