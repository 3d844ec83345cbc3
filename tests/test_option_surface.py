"""One RoLAG option surface and one driver option surface.

Batch, ``repro serve`` and ``repro difftest`` take the RoLAG options
from one flag group and build their :class:`RolagConfig` with one
builder, :func:`repro.cli.rolag_config_from_args`.  So a daemon booted
with ``--fast-math --validate safe`` runs ``tsvc_config()`` and answers
the TSVC kernels whose float reductions need re-association exactly as
the batch driver does.

The driver's knobs are declared once, in
:class:`~repro.driver.DriverSession`'s keyword list.  Batch and serve
build their keywords from the driver flag group with one builder,
:func:`repro.cli.driver_options_from_args`, so the same argv reaches
both sessions as the same keywords, apart from the daemon's documented
differences: its worker flag, ``retry_backoff`` 0.0 and
``serial_fallback``.
"""

import threading

import pytest

from perfbench.workloads import SERVE_ARGS, tsvc_config, tsvc_jobs
from repro.bench import tsvc
from repro.cli import (
    build_arg_parser,
    build_difftest_parser,
    build_serve_parser,
    main,
    rolag_config_from_args,
    serve_config_from_args,
)
from repro.driver import DriverSession, FunctionJob, optimize_functions
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


IR = """define i32 @f(i32 %a) {
entry:
  %b = add i32 %a, 1
  ret i32 %b
}
"""


@pytest.fixture
def sessions(monkeypatch):
    """The ``(config, keywords)`` of every driver session built."""
    built = []
    real_init = DriverSession.__init__

    def init(self, config=None, **keywords):
        built.append((config, keywords))
        real_init(self, config, **keywords)

    monkeypatch.setattr(DriverSession, "__init__", init)
    return built


def batch_session(sessions, tmp_path, argv):
    """Run the batch CLI on two IR inputs; its session's config and
    keywords."""
    inputs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.ll"
        path.write_text(IR.replace("@f", f"@{name}"))
        inputs.append(str(path))
    assert main([*inputs, "--roll", *argv]) == 0
    (config, keywords), = sessions
    sessions.clear()
    assert keywords.pop("_batch") == len(inputs)
    return config, keywords


def serve_session(sessions, argv):
    """Boot a loopback daemon on ``argv`` and answer one job; its
    session's config and keywords."""
    client = loopback_daemon(argv)
    try:
        assert client.optimize(IR, name="f")["status"] == "ok"
    finally:
        client.close()
    (config, keywords), = sessions
    sessions.clear()
    return config, keywords


def test_batch_and_serve_argv_reach_the_same_session(sessions, tmp_path):
    argv = [
        "--validate", "safe", "--evaluator", "compiled",
        "--cache-dir", str(tmp_path / "cache"), "--no-dedupe",
        "--check-semantics", "--deadline", "60", "--retries", "2",
        "--quarantine-file", str(tmp_path / "quarantine.json"),
        "--fault-plan", "cache.read:raise@1000",
    ]
    batch_config, batch = batch_session(
        sessions, tmp_path, [*argv, "--jobs", "1"]
    )
    serve_config, serve = serve_session(sessions, [*argv, "--workers", "1"])
    assert batch_config.fingerprint() == serve_config.fingerprint()
    assert (batch.pop("retry_backoff"), serve.pop("retry_backoff")) == (
        0.05, 0.0
    )
    assert (batch.pop("serial_fallback"), serve.pop("serial_fallback")) == (
        False, True
    )
    assert serve.pop("quarantine_fsync") is False
    assert batch == serve
    assert batch["workers"] == 1 and batch["cache_dir"] is not None


def test_no_cache_reaches_both_sessions_as_no_cache(sessions, tmp_path):
    cache_dir = tmp_path / "cache"
    argv = ["--cache-dir", str(cache_dir), "--no-cache"]
    _, batch = batch_session(sessions, tmp_path, [*argv, "--jobs", "1"])
    _, serve = serve_session(sessions, argv)
    assert batch["cache_dir"] is None
    assert serve["cache_dir"] is None
    assert not cache_dir.exists()


def test_serve_mixed_daemon_session_keywords_are_unchanged(
    sessions, tmp_path
):
    cache_dir = str(tmp_path / "cache")
    argv = [
        *SERVE_ARGS, "--cache-dir", cache_dir,
        "--journal-dir", str(tmp_path / "journal"),
    ]
    config, keywords = serve_session(sessions, argv)
    assert config.fingerprint() == RolagConfig(validate="safe").fingerprint()
    assert keywords == dict(
        workers=2,
        cache_dir=cache_dir,
        check_semantics=False,
        evaluator="interp",
        deadline=None,
        retries=1,
        retry_backoff=0.0,
        quarantine_file=None,
        quarantine_fsync=False,
        fault_plan=None,
        serial_fallback=True,
        dedupe=True,
    )


def test_removed_use_cache_knob_is_refused():
    with pytest.raises(TypeError):
        optimize_functions(
            [FunctionJob(name="f", ir_text=IR)], use_cache=False
        )
