"""Shared fixtures for the exhibit benchmarks.

Each benchmark regenerates one table/figure of the paper, printing the
rows/series and writing them under ``results/`` so they can be compared
against the paper without rerunning.
"""

import os

import pytest

from repro.bench import angha
from repro.bench.paired import describe_pairs, overhead, time_pairs
from repro.bench.record import quick_path
from repro.driver import FunctionJob

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "results")
CACHE_DIR = os.path.join(os.path.dirname(__file__), ".rolag-cache")


def pytest_addoption(parser):
    parser.addoption(
        "--bench-quick",
        action="store_true",
        default=False,
        help="shrink the exhibit suites that time a ratio to smoke-test "
        "sizes",
    )


@pytest.fixture(scope="session")
def bench_quick(request):
    """True when ``--bench-quick`` is set.

    Exhibits with long-running sweeps consult this so a CI smoke can
    exercise them without paying full workload sizes.  A quick run
    writes its reports to the ``_quick`` sidecars
    (:func:`repro.bench.record.quick_path`), never over a full run's.
    """
    return bool(request.config.getoption("--bench-quick"))


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return os.path.abspath(RESULTS_DIR)


@pytest.fixture(scope="session")
def bench_cache_dir():
    """Persistent result cache: warm benchmark reruns skip optimization.

    Defaults to ``benchmarks/.rolag-cache`` (gitignored); point
    ``ROLAG_BENCH_CACHE`` elsewhere, or at an empty string to disable.
    """
    configured = os.environ.get("ROLAG_BENCH_CACHE")
    if configured == "":
        return None
    return os.path.abspath(configured or CACHE_DIR)


@pytest.fixture(scope="session")
def bench_jobs():
    """Driver worker count for corpus benchmarks (``ROLAG_BENCH_JOBS``)."""
    return int(os.environ.get("ROLAG_BENCH_JOBS", "1"))


def save_and_print(results_dir: str, filename: str, text: str) -> None:
    path = os.path.join(results_dir, filename)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print()
    print(text)
    print(f"[saved to {path}]")


def angha_jobs(count: int, seed: int = 2022):
    """``count`` Angha-style mini-C functions as driver jobs."""
    return [
        FunctionJob(
            name=cs.name, c_source=cs.source, metadata=(("family", cs.family),)
        )
        for cs in angha.generate_sources(count=count, seed=seed)
    ]


def check_overhead(results_dir, filename, title, job_count, label_a, run_a,
                   label_b, run_b, budget, quick):
    """Assert that ``run_b``'s time overhead over ``run_a``, the median
    of :func:`repro.bench.paired.time_pairs` pairs alternating which
    side runs first, stays under ``budget``; each side is warmed once
    before timing.  A ``quick`` run saves its report to the
    ``_quick`` sidecar of ``filename``."""
    run_a()
    run_b()
    timing = time_pairs(run_a, run_b, ratio=overhead)
    text = "\n".join(
        [
            f"=== {title} ===",
            f"jobs per run: {job_count}",
            f"{label_a + ':':<18} median {timing.seconds('a') * 1e3:8.1f} ms",
            f"{label_b + ':':<18} median {timing.seconds('b') * 1e3:8.1f} ms",
            "overhead: "
            + describe_pairs(timing.to_json(), "{:+.2%}")
            + f" (budget: {budget:.0%})",
        ]
    )
    save_and_print(
        results_dir, quick_path(filename) if quick else filename, text
    )
    assert timing.ratio < budget, (
        f"{title}: {timing.ratio:.2%} exceeds {budget:.0%} budget"
    )
