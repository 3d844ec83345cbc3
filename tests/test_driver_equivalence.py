"""Batch ≡ session: every driver path gives a function the same answer.

``optimize_functions`` is a thin client of :class:`DriverSession`, and
a job can be answered by execution, a retargeted cache hit, or a
dedupe follower respelled into its own namespace.  Whichever path
answers, results come back in job order with the sizes, savings and
guard verdicts of the job optimized alone by :func:`optimize_one`.
An executed answer is byte-identical to that isolated run.  A
rewritten answer is structurally identical to it (the witness renames
*input* names; temporaries RoLAG derives from them keep the leader's
spelling) and byte-identical to the same answer on every other path.
The corpus is seeded Angha functions printed to IR plus an
alpha-renamed twin of each, so the cache and dedupe paths really
rewrite names.  Pool paths are marked ``parallel``.
"""

from functools import partial

import pytest

from repro.bench import angha
from repro.bench.structcache import perturb_job
from repro.driver import (
    DriverSession,
    FunctionJob,
    optimize_functions,
    optimize_one,
)
from repro.frontend import compile_c
from repro.ir import parse_module, print_module, structural_eq
from repro.rolag import RolagConfig

SEED = 2022
COUNT = 6
CONFIG = RolagConfig(validate="safe")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = [
        FunctionJob(
            name=cs.name,
            ir_text=print_module(compile_c(cs.source, cs.name)),
            metadata=(("family", cs.family),),
        )
        for cs in angha.generate_sources(count=COUNT, seed=SEED)
    ]
    jobs = base + [perturb_job(job, suffix="_twin") for job in base]
    reference = [optimize_one(job, CONFIG) for job in jobs]
    assert sum(r.rolag_rolled for r in reference) > 0, "corpus rolls nothing"
    # The twins answered by rewriting their original's result.
    rewritten = optimize_functions(
        jobs, CONFIG, workers=1,
        cache_dir=str(tmp_path_factory.mktemp("rewritten")),
    )
    assert rewritten.stats.dedupe_hits == COUNT
    return jobs, reference, rewritten.results


def _batch(jobs, cache_dir, **options):
    return optimize_functions(
        jobs, CONFIG, cache_dir=cache_dir, retry_backoff=0.0, **options
    ).results


def _session(jobs, cache_dir, workers):
    """Drive a session as a stream: the originals first, a poll, then
    the twins (which hit the cache or coalesce onto an in-flight
    leader), then drain."""
    half = len(jobs) // 2
    resolved = {}
    with DriverSession(
        CONFIG, workers=workers, cache_dir=cache_dir, retry_backoff=0.0
    ) as session:
        for index in range(half):
            session.submit(jobs[index], partial(resolved.__setitem__, index))
        session.pump()
        for index in range(half, len(jobs)):
            session.submit(jobs[index], partial(resolved.__setitem__, index))
        assert session.drain() is True
    return [resolved[index] for index in range(len(jobs))]


PATHS = {
    "batch-serial": lambda jobs, cache: _batch(jobs, cache, workers=1),
    "batch-pool-chunk1": lambda jobs, cache: _batch(
        jobs, cache, workers=2, chunk_size=1
    ),
    "batch-pool-chunk4": lambda jobs, cache: _batch(
        jobs, cache, workers=2, chunk_size=4
    ),
    "session-serial": lambda jobs, cache: _session(jobs, cache, workers=1),
    "session-pool": lambda jobs, cache: _session(jobs, cache, workers=2),
}


def _path_params():
    for name in PATHS:
        marks = [pytest.mark.parallel] if "pool" in name else []
        yield pytest.param(name, marks=marks, id=name)


@pytest.mark.parametrize("use_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("path", list(_path_params()))
def test_path_matches_isolated_run(corpus, tmp_path, path, use_cache):
    jobs, reference, rewritten = corpus
    cache_dir = str(tmp_path / "cache") if use_cache else None
    results = PATHS[path](jobs, cache_dir)
    assert len(results) == len(jobs)
    for job, expected, result, respelled in zip(
        jobs, reference, results, rewritten
    ):
        assert result.name == job.name
        assert not result.failed, result.error
        assert result.rolag_size == expected.rolag_size
        assert result.savings == expected.savings
        assert result.guard_reports == expected.guard_reports
        if result.cache_hit or result.dedupe_hit:
            assert result.optimized_ir == respelled.optimized_ir, job.name
            assert structural_eq(
                parse_module(result.optimized_ir),
                parse_module(expected.optimized_ir),
            )
        else:
            assert result.optimized_ir == expected.optimized_ir, job.name


def test_session_twins_take_the_rewriting_paths(corpus, tmp_path):
    # Guards the suite itself: with a cache, a streamed session answers
    # every twin from its original's result (cache hit or follower),
    # so the comparisons above really cover the rewriting paths.
    jobs = corpus[0]
    results = _session(jobs, str(tmp_path / "cache"), workers=1)
    assert all(r.cache_hit or r.dedupe_hit for r in results[COUNT:])
