"""Seeded input generators and the fixed settings of each workload.

Every input is produced here from the ``--seed`` argument; the program
under test only ever receives the generated text.  The same seed gives
byte-identical inputs.

The seed draws *how* a fixed body of work is presented, not how much
work there is: it renames every function and type and (for
``serve-mixed``) names the renamed copies; a fixed draw places them.
The functions themselves come from one fixed corpus draw, in a fixed
order.  A fresh corpus draw per seed moved batch wall time by about 30%
and the code-size reduction by about 10% from seed to seed (40 Angha
functions, interquartile range over six seeds), and a seeded job order
moved the batch latency median by about 25% (the pool's chunk
boundaries fall elsewhere); either would swamp any change the benchmark
exists to detect.  Renaming keeps the inputs distinct per seed while
the measured work, and every deterministic metric, stays the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.bench import angha, tsvc
from repro.bench.structcache import perturb_job
from repro.driver import FunctionJob
from repro.frontend import compile_c
from repro.ir import print_module, rename_globals
from repro.rolag import RolagConfig

#: The fixed Angha corpus draw every seed renames and reorders (the
#: seed the repository's Fig. 15 exhibit uses).
BASE_SEED = 2022

#: Pool size of every workload: the load comes from one process with
#: at most two pool workers.
WORKERS = 2

#: Closed-loop concurrency of ``serve-mixed``: requests outstanding on
#: its one connection.
SERVE_OUTSTANDING = 2

#: Functions per ``campaign-angha`` batch (one timed repetition).
CAMPAIGN_JOBS = 40

#: Every TSVC kernel is unrolled by each of these factors.
TSVC_FACTORS = (4, 8, 16)

#: Requests per ``serve-mixed`` pass (one timed repetition): half are
#: distinct functions, a quarter alpha-renamed copies sent right after
#: their original (in-flight dedupe), a quarter exact repeats sent at
#: least three requests later (cache hits).
SERVE_REQUESTS = 128


@dataclass(frozen=True)
class Workload:
    """What one workload runs and why it was chosen."""

    name: str
    generator: str
    concurrency: str
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "campaign-angha",
            f"angha.generate_sources(count={CAMPAIGN_JOBS}, seed={BASE_SEED})"
            " mini-C, renamed by --seed",
            f"one batch at a time through optimize_functions(workers="
            f"{WORKERS}), cold structural cache, validate=off",
            "The paper's Fig. 15 campaign: the frontend, rolag.scheduling "
            "and pool dispatch do most of the work; validation, the "
            "evaluators and serve do none.",
        ),
        Workload(
            "tsvc-checked",
            "every TSVC kernel unrolled by "
            f"{'/'.join(map(str, TSVC_FACTORS))} and printed to IR, "
            "renamed by --seed",
            f"one batch at a time through optimize_functions(workers="
            f"{WORKERS}), no cache, fast_math, validate=safe, "
            "check_semantics with the compiled evaluator",
            "Fig. 17/18 and Sec. V-D: the IR parser, rolag.alignment, the "
            "validation gate and the evaluator do most of the work; the "
            "frontend and structural hashing do none.",
        ),
        Workload(
            "serve-mixed",
            f"{SERVE_REQUESTS} optimize requests per pass over "
            f"{SERVE_REQUESTS // 2} Angha functions printed to IR: each sent "
            "once fresh and once more as an alpha-renamed copy or an exact "
            "repeat, placed by a fixed draw and renamed by --seed",
            f"closed loop, {SERVE_OUTSTANDING} outstanding requests on one "
            f"stdio connection to `repro serve --workers {WORKERS}` with a "
            "structural cache, a batch-synced journal and validate=safe",
            "Transport, admission, journal, queue wait and dispatch work "
            "only here, and cache reads run beside fresh computations "
            "that write the journal and the cache.",
        ),
    )
}


def angha_sources(seed: int, count: int) -> List[angha.CorpusSource]:
    """The fixed corpus draw, every name respelled for ``seed``."""
    old = f"_{BASE_SEED}_"
    new = f"_n{seed}_"
    return [
        angha.CorpusSource(
            cs.name.replace(old, new), cs.family, cs.source.replace(old, new)
        )
        for cs in angha.generate_sources(count=count, seed=BASE_SEED)
    ]


def campaign_jobs(seed: int, count: int = CAMPAIGN_JOBS) -> List[FunctionJob]:
    """The ``campaign-angha`` batch: mini-C jobs."""
    return [
        FunctionJob(
            name=cs.name, c_source=cs.source, metadata=(("family", cs.family),)
        )
        for cs in angha_sources(seed, count)
    ]


def campaign_config() -> RolagConfig:
    return RolagConfig(validate="off")


def tsvc_jobs(seed: int, kernels: int = 0) -> List[FunctionJob]:
    """The ``tsvc-checked`` batch: unrolled kernels printed to IR.

    ``kernels`` > 0 keeps only the first that many kernels (the
    self-tests' tiny size).
    """
    names = tsvc.kernel_names()[: kernels or None]
    jobs = []
    for name in names:
        new_name = f"{name}_n{seed}"
        for factor in TSVC_FACTORS:
            text = print_module(tsvc.build_unrolled_kernel(name, factor))
            jobs.append(FunctionJob(
                name=new_name,
                ir_text=rename_globals(text, {name: new_name}),
                metadata=(("factor", str(factor)),),
            ))
    return jobs


def tsvc_config() -> RolagConfig:
    return RolagConfig(fast_math=True, validate="safe")


#: ``optimize_functions`` keyword arguments of each batch workload.
#: Jobs go to the pool in small chunks (one Angha function, four TSVC
#: jobs), so which worker draws which chunk can move a repetition's wall
#: time by one small chunk at most.  The driver's default, four chunks
#: per worker, makes eight chunks of half a second to a second each.
BATCH_OPTIONS = {
    "campaign-angha": dict(
        use_cache=True, check_semantics=False, chunk_size=1
    ),
    "tsvc-checked": dict(
        use_cache=False, check_semantics=True, evaluator="compiled",
        chunk_size=4,
    ),
}


def serve_config() -> RolagConfig:
    """The config a ``repro serve --validate safe`` daemon runs."""
    return RolagConfig(validate="safe")


#: Daemon arguments of ``serve-mixed`` (cache and journal dirs added
#: per pass).
SERVE_ARGS = ("--workers", str(WORKERS), "--validate", "safe",
              "--journal-sync", "batch")


@dataclass(frozen=True)
class ServeRequest:
    """One request of the ``serve-mixed`` stream."""

    job: FunctionJob
    #: ``fresh``, ``renamed`` (alpha-renamed copy of the request before
    #: it) or ``repeat`` (exact repeat of an earlier request).
    kind: str


def serve_requests(seed: int, count: int = SERVE_REQUESTS) -> List[ServeRequest]:
    """The ``serve-mixed`` request stream, in send order.

    Every function is sent exactly twice.  Which functions get a
    renamed copy and which a repeat is a fixed draw: a renamed copy
    waits on its in-flight original while a repeat is a fast cache hit,
    so a seeded choice moved the latency median from seed to seed.
    """
    rng = random.Random(BASE_SEED)
    fresh = [
        FunctionJob(
            name=cs.name,
            ir_text=print_module(compile_c(cs.source, cs.name)),
            metadata=(("family", cs.family),),
        )
        for cs in angha_sources(seed, count // 2)
    ]
    renamed = set(rng.sample(range(len(fresh)), len(fresh) // 2))
    stream: List[ServeRequest] = []
    repeats: List[FunctionJob] = []
    for index, job in enumerate(fresh):
        stream.append(ServeRequest(job, "fresh"))
        if index in renamed:
            copy = perturb_job(job, suffix=f"_n{seed}_r{index}")
            stream.append(ServeRequest(copy, "renamed"))
        else:
            repeats.append(job)
    for job in repeats:
        # Three requests after the original or later: with two
        # outstanding, the original has almost always been answered
        # (and cached) by then.
        position = next(
            i for i, r in enumerate(stream) if r.job is job
        ) + 3
        stream.insert(
            rng.randint(min(position, len(stream)), len(stream)),
            ServeRequest(job, "repeat"),
        )
    return stream
