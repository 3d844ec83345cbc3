"""Extension: throughput of the parallel, memoizing corpus driver.

Not a paper exhibit: this benchmark characterises the reproduction's
own experiment infrastructure.  Three runs over the same AnghaBench
corpus -- serial, pooled, and warm-cache -- must produce identical
results, and the warm rerun must be dramatically cheaper because every
per-function outcome is memoized on disk, keyed by the SHA-256 of the
module text and the ``RolagConfig`` fingerprint.

A second, micro-scale section times seed-group formation on one wide
synthetic block: the bucketed implementation (stores keyed by base
object and stored type) against the historical pairwise scan that
compared every store with a representative of every open group, as
the median speedup of :func:`repro.bench.paired.time_pairs` pairs.
"""

from conftest import angha_jobs, save_and_print

from repro.analysis.alias import underlying_object
from repro.bench import format_table
from repro.bench.paired import describe_pairs, time_pairs
from repro.driver import optimize_functions
from repro.frontend import compile_c
from repro.ir.instructions import Store
from repro.rolag.seeds import collect_seed_groups

CORPUS_COUNT = 32
CORPUS_SEED = 2022

#: Wide straight-line block: WIDTH arrays, each stored LANES times.
#: Every store opens (or extends) its own group, which is exactly the
#: shape where a pairwise scan degenerates to O(stores * groups).
WIDTH = 48
LANES = 6
WIDE_SOURCE = "\n".join(
    f"int a{k}[{LANES}];" for k in range(WIDTH)
) + "\nvoid wide(void) {\n" + "\n".join(
    f"  a{k}[{lane}] = {k + lane};"
    for lane in range(LANES)
    for k in range(WIDTH)
) + "\n}\n"

#: Seed-grouping calls per timed side: one call is too short to time.
ITERATIONS = 10


def naive_store_groups(block, min_lanes=2):
    """The pre-bucketing algorithm: scan every open group per store."""
    groups = []
    for inst in block.instructions:
        if not isinstance(inst, Store):
            continue
        placed = False
        for group in groups:
            rep = group[0]
            if str(rep.value.type) == str(inst.value.type) and (
                underlying_object(rep.pointer)
                is underlying_object(inst.pointer)
            ):
                group.append(inst)
                placed = True
                break
        if not placed:
            groups.append([inst])
    return [g for g in groups if len(g) >= min_lanes]


def _repeated(fn):
    """``fn`` called :data:`ITERATIONS` times: one timed side."""
    return lambda: [fn() for _ in range(ITERATIONS)][-1]


def test_ext_parallel_driver(benchmark, results_dir, tmp_path):
    def experiment():
        jobs = angha_jobs(CORPUS_COUNT, seed=CORPUS_SEED)
        serial = optimize_functions(jobs, workers=1)
        pooled = optimize_functions(jobs, workers=2, chunk_size=4)
        cache_dir = str(tmp_path / "rolag-cache")
        cold = optimize_functions(jobs, workers=1, cache_dir=cache_dir)
        warm = optimize_functions(jobs, workers=1, cache_dir=cache_dir)

        module = compile_c(WIDE_SOURCE)
        block = module.get_function("wide").entry
        grouping = time_pairs(
            _repeated(lambda: naive_store_groups(block)),
            _repeated(lambda: collect_seed_groups(block)),
        )
        return serial, pooled, cold, warm, grouping

    serial, pooled, cold, warm, grouping = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    driver_rows = [
        (label, r.stats.workers, r.stats.cache_hits, r.stats.executed,
         f"{r.stats.wall_seconds:.3f}s")
        for label, r in (
            ("serial", serial),
            ("pooled", pooled),
            ("cold cache", cold),
            ("warm cache", warm),
        )
    ]
    text = "\n".join(
        [
            "=== Extension: parallel, memoizing corpus driver ===",
            f"corpus: {CORPUS_COUNT} AnghaBench functions (seed "
            f"{CORPUS_SEED}); identical results across all four runs",
            format_table(
                ["Run", "Workers", "Cache hits", "Executed", "Wall"],
                driver_rows,
            ),
            "",
            "=== Micro: seed-group formation on one wide block ===",
            f"block: {WIDTH} arrays x {LANES} stores each "
            f"({WIDTH * LANES} stores, {WIDTH} groups)",
            format_table(
                ["Algorithm", "Median time", "Speedup"],
                [
                    ("pairwise scan (historical)",
                     f"{grouping.seconds('a') / ITERATIONS * 1e3:.3f} ms",
                     "1.0x"),
                    ("bucketed (current)",
                     f"{grouping.seconds('b') / ITERATIONS * 1e3:.3f} ms",
                     f"{grouping.ratio:.1f}x"),
                ],
            ),
            "speedup " + describe_pairs(grouping.to_json(), "{:.1f}x"),
        ]
    )
    save_and_print(results_dir, "ext_parallel.txt", text)

    # All four runs agree bit-for-bit.
    baseline = [r.stable_dict() for r in serial.results]
    assert [r.stable_dict() for r in pooled.results] == baseline
    assert [r.stable_dict() for r in cold.results] == baseline
    assert [r.stable_dict() for r in warm.results] == baseline
    # The warm rerun is memoized: all hits, nothing executed, and much
    # cheaper than the cold run that populated the cache.
    assert warm.stats.cache_hits == CORPUS_COUNT
    assert warm.stats.executed == 0
    assert warm.stats.wall_seconds < cold.stats.wall_seconds / 2
    # Bucketed seed formation groups identically to the pairwise scan
    # and beats it by at least 2x on the wide block.
    for naive, bucketed in zip(grouping.a, grouping.b):
        assert naive.result == [
            g.instructions for g in bucketed.result if g.kind == "store"
        ]
    assert grouping.ratio >= 2.0
