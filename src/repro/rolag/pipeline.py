"""The RollLoop driver (paper Fig. 5).

For every basic block: collect seed groups, optionally join alternating
groups, build the alignment graph, decide profitability against the
code-size cost model, run the scheduling analysis on the winners, and
generate the rolled loop when one can be scheduled.  The cost model
never reads the schedule, so the cheaper rejection runs first; only
``config.loop_aware`` schedules first, because its in-place reroll
needs a schedule even where the cost model says no.  Newly created loop blocks are themselves skipped
(rolling a rolled loop again is never profitable and would not
terminate).

With ``config.validate`` on, every rolling decision is a transaction:
the function is snapshotted before each block visit, and the decision
only commits if the validation ladder (see ``repro.validation``)
accepts it.  A rejected decision is rolled back to best-known-good IR
and the worklist moves on -- degradation is per-decision, never
per-function.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Deque, List, Optional, Tuple

from ..analysis.alias import AliasAnalysis
from ..analysis.costmodel import CodeSizeCostModel
from ..analysis.deps import DependenceGraph
from ..faultinject import DeadlineExceeded, checkpoint, fire, fire_ir
from ..ir.module import BasicBlock, Function, Module
from .alignment import AlignmentGraph
from .codegen import RolledLoop, generate_rolled_loop
from .config import PHASE_NAMES, RolagConfig, RolagStats
from .profitability import estimate
from .scheduling import analyze_scheduling
from .seeds import SeedGroup, collect_seed_groups, find_joinable_groups


def roll_loops_in_function(
    fn: Function,
    config: Optional[RolagConfig] = None,
    cost_model: Optional[CodeSizeCostModel] = None,
    stats: Optional[RolagStats] = None,
    validator=None,
) -> int:
    """Run RoLAG over every block of ``fn``; returns rolled-loop count.

    ``validator`` (a :class:`repro.validation.Validator`) gates every
    rolling decision when given; with ``config.validate`` set and no
    validator, one is built from the config.
    """
    if fn.is_declaration:
        return 0
    config = config or RolagConfig()
    cost_model = cost_model or CodeSizeCostModel()
    stats = stats if stats is not None else RolagStats()
    if stats.timed:
        for phase in PHASE_NAMES:
            stats.phase_seconds.setdefault(phase, 0.0)
    if validator is None and config.validate != "off":
        validator = _validator_for(config)
    guard = validator if validator is not None and validator.level != "off" else None
    guard_start = len(guard.reports) if guard is not None else 0

    rolled = 0
    work: Deque[BasicBlock] = deque(fn.blocks)
    processed: set = set()
    while work:
        block = work.popleft()
        if id(block) in processed or block.parent is not fn:
            continue
        processed.add(id(block))
        # Block granularity is the pipeline's cooperative cancellation
        # point: a budgeted run bails out between blocks, never inside
        # a half-applied rewrite.
        checkpoint(f"rolag:{fn.name}:{block.name}")
        decision = f"rolag:{block.name}"
        snapshot = guard.begin(fn) if guard is not None else None
        try:
            fire("rolag.roll")
            result = _roll_block(block, config, cost_model, stats)
            fire_ir("rolag.roll.exit", fn)
        except DeadlineExceeded:
            raise
        except Exception as error:
            if snapshot is not None:
                # The decision becomes a rolled-back transaction; the
                # block stays in ``processed`` so the worklist moves on
                # from best-known-good IR.
                guard.rollback_exception(fn, snapshot, decision, error)
                continue
            from ..transforms.pass_manager import PassError

            if isinstance(error, PassError):
                raise
            raise PassError("rolag", fn.name, error) from error
        if snapshot is not None:
            report = guard.commit_or_rollback(
                fn, snapshot, decision, replay=_replay_for(config, cost_model)
            )
            if report is not None:
                continue  # rolled back: do not count or requeue anything
        if result is not None:
            rolled += 1
            # The preheader (same block object) may still hold seeds
            # ahead of the rolled region; the exit holds the tail.
            # Re-scan both, but never the new loop block.
            processed.add(id(result.loop))
            processed.discard(id(block))
            work.append(block)
            work.append(result.exit)
    if guard is not None:
        stats.guard_reports.extend(
            report.to_json_dict() for report in guard.reports[guard_start:]
        )
    return rolled


def _validator_for(config: RolagConfig):
    """Build the gate described by ``config`` (imported lazily: the
    validation package pulls in the difftest oracle, which must not
    become an import-time dependency of the rolling pipeline)."""
    from ..validation import Validator

    return Validator(
        config.validate,
        vectors=config.validate_vectors,
        step_limit=config.validate_step_limit,
        guard_dir=config.guard_dir,
        evaluator=config.validate_evaluator,
    )


def _replay_for(config: RolagConfig, cost_model: CodeSizeCostModel):
    """A deterministic function-pass replay of the rolling pipeline,
    used by the guard's repro minimizer (validation and fault firing
    disabled: the replay must reproduce the *pass's* behaviour)."""
    from dataclasses import replace

    quiet = replace(config, validate="off", fault_plan=None)

    def apply(target_fn: Function) -> int:
        return roll_loops_in_function(target_fn, quiet, cost_model)

    return apply


def _roll_block(
    block: BasicBlock,
    config: RolagConfig,
    cost_model: CodeSizeCostModel,
    stats: RolagStats,
) -> Optional[RolledLoop]:
    """Try to roll one loop out of ``block`` (first profitable group)."""
    fn = block.parent
    if fn is None:
        return None
    if config.profile is not None:
        count = config.profile.get((fn.name, block.name), 0)
        if count >= config.hot_block_threshold:
            return None  # hot block: size win not worth the slowdown
    timed = stats.timed
    start = perf_counter() if timed else 0.0
    groups = collect_seed_groups(block, config)
    if not groups:
        if timed:
            stats.add_phase_time("seeds", perf_counter() - start)
        return None

    joint_clusters: List[List[SeedGroup]] = []
    in_cluster: set = set()
    if config.enable_joint:
        joint_clusters = find_joinable_groups(block, groups)
        for cluster in joint_clusters:
            for member in cluster:
                in_cluster.add(id(member))
    if timed:
        stats.add_phase_time("seeds", perf_counter() - start)

    aa = AliasAnalysis(fn)
    deps = DependenceGraph(block, aa)

    candidates: List[Tuple[str, object]] = []
    for cluster in joint_clusters:
        candidates.append(("joint", cluster))
    for group in groups:
        if id(group) not in in_cluster:
            candidates.append((group.kind, group))

    for kind, payload in candidates:
        result = _try_candidate(
            block, kind, payload, config, cost_model, stats, aa, deps
        )
        if result is not None:
            return result

    return None


def _try_candidate(
    block: BasicBlock,
    kind: str,
    payload,
    config: RolagConfig,
    cost_model: CodeSizeCostModel,
    stats: RolagStats,
    aa: AliasAnalysis,
    deps: DependenceGraph,
) -> Optional[RolledLoop]:
    attempt = _attempt(
        block, kind, payload, config, cost_model, stats, aa, deps
    )
    if attempt is not None:
        return attempt
    if not config.try_subgroups:
        return None
    if kind in ("store", "call") and isinstance(payload, SeedGroup):
        insts = payload.instructions
        # A group holding two alternating sub-patterns (two stores to
        # the same array per source iteration, e.g. TSVC s222): split
        # into the even/odd interleaved subsequences and roll them as a
        # joint group.
        if config.enable_joint and len(insts) >= 2 * config.min_lanes:
            if len(insts) % 2 == 0:
                evens = SeedGroup(kind, list(insts[0::2]))
                odds = SeedGroup(kind, list(insts[1::2]))
                result = _attempt(
                    block, "joint", [evens, odds], config, cost_model,
                    stats, aa, deps,
                )
                if result is not None:
                    return result
        # Retry on contiguous halves.
        if len(insts) >= 2 * config.min_lanes:
            mid = len(insts) // 2
            for half in (insts[:mid], insts[mid:]):
                if len(half) < config.min_lanes:
                    continue
                sub = SeedGroup(kind, list(half))
                result = _try_candidate(
                    block, kind, sub, config, cost_model, stats, aa, deps
                )
                if result is not None:
                    return result
    return None


def _attempt(
    block: BasicBlock,
    kind: str,
    payload,
    config: RolagConfig,
    cost_model: CodeSizeCostModel,
    stats: RolagStats,
    aa: AliasAnalysis,
    deps: DependenceGraph,
) -> Optional[RolledLoop]:
    timed = stats.timed
    start = perf_counter() if timed else 0.0
    ag = AlignmentGraph(block, config)
    if kind == "joint":
        root = ag.build_joint([g.instructions for g in payload])
    elif kind == "reduction":
        group: SeedGroup = payload
        root = ag.build_reduction(
            group.reduction_root,
            group.reduction_internal,
            group.reduction_leaves,
        )
    elif kind == "minmax":
        group = payload
        root = ag.build_minmax_reduction(
            group.minmax_links,
            group.reduction_leaves,
            group.minmax_init,
            group.minmax_predicate,
            group.minmax_cmp_leaf_first,
            group.minmax_select_leaf_first,
        )
    else:
        group = payload
        root = ag.build_from_seeds(group.instructions)
    if timed:
        stats.add_phase_time("alignment", perf_counter() - start)
    if root is None:
        return None

    stats.attempted += 1
    if not config.loop_aware:
        # The cost model never reads the schedule, and most candidates
        # lose on it: reject those before the scheduling analysis.
        report = estimate(ag, cost_model, config)
        if not report.profitable:
            stats.unprofitable += 1
            return None

    start = perf_counter() if timed else 0.0
    schedule = analyze_scheduling(ag, aa, deps)
    if timed:
        stats.add_phase_time("scheduling", perf_counter() - start)
    if schedule is None:
        stats.schedule_rejected += 1
        return None

    if config.loop_aware:
        report = estimate(ag, cost_model, config)
        # In-place rerolling deletes lanes 1..n-1 outright, so it is
        # profitable whenever it applies; try it before the general
        # (new inner loop) code generator.
        from .loopaware import try_loop_aware_reroll

        start = perf_counter() if timed else 0.0
        removed = try_loop_aware_reroll(ag)
        if timed:
            stats.add_phase_time("codegen", perf_counter() - start)
        if removed is not None:
            stats.rolled += 1
            stats.node_counts.update(ag.node_histogram())
            fn_name = block.parent.name if block.parent else "?"
            stats.savings.append((fn_name, max(report.estimated_saving, 0)))
            return RolledLoop(
                preheader=block,
                loop=block,
                exit=block,
                lane_count=ag.roots[0].lane_count,
            )
        if not report.profitable:
            stats.unprofitable += 1
            return None

    start = perf_counter() if timed else 0.0
    result = generate_rolled_loop(ag, schedule)
    if timed:
        stats.add_phase_time("codegen", perf_counter() - start)
    stats.rolled += 1
    stats.node_counts.update(ag.node_histogram())
    fn_name = block.parent.name if block.parent else "?"
    stats.savings.append((fn_name, report.estimated_saving))
    return result


def roll_loops_in_module(
    module: Module,
    config: Optional[RolagConfig] = None,
    cost_model: Optional[CodeSizeCostModel] = None,
    stats: Optional[RolagStats] = None,
    validator=None,
) -> int:
    """Run RoLAG over every function in ``module``."""
    config = config or RolagConfig()
    if validator is None and config.validate != "off":
        validator = _validator_for(config)
    total = 0
    for fn in module.functions:
        total += roll_loops_in_function(
            fn, config, cost_model, stats, validator=validator
        )
    return total
