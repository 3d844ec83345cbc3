"""Configuration and statistics for the RoLAG pipeline."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

#: The pipeline phases the optional wall-time counters distinguish.
#: ``parse``, ``eval`` and ``hash`` are credited outside the rolling
#: pipeline proper: the driver books module parse/verify wall time
#: under ``parse``, callers that execute code on the rolled output (the
#: driver's semantics oracle, the harness' dynamic-step measurements)
#: book under ``eval``, and the driver's parent-side structural
#: fingerprinting (cache keys + in-batch dedupe) books under ``hash``
#: -- so Amdahl attribution (parse vs. roll vs. eval vs. keying) is
#: measured directly instead of inferred by subtraction.
PHASE_NAMES: Tuple[str, ...] = (
    "parse",
    "seeds",
    "alignment",
    "scheduling",
    "codegen",
    "eval",
    "hash",
)


@dataclass
class RolagConfig:
    """Tuning knobs for loop rolling.

    The ``enable_*`` flags switch the special alignment-node kinds of
    paper Section IV-C on and off, enabling the Fig. 19 ablation
    ("if we disable the special nodes, RoLAG can only profitably reroll
    19 loops, instead of 84").
    """

    #: Minimum number of lanes (loop iterations) in a seed group.
    min_lanes: int = 2
    #: Monotonic integer sequence nodes (Section IV-C1).
    enable_sequences: bool = True
    #: Neutral pointer operations / strided pointer offsets (IV-C2).
    enable_gep_neutral: bool = True
    #: Neutral elements + commutativity of binary operators (IV-C3).
    enable_binop_neutral: bool = True
    enable_commutative_reordering: bool = True
    #: Chained dependences lowered to loop-carried phis (IV-C4).
    enable_recurrence: bool = True
    #: Reduction-tree rolling (IV-C5); floats additionally need fast_math.
    enable_reduction: bool = True
    #: Min/max compare+select chain rolling (the Fig. 20b extension).
    enable_minmax: bool = True
    #: Joining alternating seed groups under one loop (IV-C6).
    enable_joint: bool = True
    #: Allow re-association of floating point reductions.
    fast_math: bool = False
    #: Re-roll in place when the block is itself a partially-unrolled
    #: counted loop (the paper's Section V-C "loop aware" improvement);
    #: falls back to the general inner-loop codegen when inapplicable.
    loop_aware: bool = False
    #: Retry failed/unprofitable groups on contiguous halves.
    try_subgroups: bool = True
    #: Count constant mismatch arrays (rodata) against profitability.
    count_const_data: bool = True
    #: Optional block-execution profile, as produced by
    #: :attr:`repro.ir.Machine.block_counts`: blocks executed at least
    #: ``hot_block_threshold`` times are skipped, implementing the
    #: paper's Section V-D suggestion of using profile information "to
    #: disable RoLAG on hot basic blocks".
    profile: Optional[Dict[Tuple[str, str], int]] = None
    hot_block_threshold: int = 100
    #: Fault-injection plan spec for the resilience layer (see
    #: ``repro.faultinject``); ``None`` falls back to the
    #: ``ROLAG_FAULT_PLAN`` environment variable.  Participates in the
    #: config fingerprint, so injected-fault runs never share cache
    #: entries with clean ones.
    fault_plan: Optional[str] = None
    #: Online translation-validation level gating every transaction
    #: (pipeline pass or RoLAG rolling decision): one of
    #: :data:`repro.validation.VALIDATION_LEVELS`.  Fingerprinted, so
    #: validated runs never share cache entries with unvalidated ones.
    validate: str = "off"
    #: Input vectors per function for the ``safe``/``strict`` oracles.
    validate_vectors: int = 2
    #: Step budget per validation observation (small by design: the
    #: gate runs inline on every transaction).
    validate_step_limit: int = 50_000
    #: Evaluator backend the semantic gate observes with.
    validate_evaluator: str = "interp"
    #: Directory for guard-failure repro bundles (``None`` = don't
    #: persist repros; reports are still collected in stats).
    guard_dir: Optional[str] = None

    def all_special_disabled(self) -> "RolagConfig":
        """A copy with every special node kind switched off."""
        from dataclasses import replace

        return replace(
            self,
            enable_sequences=False,
            enable_gep_neutral=False,
            enable_binop_neutral=False,
            enable_commutative_reordering=False,
            enable_recurrence=False,
            enable_reduction=False,
            enable_minmax=False,
            enable_joint=False,
        )

    def fingerprint(self) -> str:
        """Stable content hash of every tuning knob.

        Two configs with equal knobs produce equal fingerprints across
        processes and interpreter runs, so the driver's memo cache can
        key results on it; any field change invalidates cached entries.
        """
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if f.name == "profile" and value is not None:
                value = sorted(value.items())
            parts.append(f"{f.name}={value!r}")
        digest = hashlib.sha256(";".join(parts).encode("utf-8"))
        return digest.hexdigest()[:16]


@dataclass
class RolagStats:
    """Aggregated behaviour of the pass, used by the evaluation harness."""

    #: Seed groups for which an alignment graph was built.
    attempted: int = 0
    #: Groups rejected by the scheduling analysis (without
    #: ``loop_aware``, only groups the cost model found profitable
    #: reach it).
    schedule_rejected: int = 0
    #: Groups rejected by the profitability analysis.
    unprofitable: int = 0
    #: Successfully rolled loops.
    rolled: int = 0
    #: Node-kind histogram over *profitable* alignment graphs
    #: (reproduces the Fig. 16 / Fig. 19 breakdowns).
    node_counts: Counter = field(default_factory=Counter)
    #: (function name, estimated bytes saved) per rolled loop.
    savings: List[Tuple[str, int]] = field(default_factory=list)
    #: Collect per-phase wall times?  Off by default so the hot path
    #: pays no ``perf_counter`` calls unless a caller asks for them.
    timed: bool = False
    #: Accumulated wall seconds per pipeline phase (see PHASE_NAMES);
    #: stays empty unless ``timed`` is set.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Rolled-back transactions (``GuardReport.to_json_dict()`` dicts)
    #: recorded while validation was on.  Plain dicts so stats stay
    #: picklable across driver worker boundaries.
    guard_reports: List[Dict[str, object]] = field(default_factory=list)

    def add_phase_time(self, phase: str, seconds: float) -> None:
        """Accumulate wall time spent in one pipeline phase."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def merge(self, other: "RolagStats") -> None:
        """Fold another stats object into this one."""
        self.attempted += other.attempted
        self.schedule_rejected += other.schedule_rejected
        self.unprofitable += other.unprofitable
        self.rolled += other.rolled
        self.node_counts.update(other.node_counts)
        self.savings.extend(other.savings)
        self.guard_reports.extend(other.guard_reports)
        for phase, seconds in other.phase_seconds.items():
            self.add_phase_time(phase, seconds)
