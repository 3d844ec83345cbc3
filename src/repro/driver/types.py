"""Plain picklable dataclasses for the parallel optimization driver.

Jobs travel *into* worker processes and results travel back, so both
carry only text and primitives: a job is IR (or mini-C) text plus a
target function name; a result is sizes, counters, and the optimized
IR, JSON-serializable for the on-disk memo cache.  Printed IR is the
whole shipped form of a module: nothing about its names lives outside
the text.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

#: Latency samples a stats object keeps (the most recent ones), so a
#: long-lived daemon's stats stay bounded.  Larger than any batch the
#: repo runs, so batch percentiles are exact.
LATENCY_WINDOW = 16384


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 1]).

    Returns 0.0 for an empty sample set -- callers render stats
    snapshots long before the first job completes.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def latency_window() -> Deque[float]:
    """An empty sample window for a :class:`LatencyRecorder` field."""
    return deque(maxlen=LATENCY_WINDOW)


class LatencyRecorder:
    """Garbage-rejecting latency samples and their percentiles.

    Shared by :class:`DriverStats` and :class:`ServiceStats`; each
    declares the ``_latency`` field (a :func:`latency_window`), which
    keeps only the most recent :data:`LATENCY_WINDOW` samples.
    """

    _latency: Deque[float]

    def record_latency(self, seconds: object) -> None:
        """Record one latency in seconds, rejecting garbage.

        Teardown paths call this with whatever a dying worker left
        behind; a non-numeric, negative, or non-finite sample must
        never poison the percentiles (or raise mid-teardown).
        """
        try:
            value = float(seconds)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return
        if not math.isfinite(value) or value < 0.0:
            return
        self._latency.append(value)

    @property
    def latency_seconds(self) -> List[float]:
        """The recorded samples, oldest first."""
        return list(self._latency)

    @property
    def latency_p50(self) -> float:
        """Median latency in seconds (0.0 before the first sample)."""
        return percentile(self.latency_seconds, 0.50)

    @property
    def latency_p99(self) -> float:
        """99th-percentile latency (0.0 before the first sample)."""
        return percentile(self.latency_seconds, 0.99)


@dataclass(frozen=True)
class FunctionJob:
    """One unit of per-function RoLAG work.

    Exactly one of ``ir_text`` / ``c_source`` must be set.  Workers
    parse IR text directly.  Mini-C goes through the frontend once per
    job: in the session when it fingerprints the job (the worker then
    receives the compiled module as printed IR), else once in the
    worker.  The submitted text stays the job's identity either way:
    the cache and quarantine keys, the evidence seed and degraded
    results all derive from the job, never from the shipped IR.
    ``name`` selects the function whose size the result reports; when
    ``None`` the whole module is measured.
    """

    name: Optional[str]
    ir_text: Optional[str] = None
    c_source: Optional[str] = None
    #: Free-form tags the caller wants echoed back (e.g. corpus family).
    metadata: Tuple[Tuple[str, str], ...] = ()

    @property
    def text(self) -> str:
        """The content the cache fingerprints (IR or C source)."""
        if self.ir_text is not None:
            return self.ir_text
        assert self.c_source is not None, "job carries no text"
        return self.c_source

    @property
    def format(self) -> str:
        """``"ir"`` or ``"c"``, the input language of :attr:`text`."""
        return "ir" if self.ir_text is not None else "c"

    @property
    def label(self) -> str:
        """A human-readable handle for logs and quarantine entries.

        Whole-module jobs (``name=None``) fall back to a ``source``
        metadata tag (the CLI sets it to the input path).
        """
        if self.name:
            return self.name
        return dict(self.metadata).get("source", "?")


@dataclass
class FunctionResult:
    """Per-function outcome of the driver's standard pipeline.

    The pipeline measures the input, runs the LLVM-style reroll
    baseline, measures and rolls it back, runs RoLAG on the same
    module, verifies both, and measures again -- the shape every
    corpus experiment consumes.
    """

    name: Optional[str]
    metadata: Dict[str, str]
    size_before: int
    llvm_size: int
    rolag_size: int
    llvm_rolled: int
    rolag_rolled: int
    attempted: int
    schedule_rejected: int
    unprofitable: int
    node_counts: Dict[str, int]
    savings: List[Tuple[str, int]]
    optimized_ir: str
    #: Did this run include the differential semantics check?
    semantics_checked: bool = False
    #: Outcome of that check (``None`` when it did not run).
    semantics_ok: Optional[bool] = None
    #: Human-readable mismatch descriptions from the oracle.
    semantics_mismatches: List[str] = field(default_factory=list)
    #: Rolled-back transactions recorded while online validation was
    #: on (``repro.validation.GuardReport.to_json_dict()`` dicts, in
    #: rollback order; empty when ``validate`` is off or nothing
    #: misbehaved).  Deterministic for a deterministic run, so it lives
    #: in the stable payload and the memo cache.
    guard_reports: List[Dict[str, object]] = field(default_factory=list)
    #: Per-phase wall seconds (empty unless the driver ran timed).
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Wall seconds this function took in its worker (0 on cache hits).
    wall_seconds: float = 0.0
    #: Whether this result came out of the memo cache.
    cache_hit: bool = False
    #: Whether this result was fanned out from a structurally
    #: identical job computed in the same batch (in-batch dedupe).
    dedupe_hit: bool = False
    #: Transient cache plumbing: the producing job's renaming witness
    #: (a ``repro.ir.structhash.StructuralSummary``), attached by
    #: ``ResultCache.get`` so the driver can rewrite a structural hit
    #: into the requesting job's namespace.  Never serialized.
    producer_witness: Optional[object] = None
    #: Structured failure message when the pipeline could not finish;
    #: the result then carries the *original* function text in
    #: :attr:`optimized_ir` (graceful degradation) and zeroed metrics.
    error: Optional[str] = None
    #: Failure class: ``"crash"``, ``"timeout"``, ``"quarantined"`` or
    #: ``"pool"`` (worker pool unhealthy, job not retried).
    error_kind: Optional[str] = None
    #: How many times the driver attempted this job (1 = no retries).
    attempts: int = 1

    @property
    def failed(self) -> bool:
        """Whether this is a degraded (error-carrying) result."""
        return self.error is not None

    def stable_dict(self) -> Dict[str, object]:
        """The deterministic payload: everything except timings.

        A warm-cache rerun must reproduce this dict byte-identically;
        wall times, the hit flag and the attempt count legitimately
        differ run to run.
        """
        data = asdict(self)
        for volatile in (
            "phase_seconds", "wall_seconds", "cache_hit", "dedupe_hit",
            "producer_witness", "attempts",
        ):
            data.pop(volatile)
        return data

    def to_json_dict(self) -> Dict[str, object]:
        """Serialize for the on-disk cache."""
        data = asdict(self)
        for transient in ("cache_hit", "dedupe_hit", "producer_witness"):
            data.pop(transient)
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "FunctionResult":
        """Rebuild from :meth:`to_json_dict` output (JSON round-trip
        turns the savings tuples into lists; restore them)."""
        data = dict(data)
        data["savings"] = [tuple(entry) for entry in data.get("savings", [])]
        data.setdefault("semantics_checked", False)
        data.setdefault("semantics_ok", None)
        data.setdefault("semantics_mismatches", [])
        data.setdefault("guard_reports", [])
        data.setdefault("phase_seconds", {})
        data.setdefault("wall_seconds", 0.0)
        data.setdefault("error", None)
        data.setdefault("error_kind", None)
        data.setdefault("attempts", 1)
        return cls(cache_hit=False, **data)


@dataclass
class DriverStats(LatencyRecorder):
    """Aggregate behaviour of one :func:`optimize_functions` run (or
    of one :class:`~repro.driver.DriverSession` so far)."""

    jobs: int = 0
    workers: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    cache_writes: int = 0
    #: Jobs served by fanning out a structurally identical in-batch
    #: leader's result (never dispatched, never cache-written).
    dedupe_hits: int = 0
    #: Jobs whose structural fingerprint could not be computed
    #: (unbuildable input); they key by raw text instead.
    hash_fallbacks: int = 0
    wall_seconds: float = 0.0
    #: Sum of the per-function phase timers (timed runs only).
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Jobs whose final outcome was a crash-class failure.
    crashed: int = 0
    #: Jobs whose final outcome was a deadline timeout.
    timed_out: int = 0
    #: Extra attempts scheduled after a failed one.
    retried: int = 0
    #: Jobs skipped because the quarantine list already condemned them.
    quarantined: int = 0
    #: Cache entries found truncated/corrupt/mis-versioned (now misses).
    cache_corrupt: int = 0
    #: Cache write failures swallowed (a lost memo, not a lost result).
    cache_write_errors: int = 0
    #: Worker pools torn down and rebuilt after a death or hang.
    pool_respawns: int = 0
    #: Whether the run degraded to the in-process serial path.
    serial_fallback: bool = False
    #: Total rolled-back transactions across all results (validated
    #: runs only; every one of these kept a bad edit out of the output).
    guard_failures: int = 0
    #: Per-job dispatch-to-completion latencies in seconds, recorded
    #: for executed jobs (pool and serial paths alike; cache hits and
    #: dedupe fan-outs are not dispatched, so they do not appear).
    #: Read through :attr:`latency_seconds`, :attr:`latency_p50` and
    #: :attr:`latency_p99`.
    _latency: Deque[float] = field(default_factory=latency_window, repr=False)

    @property
    def executed(self) -> int:
        """Jobs that actually ran (not served from the cache or fanned
        out from an in-batch structural duplicate)."""
        return self.jobs - self.cache_hits - self.dedupe_hits

    @property
    def failed(self) -> int:
        """Jobs that ended in a degraded (error-carrying) result."""
        return self.crashed + self.timed_out + self.quarantined


@dataclass
class DriverReport:
    """Results (in job order) plus the run's aggregate stats."""

    results: List[FunctionResult]
    stats: DriverStats


@dataclass
class TenantStats:
    """Per-tenant accounting inside one long-running serve session."""

    accepted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_quota: int = 0
    rejected_busy: int = 0
    dedupe_hits: int = 0
    cache_hits: int = 0

    def to_json_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class ServiceStats(LatencyRecorder):
    """Aggregate behaviour of one ``repro serve`` daemon lifetime.

    Where :class:`DriverStats` describes one batch, this describes a
    *service*: admission decisions (accepted vs. typed ``busy``/
    ``quota`` rejections), streaming completion latencies measured
    from admission to response, and per-tenant counters so fleet-wide
    structural dedupe is attributable ("tenant B's job coalesced onto
    tenant A's computation" shows up on both ledgers).

    Mutated only under the owning service's lock; :meth:`snapshot`
    renders the JSON payload the ``stats`` RPC answers with.
    """

    accepted: int = 0
    completed: int = 0
    #: Completed jobs that degraded (crash/timeout/quarantine/pool).
    failed: int = 0
    rejected_busy: int = 0
    rejected_quota: int = 0
    rejected_invalid: int = 0
    #: Jobs served by coalescing onto a structurally identical
    #: in-flight computation (possibly another tenant's) or a leader
    #: computed earlier in this daemon's lifetime via the shared cache.
    dedupe_hits: int = 0
    cache_hits: int = 0
    #: Requests answered (or coalesced) because their client-supplied
    #: idempotency key matched an in-flight or memoized execution.
    idempotent_hits: int = 0
    #: Admission-to-response latency per completed job, in seconds.
    _latency: Deque[float] = field(default_factory=latency_window, repr=False)
    #: Wall seconds the service has been accepting work (set by the
    #: owning service when snapshotting).
    wall_seconds: float = 0.0
    #: Gauges stamped at snapshot time by the owning service.
    queue_depth: int = 0
    inflight: int = 0
    per_tenant: Dict[str, TenantStats] = field(default_factory=dict)

    def tenant(self, name: str) -> TenantStats:
        if name not in self.per_tenant:
            self.per_tenant[name] = TenantStats()
        return self.per_tenant[name]

    @property
    def jobs_per_second(self) -> float:
        """Completed jobs per wall second of service lifetime."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.completed / self.wall_seconds

    def snapshot(self) -> Dict[str, object]:
        """The ``stats`` RPC payload (plain JSON types only)."""
        return {
            "accepted": self.accepted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected_busy": self.rejected_busy,
            "rejected_quota": self.rejected_quota,
            "rejected_invalid": self.rejected_invalid,
            "dedupe_hits": self.dedupe_hits,
            "cache_hits": self.cache_hits,
            "idempotent_hits": self.idempotent_hits,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "wall_seconds": self.wall_seconds,
            "jobs_per_second": self.jobs_per_second,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "tenants": {
                name: tenant.to_json_dict()
                for name, tenant in sorted(self.per_tenant.items())
            },
        }
