"""Admission control and async dispatch for the serve daemon.

Two halves, deliberately split:

:class:`AdmissionController` is the *synchronous* policy layer.  It
answers "may this job enter?" under a lock, instantly, on whatever
transport thread the request arrived on: over the global backpressure
watermark -> typed ``busy``; submitting tenant at its in-flight quota
-> typed ``quota``; draining -> ``shutting_down``.  Overload therefore
costs the caller one refused message, never unbounded buffering.

:class:`Scheduler` is the *asynchronous* execution layer: a single
thread that owns the :class:`~repro.driver.DriverSession`, moves
admitted entries into it, and pumps the pool.  Each entry is submitted
with its own result callback, so the session hands every result
straight to the entry it belongs to.  Because the session is
single-owner, all the driver-side machinery (structural cache,
in-flight dedupe, quarantine, retries, pool respawn) needs no extra
locking -- admission counters are the only shared state.

The scheduler can also run *unthreaded* (``start(threaded=False)``):
tests call :meth:`Scheduler.pump_once` to advance the world one
deterministic step at a time, which is how quota/backpressure edges
are pinned without sleeps or races.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Optional

from ..driver import DriverSession, FunctionJob, ServiceStats
from ..driver.types import FunctionResult

#: Default global watermark: admitted-but-unfinished jobs beyond this
#: are refused with ``busy``.
DEFAULT_MAX_QUEUE = 64

#: Default per-tenant in-flight quota.
DEFAULT_TENANT_QUOTA = 8


@dataclass
class _Entry:
    """One admitted job riding from admission to completion."""

    job: FunctionJob
    tenant: str
    on_complete: Callable[[FunctionResult], None]
    admitted_at: float = field(default_factory=perf_counter)


class AdmissionController:
    """Quota and backpressure policy, decided synchronously.

    ``max_queue`` bounds the total of admitted-but-unfinished jobs
    across all tenants (the backpressure watermark); ``tenant_quota``
    bounds each tenant's share.  :meth:`admit` returns ``None`` to
    accept or a typed rejection kind; :meth:`release` returns a
    finished job's slots.  Thread-safe.
    """

    def __init__(
        self,
        max_queue: int = DEFAULT_MAX_QUEUE,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
    ) -> None:
        self.max_queue = max(1, max_queue)
        self.tenant_quota = max(1, tenant_quota)
        self._lock = threading.Lock()
        self._total = 0
        self._by_tenant: Dict[str, int] = {}
        self._draining = False

    def admit(self, tenant: str, force: bool = False) -> Optional[str]:
        """``None`` = admitted (slots charged), else the rejection kind.

        ``force`` bypasses the busy/quota checks (slots are still
        charged) -- journal replay uses it so already-journalled jobs
        re-enter even when they overflow the live watermarks.  A
        draining daemon refuses forced offers too.
        """
        with self._lock:
            if self._draining:
                return "shutting_down"
            if not force:
                if self._total >= self.max_queue:
                    return "busy"
                if self._by_tenant.get(tenant, 0) >= self.tenant_quota:
                    return "quota"
            self._total += 1
            self._by_tenant[tenant] = self._by_tenant.get(tenant, 0) + 1
            return None

    def release(self, tenant: str) -> None:
        with self._lock:
            self._total = max(0, self._total - 1)
            left = self._by_tenant.get(tenant, 0) - 1
            if left > 0:
                self._by_tenant[tenant] = left
            else:
                self._by_tenant.pop(tenant, None)

    def start_draining(self) -> None:
        """Refuse all future admissions with ``shutting_down``."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    @property
    def outstanding(self) -> int:
        """Admitted jobs not yet released."""
        with self._lock:
            return self._total


class Scheduler:
    """The daemon's event loop over one :class:`DriverSession`.

    ``offer`` (any thread) admits or refuses instantly; admitted
    entries queue for the scheduler thread, which submits each to the
    session together with the callback that completes it, and pumps.
    Between steps the thread blocks on the session's one wake-up,
    which offers, pool completions and :meth:`stop` set: nothing
    polls.
    The session calls that callback exactly once, on the scheduler
    thread: from ``submit`` for a cache hit or quarantine refusal,
    from a pump for everything else, from ``close`` for work the stop
    abandons.  It accounts the result, releases the entry's admission
    slots and calls the entry's ``on_complete(result)``; an exception
    there is swallowed, because a callback that raises inside a pump
    would count as a pool death.
    Per-tenant and latency accounting lands on the shared
    :class:`~repro.driver.ServiceStats` under the stats lock.
    """

    def __init__(
        self,
        session: DriverSession,
        *,
        admission: Optional[AdmissionController] = None,
        stats: Optional[ServiceStats] = None,
    ) -> None:
        self.session = session
        self.admission = admission or AdmissionController()
        self.stats = stats or ServiceStats()
        self._stats_lock = threading.Lock()
        #: Makes the admit+enqueue step in :meth:`offer` atomic with
        #: :meth:`stop`'s closed flag: an entry is either enqueued
        #: before the final inbox sweep (its callback fires, possibly
        #: degraded) or refused with ``shutting_down`` -- never
        #: admitted into a dead inbox.
        self._offer_lock = threading.Lock()
        self._inbox: deque = deque()
        self._stop_requested = False
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._started = perf_counter()

    # -- admission side (any thread) ----------------------------------------

    def offer(
        self,
        job: FunctionJob,
        tenant: str,
        on_complete: Callable[[FunctionResult], None],
        force: bool = False,
    ) -> Optional[str]:
        """Admit ``job`` for ``tenant`` or return the rejection kind.

        On admission the entry is queued for the scheduler thread and
        ``on_complete`` will eventually fire exactly once with the
        job's result -- degraded results included; admission is the
        last point a job can be *refused*.  ``force`` (journal replay)
        bypasses busy/quota but never a draining or closed daemon.
        """
        with self._offer_lock:
            if self._closed:
                return "shutting_down"
            rejection = self.admission.admit(tenant, force=force)
            if rejection is None:
                entry = _Entry(
                    job=job, tenant=tenant, on_complete=on_complete
                )
                self._inbox.append(entry)
        if rejection is not None:
            with self._stats_lock:
                if rejection == "busy":
                    self.stats.rejected_busy += 1
                    self.stats.tenant(tenant).rejected_busy += 1
                elif rejection == "quota":
                    self.stats.rejected_quota += 1
                    self.stats.tenant(tenant).rejected_quota += 1
            return rejection
        with self._stats_lock:
            self.stats.accepted += 1
            self.stats.tenant(tenant).accepted += 1
        self.session.wake()
        return None

    def record_invalid(self) -> None:
        """Count a request refused before admission (bad params)."""
        with self._stats_lock:
            self.stats.rejected_invalid += 1

    def record_idempotent_hit(self) -> None:
        """Count a request answered from its idempotency key."""
        with self._stats_lock:
            self.stats.idempotent_hits += 1

    # -- execution side (scheduler thread) ----------------------------------

    def _complete(self, entry: _Entry, result: FunctionResult) -> None:
        """An entry's session callback: account, release, call back."""
        with self._stats_lock:
            self.stats.completed += 1
            tenant = self.stats.tenant(entry.tenant)
            tenant.completed += 1
            if result.failed:
                self.stats.failed += 1
                tenant.failed += 1
            if result.dedupe_hit:
                self.stats.dedupe_hits += 1
                tenant.dedupe_hits += 1
            if result.cache_hit:
                self.stats.cache_hits += 1
                tenant.cache_hits += 1
            self.stats.record_latency(perf_counter() - entry.admitted_at)
        self.admission.release(entry.tenant)
        try:
            entry.on_complete(result)
        except Exception:  # pragma: no cover - a broken responder must
            pass  # not take the scheduler loop down with it

    def _submit_entry(self, entry: _Entry) -> None:
        """Move one admitted entry into the session (scheduler thread)."""
        self.session.submit(entry.job, lambda r: self._complete(entry, r))

    def pump_once(self, wait: Optional[float] = 0.0) -> int:
        """One deterministic scheduling step (also the thread's body).

        Submits every inboxed entry to the session, then pumps it.
        With a pool, each entry is dispatched as soon as it is
        submitted: a daemon sends single jobs, and its pool spawns on
        the first admitted job, sized to it.  (A serial session runs
        nothing until the final pump, so back-to-back identical entries
        can still coalesce.)  ``wait`` is the final pump's timeout: 0
        never blocks (the threaded loop blocks in the session's
        :meth:`~DriverSession.wait` instead), ``None`` blocks until a
        result completes in this step or nothing is pending.
        Completion callbacks fire from inside this call.  Returns the
        number of results that completed.
        """
        before = self.stats.completed
        while self._inbox:
            self._submit_entry(self._inbox.popleft())
            if self.session.workers > 1:
                self.session.pump()
        self.session.pump(
            timeout=wait if self.stats.completed == before else 0.0
        )
        return self.stats.completed - before

    def _run(self) -> None:
        """Step, then block on the session's wake-up; return on a stop,
        or once a drain leaves nothing outstanding (a draining daemon
        admits nothing more)."""
        while not self._stop_requested:
            self.pump_once()
            if self.admission.draining and self.admission.outstanding == 0:
                return
            self.session.wait()

    def start(self, threaded: bool = True) -> None:
        """Begin scheduling; ``threaded=False`` leaves stepping to tests."""
        if threaded and self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-serve-scheduler", daemon=True
            )
            self._thread.start()

    # -- lifecycle ----------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, finish everything in flight.

        Returns True when all admitted work completed within
        ``timeout`` (None = wait indefinitely).  The daemon is still
        alive afterwards -- ``stats``/``ping`` keep answering; only
        ``optimize`` is refused.  Threaded, the loop returns once
        nothing admitted is outstanding, and this joins it.
        """
        self.admission.start_draining()
        if self._thread is not None:
            self.session.wake()
            self._thread.join(timeout)
        elif timeout is None or timeout > 0:  # 0: do not wait at all
            self.pump_once()  # moves the inbox into the session
            self.session.drain(timeout)
        return self.admission.outstanding == 0

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Drain, stop the thread, and close the session (idempotent).

        Undrained work degrades to structured error results via
        :meth:`DriverSession.close` -- every admitted entry's callback
        still fires, and no pool workers survive.
        """
        if self._closed:
            return
        self.drain(timeout=drain_timeout)
        self._stop_requested = True
        self.session.wake()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._offer_lock:
            self._closed = True
        # Degrade anything the drain timeout left behind: first any
        # entries never submitted to the session, then the session's
        # own outstanding tickets.  The offer lock above guarantees
        # this sweep sees every admitted entry -- late offers either
        # landed in the inbox before _closed was set or were refused.
        while self._inbox:
            self._submit_entry(self._inbox.popleft())
        self.session.close(drain=False)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def idle(self) -> bool:
        """No admitted work anywhere: inbox and session both empty."""
        return not self._inbox and self.session.pending == 0

    def snapshot(self) -> Dict[str, object]:
        """The live stats payload (gauges stamped now)."""
        with self._stats_lock:
            self.stats.queue_depth = len(self._inbox)
            self.stats.inflight = self.admission.outstanding
            self.stats.wall_seconds = perf_counter() - self._started
            snap = self.stats.snapshot()
        driver = self.session.stats
        snap["driver"] = {
            "jobs": driver.jobs,
            "executed": driver.executed,
            "cache_hits": driver.cache_hits,
            "dedupe_hits": driver.dedupe_hits,
            "crashed": driver.crashed,
            "timed_out": driver.timed_out,
            "retried": driver.retried,
            "quarantined": driver.quarantined,
            "pool_respawns": driver.pool_respawns,
            "guard_failures": driver.guard_failures,
            "latency_p50": driver.latency_p50,
            "latency_p99": driver.latency_p99,
        }
        return snap
