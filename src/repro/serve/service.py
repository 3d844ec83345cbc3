"""The transport-independent handler core of ``repro serve``.

:class:`OptimizeService` owns the scheduler + driver session and maps
decoded protocol requests to actions.  Both transports -- the stdio
line loop and the localhost HTTP server -- feed it the same way::

    service.handle(request_dict, respond)

where ``respond`` is called exactly once per request with the response
message: synchronously for control methods and refusals, later (from
the scheduler thread, when the job completes) for admitted ``optimize``
requests.  That single asynchronous seam is what makes the daemon
*streaming*: a slow job never blocks the next request's admission or
another job's response.

Methods:

``optimize``
    params: exactly one of ``ir`` / ``c`` (source text), optional
    ``name`` (function to measure), ``tenant`` (accounting identity,
    default ``"anon"``), ``emit_ir`` (include optimized IR in the
    response), ``metadata`` (string map, echoed back),
    ``idempotency_key`` (resubmission-safe execute-at-most-once
    handle: duplicates coalesce onto the in-flight execution or
    answer from the settled-result memo with ``idempotent_hit``).
``stats``    -> the live :class:`~repro.driver.ServiceStats` snapshot.
``ping``     -> liveness probe.
``drain``    -> stop admitting, wait for in-flight work, stay alive.
``shutdown`` -> drain, tear the pool down, and tell the transport to
                exit its loop (the response is sent *after* the drain
                completes, so a client that saw it knows every prior
                response was flushed).
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..bench.objsize import reduction_percent
from ..driver import DriverSession, FunctionJob
from ..driver.types import FunctionResult
from ..faultinject import fire
from ..rolag import RolagConfig
from .journal import JobJournal
from .protocol import (
    ProtocolError,
    Responder,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)
from .scheduler import (
    DEFAULT_MAX_QUEUE,
    DEFAULT_TENANT_QUOTA,
    AdmissionController,
    Scheduler,
)
from .supervisor import GENERATION_ENV, RESTARTS_ENV

#: Refuse single submissions beyond this many bytes of source text.
MAX_SOURCE_BYTES = 1 << 20

#: Settled idempotency keys remembered for duplicate answers (bounds
#: the memo; oldest keys fall off first).
IDEMPOTENCY_MEMO_CAP = 1024


@dataclass
class ServeConfig:
    """Everything a daemon boot needs, in one picklable bag."""

    #: The RoLAG config every job runs, validation level included.
    rolag: RolagConfig = field(default_factory=RolagConfig)
    #: :class:`~repro.driver.DriverSession` keywords (see
    #: :class:`OptimizeService` for the daemon's defaults).
    driver: Dict[str, object] = field(default_factory=dict)
    max_queue: int = DEFAULT_MAX_QUEUE
    tenant_quota: int = DEFAULT_TENANT_QUOTA
    #: Write-ahead job journal directory (None = no durability).
    journal_dir: Optional[str] = None
    #: ``always`` | ``batch`` | ``off`` -- see :mod:`repro.serve.journal`.
    journal_sync: str = "batch"


def result_payload(
    result: FunctionResult, emit_ir: bool = False
) -> Dict[str, object]:
    """The JSON body an ``optimize`` response carries.

    Failed jobs are *successful responses* with ``status: "error"`` --
    the request was handled; the job degraded.  Protocol-level errors
    (busy/quota/malformed) are JSON-RPC errors instead.
    """
    payload: Dict[str, object] = {
        "name": result.name,
        "status": "error" if result.failed else "ok",
        "size_before": result.size_before,
        "size_after": result.rolag_size,
        "llvm_size": result.llvm_size,
        "reduction_percent": round(
            reduction_percent(result.size_before, result.rolag_size), 2
        ),
        "rolled": result.rolag_rolled,
        "cache_hit": result.cache_hit,
        "dedupe_hit": result.dedupe_hit,
        "attempts": result.attempts,
        "guard_rollbacks": len(result.guard_reports),
        "metadata": dict(result.metadata),
    }
    if result.semantics_checked:
        payload["semantics_ok"] = result.semantics_ok
    if result.failed:
        payload["error"] = result.error
        payload["error_kind"] = result.error_kind
    if emit_ir:
        payload["optimized_ir"] = result.optimized_ir
    return payload


class OptimizeService:
    """The daemon: one scheduler, one driver session, many transports.

    Thread-safe at the :meth:`handle` boundary; see the module
    docstring for the method vocabulary.  :meth:`stop` is idempotent
    and always leaves zero pool workers behind.  The driver session
    takes ``config.driver`` over the daemon's defaults (one worker, no
    retry backoff), always with ``serial_fallback`` on, and fsyncs its
    quarantine list when the journal syncs ``always``.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        #: Journal first: a bad journal directory must fail the boot
        #: before a worker pool exists to leak.
        self._journal: Optional[JobJournal] = None
        if self.config.journal_dir:
            self._journal = JobJournal(
                self.config.journal_dir, sync=self.config.journal_sync
            )
        session = DriverSession(
            self.config.rolag,
            **{
                # No sleep between retries on the scheduler thread.
                "workers": 1,
                "retry_backoff": 0.0,
                **self.config.driver,
                # The daemon's own process outlives a dying pool:
                # leftover jobs are retried in-process rather than
                # abandoned.
                "serial_fallback": True,
                "quarantine_fsync": (
                    self._journal is not None
                    and self.config.journal_sync == "always"
                ),
            },
        )
        session.on_respawn = self._on_pool_respawn
        self.scheduler = Scheduler(
            session,
            admission=AdmissionController(
                max_queue=self.config.max_queue,
                tenant_quota=self.config.tenant_quota,
            ),
        )
        self._lifecycle_lock = threading.Lock()
        #: Idempotency bookkeeping: key -> waiters piggybacking on the
        #: in-flight leader, and key -> settled result memo.
        self._idem_lock = threading.Lock()
        self._idem_inflight: Dict[str, List[Tuple[object, Responder, bool]]] = {}
        self._idem_done: "OrderedDict[str, FunctionResult]" = OrderedDict()

    # -- lifecycle ----------------------------------------------------------

    def start(self, threaded: bool = True) -> "OptimizeService":
        """Boot the scheduler; with ``threaded=False`` tests drive
        :meth:`pump_once` themselves."""
        fire("serve.boot")
        self.scheduler.start(threaded=threaded)
        return self

    def pump_once(self, wait: Optional[float] = 0.0) -> int:
        """Advance an unthreaded service one deterministic step.

        ``wait=None`` blocks until at least one in-flight result
        resolves (or nothing is pending) -- required for guaranteed
        progress when the session runs a process pool.
        """
        return self.scheduler.pump_once(wait=wait)

    def drain(self, timeout: Optional[float] = None) -> bool:
        return self.scheduler.drain(timeout=timeout)

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        with self._lifecycle_lock:
            self.scheduler.stop(drain_timeout=drain_timeout)
            if self._journal is not None:
                self._journal.close()

    @property
    def alive(self) -> bool:
        return not self.scheduler.closed

    def _on_pool_respawn(self, count: int) -> None:
        """Session restart hook: make partial restarts operator-visible."""
        print(
            f"repro serve: worker pool respawned (respawn #{count})",
            file=sys.stderr, flush=True,
        )

    def stats_snapshot(self) -> Dict[str, object]:
        snap = self.scheduler.snapshot()
        if self._journal is not None:
            snap["journal"] = self._journal.counters()
        generation = os.environ.get(GENERATION_ENV)
        if generation is not None:
            try:
                restarts = int(os.environ.get(RESTARTS_ENV, "0"))
            except ValueError:
                restarts = 0
            try:
                snap["supervisor"] = {
                    "generation": int(generation),
                    "restarts": restarts,
                }
            except ValueError:
                pass
        return snap

    # -- request handling ---------------------------------------------------

    def handle(self, request: Dict[str, object], respond: Responder) -> bool:
        """Dispatch one decoded request; returns False on ``shutdown``.

        ``respond`` fires exactly once per request -- immediately for
        everything except an admitted ``optimize``, whose response is
        delivered from the scheduler thread on completion.
        """
        req_id = request.get("id")
        method = request.get("method")
        params = request.get("params") or {}
        try:
            if method == "ping":
                respond(ok_response(req_id, {"pong": True}))
            elif method == "stats":
                respond(ok_response(req_id, self.stats_snapshot()))
            elif method == "optimize":
                self._handle_optimize(req_id, params, respond)
            elif method == "drain":
                drained = self.drain(timeout=params.get("timeout"))
                respond(ok_response(req_id, {"drained": drained}))
            elif method == "shutdown":
                self.stop(drain_timeout=params.get("timeout"))
                respond(ok_response(req_id, {"stopped": True}))
                return False
            else:
                respond(
                    error_response(
                        req_id, "method", f"unknown method {method!r}"
                    )
                )
        except Exception as error:  # a handler bug must not kill the loop
            respond(
                error_response(
                    req_id, "internal",
                    f"{type(error).__name__}: {error}",
                )
            )
        return True

    def handle_line(self, line: str, write_line) -> bool:
        """Transport convenience: decode, dispatch, encode.

        ``write_line`` receives fully framed response lines (it must
        be safe to call from the scheduler thread).  Blank lines are
        ignored.  Returns False when the connection loop should exit.
        """
        if not line.strip():
            return True
        try:
            request = parse_request(line)
        except ProtocolError as error:
            write_line(
                encode_line(
                    error_response(error.req_id, error.kind, str(error))
                )
            )
            return True
        return self.handle(
            request, lambda message: write_line(encode_line(message))
        )

    # -- optimize -----------------------------------------------------------

    def _handle_optimize(
        self, req_id: object, params: Dict[str, object], respond: Responder
    ) -> None:
        try:
            job, tenant, emit_ir, idem_key = self._job_from_params(params)
        except ProtocolError as error:
            self.scheduler.record_invalid()
            respond(error_response(req_id, error.kind, str(error)))
            return

        if idem_key is not None:
            with self._idem_lock:
                memo = self._idem_done.get(idem_key)
                if memo is not None:
                    # A resubmission of a key that already settled:
                    # answer from the memo, execute nothing.
                    self.scheduler.record_idempotent_hit()
                    payload = result_payload(memo, emit_ir)
                    payload["idempotent_hit"] = True
                    respond(ok_response(req_id, payload))
                    return
                waiters = self._idem_inflight.get(idem_key)
                if waiters is not None:
                    # The key's leader is still executing: piggyback.
                    self.scheduler.record_idempotent_hit()
                    waiters.append((req_id, respond, emit_ir))
                    return
                self._idem_inflight[idem_key] = []

        # Journal *before* the scheduler can ack: a crash between the
        # append and the ack costs one harmless replay, the opposite
        # order would lose an acknowledged job.  Live path only --
        # these fault sites never fire during journal replay, or a
        # kill plan would re-trigger every generation and the journal
        # could never drain.
        seq = None
        if self._journal is not None:
            seq = self._journal.append_admit(
                req_id=req_id,
                tenant=tenant,
                name=job.name,
                fmt="ir" if job.ir_text is not None else "c",
                text=job.text,
                metadata=dict(job.metadata),
                emit_ir=emit_ir,
                idempotency_key=idem_key,
            )
        fire("serve.admitted")

        rejection = self.scheduler.offer(
            job, tenant,
            self._completion(req_id, emit_ir, idem_key, seq, respond),
        )
        if rejection is not None:
            messages = {
                "busy": "service at its backpressure watermark; "
                "resubmit later",
                "quota": f"tenant {tenant!r} is at its in-flight quota",
                "shutting_down": "service is draining; no new work "
                "admitted",
            }
            message = messages[rejection]
            if seq is not None:
                self._journal.record_done(seq)
            if idem_key is not None:
                self._fail_idempotency_leader(idem_key, rejection, message)
            respond(
                error_response(
                    req_id, rejection, message,
                    data={"tenant": tenant},
                )
            )

    def _completion(
        self,
        req_id: object,
        emit_ir: bool,
        idem_key: Optional[str],
        seq: Optional[int],
        respond: Optional[Responder],
        replayed: bool = False,
    ) -> Callable[[FunctionResult], None]:
        """The ``on_complete`` of one admitted job, live or replayed.

        In one order: answer the request, settle its idempotency key,
        then mark its journal record done -- so a crash in between
        costs a harmless replay, never a lost answer.  A replayed job
        (``replayed``) is answered with a ``"replayed": true`` marker
        down ``respond`` (None discards the answer) and fires no
        ``serve.result`` fault: replay must converge even under a kill
        plan.
        """

        def on_complete(result: FunctionResult) -> None:
            if not replayed:
                fire("serve.result")
            payload = result_payload(result, emit_ir)
            if replayed:
                payload["replayed"] = True
            if respond is not None:
                respond(ok_response(req_id, payload))
            if idem_key is not None:
                self._settle_idempotency(idem_key, result)
            if seq is not None:
                self._journal.record_done(seq)

        return on_complete

    # -- idempotency ---------------------------------------------------------

    def _settle_idempotency(self, key: str, result: FunctionResult) -> None:
        """The key's leader finished: memoize, answer the waiters."""
        with self._idem_lock:
            waiters = self._idem_inflight.pop(key, [])
            self._idem_done[key] = result
            while len(self._idem_done) > IDEMPOTENCY_MEMO_CAP:
                self._idem_done.popitem(last=False)
        for w_id, w_respond, w_emit in waiters:
            payload = result_payload(result, w_emit)
            payload["idempotent_hit"] = True
            try:
                w_respond(ok_response(w_id, payload))
            except Exception:  # pragma: no cover - a broken responder
                pass  # must not strand the remaining waiters

    def _fail_idempotency_leader(
        self, key: str, rejection: str, message: str
    ) -> None:
        """The key's leader was refused admission: fail any waiters."""
        with self._idem_lock:
            waiters = self._idem_inflight.pop(key, [])
        for w_id, w_respond, _ in waiters:
            try:
                w_respond(error_response(w_id, rejection, message))
            except Exception:  # pragma: no cover - see above
                pass

    # -- journal replay ------------------------------------------------------

    def replay_journal(self, write_line=None) -> int:
        """Resubmit every admitted-but-unanswered job the journal holds.

        Transports call this once at boot, after announcing readiness.
        Replayed jobs re-enter through forced admission (they were
        already admitted once; live watermarks do not apply) and their
        responses -- carrying the *original* JSON-RPC request ids plus
        a ``"replayed": true`` marker -- go down ``write_line`` (None
        discards them: the HTTP transport has no pipe to a waiting
        client).  Structural caching makes the replay mostly free: a
        job that finished computing before the crash re-resolves as a
        cache hit.  Returns the number of jobs resubmitted.
        """
        if self._journal is None:
            return 0
        respond = None if write_line is None else (
            lambda message: write_line(encode_line(message))
        )
        replayed = 0
        for record in self._journal.replay_records():
            job = FunctionJob(
                name=record.name,
                ir_text=record.text if record.fmt == "ir" else None,
                c_source=record.text if record.fmt == "c" else None,
                metadata=tuple(sorted(record.metadata.items())),
            )
            key = record.idempotency_key
            if key is not None:
                with self._idem_lock:
                    if (
                        key not in self._idem_done
                        and key not in self._idem_inflight
                    ):
                        self._idem_inflight[key] = []

            rejection = self.scheduler.offer(
                job, record.tenant,
                self._completion(
                    record.req_id, record.emit_ir, key, record.seq,
                    respond, replayed=True,
                ),
                force=True,
            )
            if rejection is not None:
                # Draining or closed: leave the record (and the rest)
                # live for the next generation.
                if key is not None:
                    with self._idem_lock:
                        self._idem_inflight.pop(key, None)
                break
            replayed += 1
        return replayed

    @staticmethod
    def _job_from_params(params: Dict[str, object]):
        ir = params.get("ir")
        c_source = params.get("c")
        if (ir is None) == (c_source is None):
            raise ProtocolError(
                "params", "exactly one of 'ir'/'c' must carry source text"
            )
        text = ir if ir is not None else c_source
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError("params", "source text must be a string")
        if len(text.encode("utf-8", "replace")) > MAX_SOURCE_BYTES:
            raise ProtocolError(
                "params",
                f"source exceeds {MAX_SOURCE_BYTES} bytes",
            )
        name = params.get("name")
        if name is not None and not isinstance(name, str):
            raise ProtocolError("params", "name must be a string")
        tenant = params.get("tenant", "anon")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError("params", "tenant must be a non-empty string")
        metadata = params.get("metadata") or {}
        if not isinstance(metadata, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in metadata.items()
        ):
            raise ProtocolError("params", "metadata must map strings to "
                                "strings")
        emit_ir = bool(params.get("emit_ir", False))
        idem_key = params.get("idempotency_key")
        if idem_key is not None and (
            not isinstance(idem_key, str) or not idem_key
        ):
            raise ProtocolError(
                "params", "idempotency_key must be a non-empty string"
            )
        job = FunctionJob(
            name=name,
            ir_text=text if ir is not None else None,
            c_source=text if c_source is not None else None,
            metadata=tuple(sorted(metadata.items())),
        )
        return job, tenant, emit_ir, idem_key
