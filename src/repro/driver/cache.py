"""Content-addressed memo cache for per-function optimization results.

A cache entry is keyed by a SHA-256 fingerprint of

* a schema version (bumped whenever the result layout or the worker
  pipeline changes meaning),
* the :meth:`RolagConfig.fingerprint` of the active config,
* a fingerprint of the measuring cost model,
* the semantics-check flag and the oracle's evaluator backend,
* the *canonical* target function name, and
* the function's **structural fingerprint** (see
  :mod:`repro.ir.structhash`): an alpha-invariant digest of the
  verified IR, so a rename of values, labels, or the defined functions
  themselves -- or a reordering of reachable blocks -- still *hits*.
  Inputs that fail to build (unparseable IR, uncompilable C) fall back
  to a digest of their raw text, flagged with a distinct prefix so the
  two namespaces cannot collide.  Fingerprinting a mini-C job also
  yields its printed IR, which the driver ships to the worker so the
  frontend runs once per job.

Equal inputs therefore hit regardless of process, worker count, run
order, or spelling; any config/model/structural change misses and
recomputes.  Because the key is structural, a hit may come from a job
with different names than the requester's: the envelope therefore
stores the producing job's renaming *witness* so the driver can
rewrite the cached ``optimized_ir`` into the requester's namespace
(see ``core.py``).  Entries are JSON files sharded two hex characters
deep so corpus-sized caches do not degenerate into one giant
directory.

The cache trusts nothing it reads back.  Each entry is an envelope
``{"schema": N, "checksum": ..., "result": {...}, "renames": {...}}``;
a read that fails to parse, carries the wrong schema, or fails its
checksum is treated as a *miss*: counted in
:attr:`ResultCache.corrupt`, logged, deleted, and rewritten when the
recomputed result lands.  Reads pass through the ``cache.read``
fault-injection site so corruption handling stays under test (see
``repro.faultinject``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from typing import IO, Callable, Dict, Optional, Tuple

from ..analysis.costmodel import CodeSizeCostModel
from ..faultinject import corrupt_bytes, fire
from ..ir import parse_module, print_module
from ..ir.module import Module
from ..ir.structhash import StructuralSummary, structural_summary
from ..rolag.config import RolagConfig
from .types import FunctionJob, FunctionResult

log = logging.getLogger(__name__)

#: Bump to invalidate every existing cache entry.  4: entries gained
#: the self-describing envelope (schema + checksum) around the result.
#: 5: results gained ``guard_reports`` (online translation validation).
#: 6: stats gained the ``parse`` phase timer, and the evaluator knob
#: grew a third tier (same knob string keys different code; the tier
#: is gone, and its ``evaluator:`` key can no longer be requested).
#: 7: keys went structural (alpha-invariant fingerprint + canonical
#: target instead of raw text), and the envelope gained the producing
#: job's renaming witness.  8: derived names became ``prefix.N``, drawn
#: from the live IR instead of carried counters.  9: the gate's
#: vectors became a prefix of the job's one evidence draw (raw seed,
#: no function-name mixing), so stored verdicts rest on other vectors.
#: 10: the gate observes candidates with the backend that captured its
#: evidence (the oracle's, when the oracle runs), so stored gate
#: verdicts rest on that backend.  11: the ``strict`` gate's backend
#: parity requires full Observation equality (trap kinds, timeouts),
#: so stored ``strict`` verdicts rest on a weaker rule.  12: the oracle
#: treats two NaN results (and NaN extern arguments) as equal, so a
#: stored mismatch or rollback can now be a pass.  13: the backend-
#: parity rule (the ``strict`` gate) matches a NaN result or extern
#: argument to a NaN, so a stored ``strict`` rollback can now commit.
#: 14: the evaluators cap machine memory (``MEMORY_LIMIT``), so an
#: input that allocated past it now traps where a stored verdict saw it
#: complete.
SCHEMA_VERSION = 14

#: ``job_key``/``quarantine_key`` sentinel: "compute the summary here".
_AUTO = object()


def model_fingerprint(model: Optional[CodeSizeCostModel]) -> str:
    """Stable hash of the cost model used for measurement."""
    if model is None:
        return "default"
    parts = sorted((opcode, cost) for opcode, cost in model.table.items())
    digest = hashlib.sha256(repr(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


def materialize(job: FunctionJob) -> Module:
    """Build the job's module in this process.

    The driver's one frontend entry: IR jobs are parsed (not verified;
    the worker verifies the module it parses), mini-C jobs are
    compiled.  Fingerprinting and the worker pipeline both come here,
    so a key and the module it was taken from always agree.
    """
    if job.ir_text is not None:
        return parse_module(job.ir_text)
    from ..frontend import compile_c

    return compile_c(job.c_source, module_name=f"driver.{job.name}")


def fingerprint_job(
    job: FunctionJob,
) -> Tuple[Optional[StructuralSummary], Optional[str]]:
    """The job's structural summary, or ``(None, None)`` if it does
    not build.

    A mini-C job also returns the printed IR of the module it was
    fingerprinted from, so the pipeline can parse its module from it
    instead of running the frontend again.  (An IR job's text already is that
    form.)  Any exception means "no structural identity": the caller
    falls back to keying by raw text, and the job still flows -- its
    worker will report the real error.
    """
    try:
        module = materialize(job)
        summary = structural_summary(module)
        ir_text = print_module(module) if job.c_source is not None else None
    except Exception:
        return None, None
    return summary, ir_text


def job_struct_summary(job: FunctionJob) -> Optional[StructuralSummary]:
    """The job's structural summary, or ``None`` if it does not build
    (:func:`fingerprint_job` without printing the module)."""
    try:
        return structural_summary(materialize(job))
    except Exception:
        return None


def text_fingerprint(job: FunctionJob) -> str:
    """The fallback content fingerprint for jobs that do not build."""
    material = f"{job.format}:{job.name}\n{job.text}"
    return "text:" + hashlib.sha256(material.encode("utf-8")).hexdigest()


def _content_fingerprint(
    job: FunctionJob, summary: Optional[StructuralSummary]
) -> str:
    if summary is not None:
        return "struct:" + summary.fingerprint
    return text_fingerprint(job)


def job_key(
    job: FunctionJob,
    config: RolagConfig,
    measure_model: Optional[CodeSizeCostModel] = None,
    check_semantics: bool = False,
    evaluator: str = "interp",
    summary: object = _AUTO,
) -> str:
    """The content-addressed cache key for one job.

    ``check_semantics`` participates in the key: a result computed
    without the differential oracle must not satisfy a request that
    asked for one.  So does ``evaluator``: the backend that executed
    the oracle is part of what the cached verdict attests.

    ``summary`` is the job's :class:`StructuralSummary` when the
    caller already computed one (the driver memoizes them), ``None``
    for a job known not to build; left at the default it is computed
    here, so ``job_key(job, config)`` is self-contained.
    """
    if summary is _AUTO:
        summary = job_struct_summary(job)
    target = job.name
    if summary is not None:
        target = summary.canonical_target(job.name)
    material = "\n".join(
        [
            f"schema:{SCHEMA_VERSION}",
            f"config:{config.fingerprint()}",
            f"model:{model_fingerprint(measure_model)}",
            f"semantics:{int(check_semantics)}",
            f"evaluator:{evaluator}",
            f"target:{target}",
            f"content:{_content_fingerprint(job, summary)}",
        ]
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _payload_checksum(payload: Dict[str, object]) -> str:
    """Digest of the canonical JSON form of one result payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def atomic_write(
    path: str, write: Callable[[IO[str]], None], *, fsync: bool = False
) -> None:
    """Replace ``path`` with what ``write(handle)`` writes, atomically.

    The text goes to a temporary file in ``path``'s directory (created
    if missing), which ``os.replace`` then moves over ``path``.  With
    ``fsync`` the file is fsynced before the replace and, best-effort
    (not every filesystem supports it), the directory after it, so the
    replace itself is durable.  On any failure the temporary file is
    removed and the error re-raised.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write(handle)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if fsync:
            try:
                dir_fd = os.open(directory, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            except OSError:  # pragma: no cover - fs-dependent
                pass
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """A directory of memoized :class:`FunctionResult` JSON blobs."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Entries present on disk but truncated/corrupt/mis-versioned.
        self.corrupt = 0
        #: Writes that failed and were swallowed (lost memo, not result).
        self.write_errors = 0

    def path(self, key: str) -> str:
        """Where the entry for ``key`` lives on disk."""
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    def get(self, key: str) -> Optional[FunctionResult]:
        """The cached result, or ``None`` on miss or unusable entry.

        An entry that exists but cannot be trusted -- unparsable bytes,
        wrong envelope schema, checksum mismatch, stale result layout,
        or a fault injected at the ``cache.read`` site -- is deleted and
        counted as corrupt, so the recomputed result rewrites it.
        """
        path = self.path(key)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            self.misses += 1
            return None
        try:
            raw = corrupt_bytes("cache.read", raw)
            data = json.loads(raw.decode("utf-8"))
            if data.get("schema") != SCHEMA_VERSION:
                raise ValueError(
                    f"envelope schema {data.get('schema')!r}, "
                    f"expected {SCHEMA_VERSION}"
                )
            payload = data["result"]
            renames = data.get("renames")
            checksum = _payload_checksum(
                {"result": payload, "renames": renames}
            )
            if data.get("checksum") != checksum:
                raise ValueError(
                    f"checksum {data.get('checksum')!r} != {checksum}"
                )
            result = FunctionResult.from_json_dict(payload)
            if isinstance(renames, dict):
                result.producer_witness = StructuralSummary(
                    fingerprint="",
                    fn_renames=renames.get("fns") or {},
                    global_renames=renames.get("globals") or {},
                )
        except Exception as error:
            # Corrupt-entry path: never let a bad byte on disk take the
            # run down.  Treat as a miss, drop the entry, recompute.
            self.corrupt += 1
            self.misses += 1
            log.warning("corrupt cache entry %s (%s); treating as miss",
                        path, error)
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        result.cache_hit = True
        return result

    def put(
        self,
        key: str,
        result: FunctionResult,
        summary: Optional[StructuralSummary] = None,
    ) -> None:
        """Persist one result atomically (write-temp then rename).

        ``summary`` is the producing job's structural summary; its
        renaming witness rides in the envelope so a later hit from an
        alpha-variant job can be rewritten into that job's namespace.
        Write failures are swallowed and counted: a memo the next run
        will recompute is not worth aborting this run over.
        """
        path = self.path(key)
        payload = result.to_json_dict()
        renames = (
            {"fns": summary.fn_renames, "globals": summary.global_renames}
            if summary is not None
            else None
        )
        envelope = {
            "schema": SCHEMA_VERSION,
            "checksum": _payload_checksum(
                {"result": payload, "renames": renames}
            ),
            "result": payload,
            "renames": renames,
        }
        try:
            fire("cache.write")
            atomic_write(path, lambda handle: json.dump(envelope, handle))
        except Exception as error:
            self.write_errors += 1
            log.warning("cache write failed for %s (%s)", path, error)
            return
        self.writes += 1
