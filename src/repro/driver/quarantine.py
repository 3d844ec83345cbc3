"""Persistent quarantine list for repeatedly-failing functions.

Corpus-scale runs contain pathological functions that crash or hang a
worker every time they are attempted.  Retrying them across runs wastes
a worker (and, for hard crashes, a whole pool respawn) per run, so the
driver records every exhausted failure here, keyed by the job's
*structural* fingerprint (see :mod:`repro.ir.structhash`; deliberately
config-independent: a function that kills workers does so regardless
of tuning knobs, and regardless of how its values are named -- an
alpha-variant of a known-bad function is the same bad function).
Jobs that do not build fall back to a text fingerprint.  Once a
function accumulates ``threshold`` failed attempts it is quarantined:
future runs emit an error result for it immediately instead of
dispatching it.

The on-disk format is a small JSON document::

    {"schema": 2,
     "entries": {"<key>": {"name": "...", "failures": 3,
                            "last_kind": "crash", "last_error": "..."}}}

A missing or unreadable file is treated as an empty list (the
quarantine layer must itself be corruption-resilient); a file written
by an older schema (whose keys derive differently) is treated as
stale and started fresh.  Saving rewrites the file atomically.
"""

from __future__ import annotations

import hashlib
import json
import logging
from typing import Dict, Optional

from .cache import (
    _AUTO,
    _content_fingerprint,
    atomic_write,
    job_struct_summary,
)
from .types import FunctionJob

log = logging.getLogger(__name__)

#: Bump when the on-disk layout (or the key derivation) changes
#: meaning.  2: keys went structural (schema-1 files keyed raw text).
SCHEMA_VERSION = 2


def quarantine_key(job: FunctionJob, summary: object = _AUTO) -> str:
    """Config-independent structural fingerprint of one job.

    ``summary`` mirrors :func:`repro.driver.cache.job_key`: pass a
    precomputed :class:`~repro.ir.structhash.StructuralSummary` (the
    driver memoizes them), ``None`` for a job known not to build, or
    leave the default to compute one here.
    """
    if summary is _AUTO:
        summary = job_struct_summary(job)
    target = job.name
    if summary is not None:
        target = summary.canonical_target(job.name)
    material = f"target:{target}\ncontent:{_content_fingerprint(job, summary)}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]


class QuarantineList:
    """Failure counts per function, optionally persisted to ``path``."""

    def __init__(
        self,
        path: Optional[str],
        threshold: int = 2,
        fsync: bool = False,
    ) -> None:
        self.path = path
        self.threshold = max(1, threshold)
        #: fsync the replacement file (and, best-effort, its
        #: directory) on save -- the durability bar serve daemons with
        #: ``--journal-sync always`` ask for.
        self.fsync = fsync
        self.entries: Dict[str, Dict[str, object]] = {}
        #: The backing file existed but did not parse.
        self.corrupt_file = False
        self._dirty = False
        if path:
            self._load(path)

    def _load(self, path: str) -> None:
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            entries = data["entries"]
            schema = data.get("schema")
            if schema != SCHEMA_VERSION:
                if isinstance(schema, int) and isinstance(entries, dict):
                    # A well-formed file from an older schema: its keys
                    # derive differently (schema 1 keyed raw text), so
                    # the entries cannot migrate -- start fresh, but do
                    # not flag the file as corrupt.
                    log.info(
                        "quarantine file %s uses schema %s (current %s); "
                        "starting fresh", path, schema, SCHEMA_VERSION,
                    )
                    self._dirty = True
                    return
                raise ValueError(f"schema {schema!r}")
            self.entries = {
                str(key): dict(value) for key, value in entries.items()
            }
        except FileNotFoundError:
            pass
        except Exception as error:
            # A corrupt quarantine file must not take the run down;
            # start empty and overwrite it on save.
            self.corrupt_file = True
            self._dirty = True
            log.warning("quarantine file %s unreadable (%s); starting empty",
                        path, error)

    def __len__(self) -> int:
        return len(self.entries)

    def failures(self, key: str) -> int:
        entry = self.entries.get(key)
        return int(entry["failures"]) if entry else 0

    def is_quarantined(self, key: str) -> bool:
        return self.failures(key) >= self.threshold

    def describe(self, key: str) -> str:
        """Human-readable reason used in quarantined error results."""
        entry = self.entries.get(key, {})
        return (
            f"quarantined after {entry.get('failures', 0)} failed "
            f"attempt(s); last: {entry.get('last_error', 'unknown')}"
        )

    def record_failure(
        self, key: str, name: Optional[str], kind: str, message: str
    ) -> bool:
        """Count one failed attempt; True when this crossed the threshold."""
        entry = self.entries.setdefault(
            key, {"name": name or "?", "failures": 0}
        )
        entry["failures"] = int(entry["failures"]) + 1
        entry["last_kind"] = kind
        entry["last_error"] = f"{kind}: {message}"
        self._dirty = True
        return int(entry["failures"]) == self.threshold

    def save(self) -> None:
        """Atomically persist the list (no-op without a path or changes)."""
        if self.path is None or not self._dirty:
            return
        payload = {"schema": SCHEMA_VERSION, "entries": self.entries}
        atomic_write(
            self.path,
            lambda handle: json.dump(payload, handle, indent=1, sort_keys=True),
            fsync=self.fsync,
        )
        self._dirty = False
