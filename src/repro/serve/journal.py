"""The write-ahead job journal: crash durability for ``repro serve``.

Every admitted ``optimize`` job is appended here *before* the
scheduler acknowledges admission, and marked ``done`` once its
response has been written.  A daemon that dies mid-flight (SIGKILL,
OOM kill, host reboot) therefore leaves behind exactly the set of
admitted-but-unanswered jobs, and the next boot replays them --
structural fingerprints make the replay idempotent and mostly
cache-hot (a job that finished computing but died before its ``done``
frame re-resolves from the shared result cache).

On-disk format: one checksummed line frame per record::

    J1 <crc32-hex> <compact-json>\n

The JSON carries either an ``admit`` record (the full job: source
text, tenant, metadata, the original JSON-RPC request id, and the
client's idempotency key) or a ``done`` record naming an earlier
sequence number.  The scan tolerates exactly the failure modes a torn
write produces:

* a final line with no trailing newline is a *torn tail* -- ignored
  and counted, never an error (the job it described was never
  acknowledged, so dropping it loses nothing the client was promised);
* a mid-file line whose checksum or JSON does not parse is counted as
  corrupt and skipped -- the journal must itself be
  corruption-resilient.

Sync policy (``--journal-sync``):

``always``
    ``fsync`` after every append -- the admission ack implies the
    record is on stable storage (the durability bar for "no accepted
    job is ever lost" across power failure).
``batch``
    flush on every append, ``fsync`` every
    :data:`BATCH_FSYNC_EVERY` appends -- survives process death
    (SIGKILL) with zero per-job fsync cost; a power failure may lose
    the last unsynced batch.
``off``
    flush only -- survives process death, trades power-failure
    durability for zero sync overhead.

The journal is compacted (live records rewritten to a fresh file via
write-temp-then-``os.replace``) at boot, on clean close, and
automatically once enough ``done`` frames accumulate, so it never
grows without bound under a long-lived daemon.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from typing import Dict, IO, List, Optional, Tuple

from ..driver.cache import atomic_write

#: Frame magic; bump when the record layout changes meaning.
FRAME_MAGIC = "J1"

#: Accepted ``--journal-sync`` policies.
SYNC_POLICIES = ("always", "batch", "off")

#: Under the ``batch`` policy, fsync once per this many appends.
BATCH_FSYNC_EVERY = 32

#: Auto-compact once this many ``done`` frames accumulate since the
#: last compaction (bounds journal growth under a long-lived daemon).
COMPACT_EVERY = 256

#: Journal file name inside ``--journal-dir``.
JOURNAL_FILE = "journal.jsonl"


@dataclass
class JournalRecord:
    """One admitted-but-unfinished job, as recovered from the journal."""

    seq: int
    req_id: object
    tenant: str
    name: Optional[str]
    fmt: str  # "ir" | "c"
    text: str
    metadata: Dict[str, str] = field(default_factory=dict)
    emit_ir: bool = False
    idempotency_key: Optional[str] = None

    def to_json_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "op": "admit",
            "seq": self.seq,
            "id": self.req_id,
            "tenant": self.tenant,
            "fmt": self.fmt,
            "text": self.text,
        }
        if self.name is not None:
            data["name"] = self.name
        if self.metadata:
            data["metadata"] = self.metadata
        if self.emit_ir:
            data["emit_ir"] = True
        if self.idempotency_key is not None:
            data["idempotency_key"] = self.idempotency_key
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "JournalRecord":
        fmt = str(data["fmt"])
        if fmt not in ("ir", "c"):
            raise ValueError(f"unknown journal job format {fmt!r}")
        metadata = data.get("metadata") or {}
        if not isinstance(metadata, dict):
            raise ValueError("journal metadata must be a map")
        name = data.get("name")
        return cls(
            seq=int(data["seq"]),  # type: ignore[arg-type]
            req_id=data.get("id"),
            tenant=str(data.get("tenant", "anon")),
            name=None if name is None else str(name),
            fmt=fmt,
            text=str(data["text"]),
            metadata={str(k): str(v) for k, v in metadata.items()},
            emit_ir=bool(data.get("emit_ir", False)),
            idempotency_key=(
                None
                if data.get("idempotency_key") is None
                else str(data["idempotency_key"])
            ),
        )


def encode_frame(payload: Dict[str, object]) -> str:
    """One checksummed journal line (newline-terminated)."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{FRAME_MAGIC} {crc:08x} {body}\n"


def decode_frame(line: str) -> Dict[str, object]:
    """Parse one journal line; raises ``ValueError`` on any damage."""
    magic, _, rest = line.rstrip("\n").partition(" ")
    if magic != FRAME_MAGIC:
        raise ValueError(f"bad frame magic {magic!r}")
    crc_text, _, body = rest.partition(" ")
    if not body:
        raise ValueError("frame carries no body")
    try:
        expected = int(crc_text, 16)
    except ValueError:
        raise ValueError(f"bad frame checksum field {crc_text!r}") from None
    actual = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise ValueError(
            f"frame checksum mismatch ({actual:08x} != {expected:08x})"
        )
    data = json.loads(body)
    if not isinstance(data, dict):
        raise ValueError("frame body is not an object")
    return data


class JobJournal:
    """The write-ahead log behind one daemon's ``--journal-dir``.

    Thread-safe: appends can arrive from any transport thread while
    ``done`` frames arrive from the scheduler thread.  Construction
    scans whatever a previous generation left behind (tolerating a
    torn tail and corrupt lines), compacts it, and exposes the
    surviving admitted-but-unfinished records via :meth:`replay_records`.
    """

    def __init__(self, directory: str, sync: str = "batch") -> None:
        if sync not in SYNC_POLICIES:
            raise ValueError(
                f"unknown journal sync policy {sync!r} "
                f"(expected one of {', '.join(SYNC_POLICIES)})"
            )
        self.directory = directory
        self.sync = sync
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, JOURNAL_FILE)
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None
        self._live: Dict[int, JournalRecord] = {}
        self._next_seq = 1
        self._done_since_compact = 0
        self._unsynced = 0
        # Counters (surfaced in the ``stats`` snapshot).
        self.appends = 0
        self.fsyncs = 0
        self.corrupt_lines = 0
        self.torn_tail = 0
        self.compactions = 0
        self.recovered = 0

        self._live, max_seq = self._scan()
        self._next_seq = max_seq + 1
        self.recovered = len(self._live)
        # Compact at boot: drops every settled frame (and any damage)
        # before the new generation starts appending.
        self._compact_locked()

    # -- recovery ------------------------------------------------------------

    def _scan(self) -> Tuple[Dict[int, JournalRecord], int]:
        """Read the journal left by a previous generation."""
        live: Dict[int, JournalRecord] = {}
        max_seq = 0
        try:
            with open(self.path, encoding="utf-8", errors="replace") as fh:
                content = fh.read()
        except FileNotFoundError:
            return live, max_seq
        except OSError:
            self.corrupt_lines += 1
            return live, max_seq
        if not content:
            return live, max_seq
        lines = content.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        elif lines:
            # No trailing newline: the final line is a torn write from
            # the moment of death.  Its job was never acked, so it is
            # safe (and correct) to drop.
            lines.pop()
            self.torn_tail += 1
        for line in lines:
            try:
                data = decode_frame(line)
                op = data.get("op")
                if op == "admit":
                    record = JournalRecord.from_json_dict(data)
                    live[record.seq] = record
                    max_seq = max(max_seq, record.seq)
                elif op == "done":
                    seq = int(data["seq"])  # type: ignore[arg-type]
                    live.pop(seq, None)
                    max_seq = max(max_seq, seq)
                else:
                    raise ValueError(f"unknown journal op {op!r}")
            except (ValueError, KeyError, TypeError):
                self.corrupt_lines += 1
        return live, max_seq

    def replay_records(self) -> List[JournalRecord]:
        """Admitted-but-unfinished records, in admission order."""
        with self._lock:
            return [self._live[seq] for seq in sorted(self._live)]

    # -- appending -----------------------------------------------------------

    def _ensure_handle(self) -> IO[str]:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _write_frame(self, payload: Dict[str, object]) -> None:
        handle = self._ensure_handle()
        handle.write(encode_frame(payload))
        handle.flush()
        self.appends += 1
        if self.sync == "always":
            os.fsync(handle.fileno())
            self.fsyncs += 1
        elif self.sync == "batch":
            self._unsynced += 1
            if self._unsynced >= BATCH_FSYNC_EVERY:
                os.fsync(handle.fileno())
                self.fsyncs += 1
                self._unsynced = 0

    def append_admit(
        self,
        *,
        req_id: object,
        tenant: str,
        name: Optional[str],
        fmt: str,
        text: str,
        metadata: Optional[Dict[str, str]] = None,
        emit_ir: bool = False,
        idempotency_key: Optional[str] = None,
    ) -> int:
        """Record one admitted job; returns its sequence number.

        Must be called *before* the scheduler acks the admission: a
        crash between the append and the ack costs one harmless extra
        replay, while the opposite order would lose an acked job.
        """
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            record = JournalRecord(
                seq=seq,
                req_id=req_id,
                tenant=tenant,
                name=name,
                fmt=fmt,
                text=text,
                metadata=dict(metadata or {}),
                emit_ir=emit_ir,
                idempotency_key=idempotency_key,
            )
            self._write_frame(record.to_json_dict())
            self._live[seq] = record
            return seq

    def record_done(self, seq: int) -> None:
        """Mark one admitted job settled (its response was written)."""
        with self._lock:
            if seq not in self._live:
                return
            self._write_frame({"op": "done", "seq": seq})
            self._live.pop(seq, None)
            self._done_since_compact += 1
            if self._done_since_compact >= COMPACT_EVERY:
                self._compact_locked()

    # -- compaction and teardown ---------------------------------------------

    def _compact_locked(self) -> None:
        """Rewrite the journal with only live records (caller may or
        may not hold the lock; all callers are single-threaded setup /
        already-locked paths)."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
        durable = self.sync != "off"
        atomic_write(
            self.path,
            lambda handle: handle.writelines(
                encode_frame(self._live[seq].to_json_dict())
                for seq in sorted(self._live)
            ),
            fsync=durable,
        )
        if durable:
            self.fsyncs += 1
        self._done_since_compact = 0
        self._unsynced = 0
        self.compactions += 1

    def compact(self) -> None:
        """Rewrite the journal to just its live records (checkpoint)."""
        with self._lock:
            self._compact_locked()

    def close(self) -> None:
        """Compact and release the file handle (idempotent)."""
        with self._lock:
            try:
                self._compact_locked()
            except OSError:
                pass
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    # -- introspection -------------------------------------------------------

    @property
    def live(self) -> int:
        """Admitted-but-unfinished records currently journaled."""
        with self._lock:
            return len(self._live)

    def counters(self) -> Dict[str, object]:
        """The ``stats`` payload section describing this journal."""
        with self._lock:
            return {
                "path": self.path,
                "sync": self.sync,
                "live": len(self._live),
                "appends": self.appends,
                "fsyncs": self.fsyncs,
                "corrupt_lines": self.corrupt_lines,
                "torn_tail": self.torn_tail,
                "compactions": self.compactions,
                "recovered": self.recovered,
            }
