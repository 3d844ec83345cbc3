"""``repro serve``: the always-on streaming optimization daemon.

Layers, bottom up:

- :mod:`.protocol` -- JSON-RPC 2.0 line framing and the typed error
  vocabulary (``busy``/``quota``/``shutting_down``/...).
- :mod:`.scheduler` -- admission control (per-tenant quotas, global
  backpressure watermark) and the single thread that owns the
  :class:`~repro.driver.DriverSession`.
- :mod:`.service` -- :class:`OptimizeService`, the transport-agnostic
  handler core; :class:`ServeConfig` is its boot-time knob bag.
- :mod:`.journal` -- the write-ahead job journal giving admitted work
  crash durability (replayed at boot).
- :mod:`.stdio` / :mod:`.httpd` -- the two transports (subprocess
  pipe, localhost HTTP) over the same core.
- :mod:`.supervisor` -- ``repro serve --supervise``: restart the
  daemon across crashes, with backoff and a crash-loop breaker.
- :mod:`.client` -- :class:`ServeClient` for pipelined line-protocol
  callers, plus the in-process :class:`LoopbackClient` tests use.
"""

from .client import LoopbackClient, ServeClient, ServeError
from .journal import JobJournal, JournalRecord, decode_frame, encode_frame
from .protocol import (
    ERROR_CODES,
    ProtocolError,
    encode_line,
    error_response,
    ok_response,
    parse_request,
    response_error_kind,
)
from .scheduler import AdmissionController, Scheduler
from .service import MAX_SOURCE_BYTES, OptimizeService, ServeConfig
from .stdio import serve_stdio
from .supervisor import (
    SupervisorReport,
    read_pid_file,
    run_supervised,
    write_pid_file,
)

__all__ = [
    "AdmissionController",
    "ERROR_CODES",
    "JobJournal",
    "JournalRecord",
    "LoopbackClient",
    "MAX_SOURCE_BYTES",
    "OptimizeService",
    "ProtocolError",
    "Scheduler",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "SupervisorReport",
    "decode_frame",
    "encode_frame",
    "encode_line",
    "error_response",
    "ok_response",
    "parse_request",
    "read_pid_file",
    "response_error_kind",
    "run_supervised",
    "serve_stdio",
    "write_pid_file",
]
