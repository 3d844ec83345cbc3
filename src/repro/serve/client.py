"""A line-protocol client for ``repro serve``.

:class:`ServeClient` speaks the JSON-RPC line protocol over any pair
of text streams -- a spawned daemon's pipes (:meth:`ServeClient.spawn`),
an in-process loopback, or a socket makefile.  Because ``optimize``
responses stream back in *completion* order, the client separates
submission from receipt:

    ticket = client.submit_optimize(ir_text, tenant="ci")
    ...                       # pipeline more submissions here
    response = client.wait(ticket)

:meth:`wait` reads frames off the stream, parking out-of-order
responses in a buffer keyed by id until the requested one appears.
:meth:`optimize` is the submit+wait convenience for callers that
don't pipeline.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import IO, Dict, List, Optional, Sequence

from .protocol import encode_line, response_error_kind

#: Respawn attempts a reconnecting client makes before giving up.
MAX_RECONNECT_ATTEMPTS = 3


class ServeError(RuntimeError):
    """The daemon answered with a JSON-RPC error.

    ``kind`` is the typed vocabulary clients branch on (``busy``,
    ``quota``, ``shutting_down``, ...).  ``disconnected`` is
    client-synthesized: the daemon died (EOF / broken pipe) before
    answering -- no response is coming on this connection.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


class ServeClient:
    """One connection to a serve daemon.

    Not thread-safe: one client per thread (the daemon handles any
    number of concurrent clients; each brings its own pipe).

    Daemon death surfaces as a typed ``ServeError(kind="disconnected")``
    instead of a hang or a bare EOF.  With ``reconnect=True`` (spawned
    clients only) the client instead respawns the daemon and resends
    every unanswered request under its original id; pair it with a
    ``--journal-dir`` daemon so the resends land as idempotent
    duplicates -- the client stamps every optimize with an
    auto-generated ``idempotency_key`` for exactly that reason.
    """

    def __init__(
        self,
        reader: IO[str],
        writer: IO[str],
        process: Optional[subprocess.Popen] = None,
        *,
        reconnect: bool = False,
        spawn_args: Optional[Sequence[str]] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._process = process
        self._next_id = 0
        self._pending: Dict[object, Dict[str, object]] = {}
        self._reconnect = reconnect
        self._spawn_args = tuple(spawn_args or ())
        #: Frames sent but not yet answered, by id -- what a reconnect
        #: resends.
        self._unacked: Dict[object, Dict[str, object]] = {}
        self._reconnects = 0
        self._dead = False

    # -- construction --------------------------------------------------------

    @classmethod
    def spawn(cls, *serve_args: str, reconnect: bool = False) -> "ServeClient":
        """Launch ``python -m repro serve <args>`` and connect to it.

        stderr is inherited so daemon diagnostics surface in the
        caller's terminal; stdout stays pure protocol.  With
        ``reconnect=True`` a dead daemon is respawned (same args) and
        unanswered requests are resent instead of raising
        ``disconnected``.
        """
        process = cls._spawn_process(serve_args)
        assert process.stdin is not None and process.stdout is not None
        return cls(
            process.stdout, process.stdin, process=process,
            reconnect=reconnect, spawn_args=serve_args,
        )

    @staticmethod
    def _spawn_process(serve_args: Sequence[str]) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *serve_args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    # -- raw protocol --------------------------------------------------------

    def request(self, method: str, params: Optional[dict] = None) -> int:
        """Send one request, return its id (wait for it with :meth:`wait`)."""
        if self._dead:
            raise ServeError(
                "disconnected", "connection to the daemon is gone"
            )
        self._next_id += 1
        req_id = self._next_id
        frame = {
            "jsonrpc": "2.0",
            "id": req_id,
            "method": method,
            "params": params or {},
        }
        self._unacked[req_id] = frame
        try:
            self._writer.write(encode_line(frame))
            self._writer.flush()
        except (BrokenPipeError, ValueError, OSError):
            self._handle_disconnect()
        return req_id

    def wait(self, req_id: int) -> Dict[str, object]:
        """Block until the response for ``req_id`` arrives.

        Responses to *other* ids read along the way are buffered, so
        interleaved completion order never loses a frame.  EOF before
        the response raises ``ServeError(kind="disconnected")`` -- or,
        in reconnect mode, respawns the daemon and keeps waiting.
        """
        if req_id in self._pending:
            self._unacked.pop(req_id, None)
            return self._pending.pop(req_id)
        if self._dead:
            raise ServeError(
                "disconnected", "connection to the daemon is gone"
            )
        while True:
            try:
                line = self._reader.readline()
            except (ValueError, OSError):
                line = ""
            if not line:
                self._handle_disconnect()
                continue  # reconnected: a fresh reader is in place
            if not line.strip():
                continue
            response = json.loads(line)
            self._unacked.pop(response.get("id"), None)
            if response.get("id") == req_id:
                return response
            self._pending[response.get("id")] = response

    def _handle_disconnect(self) -> None:
        """The pipe died mid-conversation: reconnect or fail typed.

        Without ``reconnect`` the client goes dead: this call (and
        every later request/wait) raises ``disconnected`` immediately
        rather than hanging on a pipe no daemon will ever answer.
        """
        if not (self._reconnect and self._process is not None):
            self._dead = True
            raise ServeError(
                "disconnected",
                "daemon connection lost before the response arrived",
            )
        last_error = "daemon died"
        while self._reconnects < MAX_RECONNECT_ATTEMPTS:
            self._reconnects += 1
            try:
                self._process.kill()
                self._process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
            try:
                process = self._spawn_process(self._spawn_args)
                assert process.stdin is not None
                assert process.stdout is not None
                self._process = process
                self._reader = process.stdout
                self._writer = process.stdin
                # Resend everything unanswered under its original id;
                # idempotency keys make the duplicates coalesce
                # server-side instead of re-executing.
                for rid in sorted(
                    self._unacked, key=lambda value: str(value)
                ):
                    self._writer.write(encode_line(self._unacked[rid]))
                self._writer.flush()
                return
            except (OSError, ValueError) as error:
                last_error = f"{type(error).__name__}: {error}"
        self._dead = True
        raise ServeError(
            "disconnected",
            f"gave up after {MAX_RECONNECT_ATTEMPTS} reconnect "
            f"attempts ({last_error})",
        )

    def call(self, method: str, params: Optional[dict] = None) -> object:
        """Request, wait, unwrap -- raising :class:`ServeError` on errors."""
        response = self.wait(self.request(method, params))
        kind = response_error_kind(response)
        if kind is not None:
            error = response.get("error") or {}
            raise ServeError(kind, str(error.get("message", kind)))
        return response.get("result")

    # -- the method vocabulary ----------------------------------------------

    def ping(self) -> bool:
        result = self.call("ping")
        return bool(isinstance(result, dict) and result.get("pong"))

    def stats(self) -> Dict[str, object]:
        result = self.call("stats")
        assert isinstance(result, dict)
        return result

    def submit_optimize(
        self,
        text: str,
        *,
        fmt: str = "ir",
        name: Optional[str] = None,
        tenant: str = "anon",
        emit_ir: bool = False,
        metadata: Optional[Dict[str, str]] = None,
        idempotency_key: Optional[str] = None,
    ) -> int:
        """Fire an optimize request without waiting (pipelining).

        In reconnect mode every optimize is stamped with an
        auto-generated ``idempotency_key`` (unless the caller supplies
        one) so post-reconnect resends execute at most once.
        """
        params: Dict[str, object] = {fmt: text, "tenant": tenant}
        if name is not None:
            params["name"] = name
        if emit_ir:
            params["emit_ir"] = True
        if metadata:
            params["metadata"] = metadata
        if idempotency_key is None and self._reconnect:
            idempotency_key = os.urandom(16).hex()
        if idempotency_key is not None:
            params["idempotency_key"] = idempotency_key
        return self.request("optimize", params)

    def optimize(self, text: str, **kwargs: object) -> Dict[str, object]:
        """Submit one job and wait for its result payload."""
        response = self.wait(self.submit_optimize(text, **kwargs))
        kind = response_error_kind(response)
        if kind is not None:
            error = response.get("error") or {}
            raise ServeError(kind, str(error.get("message", kind)))
        result = response.get("result")
        assert isinstance(result, dict)
        return result

    def drain(self, timeout: Optional[float] = None) -> bool:
        params = {} if timeout is None else {"timeout": timeout}
        result = self.call("drain", params)
        return bool(isinstance(result, dict) and result.get("drained"))

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        params = {} if timeout is None else {"timeout": timeout}
        result = self.call("shutdown", params)
        return bool(isinstance(result, dict) and result.get("stopped"))

    # -- teardown ------------------------------------------------------------

    def close(self, shutdown: bool = True) -> Optional[int]:
        """End the conversation; returns the daemon's exit code if spawned.

        With ``shutdown=True`` (default) a shutdown request is sent
        first and best-effort awaited, so a spawned daemon exits
        cleanly rather than on EOF.
        """
        if shutdown:
            try:
                self.shutdown()
            except (ServeError, ValueError, OSError):
                pass
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except (ValueError, OSError):
                pass
        if self._process is not None:
            try:
                return self._process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._process.kill()
                return self._process.wait(timeout=10)
        return None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class LoopbackClient(ServeClient):
    """A :class:`ServeClient` over an in-process response buffer."""

    def __init__(self, service) -> None:
        import threading

        super().__init__(reader=None, writer=None)  # type: ignore[arg-type]
        self._service = service
        self._lines: List[str] = []
        self._have_line = threading.Condition()
        self._open = True

    def _write_line(self, text: str) -> None:
        with self._have_line:
            self._lines.append(text)
            self._have_line.notify_all()

    def request(self, method: str, params: Optional[dict] = None) -> int:
        self._next_id += 1
        req_id = self._next_id
        frame = {
            "jsonrpc": "2.0",
            "id": req_id,
            "method": method,
            "params": params or {},
        }
        if not self._service.handle_line(
            encode_line(frame), self._write_line
        ):
            self._open = False
        return req_id

    def _absorb_buffered(self) -> None:
        with self._have_line:
            lines, self._lines = self._lines, []
        for line in lines:
            response = json.loads(line)
            self._pending[response.get("id")] = response

    def poll(self, req_id: int) -> Optional[Dict[str, object]]:
        """The response for ``req_id`` if it already arrived, else None.

        Refusals (busy/quota/param errors) respond synchronously, so
        polling right after a request deterministically distinguishes
        "admitted, result later" from "refused now" -- what the chaos
        storm's resubmission loop is built on.
        """
        if req_id not in self._pending:
            self._absorb_buffered()
        return self._pending.pop(req_id, None)

    def wait(self, req_id: int) -> Dict[str, object]:
        if req_id in self._pending:
            return self._pending.pop(req_id)
        while True:
            with self._have_line:
                while not self._lines:
                    if not self._have_line.wait(timeout=30.0):
                        raise ServeError(
                            "internal", "no response within 30s"
                        )
                line = self._lines.pop(0)
            response = json.loads(line)
            if response.get("id") == req_id:
                return response
            self._pending[response.get("id")] = response

    def close(self, shutdown: bool = True) -> Optional[int]:
        """Hang up; with ``shutdown=True`` also stop the shared service.

        Unlike a spawned daemon (whose stdin EOF means its only client
        left), a loopback service may serve many clients -- merely
        disconnecting one must not tear it down.
        """
        if shutdown and self._open:
            try:
                self.shutdown()
            except ServeError:
                pass
            self._service.stop()
        return None
