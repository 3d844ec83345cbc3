"""The serve supervisor: restart the daemon across crashes.

``repro serve --supervise`` runs this parent process instead of the
daemon directly.  It forks the real daemon as a child that *inherits
the supervisor's stdio*, so the client's pipe survives the child:
a SIGKILLed daemon costs the client nothing but a pause -- the next
generation reads the same stdin, replays its journal, and writes the
recovered responses (under their original JSON-RPC request ids) down
the same stdout the client is already waiting on.

Restart policy:

* a child that exits 0 (clean shutdown, or EOF-drain after the client
  hung up) ends the supervisor with exit 0;
* any other exit is a crash: the supervisor restarts the daemon after
  an exponential backoff (``--restart-backoff`` doubling per recent
  crash, capped);
* a **crash-loop circuit breaker** gives up once ``--max-restarts``
  crashes land within ``--restart-window`` seconds, prints a report
  naming every recent exit code, and exits 1 -- a daemon that cannot
  boot must page an operator, not burn CPU forever.

Each generation's pid (and generation number) is published atomically
to ``--pid-file`` so harnesses and operators can target the *daemon*
(kill it, watch it come back) rather than the supervisor.  The
generation and cumulative restart count ride into the child through
the :data:`GENERATION_ENV` / :data:`RESTARTS_ENV` environment
variables and surface in the daemon's ``stats`` snapshot.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import IO, List, Optional, Sequence

from ..driver.cache import atomic_write

#: Child environment variable carrying the 1-based generation number.
GENERATION_ENV = "REPRO_SERVE_GENERATION"

#: Child environment variable carrying the cumulative restart count.
RESTARTS_ENV = "REPRO_SERVE_RESTARTS"

#: Crashes within the window before the circuit breaker trips.
DEFAULT_MAX_RESTARTS = 5

#: Crash-counting window in seconds.
DEFAULT_RESTART_WINDOW = 60.0

#: Base restart delay in seconds (doubles per recent crash).
DEFAULT_RESTART_BACKOFF = 0.25

#: Backoff is capped here regardless of crash count.
BACKOFF_CAP_SECONDS = 10.0


@dataclass
class SupervisorReport:
    """What one supervision run did, for logs and tests."""

    generations: int = 0
    restarts: int = 0
    #: (exit code, monotonic timestamp) per abnormal child exit.
    crashes: List[tuple] = field(default_factory=list)
    gave_up: bool = False
    exit_code: int = 0


def write_pid_file(path: str, pid: int, generation: int) -> None:
    """Atomically publish the current daemon generation's pid."""
    atomic_write(
        path,
        lambda handle: json.dump(
            {"pid": pid, "generation": generation}, handle
        ),
    )


def read_pid_file(path: str) -> Optional[dict]:
    """The published ``{"pid": ..., "generation": ...}``, or None."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or "pid" not in data:
        return None
    return data


def run_supervised(
    serve_args: Sequence[str],
    *,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    restart_window: float = DEFAULT_RESTART_WINDOW,
    restart_backoff: float = DEFAULT_RESTART_BACKOFF,
    pid_file: Optional[str] = None,
    log: Optional[IO[str]] = None,
    command: Optional[Sequence[str]] = None,
    report: Optional[SupervisorReport] = None,
) -> int:
    """Supervise ``python -m repro serve <serve_args>`` until it ends.

    Returns the process exit code the supervisor should propagate: 0
    after a clean child exit, 1 after the circuit breaker trips.
    ``command`` overrides the child command line entirely (tests
    supervise tiny scripted children this way); ``report`` collects
    the run's counters when provided.
    """
    log = sys.stderr if log is None else log
    report = report if report is not None else SupervisorReport()
    max_restarts = max(1, max_restarts)
    crash_times: List[float] = []
    generation = 0
    restarts = 0

    def note(text: str) -> None:
        try:
            print(f"repro serve supervisor: {text}", file=log, flush=True)
        except (ValueError, OSError):  # pragma: no cover - log closed
            pass

    while True:
        generation += 1
        report.generations = generation
        env = dict(os.environ)
        env[GENERATION_ENV] = str(generation)
        env[RESTARTS_ENV] = str(restarts)
        child_command = (
            list(command)
            if command is not None
            else [sys.executable, "-m", "repro", "serve", *serve_args]
        )
        # stdin/stdout/stderr are inherited on purpose: the client's
        # pipe must outlive any one child generation.
        child = subprocess.Popen(child_command, env=env)
        if pid_file:
            try:
                write_pid_file(pid_file, child.pid, generation)
            except OSError as error:
                note(f"could not write pid file {pid_file}: {error}")
        note(f"generation {generation} up (pid {child.pid})")
        code = child.wait()
        if code == 0:
            note(f"generation {generation} exited cleanly")
            if pid_file:
                try:
                    os.unlink(pid_file)
                except OSError:
                    pass
            report.exit_code = 0
            return 0
        now = time.monotonic()
        crash_times.append(now)
        crash_times = [
            stamp for stamp in crash_times if now - stamp <= restart_window
        ]
        report.crashes.append((code, now))
        note(
            f"generation {generation} died (exit {code}); "
            f"{len(crash_times)} crash(es) in the last "
            f"{restart_window:g}s window"
        )
        if len(crash_times) >= max_restarts:
            codes = ", ".join(str(c) for c, _ in report.crashes[-max_restarts:])
            note(
                f"circuit breaker: {len(crash_times)} crashes within "
                f"{restart_window:g}s (limit {max_restarts}); giving up. "
                f"Recent exit codes: {codes}. The journal and cache "
                "directories are preserved; fix the daemon and restart "
                "to resume the unfinished jobs."
            )
            if pid_file:
                try:
                    os.unlink(pid_file)
                except OSError:
                    pass
            report.gave_up = True
            report.exit_code = 1
            return 1
        restarts += 1
        report.restarts = restarts
        delay = min(
            restart_backoff * (2 ** (len(crash_times) - 1)),
            BACKOFF_CAP_SECONDS,
        )
        if delay > 0:
            time.sleep(delay)
