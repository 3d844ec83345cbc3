"""Process hygiene: no process the benchmark starts may outlive it.

The benchmark makes itself a child subreaper, so anything its children
orphan (pool workers of a dead daemon, say) is re-parented to the
benchmark instead of to init and stays visible as a descendant.  Every
daemon starts in its own session and is torn down by killing that
whole process group.  After each workload run, :meth:`ProcessGuard.sweep`
scans ``/proc`` for surviving descendants and members of the sessions
the benchmark created, kills and reaps them, and reports how many it
found: a non-zero count fails the run.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from typing import Dict, List, Set, Tuple

_PR_SET_CHILD_SUBREAPER = 36


def _stat(pid: int) -> Tuple[str, int, int]:
    """``(state, ppid, session id)`` of ``pid`` from ``/proc``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode("ascii", "replace")
    fields = raw[raw.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[3])


def _processes() -> Dict[int, Tuple[str, int, int]]:
    table: Dict[int, Tuple[str, int, int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            table[int(entry)] = _stat(int(entry))
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
    return table


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident sets of ``pid`` and its live descendants."""
    table = _processes()
    tree = {pid}
    grew = True
    while grew:
        grew = False
        for child, (_state, ppid, _sid) in table.items():
            if ppid in tree and child not in tree:
                tree.add(child)
                grew = True
    return sum(peak_rss_mb(member) for member in tree)


class ProcessGuard:
    """Tracks what the benchmark starts and guarantees its teardown."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.sessions: Set[int] = set()
        self.daemons: List[subprocess.Popen] = []
        try:
            libc = ctypes.CDLL(None, use_errno=True)
            libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
            libc.prctl.restype = ctypes.c_int
            libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
        except (OSError, AttributeError):
            pass  # the /proc session scan still catches daemon orphans

    def install_signal_handlers(self) -> None:
        """Turn SIGINT/SIGTERM into exceptions, so ``finally`` blocks
        (and with them every teardown) run before the process exits."""

        def interrupted(signum, _frame):
            raise KeyboardInterrupt(f"signal {signum}")

        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, interrupted)

    def spawn_daemon(self, argv: List[str], **popen_args) -> subprocess.Popen:
        """Start ``argv`` as the leader of a new session."""
        process = subprocess.Popen(argv, start_new_session=True, **popen_args)
        self.sessions.add(process.pid)
        self.daemons.append(process)
        return process

    def kill_group(self, process: subprocess.Popen) -> None:
        """SIGKILL the daemon's whole process group and reap the leader."""
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        if process in self.daemons:
            self.daemons.remove(process)

    def survivors(self) -> List[int]:
        """Live descendants of the benchmark and live members of the
        sessions it created (zombies are already dead: not counted)."""
        table = _processes()
        children: Dict[int, List[int]] = {}
        for pid, (_state, ppid, _sid) in table.items():
            children.setdefault(ppid, []).append(pid)
        found: Set[int] = set()
        stack = list(children.get(self.pid, []))
        while stack:
            pid = stack.pop()
            if pid not in found:
                found.add(pid)
                stack.extend(children.get(pid, []))
        found.update(
            pid for pid, (_s, _p, sid) in table.items() if sid in self.sessions
        )
        found.discard(self.pid)
        return sorted(pid for pid in found if table[pid][0] != "Z")

    def _reap_children(self) -> None:
        while True:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return

    def sweep(self) -> int:
        """Kill and reap every survivor; returns how many there were."""
        for process in list(self.daemons):
            self.kill_group(process)
        self._reap_children()
        leaked = self.survivors()
        for pid in leaked:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            self._reap_children()
            if not self.survivors():
                break
            time.sleep(0.05)
        return len(leaked)
