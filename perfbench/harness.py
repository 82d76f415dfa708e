"""Launch, probe and stop ``repro serve`` as a process of its own.

A server counts as ready when it has printed its ``serving on`` line
and answered ``GET /health``; the time from launch to that answer is
its set-up time.  Thread-plane servers are stopped with SIGINT, the
operator's Ctrl-C.  Process-plane servers are stopped with SIGTERM, as
a service manager stops them: every worker process still alive after
:data:`GRACE_S` counts as one failed shutdown, and is then reaped so
that repeated runs never pile up orphans.  Every server runs in a
session of its own, so whatever it spawned can be found and waited for
before the next run starts, together with any ``/dev/shm`` segment it
left behind.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import loadgen

HOST = "127.0.0.1"
READY_TIMEOUT_S = 150.0
EXIT_TIMEOUT_S = 30.0
#: how long a worker may outlive its SIGTERMed parent before it counts
#: as orphaned
GRACE_S = 1.0
SHM_DIR = Path("/dev/shm")
_SERVING = re.compile(r"serving on http://([^:\s]+):(\d+)")


class ServerError(RuntimeError):
    """The server could not be started or answered nonsense."""


def _proc_stat(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return raw.rpartition(")")[2].split()


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and has not yet exited (zombies have)."""
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def session_members(sid: int) -> List[int]:
    """Live processes in session ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _proc_stat(int(entry.name))
        # fields: state ppid pgrp session ...
        if fields is not None and fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry.name))
    return members


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM for pid {pid}")


def cpu_times() -> Tuple[int, int, int]:
    """Machine-wide ``(busy, steal, total)`` jiffies from ``/proc/stat``."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split()[1:9]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal, sum(fields)


def shm_entries() -> set:
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


def _wait_gone(pids: Sequence[int], timeout: float) -> List[int]:
    deadline = time.monotonic() + timeout
    left = [pid for pid in pids if alive(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.02)
        left = [pid for pid in left if alive(pid)]
    return left


def _kill(pids: Sequence[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


class Server:
    """One ``repro serve`` process (optionally through the launcher)."""

    def __init__(self, root: Path, serve_args: Sequence[str], *,
                 launcher: Optional[Sequence[str]] = None) -> None:
        self.root = root
        entry = list(launcher) if launcher else ["-m", "repro"]
        self.command = [sys.executable, *entry, "serve", "--port", "0",
                        *serve_args]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.stderr_lines: List[str] = []
        self._ready = threading.Event()
        self._reader: Optional[threading.Thread] = None
        self._shm_before: set = set()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> float:
        """Launch and wait until ready; returns the set-up time in s."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._shm_before = shm_entries()
        launched = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command, cwd=self.root, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read_stderr,
                                        daemon=True)
        self._reader.start()
        if not self._ready.wait(READY_TIMEOUT_S) or not self.port:
            self.kill()
            raise ServerError("server never printed its 'serving on' line:\n"
                              + "".join(self.stderr_lines[-20:]))
        deadline = launched + READY_TIMEOUT_S
        while True:
            try:
                status, _ = self.call("GET", "/health")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.kill()
                raise ServerError("server never answered /health")
            time.sleep(0.005)
        setup_s = time.perf_counter() - launched
        # process-plane workers come up after /health answers; traffic
        # starts once every one of them has reported in
        try:
            self.worker_pids()
        except (OSError, ServerError):
            self.kill()
            raise
        return setup_s

    def _read_stderr(self) -> None:
        assert self.proc is not None and self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr_lines.append(line)
            match = _SERVING.search(line)
            if match:
                self.port = int(match.group(2))
                self._ready.set()
        self._ready.set()  # EOF: the server is gone

    def stop(self, how: int = signal.SIGINT) -> Tuple[int, int]:
        """Stop the server; returns ``(attempted, failed)`` shutdowns.

        With SIGINT one shutdown is attempted: the server must exit by
        itself within :data:`EXIT_TIMEOUT_S`.  With SIGTERM one shutdown
        per worker process is attempted (their pids are read from
        ``/shards`` first): each worker still alive :data:`GRACE_S`
        after its parent exited has failed.  Either way everything the
        server spawned is reaped before this returns.
        """
        assert self.proc is not None
        workers = self.worker_pids() if how == signal.SIGTERM else []
        self.proc.send_signal(how)
        try:
            self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()  # returncode becomes -SIGKILL: failed
            self.proc.wait()
        if how == signal.SIGTERM:
            time.sleep(GRACE_S)
            attempted = len(workers)
            failed = sum(1 for pid in workers if alive(pid))
        else:
            attempted, failed = 1, int(self.proc.returncode != 0)
        self._reap(self.proc.pid, workers)
        return attempted, failed

    def kill(self) -> None:
        """Hard stop after an error; reaps everything it spawned."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._reap(self.proc.pid)

    def _reap(self, sid: int, workers: Sequence[int] = ()) -> None:
        # orphaned workers first: the multiprocessing resource tracker
        # (also in the session) unlinks a dead parent's segments once
        # the last process sharing its pipe is gone, then exits
        _kill([pid for pid in workers if alive(pid)])
        _wait_gone(workers, 10.0)
        deadline = time.monotonic() + 5.0
        while session_members(sid) and time.monotonic() < deadline:
            time.sleep(0.02)
        members = session_members(sid)
        _kill(members)
        left = _wait_gone(members, 10.0)
        leaked = shm_entries() - self._shm_before
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        if left:
            raise ServerError(f"server processes survived reaping: {left}")
        if leaked:
            raise ServerError(f"shared-memory segments left behind: {leaked}")

    # -- requests (untimed) --------------------------------------------

    def call(self, method: str, path: str,
             payload: Optional[Dict] = None) -> Tuple[int, object]:
        body = json.dumps(payload).encode() if payload is not None else b""
        status, raw = loadgen.fetch(
            HOST, self.port, loadgen.render(method, path, body)
        )
        if path == "/metrics":
            return status, raw.decode()
        return status, json.loads(raw)

    def get(self, path: str) -> object:
        status, payload = self.call("GET", path)
        if status != 200:
            raise ServerError(f"GET {path} answered {status}: {payload}")
        return payload

    def post(self, path: str, payload: Optional[Dict] = None) -> object:
        status, reply = self.call("POST", path, payload)
        if status != 200:
            raise ServerError(f"POST {path} answered {status}: {reply}")
        return reply

    def worker_pids(self) -> List[int]:
        """Pids of the shard worker processes (none on the thread plane).

        A worker publishes its pid once it is up, which may be after
        the gateway answers ``/health``; wait for every one of them.
        """
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            shards = self.get("/shards")["shards"]
            if "pid" not in shards[0]:
                return []
            if all(row["pid"] for row in shards):
                return [int(row["pid"]) for row in shards]
            if time.monotonic() > deadline:
                raise ServerError("workers never reported their pids")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its worker processes, in MiB."""
        assert self.proc is not None
        pids = [self.proc.pid] + self.worker_pids()
        return sum(peak_rss_mb(pid) for pid in pids)
