"""HTTP/1.1 load generation over raw sockets.

The generator stays out of the server's way on a two-core machine:
every request is pre-rendered to bytes before timing starts, the
client speaks just enough HTTP/1.1 to read one response (status line,
``Content-Length``, body), and at most two threads each hold at most
one connection at a time.

Two driving styles:

* :func:`open_loop` sends a fixed schedule of requests.  Each request
  is timed from when it was *due*, not from when it was sent, so a
  stall in the server also charges the requests that queued up behind
  it (no coordinated omission); how late the generator itself ran is
  kept as the request's ``lag``.
* :func:`closed_loop` posts a list of bodies back to back, each one
  sent when the previous reply arrived — the shape of a feeder that
  waits for every acknowledgement.
* :func:`pooled_loop` sends a list of requests over one persistent
  connection with a short pause after each reply, as a pooled client
  does.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

RECV_BYTES = 65536
TIMEOUT_S = 30.0


def render(
    method: str,
    path: str,
    body: bytes = b"",
    *,
    keep_alive: bool = False,
) -> bytes:
    """One complete HTTP/1.1 request as bytes.

    Fresh-connection requests carry ``Connection: close`` (what
    ``urllib`` and so ``ServingClient`` send); persistent ones do not.
    """
    lines = [f"{method} {path} HTTP/1.1", "Host: localhost"]
    if body:
        lines.append("Content-Type: application/json")
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    if not keep_alive:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


class Connection:
    """One TCP connection exchanging whole requests and responses."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
        self._buffer = b""

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        """Send one request and return ``(status, body)`` of its reply."""
        self.sock.sendall(request)
        buffer = self._buffer
        while b"\r\n\r\n" not in buffer:
            chunk = self.sock.recv(RECV_BYTES)
            if not chunk:
                raise ConnectionError("connection closed before the headers")
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = None
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        if length is None:
            raise ConnectionError("response without Content-Length")
        while len(rest) < length:
            chunk = self.sock.recv(RECV_BYTES)
            if not chunk:
                raise ConnectionError("connection closed inside the body")
            rest += chunk
        self._buffer = rest[length:]
        return status, rest[:length]

    def close(self) -> None:
        self.sock.close()


def fetch(host: str, port: int, request: bytes) -> Tuple[int, bytes]:
    """One request on a fresh connection."""
    connection = Connection(host, port)
    try:
        return connection.exchange(request)
    finally:
        connection.close()


@dataclass
class Scheduled:
    """One request of an open-loop schedule."""

    due_s: float  # offset from the schedule's start
    kind: str
    request: bytes
    tag: object = None  # what the checker needs to validate the reply


@dataclass
class Outcome:
    """What happened to one request."""

    kind: str
    tag: object
    latency_s: float  # from due (open loop) or from send (closed loop)
    lag_s: float  # how late the generator sent it (0 for closed loop)
    status: int
    body: bytes
    sent_at: float  # perf_counter() when the request went out
    error: Optional[str] = None


def _exchange(connection, host, port, request) -> Tuple[int, bytes, Optional[str]]:
    try:
        if connection is None:
            status, body = fetch(host, port, request)
        else:
            status, body = connection.exchange(request)
        return status, body, None
    except OSError as exc:
        return 0, b"", repr(exc)


def open_loop(
    host: str,
    port: int,
    schedule: Sequence[Scheduled],
    *,
    threads: int = 2,
    stop: Optional[threading.Event] = None,
) -> List[Outcome]:
    """Send ``schedule`` on time, each request on a fresh connection.

    Thread ``t`` owns entries ``t, t + threads, ...``, so the schedule
    is shared evenly however it interleaves request kinds.  Once
    ``stop`` is set no further request goes out.  Returns the outcomes
    of the requests sent, in schedule order.
    """
    stop = stop or threading.Event()
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)
    start = time.perf_counter() + 0.05

    def worker(offset: int) -> None:
        for index in range(offset, len(schedule), threads):
            item = schedule[index]
            due = start + item.due_s
            if stop.wait(max(due - time.perf_counter(), 0.0)):
                return
            sent = time.perf_counter()
            status, body, error = _exchange(None, host, port, item.request)
            done = time.perf_counter()
            outcomes[index] = Outcome(item.kind, item.tag, done - due,
                                      sent - due, status, body, sent, error)

    pool = [threading.Thread(target=worker, args=(t,), name=f"loadgen-{t}")
            for t in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return [outcome for outcome in outcomes if outcome is not None]


def pooled_loop(
    host: str, port: int, schedule: Sequence[Scheduled], think_s: float
) -> List[Outcome]:
    """Send ``schedule``'s requests over one persistent connection.

    The shape of a pooled client: each request goes out ``think_s``
    after the previous reply (closed loop; due times are ignored and
    latency runs from the send).  A think time under the peer's
    delayed-ACK timeout keeps the connection in interactive mode.
    """
    outcomes: List[Outcome] = []
    connection = Connection(host, port)
    try:
        for item in schedule:
            sent = time.perf_counter()
            status, body, error = _exchange(connection, host, port,
                                            item.request)
            outcomes.append(Outcome(item.kind, item.tag,
                                    time.perf_counter() - sent, 0.0, status,
                                    body, sent, error))
            if error is not None:
                connection.close()
                connection = Connection(host, port)
            time.sleep(think_s)
    finally:
        connection.close()
    return outcomes


def closed_loop(
    host: str, port: int, kind: str, requests: Sequence[bytes]
) -> List[Outcome]:
    """Send ``requests`` one after another on fresh connections."""
    outcomes: List[Outcome] = []
    for request in requests:
        sent = time.perf_counter()
        status, body, error = _exchange(None, host, port, request)
        outcomes.append(Outcome(kind, None, time.perf_counter() - sent, 0.0,
                                status, body, sent, error))
    return outcomes


def uniform_schedule(rate: float, seconds: float) -> List[float]:
    """Due offsets of a fixed-rate schedule: ``rate * seconds`` entries."""
    return [index / rate for index in range(int(round(rate * seconds)))]
