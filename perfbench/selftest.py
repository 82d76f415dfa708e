"""Self-tests of the benchmark's own machinery (not of ``repro``).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The file is deliberately not named ``test_*.py``: the repository's
test suite does not collect it.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# the AUC oracle
# ----------------------------------------------------------------------


def test_auc_counts_a_cross_class_tie_as_one_half():
    # positives score 0.4 and 0.8, negatives 0.1 and 0.4: of the four
    # (positive, negative) pairs three are ordered right and one is a
    # tie, so AUC = (1 + 0.5 + 1 + 1) / 4
    assert checks.auc([0.1, 0.4, 0.4, 0.8],
                      [False, True, False, True]) == pytest.approx(0.875)


def test_auc_extremes():
    assert checks.auc([1, 2, 3, 4], [False, False, True, True]) == 1.0
    assert checks.auc([1, 2, 3, 4], [True, True, False, False]) == 0.0
    assert checks.auc([5, 5, 5, 5], [True, False, True, False]) == 0.5


def test_auc_needs_both_classes():
    with pytest.raises(ValueError):
        checks.auc([0.1, 0.2], [True, True])


# ----------------------------------------------------------------------
# the tail rule
# ----------------------------------------------------------------------


def test_tail_accepts_ten_samples_beyond():
    samples = list(range(1, 101))  # 100 samples
    assert checks.samples_beyond(100, 90) == 10
    assert checks.tail(samples, 90) == pytest.approx(90.1)


def test_tail_refuses_fewer_than_ten_beyond():
    samples = list(range(1, 101))
    with pytest.raises(ValueError, match="at least 10"):
        checks.tail(samples, 95)  # 5 beyond
    with pytest.raises(ValueError):
        checks.tail(samples[:39], 75)  # 9 beyond


# ----------------------------------------------------------------------
# reply checks
# ----------------------------------------------------------------------


def _ingest(**overrides):
    stats = {"received": 100, "dropped_backpressure": 0,
             "dropped_membership": 0, "dropped_invalid": 0, "buffered": 0,
             "rejected_guard": 3, "deduped": 2, "dropped_nan": 0,
             "applied": 95}
    stats.update(overrides)
    return stats


def test_conservation_holds_and_catches_a_lost_measurement():
    checks.check_conservation(_ingest(), sent=100, accepted=100)
    with pytest.raises(checks.CheckFailed):
        checks.check_conservation(_ingest(applied=94), sent=100, accepted=100)
    with pytest.raises(checks.CheckFailed):
        checks.check_conservation(_ingest(dropped_backpressure=4), sent=100,
                                  accepted=100)


def test_agreement_within_rounding_only():
    single = {(0, 1): {"estimate": 0.5, "version": 7},
              (0, 2): {"estimate": -1e-16, "version": 7}}
    rows = [{"source": 0, "targets": [1, 2], "version": 7,
             "estimates": [0.5 + 4e-16, 1e-16]}]
    batch = {"sources": [0, 0], "targets": [1, 2], "version": 7,
             "estimates": [0.5, -1e-16]}
    # a sign flip within the tolerance around zero is not a disagreement
    checks.check_agreement(single, rows, batch)
    batch["estimates"] = [0.5 + 1e-9, -1e-16]
    with pytest.raises(checks.CheckFailed):
        checks.check_agreement(single, rows, batch)
    batch["estimates"], batch["version"] = [0.5, -1e-16], 8
    with pytest.raises(checks.CheckFailed):
        checks.check_agreement(single, rows, batch)


def test_pair_reply_label_must_match_the_sign():
    checks.check_pair_reply({"source": 1, "target": 2, "estimate": -0.2,
                             "label": -1, "version": 3}, 1, 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_pair_reply({"source": 1, "target": 2, "estimate": -0.2,
                                 "label": 1, "version": 3}, 1, 2)


# ----------------------------------------------------------------------
# open-loop timing against a stub server that stalls
# ----------------------------------------------------------------------


class StallingServer:
    """Answers every request with ``{}``; the first one after a stall."""

    def __init__(self, stall_s: float) -> None:
        self.stall_s = stall_s
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.05)  # so the accept loop sees close()
        self.port = self.sock.getsockname()[1]
        self.served = 0
        self.stopping = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while not self.stopping.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(5)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(4096)
                if self.served == 0:
                    time.sleep(self.stall_s)
                self.served += 1
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                             b"Connection: close\r\n\r\n{}")

    def close(self) -> None:
        self.stopping.set()
        self.thread.join(timeout=5)
        self.sock.close()


def test_open_loop_times_requests_from_when_they_were_due():
    stall, gap = 0.3, 0.02
    server = StallingServer(stall)
    try:
        request = loadgen.render("GET", "/predict?src=0&dst=1")
        schedule = [loadgen.Scheduled(i * gap, "pair", request)
                    for i in range(5)]
        outcomes = loadgen.open_loop("127.0.0.1", server.port, schedule,
                                     threads=1)
    finally:
        server.close()
    assert not server.thread.is_alive()
    assert [o.status for o in outcomes] == [200] * 5
    # every later request was due during the stall and waited behind
    # it: its latency counts that wait, and its lag records it
    for index, outcome in enumerate(outcomes[1:], start=1):
        waited = stall - index * gap
        assert outcome.lag_s >= waited - 0.01
        assert outcome.latency_s >= waited - 0.01
        # timed from the send instead, the stall would vanish
        assert outcome.latency_s - outcome.lag_s < 0.1
    assert outcomes[0].latency_s >= stall


# ----------------------------------------------------------------------
# the feeds' quiet rounds
# ----------------------------------------------------------------------


def test_feed_metrics_come_from_the_quiet_half_of_the_rounds():
    # of four rounds the two with the least steal (0.01, 0.02) count
    rounds = [workloads.Round(0.0, 1.0, 100, 0.20),
              workloads.Round(1.0, 2.0, 300, 0.01),
              workloads.Round(2.0, 4.0, 200, 0.02),
              workloads.Round(4.0, 5.0, 50, 0.30)]

    def outcome(kind, sent_at, latency_s):
        return loadgen.Outcome(kind, None, latency_s, 0.0, 200, b"", sent_at)

    outcomes = [outcome("ingest", 0.5, 0.009), outcome("ingest", 1.5, 0.001),
                outcome("ingest", 2.5, 0.002), outcome("pair", 3.0, 0.003),
                outcome("pair", 4.5, 0.007)]
    phase = workloads.Phase(outcomes, rounds, 0, 0, 0.0, 5.0, 650, {},
                            reads_in_rounds=True)
    assert phase.ingest_sps == pytest.approx((300 + 200) / (1.0 + 2.0))
    assert phase.latencies_ms("ingest") == pytest.approx([1.0, 2.0])
    assert phase.latencies_ms("pair") == pytest.approx([3.0])
    phase.reads_in_rounds = False
    assert phase.latencies_ms("pair") == pytest.approx([3.0, 7.0])
