"""The three workloads: their inputs, their traffic and their metrics.

Every workload serves the Meridian twin of :data:`NODES` nodes built
with the fixed :data:`DATASET_SEED`; the workload seed (``--seed``)
only draws the requests.  All request bytes are rendered before the
clock starts.  See README.md for why each workload exists and which
layer it loads.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks
import harness
import loadgen
from harness import HOST, Server

ROOT = Path(__file__).resolve().parent.parent
DATASET = "meridian"
NODES = 2000
DATASET_SEED = 20111206
NEIGHBORS = 32  # the paper's k for Meridian
#: the paper's convergence point: 20 k measurements per node
FEED_TOTAL = 20 * NEIGHBORS * NODES
FEED_BATCH = 256
ROW_TARGETS = 64  # candidate peers per /predict_from
BATCH_PAIRS = 256  # pairs per /estimate/batch
TRICKLE_BATCH = 32  # measurements per /ingest in peer_select
#: Zipf exponent of per-node activity in the skewed reads, as in the
#: passive-trace model of repro.datasets.harvard
ACTIVITY_EXPONENT = 0.7
#: posts at the head of the feed that are sent, and drained with
#: ``/refresh``, before timing starts: the first requests a fresh
#: server handles pay for cold code paths and thread start-up
WARMUP_POSTS = 250
#: the timed feed is posted in this many rounds, each closed by
#: ``/refresh``; the feeds' metrics come from the half of them in which
#: the hypervisor stole least (README: Warm-up and quiet rounds)
FEED_ROUNDS = 16
#: a pooled reader's pause after each reply: shorter than the 40 ms
#: delayed-ACK timeout, as for a client with steady traffic
THINK_S = 0.010
#: launches per run; setup_s is their median
SETUPS = 3
AUC_ROWS = tuple(range(0, NODES, 20))  # sources of the AUC sample
AGREEMENT_SOURCES = 3
AGREEMENT_TARGETS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    serve_args: Tuple[str, ...]
    stop_signal: int
    #: requests per second of the main phase and their kinds (one
    #: cycle, shuffled per cycle)
    rate: float
    cycle: Tuple[str, ...]
    #: the schedule lasts this many times --seconds; beside a feed,
    #: open-loop reads stop when the feed ends, pooled reads all go out
    span: float
    #: open loop on fresh connections from this many threads, or (0) a
    #: pooled reader on one persistent connection
    threads: int
    skewed: bool  # single reads weighted by per-node activity
    feed: bool  # a closed-loop feeder posts the whole FEED_TOTAL
    #: reads count in the read metrics only if sent within the feed's
    #: quiet rounds (the rest are still checked)
    reads_in_rounds: bool
    read_tail: float  # percentile reported as read_tail_ms
    ingest_tail: float  # percentile reported as ingest_tail_ms


_SERVE = ("--dataset", DATASET, "--nodes", str(NODES),
          "--seed", str(DATASET_SEED))
#: the feeds run the admission guard: a sigma-rule outlier filter
_FEED = _SERVE + ("--rounds", "0", "--outlier-sigma", "8")

WORKLOADS: Dict[str, Workload] = {
    "peer_select": Workload(
        name="peer_select",
        serve_args=_SERVE + ("--shards", "4"),
        stop_signal=signal.SIGINT,
        rate=300.0,
        cycle=("pair",) * 15 + ("row", "row", "batch", "ingest", "ingest"),
        span=1.0,
        threads=2,
        skewed=True,
        feed=False,
        reads_in_rounds=False,
        read_tail=75.0,
        ingest_tail=75.0,
    ),
    "probe_feed": Workload(
        name="probe_feed",
        serve_args=_FEED + ("--shards", "4"),
        stop_signal=signal.SIGINT,
        rate=100.0,
        cycle=("pair",) * 7 + ("row", "row", "batch"),
        span=6.0,
        threads=1,
        skewed=False,
        feed=True,
        reads_in_rounds=True,
        read_tail=75.0,
        ingest_tail=75.0,
    ),
    "procs_feed": Workload(
        name="procs_feed",
        serve_args=_FEED + ("--shards", "2", "--workers", "processes"),
        stop_signal=signal.SIGTERM,
        rate=10.0,
        cycle=("pair",) * 7 + ("row", "row", "batch"),
        span=2.0,
        threads=0,
        skewed=False,
        feed=True,
        # the pooled reads time the transport, whatever the load
        reads_in_rounds=False,
        read_tail=90.0,
        ingest_tail=95.0,
    ),
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


@dataclass
class Truth:
    """The served dataset's observed quantities and their classes."""

    quantities: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    tau: float

    @classmethod
    def build(cls) -> "Truth":
        from repro.experiments.common import get_dataset

        data = get_dataset(DATASET, n_hosts=NODES, seed=DATASET_SEED)
        quantities = np.asarray(data.quantities, dtype=float)
        mask = np.isfinite(quantities)
        np.fill_diagonal(mask, False)
        rows, cols = np.nonzero(mask)
        values = quantities[rows, cols]
        # the serving threshold: the median of the observed quantities
        return cls(quantities, rows, cols, values, float(np.median(values)))


def _pair_request(src: int, dst: int, keep_alive: bool) -> bytes:
    return loadgen.render("GET", f"/predict?src={src}&dst={dst}",
                          keep_alive=keep_alive)


def _row_request(src: int, targets: Sequence[int], keep_alive: bool) -> bytes:
    joined = ",".join(str(t) for t in targets)
    return loadgen.render("GET", f"/predict_from?src={src}&targets={joined}",
                          keep_alive=keep_alive)


def _batch_request(pairs: Sequence[Tuple[int, int]], keep_alive: bool) -> bytes:
    body = json.dumps({"pairs": [[int(s), int(t)] for s, t in pairs]})
    return loadgen.render("POST", "/estimate/batch", body.encode(),
                          keep_alive=keep_alive)


def _ingest_request(src, dst, values, keep_alive: bool = False) -> bytes:
    triples = ",".join(
        f"[{s},{d},{v:.4f}]" for s, d, v in zip(src.tolist(), dst.tolist(),
                                               values.tolist())
    )
    body = ('{"measurements": [' + triples + "]}").encode()
    return loadgen.render("POST", "/ingest", body, keep_alive=keep_alive)


class Inputs:
    """Everything one run sends, drawn from the workload seed."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 truth: Truth) -> None:
        self.workload = workload
        self.truth = truth
        rng = np.random.default_rng(seed)
        self.rng = rng
        observed = truth.values.size
        # the skewed reads follow the per-node activity model of
        # repro.datasets.harvard (the paper's footnote 4): activity is
        # Zipf over the nodes in a seeded order, and a pair's weight is
        # the product of its endpoints' activities
        if workload.skewed:
            activity = 1.0 / np.arange(1, NODES + 1) ** ACTIVITY_EXPONENT
            rng.shuffle(activity)
            weights = activity[truth.rows] * activity[truth.cols]
            self.pair_cdf = np.cumsum(weights / weights.sum())
        self.main = self._schedule(workload.rate, seconds * workload.span,
                                   workload.cycle,
                                   keep_alive=not workload.threads)
        self.feed: List[bytes] = []
        if workload.feed:
            picks = rng.integers(0, observed, FEED_TOTAL)
            for start in range(0, FEED_TOTAL, FEED_BATCH):
                chunk = picks[start:start + FEED_BATCH]
                self.feed.append(_ingest_request(
                    truth.rows[chunk], truth.cols[chunk], truth.values[chunk]
                ))
        # the agreement check's pairs: a few sources, observed targets
        self.agreement: List[Tuple[int, int]] = []
        for src in rng.choice(NODES, AGREEMENT_SOURCES, replace=False):
            targets = truth.cols[truth.rows == src]
            for dst in rng.choice(targets, AGREEMENT_TARGETS, replace=False):
                self.agreement.append((int(src), int(dst)))

    def _pair(self) -> Tuple[int, int]:
        if self.workload.skewed:
            index = min(int(np.searchsorted(self.pair_cdf, self.rng.random())),
                        self.pair_cdf.size - 1)
        else:
            index = self.rng.integers(0, self.truth.values.size)
        return int(self.truth.rows[index]), int(self.truth.cols[index])

    def _schedule(self, rate: float, seconds: float, cycle: Sequence[str],
                  keep_alive: bool = False) -> List[loadgen.Scheduled]:
        rng = self.rng
        offsets = loadgen.uniform_schedule(rate, seconds)
        kinds: List[str] = []
        while len(kinds) < len(offsets):
            kinds.extend(rng.permutation(cycle).tolist())
        schedule = []
        for due, kind in zip(offsets, kinds):
            if kind == "pair":
                src, dst = self._pair()
                request, tag = _pair_request(src, dst, keep_alive), (src, dst)
            elif kind == "row":
                src = int(rng.integers(0, NODES))
                others = np.delete(np.arange(NODES), src)
                targets = rng.choice(others, ROW_TARGETS, replace=False)
                request = _row_request(src, targets.tolist(), keep_alive)
                tag = (src, ROW_TARGETS)
            elif kind == "batch":
                picks = rng.integers(0, self.truth.values.size, BATCH_PAIRS)
                pairs = list(zip(self.truth.rows[picks].tolist(),
                                 self.truth.cols[picks].tolist()))
                request, tag = _batch_request(pairs, keep_alive), BATCH_PAIRS
            else:  # ingest
                picks = rng.integers(0, self.truth.values.size, TRICKLE_BATCH)
                request = _ingest_request(
                    self.truth.rows[picks], self.truth.cols[picks],
                    self.truth.values[picks], keep_alive,
                )
                tag = TRICKLE_BATCH
            schedule.append(loadgen.Scheduled(due, kind, request, tag))
        return schedule


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with the first failures kept."""

    attempted: int = 0
    failed: int = 0
    #: failures of the program's known fault (README: Faults) — counted
    #: in ``failed`` but not held against ``correct``
    known_failed: int = 0
    messages: List[str] = field(default_factory=list)

    def op(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def add(self, attempted: int, failed: int, message: str,
            known: bool = False) -> None:
        self.attempted += attempted
        self.failed += failed
        if known:
            self.known_failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == self.known_failed


def validate(outcome: loadgen.Outcome, tally: Tally) -> Optional[Dict]:
    """Check one reply as one operation; returns the parsed payload.

    The payload is returned even when a check failed (``None`` only
    when there is no JSON object to return), so that the counts in an
    ``/ingest`` reply that shed measurements still reach the
    conservation check.
    """
    where = f"{outcome.kind} request"
    if outcome.error is not None or outcome.status != 200:
        tally.op(False, f"{where}: status {outcome.status} {outcome.error}")
        return None
    try:
        reply = json.loads(outcome.body)
    except ValueError as exc:
        tally.op(False, f"{where}: {exc}")
        return None
    try:
        if outcome.kind == "pair":
            checks.check_pair_reply(reply, *outcome.tag)
        elif outcome.kind == "row":
            if reply.get("source") != outcome.tag[0]:
                raise checks.CheckFailed(f"/predict_from answered {reply}")
            checks.check_many_reply(reply, outcome.tag[1])
        elif outcome.kind == "batch":
            checks.check_many_reply(reply, outcome.tag)
        elif outcome.kind == "ingest":
            if reply["received"] != outcome.tag:
                raise checks.CheckFailed(
                    f"/ingest received {reply['received']} of {outcome.tag}")
            if reply["accepted"] != reply["received"]:
                raise checks.CheckFailed(
                    f"/ingest accepted {reply['accepted']} of "
                    f"{reply['received']} (shed by backpressure)"
                )
    except (ValueError, KeyError, TypeError, AttributeError,
            checks.CheckFailed) as exc:
        tally.op(False, f"{where}: {exc}")
        return reply
    tally.op(True)
    return reply


def latencies_ms(outcomes: Sequence[loadgen.Outcome], *kinds: str,
                 since_send: bool = False) -> List[float]:
    """Latency of each completed request of the given kinds, in ms."""
    return [
        ((o.latency_s - o.lag_s) if since_send else o.latency_s) * 1e3
        for o in outcomes
        if o.kind in kinds and o.error is None
    ]


# ----------------------------------------------------------------------
# one server's run
# ----------------------------------------------------------------------


@dataclass
class Round:
    """One round of the timed feed: posts, then ``/refresh``."""

    start: float  # when its first post went out
    refreshed: float  # when its closing /refresh returned
    applied: int  # measurements applied in the round
    steal: float  # the hypervisor's share of the machine's time


@dataclass
class Phase:
    """What the main phase of one server produced."""

    outcomes: List[loadgen.Outcome]  # the timed traffic
    rounds: List[Round]  # empty without a feed
    sent: int  # measurements posted, warm-up included
    accepted: int
    first_post: float
    refreshed: float
    applied: int  # measurements applied since the warm-up
    stats: Dict
    reads_in_rounds: bool

    @property
    def quiet(self) -> List[Round]:
        """The half of the rounds in which the hypervisor stole least."""
        return sorted(self.rounds, key=lambda r: r.steal)[:len(self.rounds) // 2]

    def latencies_ms(self, *kinds: str, since_send: bool = False
                     ) -> List[float]:
        """:func:`latencies_ms` of the timed traffic.

        With a feed, posts count only within its quiet rounds, and so do
        reads if the workload says so.
        """
        outcomes = self.outcomes
        if self.rounds:
            quiet = self.quiet
            outcomes = [
                o for o in outcomes
                if (o.kind != "ingest" and not self.reads_in_rounds)
                or any(r.start <= o.sent_at < r.refreshed for r in quiet)
            ]
        return latencies_ms(outcomes, *kinds, since_send=since_send)

    @property
    def ingest_sps(self) -> float:
        if not self.rounds:
            return self.applied / (self.refreshed - self.first_post)
        quiet = self.quiet
        return (sum(r.applied for r in quiet)
                / sum(r.refreshed - r.start for r in quiet))


def _feed_rounds(server: Server, feed: Sequence[bytes]
                 ) -> Tuple[List[loadgen.Outcome], List[Round]]:
    outcomes: List[loadgen.Outcome] = []
    rounds: List[Round] = []
    applied = server.get("/stats")["ingest"]["applied"]
    for chunk in np.array_split(np.arange(len(feed)), FEED_ROUNDS):
        cpu_before = harness.cpu_times()
        posted = loadgen.closed_loop(HOST, server.port, "ingest",
                                     [feed[i] for i in chunk])
        server.post("/refresh")
        refreshed = time.perf_counter()
        _, steal, total = (after - before for after, before in
                           zip(harness.cpu_times(), cpu_before))
        now = server.get("/stats")["ingest"]["applied"]
        rounds.append(Round(posted[0].sent_at, refreshed, now - applied,
                            steal / max(total, 1)))
        applied = now
        outcomes.extend(posted)
    return outcomes, rounds


def main_phase(server: Server, inputs: Inputs, tally: Tally) -> Phase:
    """Warm up, drive the workload's main traffic, quiesce with /refresh."""
    workload = inputs.workload
    feed = inputs.feed
    warmup: List[loadgen.Outcome] = []
    if feed:
        warmup = loadgen.closed_loop(HOST, server.port, "ingest",
                                     feed[:WARMUP_POSTS])
        server.post("/refresh")
        feed = feed[WARMUP_POSTS:]
    applied_before = server.get("/stats")["ingest"]["applied"]
    feed_out: Dict[str, object] = {}
    fed = threading.Event()

    def feeder() -> None:
        try:
            feed_out["outcomes"], feed_out["rounds"] = _feed_rounds(server,
                                                                    feed)
        finally:
            fed.set()

    thread = None
    if workload.feed:
        thread = threading.Thread(target=feeder, name="loadgen-feeder")
        thread.start()
    if workload.threads:
        outcomes = loadgen.open_loop(HOST, server.port, inputs.main,
                                     threads=workload.threads,
                                     stop=fed if workload.feed else None)
    else:
        outcomes = loadgen.pooled_loop(HOST, server.port, inputs.main,
                                       THINK_S)
    if thread is not None:
        thread.join()
        for outcome in warmup + feed_out["outcomes"]:
            outcome.tag = FEED_BATCH
        outcomes = outcomes + feed_out["outcomes"]
        rounds = feed_out["rounds"]
        refreshed = rounds[-1].refreshed
    else:
        server.post("/refresh")
        refreshed = time.perf_counter()
        rounds = []
    first_post = min(o.sent_at for o in outcomes if o.kind == "ingest")
    sent = accepted = 0
    for outcome in warmup + outcomes:
        reply = validate(outcome, tally)
        if outcome.kind == "ingest":
            sent += outcome.tag
            if isinstance(reply, dict):
                accepted += int(reply.get("accepted", 0))
    stats = server.get("/stats")
    applied = stats["ingest"]["applied"] - applied_before
    return Phase(outcomes, rounds, sent, accepted, first_post,
                 refreshed, applied, stats, workload.reads_in_rounds)


def quiesced_checks(server: Server, inputs: Inputs, phase: Phase,
                    tally: Tally) -> float:
    """Counter conservation, route agreement and the AUC floor.

    Returns the served model's AUC over the :data:`AUC_ROWS` sample.
    """
    try:
        ingest = phase.stats["ingest"]
        if ingest.get("worker_errors"):
            raise checks.CheckFailed(f"worker errors: {ingest['worker_errors']}")
        checks.check_conservation(ingest, phase.sent, phase.accepted)
        tally.op(True)
    except checks.CheckFailed as exc:
        tally.op(False, f"conservation: {exc}")
    pairs = inputs.agreement
    try:
        single = {pair: server.get(f"/predict?src={pair[0]}&dst={pair[1]}")
                  for pair in pairs}
        rows = []
        for src in sorted({s for s, _ in pairs}):
            targets = ",".join(str(d) for s, d in pairs if s == src)
            rows.append(server.get(f"/predict_from?src={src}&targets={targets}"))
        batch = server.post("/estimate/batch",
                            {"pairs": [list(pair) for pair in pairs]})
        checks.check_agreement(single, rows, batch)
        tally.op(True)
    except (checks.CheckFailed, harness.ServerError) as exc:
        tally.op(False, f"agreement: {exc}")
    truth = inputs.truth
    scores, good = [], []
    for src in AUC_ROWS:
        reply = server.get(f"/predict_from?src={src}")
        estimates = np.array([np.nan if e is None else e
                              for e in reply["estimates"]])
        observed = np.isfinite(truth.quantities[src])
        observed[src] = False
        scores.append(estimates[observed])
        good.append(truth.quantities[src][observed] < truth.tau)
    scores_all = np.concatenate(scores)
    value = checks.auc(scores_all, np.concatenate(good))
    finite = bool(np.isfinite(scores_all).all())
    tally.op(finite and value >= checks.AUC_FLOOR,
             f"model AUC {value:.4f} below the floor {checks.AUC_FLOOR} "
             f"(finite estimates: {finite})")
    return value


def stop(server: Server, workload: Workload, tally: Tally) -> None:
    attempted, failed = server.stop(workload.stop_signal)
    how = signal.Signals(workload.stop_signal).name
    # an orphaned worker after SIGTERM is the program's known fault
    tally.add(attempted, failed,
              f"shutdown: {failed} of {attempted} did not end after {how}",
              known=workload.stop_signal == signal.SIGTERM)


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------


def _percentiles(samples: Sequence[float]) -> Dict[str, float]:
    values = np.percentile(np.asarray(samples), [50, 75, 90, 95, 99])
    return {f"p{q}": round(float(v), 4)
            for q, v in zip((50, 75, 90, 95, 99), values)}


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def _round_detail(phase: Phase, round_: Round) -> List[float]:
    """A round's steal share, ``ingest_sps``, read p50 and p75, ingest
    p50 and p75, and its number of reads (standard error's detail)."""
    inside = [o for o in phase.outcomes
              if round_.start <= o.sent_at < round_.refreshed]
    reads = latencies_ms(inside, "pair")
    ingests = latencies_ms(inside, "ingest")
    duration = round_.refreshed - round_.start
    return [round(v, 4) for v in (
        round_.steal, round_.applied / duration,
        *(np.percentile(reads, [50, 75]) if reads else (0, 0)),
        *np.percentile(ingests, [50, 75]))] + [len(reads)]


def run_timed(workload: Workload, seed: int, seconds: float
              ) -> Tuple[Dict, Tally, Dict]:
    """The untraced run: every end-to-end metric."""
    truth = Truth.build()
    inputs = Inputs(workload, seed, seconds, truth)
    tally = Tally()
    cpu_before = harness.cpu_times()
    setups = []
    for _ in range(SETUPS - 1):
        server = Server(ROOT, workload.serve_args)
        setups.append(server.start())
        stop(server, workload, tally)
    server = Server(ROOT, workload.serve_args)
    try:
        setups.append(server.start())
        phase = main_phase(server, inputs, tally)
        model_auc = quiesced_checks(server, inputs, phase, tally)
        rss = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    stop(server, workload, tally)
    reads = phase.latencies_ms("pair")
    ingests = phase.latencies_ms("ingest")
    metrics = {
        "setup_s": _metric(checks.median(setups), "s"),
        "read_p50_ms": _metric(checks.median(reads), "ms"),
        "read_tail_ms": _metric(checks.tail(reads, workload.read_tail), "ms"),
        "bulk_read_p50_ms": _metric(
            checks.median(phase.latencies_ms("row", "batch")), "ms"),
        "ingest_p50_ms": _metric(checks.median(ingests), "ms"),
        "ingest_tail_ms": _metric(
            checks.tail(ingests, workload.ingest_tail), "ms"),
        "ingest_sps": _metric(phase.ingest_sps, "1/s"),
        "model_auc": _metric(model_auc, "1"),
        "rss_mb": _metric(rss, "MiB"),
    }
    busy, steal, total = (after - before for after, before in
                          zip(harness.cpu_times(), cpu_before))
    detail = {"setups_s": setups,
              "cpu_busy": round(busy / total, 3),
              "cpu_steal": round(steal / total, 4),
              "samples": {"read": len(reads), "ingest": len(ingests)},
              "read_pcts": _percentiles(reads),
              "ingest_pcts": _percentiles(ingests),
              "rounds": [_round_detail(phase, r) for r in phase.rounds]}
    return metrics, tally, detail
