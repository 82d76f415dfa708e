"""The traced run: per-layer metrics and the cost of tracing them.

One run with ``--trace 1`` serves the workload twice, one server after
the other, both with the main phase and the checks of the timed run but
without the extra launches: first through plain
``repro serve``, then through :mod:`launcher`, which records a span
around each layer's calls.  The difference between the two servers'
``read_p50_ms``, ``ingest_p50_ms`` and ``ingest_sps`` is the tracing
overhead.  Layers that run inside worker processes, where the launcher
records nothing, are read from the program's own latency histograms in
``/stats`` (``repro_ingest_queue_wait_seconds``,
``repro_ingest_apply_seconds``).  A layer a workload does not reach
reports 0.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import checks
from harness import Server
from workloads import (
    ROOT, Inputs, Phase, Tally, Truth, Workload, main_phase,
    quiesced_checks, stop,
)

HERE = Path(__file__).resolve().parent
#: scratch space for span files, inside the checkout (ignored by git)
RUN_DIR = ROOT / ".perfbench_run"

#: client request kind -> gateway route -> metric suffix
ROUTES = {
    "pair": ("/predict", "predict"),
    "row": ("/predict_from", "predict_from"),
    "batch": ("/estimate/batch", "estimate_batch"),
    "ingest": ("/ingest", "ingest"),
}

#: every per-layer metric with its unit, in BENCHMARK.json order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("datasets.build_s", "s"),
    ("engine.pretrain_s", "s"),
    ("engine.apply_calls", "count"),
    ("engine.apply_us", "us"),
    ("engine.apply_sps", "1/s"),
    ("guard.admit_us", "us"),
    ("guard.rejected", "count"),
    ("ingest.submit_us", "us"),
    ("ingest.flush_us", "us"),
    ("ingest.publishes", "count"),
    ("ingest.dedup_ratio", "1"),
    ("shard.enqueue_us", "us"),
    ("shard.queue_wait_us", "us"),
    ("shard.lock_wait_us", "us"),
    ("shard.backpressure_drops", "count"),
    ("shard.publish_us", "us"),
    ("shard.gather_us", "us"),
    ("shard.gather_pps", "1/s"),
    ("service.predict_pair_us", "us"),
    ("service.predict_from_us", "us"),
    ("service.predict_pairs_us", "us"),
    ("service.cache_hit_ratio", "1"),
    *((f"gateway.handle_us.{suffix}", "us") for _, suffix in ROUTES.values()),
    *((f"gateway.transport_us.{suffix}", "us")
      for _, suffix in ROUTES.values()),
    ("procs.submit_us", "us"),
    ("procs.flush_us", "us"),
    ("procs.snapshot_us", "us"),
    ("procs.worker_queue_wait_us", "us"),
    ("procs.worker_apply_us", "us"),
    ("procs.shutdown_orphans", "count"),
    ("loadgen.lag_ms", "ms"),
    ("loadgen.sent", "count"),
    ("trace.overhead_read_p50_ms", "ms"),
    ("trace.overhead_ingest_p50_ms", "ms"),
    ("trace.overhead_ingest_sps", "1/s"),
)


class Spans:
    """Finished spans grouped by name, with self times."""

    def __init__(self, raw: List[list], until_ns: float) -> None:
        self.total: Dict[str, List[int]] = defaultdict(list)
        self.self_ns: Dict[str, List[int]] = defaultdict(list)
        self.items: Dict[str, int] = defaultdict(int)
        self.setup: Dict[str, int] = defaultdict(int)
        for name, _id, _parent, start, end, child, items in raw:
            if name in ("datasets.build", "engine.pretrain"):
                self.setup[name] += end - start
                continue
            if start > until_ns:  # the checks after the main phase
                continue
            self.total[name].append(end - start)
            self.self_ns[name].append(end - start - child)
            self.items[name] += items

    def median_us(self, name: str, *, own: bool = True) -> float:
        values = (self.self_ns if own else self.total).get(name)
        return checks.median(values) / 1e3 if values else 0.0

    def rate(self, name: str) -> float:
        """Items handled per second of the layer's total span time."""
        busy = sum(self.total.get(name, ()))
        return self.items[name] / (busy / 1e9) if busy else 0.0


def _serve(workload: Workload, inputs: Inputs, tally: Tally, *,
           spans_path: Path = None) -> Tuple[Phase, int]:
    """One server through the main phase and the checks."""
    launcher = (str(HERE / "launcher.py"), str(spans_path)) if spans_path else None
    server = Server(ROOT, workload.serve_args, launcher=launcher)
    try:
        server.start()
        phase = main_phase(server, inputs, tally)
        quiesced_checks(server, inputs, phase, tally)
    except BaseException:
        server.kill()
        raise
    orphans_before = tally.known_failed
    stop(server, workload, tally)
    return phase, tally.known_failed - orphans_before


def _end_to_end(phase: Phase) -> Dict[str, float]:
    return {
        "read": checks.median(phase.latencies_ms("pair")),
        "ingest": checks.median(phase.latencies_ms("ingest")),
        "sps": phase.ingest_sps,
    }


def per_layer(workload: Workload, phase: Phase, spans: Spans,
              orphans: int) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced server."""
    stats = phase.stats
    ingest = stats["ingest"]
    service = stats["service"]
    obs = stats.get("obs", {})
    processes = "processes" in workload.serve_args

    def histogram_p50_us(family: str) -> float:
        return float(obs.get(family, {}).get("p50", 0.0)) * 1e6

    values: Dict[str, float] = {
        "datasets.build_s": spans.setup["datasets.build"] / 1e9,
        "engine.pretrain_s": spans.setup["engine.pretrain"] / 1e9,
        "guard.admit_us": spans.median_us("guard.admit", own=False),
        "guard.rejected": ingest["rejected_guard"],
        "ingest.submit_us": spans.median_us("ingest.submit"),
        "ingest.flush_us": spans.median_us("ingest.flush"),
        "ingest.publishes": ingest["publishes"],
        "ingest.dedup_ratio": ingest["deduped"] / max(1, ingest["received"]),
        "shard.backpressure_drops": ingest["dropped_backpressure"],
        "shard.lock_wait_us": spans.median_us("shard.locked_apply"),
        "shard.publish_us": spans.median_us("shard.publish", own=False),
        "shard.gather_us": spans.median_us("shard.gather", own=False),
        "shard.gather_pps": spans.rate("shard.gather"),
        "service.predict_pair_us": spans.median_us("service.predict_pair"),
        "service.predict_from_us": spans.median_us("service.predict_from"),
        "service.predict_pairs_us": spans.median_us("service.predict_pairs"),
        "service.cache_hit_ratio": service["cache_hits"] / max(
            1, service["cache_hits"] + service["cache_misses"]),
        "procs.flush_us": spans.median_us("procs.flush", own=False),
        "procs.snapshot_us": spans.median_us("procs.snapshot", own=False),
        "procs.shutdown_orphans": orphans,
    }
    if processes:
        # the SGD apply runs in the workers: read it from their
        # histograms, which span dequeue to applied for each batch
        apply_p50 = histogram_p50_us("repro_ingest_apply_seconds")
        apply_sum = float(obs.get("repro_ingest_apply_seconds", {})
                          .get("sum_seconds", 0.0))
        values.update({
            "engine.apply_calls": ingest["batches"],
            "engine.apply_us": apply_p50,
            "engine.apply_sps": ingest["applied"] / apply_sum if apply_sum
            else 0.0,
            "shard.enqueue_us": 0.0,
            "shard.queue_wait_us": 0.0,
            "procs.submit_us": spans.median_us("plane.submit"),
            "procs.worker_queue_wait_us": histogram_p50_us(
                "repro_ingest_queue_wait_seconds"),
            "procs.worker_apply_us": apply_p50,
        })
    else:
        values.update({
            "engine.apply_calls": len(spans.total.get("engine.apply", ())),
            "engine.apply_us": spans.median_us("engine.apply"),
            "engine.apply_sps": spans.rate("engine.apply"),
            "shard.enqueue_us": spans.median_us("plane.submit"),
            "shard.queue_wait_us": histogram_p50_us(
                "repro_ingest_queue_wait_seconds"),
            "procs.submit_us": 0.0,
            "procs.worker_queue_wait_us": 0.0,
            "procs.worker_apply_us": 0.0,
        })
    for kind, (route, suffix) in ROUTES.items():
        handle = f"gateway.handle {route}"
        observed = phase.latencies_ms(kind, since_send=True)
        values[f"gateway.handle_us.{suffix}"] = spans.median_us(handle)
        values[f"gateway.transport_us.{suffix}"] = (
            checks.median(observed) * 1e3 - spans.median_us(handle, own=False)
            if observed and handle in spans.total else 0.0
        )
    lags = [o.lag_s * 1e3 for o in phase.outcomes if o.lag_s]
    values["loadgen.lag_ms"] = checks.tail(lags, 99) if len(lags) >= 1000 \
        else (max(lags) if lags else 0.0)
    values["loadgen.sent"] = len(phase.outcomes)
    return values


def run_traced(workload: Workload, seed: int, seconds: float
               ) -> Tuple[Dict, Tally, Dict]:
    truth = Truth.build()
    inputs = Inputs(workload, seed, seconds, truth)
    tally = Tally()
    plain, _ = _serve(workload, inputs, tally)
    RUN_DIR.mkdir(exist_ok=True)
    spans_path = RUN_DIR / f"spans-{os.getpid()}.json"
    try:
        traced, orphans = _serve(workload, inputs, tally,
                                 spans_path=spans_path)
        raw = json.loads(spans_path.read_text())
    finally:
        spans_path.unlink(missing_ok=True)
    spans = Spans(raw, until_ns=traced.refreshed * 1e9)
    values = per_layer(workload, traced, spans, orphans)
    untraced, with_trace = _end_to_end(plain), _end_to_end(traced)
    values["trace.overhead_read_p50_ms"] = with_trace["read"] - untraced["read"]
    values["trace.overhead_ingest_p50_ms"] = (
        with_trace["ingest"] - untraced["ingest"])
    values["trace.overhead_ingest_sps"] = with_trace["sps"] - untraced["sps"]
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in PER_LAYER}
    detail = {"untraced": untraced, "traced": with_trace,
              "spans": sum(len(v) for v in spans.total.values())}
    return metrics, tally, detail
