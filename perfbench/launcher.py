"""Start ``repro serve`` with a span recorded around each layer's calls.

Usage::

    python3 perfbench/launcher.py SPANS.json serve [serve options...]

Before handing over to ``repro.cli.main``, the launcher wraps the
public calls into each layer of the serving stack (table below).  A
span is ``[name, id, parent, start_ns, end_ns, child_ns, items]``:
the parent is the innermost traced call open on the same thread,
``child_ns`` the time covered by the span's children — a layer's self
time is
``end - start - child_ns`` — and ``items`` the measurements or pairs
the call handled.  Spans stay in memory and are written to
``SPANS.json`` when the server stops: after Ctrl-C (SIGINT) returns
from ``main``, or from a SIGTERM handler that then dies of SIGTERM
exactly as the unwrapped server would.  Calls made inside worker
processes are not recorded here (a forked worker inherits the wrappers,
which then pass straight through); the benchmark reads those layers
from the program's own latency histograms, summarised in ``/stats``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import sys
import threading
import time
from typing import Callable, List, Optional, Union

_MAIN_PID = os.getpid()
_ids = itertools.count(1)
_local = threading.local()
_spans: List[list] = []
_dumped = threading.Lock()


def _items_first_array(args, kwargs) -> int:
    return len(args[1])


def _items_row(args, kwargs) -> int:
    targets = args[2] if len(args) > 2 else kwargs.get("targets")
    return len(targets) if targets is not None else int(args[0].n)


def wrap(owner, attr: str, name: Union[str, Callable],
         items: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` by a span-recording pass-through."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if os.getpid() != _MAIN_PID:
            return original(*args, **kwargs)
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        parent = stack[-1] if stack else None
        span_id = next(_ids)
        label = name(args) if callable(name) else name
        record = [label, span_id, parent[1] if parent else 0,
                  time.perf_counter_ns(), 0, 0,
                  items(args, kwargs) if items else 0]
        stack.append(record)
        try:
            return original(*args, **kwargs)
        finally:
            record[4] = time.perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent[5] += record[4] - record[3]
            _spans.append(record)

    setattr(owner, attr, traced)


def install() -> None:
    """Wrap the layer boundaries named in the benchmark's README."""
    from repro.core.engine import DMFSGDEngine
    from repro.experiments import common
    from repro.serving import shard
    from repro.serving.gateway import GatewayCore
    from repro.serving.guard import AdmissionGuard
    from repro.serving.ingest import IngestPipeline
    from repro.serving.plane import RoutedIngestBase
    from repro.serving.procs import ProcessShardedIngest, ProcessShardedStore
    from repro.serving.service import PredictionService

    wrap(common, "get_dataset", "datasets.build")
    wrap(DMFSGDEngine, "run", "engine.pretrain")
    wrap(DMFSGDEngine, "apply_measurements", "engine.apply",
         _items_first_array)
    wrap(AdmissionGuard, "admit", "guard.admit", _items_first_array)
    wrap(IngestPipeline, "submit_many", "ingest.submit", _items_first_array)
    wrap(IngestPipeline, "submit_valid", "ingest.submit", _items_first_array)
    # IngestPipeline.flush only loops over this per-batch flush, which
    # every applied batch goes through whether or not flush() is called
    wrap(IngestPipeline, "_flush_one_batch", "ingest.flush")
    wrap(RoutedIngestBase, "submit_many", "plane.submit", _items_first_array)
    # the shared engine lock is taken here; the self time of this span
    # (its duration minus the engine.apply inside) is the lock wait
    wrap(shard._SharedEngineProxy, "apply_measurements", "shard.locked_apply")
    wrap(shard.ShardedCoordinateStore, "publish_shard", "shard.publish")
    wrap(shard.ShardedSnapshot, "estimate_pairs", "shard.gather",
         _items_first_array)
    wrap(shard.ShardedSnapshot, "estimate_row", "shard.gather", _items_row)
    for method in ("predict_pair", "predict_from", "predict_pairs"):
        wrap(PredictionService, method, f"service.{method}")
    wrap(GatewayCore, "handle", lambda args: f"gateway.handle {args[2]}")
    # /refresh reaches the process plane's flush through publish()
    wrap(ProcessShardedIngest, "flush", "procs.flush")
    wrap(ProcessShardedIngest, "publish", "procs.flush")
    wrap(ProcessShardedStore, "snapshot", "procs.snapshot")


def dump(path: str) -> None:
    """Write every finished span once (later calls do nothing)."""
    if not _dumped.acquire(blocking=False):
        return
    with open(path + ".tmp", "w") as handle:
        json.dump(list(_spans), handle)
    os.replace(path + ".tmp", path)


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print("usage: launcher.py SPANS.json serve [options...]",
              file=sys.stderr)
        return 2
    path = argv[0]
    install()

    def on_term(signum, frame):
        if os.getpid() == _MAIN_PID:  # forked workers inherit the handler
            dump(path)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    signal.signal(signal.SIGTERM, on_term)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
