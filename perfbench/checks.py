"""Statistics and correctness checks computed apart from the program.

Nothing here calls into ``repro``: the AUC, the percentiles and the
counter identities are re-derived from what the server answered.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

import numpy as np

#: a tail percentile must have at least this many samples beyond it
TAIL_MIN_BEYOND = 10
#: ``/predict``, ``/predict_from`` and ``/estimate/batch`` gather the
#: same factors through different NumPy kernels, so their sums may be
#: ordered differently: they agree to rounding, not bitwise
AGREEMENT_TOL = 1e-12
#: floor on the served model's AUC (see README: Correctness checks)
AUC_FLOOR = 0.90


class CheckFailed(AssertionError):
    """A program output failed one of the benchmark's checks."""


def auc(scores: Sequence[float], positive: Sequence[bool]) -> float:
    """Area under the ROC curve by the rank-sum (Mann-Whitney) formula.

    Tied scores share the average of their ranks, so a tie between a
    positive and a negative counts one half.
    """
    scores = np.asarray(scores, dtype=float)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = int(positive.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    ranked = scores[order]
    ranks = np.empty(scores.size, dtype=float)
    # average rank (1-based) over each run of equal scores
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], ranked.size]
    average = (starts + ends + 1) / 2.0
    ranks[order] = np.repeat(average, ends - starts)
    rank_sum = ranks[positive].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` sorted samples lie above the percentile."""
    return count - math.ceil(count * percentile / 100.0)


def tail(samples: Sequence[float], percentile: float) -> float:
    """The ``percentile`` of ``samples``, refused without a real tail.

    A percentile with fewer than :data:`TAIL_MIN_BEYOND` samples beyond
    it is one or two unlucky requests, not a tail; asking for one is a
    benchmark design error, so it raises instead of returning noise.
    """
    beyond = samples_beyond(len(samples), percentile)
    if beyond < TAIL_MIN_BEYOND:
        raise ValueError(
            f"p{percentile:g} of {len(samples)} samples has {beyond} beyond "
            f"it; a tail needs at least {TAIL_MIN_BEYOND}"
        )
    return float(np.percentile(np.asarray(samples, dtype=float), percentile))


def median(samples: Sequence[float]) -> float:
    if not len(samples):
        raise ValueError("median of no samples")
    return float(np.median(np.asarray(samples, dtype=float)))


def label_of(estimate: float) -> int:
    """The class an estimate's sign stands for (zero counts as good)."""
    return -1 if estimate < 0 else 1


def check_pair_reply(reply: Dict, src: int, dst: int) -> None:
    """A single-pair answer names the pair and labels by the sign."""
    if reply.get("source") != src or reply.get("target") != dst:
        raise CheckFailed(f"/predict answered for the wrong pair: {reply}")
    estimate = reply.get("estimate")
    if not isinstance(estimate, float) or not math.isfinite(estimate):
        raise CheckFailed(f"/predict estimate is not a finite float: {reply}")
    if reply.get("label") != label_of(estimate):
        raise CheckFailed(f"/predict label disagrees with its sign: {reply}")
    if not isinstance(reply.get("version"), int) or reply["version"] < 1:
        raise CheckFailed(f"/predict version is not a positive int: {reply}")


def check_many_reply(reply: Dict, expected_len: int) -> List[float]:
    """A bulk answer has one finite estimate and one matching label each."""
    estimates = reply.get("estimates")
    labels = reply.get("labels")
    if not isinstance(estimates, list) or len(estimates) != expected_len:
        raise CheckFailed(
            f"bulk read returned {len(estimates or [])} estimates, "
            f"expected {expected_len}"
        )
    if not isinstance(labels, list) or len(labels) != expected_len:
        raise CheckFailed("bulk read labels do not align with its estimates")
    for estimate, label in zip(estimates, labels):
        if not isinstance(estimate, float) or not math.isfinite(estimate):
            raise CheckFailed(f"bulk read estimate {estimate!r} is not finite")
        if label != label_of(estimate):
            raise CheckFailed(
                f"bulk read label {label} disagrees with estimate {estimate}"
            )
    return estimates


def check_conservation(ingest: Dict, sent: int, accepted: int) -> None:
    """Every measurement posted is accounted for, once.

    ``received = accepted + dropped at the gateway`` (invalid, shed by
    backpressure, departed node) and, once ``/refresh`` has flushed the
    buffers, ``applied = accepted - dropped in the pipelines`` (guard
    rejections, duplicates averaged away, unclassifiable values).
    """
    if ingest["received"] != sent:
        raise CheckFailed(
            f"/stats received {ingest['received']} measurements, "
            f"the benchmark sent {sent}"
        )
    gateway_dropped = (
        ingest["dropped_backpressure"] + ingest["dropped_membership"]
    )
    # dropped_invalid also counts pipeline-side drops; our inputs are
    # all valid, so any invalid drop is a conservation failure anyway
    if sent != accepted + gateway_dropped + ingest["dropped_invalid"]:
        raise CheckFailed(
            f"received {sent} != accepted {accepted} + backpressure "
            f"{ingest['dropped_backpressure']} + membership "
            f"{ingest['dropped_membership']} + invalid "
            f"{ingest['dropped_invalid']}"
        )
    if ingest["buffered"] != 0:
        raise CheckFailed(f"{ingest['buffered']} measurements still buffered "
                          "after /refresh")
    pipeline_dropped = (
        ingest["rejected_guard"] + ingest["deduped"] + ingest["dropped_nan"]
    )
    if ingest["applied"] != accepted - pipeline_dropped:
        raise CheckFailed(
            f"applied {ingest['applied']} != accepted {accepted} - guard "
            f"{ingest['rejected_guard']} - deduped {ingest['deduped']} - "
            f"nan {ingest['dropped_nan']}"
        )


def check_agreement(
    single: Dict[tuple, Dict],
    rows: Iterable[Dict],
    batch: Dict,
) -> None:
    """The three read routes agree on the same pairs at one version.

    ``single`` maps ``(src, dst)`` to the ``/predict`` reply; ``rows``
    are ``/predict_from`` replies and ``batch`` one ``/estimate/batch``
    reply covering the same pairs.  Estimates must agree within
    :data:`AGREEMENT_TOL`, labels wherever an estimate is farther from
    zero than that, and every reply must carry the same version.
    """
    versions = {reply["version"] for reply in single.values()}
    by_route = {"/predict": {k: v["estimate"] for k, v in single.items()}}
    row_map = {}
    for reply in rows:
        versions.add(reply["version"])
        for target, estimate in zip(reply["targets"], reply["estimates"]):
            row_map[(reply["source"], target)] = estimate
    by_route["/predict_from"] = row_map
    versions.add(batch["version"])
    by_route["/estimate/batch"] = {
        (s, t): e
        for s, t, e in zip(batch["sources"], batch["targets"],
                           batch["estimates"])
    }
    if len(versions) != 1:
        raise CheckFailed(f"read routes answered at versions {versions}")
    reference = by_route["/predict"]
    for route, answers in by_route.items():
        if set(answers) != set(reference):
            raise CheckFailed(f"{route} answered a different pair set")
        for pair, estimate in answers.items():
            other = reference[pair]
            if abs(estimate - other) > AGREEMENT_TOL:
                raise CheckFailed(
                    f"{route} estimate {estimate!r} for {pair} differs from "
                    f"/predict's {other!r} by more than {AGREEMENT_TOL}"
                )
            if abs(other) > AGREEMENT_TOL and label_of(estimate) != label_of(
                other
            ):
                raise CheckFailed(f"{route} label for {pair} differs")
