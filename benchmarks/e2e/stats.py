"""Percentiles and the reconciliation arithmetic of the benchmark.

Pure functions over lists of floats, so the tests can pin them down
without a server.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Mapping, Sequence

#: A percentile is reported as supported only with at least this many
#: samples beyond it.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, linearly interpolated between ranks.

    Raises:
        ValueError: on an empty sample or ``q`` outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile level out of range: {q!r}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises ValueError on an empty sample."""
    if not values:
        raise ValueError("mean of an empty sample")
    return math.fsum(values) / len(values)


def tail_count(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    # Rounded so that e.g. 10000 samples beyond p99.9 count exactly 10.
    return round(n * (100.0 - q) / 100.0, 9)


def supported(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least MIN_TAIL beyond ``q``."""
    return tail_count(n, q) >= MIN_TAIL


def unattributed(layer_times: Mapping[str, float], wall: float) -> float:
    """Wall time that no layer's timed call accounts for."""
    return wall - math.fsum(layer_times.values())


def shares(layer_totals: Mapping[str, float],
           wall_total: float) -> Dict[str, float]:
    """Each layer's fraction of the summed pipeline wall time.

    Shares are taken over totals (not medians), so together with the
    unattributed fraction they add up to exactly one.
    """
    if wall_total <= 0.0:
        return {name: 0.0 for name in layer_totals}
    return {name: total / wall_total for name, total in layer_totals.items()}


def split_latency(client_s: float, server_s: float, queue_s: float,
                  compute_s: float) -> Dict[str, float]:
    """Split one client-observed latency across the serving layers.

    ``server_s`` is the access log's ``latency_s`` (handler entry to
    response sent); queue wait and compute are the scheduler's parts of
    it.  The four parts sum back to ``client_s``.
    """
    return {
        "http": client_s - server_s,
        "handler": server_s - queue_s - compute_s,
        "queue": queue_s,
        "compute": compute_s,
    }


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and spread of one metric over several runs.

    Quartiles are ``statistics.quantiles(values, n=4)`` (its default
    exclusive method) and ``spread`` is their distance as a share of
    the median: the rule a run-to-run stability check is judged by.
    """
    if len(values) < 2:
        raise ValueError("need at least two runs to summarize")
    q1, _, q3 = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return {
        "median": center,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(center) if center else 0.0,
        "runs": len(values),
    }
