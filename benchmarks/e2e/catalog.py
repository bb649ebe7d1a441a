"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root lists the same names; the
smoke test holds the two in step.
"""

from __future__ import annotations

from typing import Dict

#: Compute layers of one cold plan, named after the ``KERNEL_VERSIONS``
#: stages where one exists.
LAYERS = ("service_request.canonicalize", "deployment", "candidates",
          "cover", "bundles", "tsp", "stops", "anchor_opt", "evaluate",
          "serialize")

#: The timed run's metrics (``--trace 0``).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "server_instructions_per_request": "instructions",
    "energy_j_mean": "J",
    "server_rss_mb": "MiB",
}

#: What the timed run prints beside its metrics but leaves out of its
#: JSON: wall-clock times of a shared host, too unsteady to gate on.
UNGATED: Dict[str, str] = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_rps": "req/s",
}

#: The traced run's metrics (``--trace 1``).
PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.s_p50"] = "s"
    PER_LAYER[f"{_layer}.share"] = "ratio"
    PER_LAYER[f"{_layer}.instr_mean"] = "instructions"
PER_LAYER.update({
    "pipeline.s_p50": "s",
    "pipeline.instr_mean": "instructions",
    "pipeline.unattributed_s_p50": "s",
    "candidates.count_mean": "count",
    "candidates.kept_ratio": "ratio",
    "cover.bundles_mean": "count",
    "tsp.cities_mean": "count",
    "anchor_opt.sweeps_mean": "count",
    "anchor_opt.moves_per_attempt": "ratio",
    "anchor_opt.gain_ratio": "ratio",
    "delta_request.s_p50": "s",
    "delta_request.s_p90": "s",
    "delta_request.dirty_sensors_mean": "count",
    "delta_request.evicted_stops_mean": "count",
    "delta_request.full_fallback_ratio": "ratio",
    "delta_request.energy_ratio_max": "ratio",
    "service.queue_wait_s_p50": "s",
    "service.queue_wait_s_p90": "s",
    "service.batch_size_mean": "count",
    "service.handler_s_p50": "s",
    "service.http_s_p50": "s",
    "service.http_s_p99": "s",
    "cache.hit_ratio": "ratio",
    "cache.store_s_p50": "s",
    "loadgen.send_lag_s_p99": "s",
    "trace.overhead_s": "s",
    "client.latency_p50_s": "s",
    "client.latency_p99_s": "s",
})
del _layer
