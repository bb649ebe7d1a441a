"""Seeded inputs of the end-to-end benchmark's four workloads.

Every body the server sees is generated here from ``(workload, seed)``:
the deployment seeds of every plan request, the Zipf draws of the warm
mix and the drift moves of the delta chain (whose sessions are planned
from :data:`SESSION_SEED`).  The same seed always yields the same
bodies, and the server never receives anything else.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

REQUEST_SCHEMA = "bundle-charging/request/v1"
DELTA_SCHEMA = "bundle-charging/delta-request/v1"


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the plan requests it is built from.

    Attributes:
        name: workload name, as passed to ``--workload``.
        planner / n / field_side_m / radius_m: the shape of every plan
            request of the workload (for ``delta_dense``, of the session
            plans the drifts are applied to).
    """

    name: str
    planner: str
    n: int
    field_side_m: float
    radius_m: float


WORKLOADS: Dict[str, Workload] = {
    # Why each workload exists: BENCHMARK.json and README.md.
    "plan_sparse": Workload("plan_sparse", "BC", 1000, 1000.0, 20.0),
    "plan_opt": Workload("plan_opt", "BC-OPT", 600, 150.0, 10.0),
    "delta_dense": Workload("delta_dense", "BC-OPT", 1000, 100.0, 10.0),
    "warm_zipf": Workload("warm_zipf", "BC", 300, 1000.0, 20.0),
}

#: Open-loop shape of ``warm_zipf``.  At 25 req/s the server idles
#: between hits, so every hit pays the same wake-up cost and p50/p90
#: repeat within ~6% between runs.  At 50-100 req/s runs flip between
#: an idle and a busy regime (p50 2.1 vs 3.2 ms, spread 0.13-0.34), and
#: from 100 req/s two senders back up behind the server's 30-70 ms GC
#: pauses.
WARM_RATE_RPS = 25.0
WARM_ZIPF_S = 1.1
WARM_SENDERS = 2

#: Largest drift of one ``delta_dense`` move, per axis.
DRIFT_STEP_M = 5.0

#: ``delta_dense`` plans its sessions from this seed whatever ``--seed``
#: is; the seed draws the drift chain.  The mean repair cost of one dense
#: deployment differs from another's by up to ~15%, which over four
#: sessions would make every seed measure a different workload
#: (instructions per request spread 0.09 over ten seeds with seeded
#: sessions, 0.05 with these).
SESSION_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Counts of one run; ``--smoke`` shrinks them, never the shapes.

    Attributes:
        setup_cycles: server spawn -> first ``/healthz`` cycles whose
            median is ``setup_s``.
        prefix: requests after which ``server_rss_mb`` is read and over
            which ``energy_j_mean`` is taken (fixed, so neither grows
            with throughput); the timed phase runs at least this long.
        split_requests: plan requests rebuilt in-process for the
            per-layer compute split.
        sessions: ``delta_dense`` sessions the drifts rotate over.
        warm_pool: distinct requests of the ``warm_zipf`` pool.
        trace_drifts: drifts replayed (and repaired in-process) by a
            traced ``delta_dense`` run.
        ratio_repairs: evenly spaced repairs compared with a full
            replan for ``delta_request.energy_ratio_max``.
        trace_arrivals: open-loop arrivals replayed by a traced
            ``warm_zipf`` run.
        counted: per workload, the requests over which the server's
            instructions are counted: the first ones of a closed loop
            (which runs at least this long), or a closed-loop replay of
            the first arrivals of the open loop.  Fixed, so the count
            does not depend on how fast the host runs.
    """

    setup_cycles: int
    prefix: int
    split_requests: int
    sessions: int
    warm_pool: int
    trace_drifts: int
    ratio_repairs: int
    trace_arrivals: int
    counted: Dict[str, int]


# One request's instructions vary between inputs by ~8% (plan_sparse),
# ~14% (plan_opt) and ~65% (one drift); with these counts their mean
# spreads 0.01-0.03 (plans) and ~0.05 (drifts) over ten seeds.
FULL = Sizes(setup_cycles=7, prefix=32, split_requests=20, sessions=4,
             warm_pool=64, trace_drifts=150, ratio_repairs=10,
             trace_arrivals=1000,
             counted={"plan_sparse": 32, "plan_opt": 48,
                      "delta_dense": 480, "warm_zipf": 500})
SMOKE = Sizes(setup_cycles=2, prefix=3, split_requests=2, sessions=1,
              warm_pool=6, trace_drifts=6, ratio_repairs=1,
              trace_arrivals=60,
              counted={"plan_sparse": 3, "plan_opt": 3, "delta_dense": 6,
                       "warm_zipf": 20})


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # String seeding is hash-randomization-free, so streams repeat
    # across processes; one stream per purpose keeps them independent.
    return random.Random(f"e2e/{workload}/{seed}/{stream}")


def plan_body(workload: Workload, seed: int, index: int) -> Dict[str, Any]:
    """Return plan request ``index`` of ``workload`` under ``seed``.

    Deployment seeds are consecutive from a seeded base, so every index
    names a distinct deployment (a cold request) and the stream can be
    extended lazily for as long as a timed phase runs.
    """
    base = _rng(workload.name, seed, "deployments").randrange(1, 2 ** 40)
    return {
        "schema": REQUEST_SCHEMA,
        "deployment": {"kind": "uniform", "n": workload.n,
                       "seed": base + index,
                       "field_side_m": workload.field_side_m},
        "planner": workload.planner,
        "radius_m": workload.radius_m,
    }


def plan_bodies(workload: Workload, seed: int,
                count: int) -> List[Dict[str, Any]]:
    """The first ``count`` plan requests of ``workload``."""
    return [plan_body(workload, seed, index) for index in range(count)]


def encode(body: Dict[str, Any]) -> bytes:
    """Serialize a request body for the wire."""
    return json.dumps(body, sort_keys=True).encode("utf-8")


def zipf_draws(seed: int, pool: int, count: int,
               s: float = WARM_ZIPF_S) -> List[int]:
    """Draw ``count`` pool indices; rank ``k`` has weight ``1/(k+1)**s``."""
    cumulative: List[float] = []
    running = 0.0
    for rank in range(pool):
        running += 1.0 / (rank + 1) ** s
        cumulative.append(running)
    rng = _rng("warm_zipf", seed, "zipf")
    return [min(bisect.bisect_left(cumulative, rng.random() * running),
                pool - 1)
            for _ in range(count)]


def arrival_offsets(count: int, rate_rps: float = WARM_RATE_RPS
                    ) -> List[float]:
    """Constant-rate open-loop schedule: arrival ``k`` is due at k/rate."""
    return [index / rate_rps for index in range(count)]


class DriftStream:
    """Chained ``sensor_moved`` drifts, round-robin over sessions.

    Each move displaces one seeded sensor of the next session by up to
    ``step_m`` per axis, clamped to the field, starting from where the
    previous moves left it; the caller pairs each record with the
    latest successor handle of its session.
    """

    def __init__(self, seed: int,
                 positions: Sequence[Sequence[Tuple[float, float]]],
                 field_side_m: float, step_m: float = DRIFT_STEP_M
                 ) -> None:
        self._rng = _rng("delta_dense", seed, "drift")
        self._positions = [list(session) for session in positions]
        self._side = field_side_m
        self._step = step_m
        self._count = 0

    def next(self) -> Tuple[int, Dict[str, Any]]:
        """Return ``(session index, delta record)`` of the next drift."""
        session = self._count % len(self._positions)
        self._count += 1
        positions = self._positions[session]
        index = self._rng.randrange(len(positions))
        x, y = positions[index]
        x = min(max(x + self._rng.uniform(-self._step, self._step), 0.0),
                self._side)
        y = min(max(y + self._rng.uniform(-self._step, self._step), 0.0),
                self._side)
        positions[index] = (x, y)
        return session, {"type": "sensor_moved", "v": 1, "index": index,
                         "x": x, "y": y}


def delta_body(handle: str, record: Dict[str, Any]) -> Dict[str, Any]:
    """A one-drift ``/v1/plan/delta`` request against ``handle``."""
    return {"schema": DELTA_SCHEMA, "session": handle, "deltas": [record]}
