"""Per-layer attribution, from outside the program.

Three sources, none of which changes anything under ``src/``:

* :func:`split_plan` rebuilds the ``/v1/plan`` pipeline in-process from
  each layer's public function and times every call, so the layer times
  plus the glue between them (``unattributed``) add up to the wall time
  of one request.  The rebuilt payload digest must equal the served one.
* :func:`replay_repairs` re-runs the ``/v1/plan/delta`` repairs the
  server answered, from the same session payloads and drifts.
* :func:`read_access_log` / :func:`match_access` join the server's
  access log to the client's samples for the cross-process split.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bundling import (BundleSet, candidate_member_masks,
                            greedy_cover_masks, make_bundle, maximal_masks)
from repro.bundling.bitset import indices_from_mask
from repro.delta.engine import full_replan, repair_plan
from repro.delta.session import (PlanSession, plan_to_dict,
                                 session_from_plan_payload, state_digest)
from repro.planners import make_planner
from repro.service.executor import request_network
from repro.service.request import (build_cost, canonical_request,
                                   payload_digest, request_digest)
from repro.tour import (ChargingPlan, evaluate_plan, optimize_tour,
                        plan_total_energy, stop_for_sensors)

import stats
from catalog import LAYERS
from counters import InstructionCounter
from harness import Sample, clock


class LayerClock:
    """Accumulates the time and instructions inside each named layer call.

    ``counter`` counts this process's instructions; it is read outside
    the timed interval, so its reads land in ``unattributed``.
    """

    def __init__(self, counter: InstructionCounter) -> None:
        self.counter = counter
        self.times: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.instructions: Dict[str, int] = {name: 0 for name in LAYERS}
        self.started_instructions = counter.read()
        self.started = clock()

    @contextmanager
    def layer(self, name: str) -> Iterator[None]:
        counted = self.counter.read()
        entered = clock()
        try:
            yield
        finally:
            self.times[name] += clock() - entered
            self.instructions[name] += self.counter.read() - counted


@dataclass
class PlanSplit:
    """One rebuilt plan: per-layer seconds and instructions, totals,
    digest and work counts."""

    times: Dict[str, float]
    wall: float
    instructions: Dict[str, int]
    wall_instructions: int
    digest: str
    request_sha: str
    counts: Dict[str, float]

    @property
    def unattributed(self) -> float:
        return stats.unattributed(self.times, self.wall)


def split_plan(body: Dict[str, Any],
               counter: InstructionCounter) -> PlanSplit:
    """Serve ``body`` in-process through each layer's public function.

    Mirrors :func:`repro.service.executor.plan_payload` for the BC and
    BC-OPT planners call for call, without any cache.  ``counter``
    counts this process's instructions.
    """
    timer = LayerClock(counter)
    with timer.layer("service_request.canonicalize"):
        canonical = canonical_request(body)
    with timer.layer("deployment"):
        network = request_network(canonical)
    if canonical["planner"] not in ("BC", "BC-OPT"):
        raise ValueError(f"no layer split for {canonical['planner']!r}")
    cost = build_cost(canonical["charging"])
    radius = canonical["radius_m"]
    planner = make_planner(canonical["planner"], radius,
                           tsp_strategy=canonical["tsp_strategy"],
                           seed=canonical["seed"])
    locations = network.locations
    with timer.layer("candidates"):
        enumerated = candidate_member_masks(locations, radius)
        masks = maximal_masks(enumerated)
    with timer.layer("cover"):
        chosen = greedy_cover_masks(masks, len(network))
    with timer.layer("bundles"):
        bundle_set = BundleSet(
            [make_bundle(indices_from_mask(mask), locations)
             for mask in chosen], radius)
        bundle_set.validate_cover(network)
    depot = network.base_station
    anchors = bundle_set.anchors()
    with timer.layer("tsp"):
        order = planner.order_positions(anchors, depot)
    with timer.layer("stops"):
        plan = ChargingPlan(
            stops=tuple(stop_for_sensors(
                anchors[i], sorted(bundle_set.bundles[i].members),
                locations, cost) for i in order),
            depot=depot, label=planner.name)
        plan.validate_complete(len(network))
    counts = {"candidates": len(enumerated), "kept": len(masks),
              "bundles": len(chosen),
              "cities": len(anchors) + (depot is not None),
              "stops": len(plan.stops)}
    if canonical["planner"] == "BC-OPT":
        with timer.layer("anchor_opt"):
            optimized, report = optimize_tour(
                plan, locations, cost, bundle_radius=radius,
                max_sweeps=planner.max_sweeps,
                radius_steps=planner.radius_steps)
            plan = optimized.with_label(planner.name)
        counts.update(sweeps=report.sweeps, moves=report.moves,
                      initial_j=report.initial_energy_j,
                      final_j=report.final_energy_j)
    with timer.layer("evaluate"):
        metrics = evaluate_plan(plan, locations, cost)
    with timer.layer("serialize"):
        request_sha = request_digest(canonical)
        digest = payload_digest({
            "request": canonical,
            "request_sha256": request_sha,
            "plan": plan_to_dict(plan),
            "metrics": metrics.as_row(),
            "sensor_count": len(network),
        })
    wall = clock() - timer.started
    wall_instructions = counter.read() - timer.started_instructions
    return PlanSplit(timer.times, wall, timer.instructions,
                     wall_instructions, digest, request_sha, counts)


def split_metrics(splits: Sequence[PlanSplit]) -> Dict[str, float]:
    """Per-layer medians and shares plus the work counts of ``splits``."""
    walls = [split.wall for split in splits]
    totals = {name: sum(split.times[name] for split in splits)
              for name in LAYERS}
    out: Dict[str, float] = {}
    for name, share in stats.shares(totals, sum(walls)).items():
        out[f"{name}.s_p50"] = stats.median(
            [split.times[name] for split in splits])
        out[f"{name}.share"] = share
        out[f"{name}.instr_mean"] = stats.mean(
            [split.instructions[name] for split in splits])
    out["pipeline.s_p50"] = stats.median(walls)
    out["pipeline.instr_mean"] = stats.mean(
        [split.wall_instructions for split in splits])
    out["pipeline.unattributed_s_p50"] = stats.median(
        [split.unattributed for split in splits])

    def count_mean(key: str) -> float:
        return stats.mean([split.counts.get(key, 0.0) for split in splits])

    out["candidates.count_mean"] = count_mean("candidates")
    out["candidates.kept_ratio"] = count_mean("kept") / count_mean(
        "candidates")
    out["cover.bundles_mean"] = count_mean("bundles")
    out["tsp.cities_mean"] = count_mean("cities")
    # Alg. 3 counters read 0 on workloads whose planner skips it.
    attempts = sum(split.counts.get("sweeps", 0) * split.counts["stops"]
                   for split in splits)
    moves = sum(split.counts.get("moves", 0) for split in splits)
    initial = sum(split.counts.get("initial_j", 0.0) for split in splits)
    final = sum(split.counts.get("final_j", 0.0) for split in splits)
    out["anchor_opt.sweeps_mean"] = count_mean("sweeps")
    out["anchor_opt.moves_per_attempt"] = moves / attempts if attempts else 0.0
    out["anchor_opt.gain_ratio"] = final / initial if initial else 0.0
    return out


@dataclass
class Repair:
    """One replayed drift: repair seconds, what it did, and checks."""

    seconds: float
    strategy: str
    dirty: int
    evicted: int
    matches: bool
    energy_ratio: Optional[float]


def replay_repairs(sessions: Sequence[Tuple[Dict[str, Any],
                                            Dict[str, Any]]],
                   drifts: Sequence[Tuple[int, Dict[str, Any],
                                          Dict[str, Any]]],
                   ratio_every: int) -> List[Repair]:
    """Repeat the server's repairs in-process and compare with its answers.

    Args:
        sessions: ``(canonical request, plan payload)`` per session, as
            the server answered the establishing ``/v1/plan``.
        drifts: ``(session index, delta record, served delta payload)``
            in the order they were sent.
        ratio_every: also run a full replan on every ``ratio_every``-th
            drift, for the repaired/full energy ratio.
    """
    chains: List[PlanSession] = [session_from_plan_payload(request, payload)
                                 for request, payload in sessions]
    costs = [build_cost(request["charging"]) for request, _ in sessions]
    repairs: List[Repair] = []
    for position, (index, record, served) in enumerate(drifts):
        session = chains[index]
        cost = costs[index]
        started = clock()
        state, report = repair_plan(session.state, [record], cost)
        seconds = clock() - started
        handle = f"{session.root}.{state_digest(session.root, state)}"
        plan_dict = plan_to_dict(state.plan)
        matches = plan_dict == served["plan"] and handle == served["session"]
        ratio = None
        if position % ratio_every == 0:
            full = full_replan(state.locations, state.alive, session.state,
                               cost)
            ratio = report.energy_j / plan_total_energy(
                full, state.locations, cost)
        chains[index] = PlanSession(request=session.request,
                                    root=session.root, handle=handle,
                                    state=state, plan_dict=plan_dict)
        repairs.append(Repair(seconds, report.strategy,
                              report.dirty_sensors, report.evicted_stops,
                              matches, ratio))
    return repairs


def repair_metrics(repairs: Sequence[Repair]) -> Dict[str, float]:
    """The ``delta_request.*`` metrics of a replayed repair chain."""
    seconds = [repair.seconds for repair in repairs]
    ratios = [repair.energy_ratio for repair in repairs
              if repair.energy_ratio is not None]
    return {
        "delta_request.s_p50": stats.median(seconds),
        "delta_request.s_p90": stats.percentile(seconds, 90.0),
        "delta_request.dirty_sensors_mean": stats.mean(
            [repair.dirty for repair in repairs]),
        "delta_request.evicted_stops_mean": stats.mean(
            [repair.evicted for repair in repairs]),
        "delta_request.full_fallback_ratio": stats.mean(
            [repair.strategy == "full" for repair in repairs]),
        "delta_request.energy_ratio_max": max(ratios),
    }


def read_access_log(path: str) -> List[Dict[str, Any]]:
    """The access records of answered plan and delta requests."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if (record.get("path") in ("/v1/plan", "/v1/plan/delta")
                    and record.get("status") == 200):
                records.append(record)
    return records


def match_access(samples: Sequence[Sample],
                 records: Sequence[Dict[str, Any]]
                 ) -> List[Optional[Dict[str, Any]]]:
    """Pair each answered sample with its access record.

    Records are matched per request digest in the order the server
    settled them, which is the order the client sent them whenever two
    requests for one digest do not overlap.
    """
    queues: Dict[str, Deque[Dict[str, Any]]] = defaultdict(deque)
    for record in records:
        queues[record["digest"]].append(record)
    matched: List[Optional[Dict[str, Any]]] = []
    for sample in samples:
        queue = queues.get(sample.request_sha or "")
        matched.append(queue.popleft() if queue else None)
    return matched


def batch_sizes(records: Sequence[Dict[str, Any]]) -> List[int]:
    """Sizes of the micro-batches behind ``records``.

    Requests joined to one batch share its digest, queue wait and
    compute time exactly, so those three identify the batch.
    """
    batches: Dict[Tuple[Any, ...], int] = defaultdict(int)
    for record in records:
        batches[(record["digest"], record.get("queue_wait_s"),
                 record.get("compute_s"))] += 1
    return list(batches.values())
