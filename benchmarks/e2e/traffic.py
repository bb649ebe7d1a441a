"""What each workload sends, how, and what it expects back.

A traffic object owns one workload's untimed set-up (priming the warm
pool, establishing delta sessions) and its loop: one closed-loop client
for the plan and delta workloads, where a delta chain continues from
the successor handle the server returned, and the open-loop schedule of
the warm mix, which a closed-loop replay repeats to count instructions.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.service.executor import request_network
from repro.service.request import canonical_request

import workloads
from harness import (OnSample, Sample, ServerError, clock, closed_loop,
                     open_loop, post)
from workloads import WARM_RATE_RPS, WARM_SENDERS, Sizes, Workload


def _establish(port: int, body: Dict[str, Any]
               ) -> Tuple[Sample, Dict[str, Any]]:
    """POST one untimed set-up plan; return its sample and envelope."""
    sample = post(port, "/v1/plan", workloads.encode(body), clock())
    if sample.status != 200:
        raise ServerError(f"set-up request failed with status "
                          f"{sample.status}")
    return sample, json.loads(sample.body)


class PlanTraffic:
    """Distinct cold ``/v1/plan`` requests, one after another."""

    expect_cache = "miss"
    open_loop = False

    def __init__(self, workload: Workload, seed: int, sizes: Sizes) -> None:
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        #: Untimed set-up samples (priming, sessions), in send order.
        self.setup_samples: List[Sample] = []

    def setup(self, port: int) -> None:
        """Nothing to prepare: every timed request is cold."""

    def timed_count(self, seconds: float) -> int:
        """Fewest requests a timed phase sends (it also runs ``seconds``)."""
        return max(self.sizes.prefix, self.sizes.counted[self.workload.name])

    def trace_count(self) -> int:
        """Requests a traced replay sends."""
        return self.sizes.split_requests

    def drive(self, port: int, seconds: float, count: int,
              on_sample: Optional[OnSample] = None
              ) -> Tuple[List[Sample], float, float]:
        """Run the loop; return the samples and its start and end."""

        def observe(index: int, sample: Sample) -> None:
            self.observe(index, sample)
            if on_sample is not None:
                on_sample(index, sample)

        return closed_loop(port, self.next_request, seconds, count, observe)

    def next_request(self, index: int) -> Tuple[str, bytes]:
        return "/v1/plan", workloads.encode(
            workloads.plan_body(self.workload, self.seed, index))

    def observe(self, index: int, sample: Sample) -> None:
        """Plan requests are independent of earlier answers."""

    def split_bodies(self) -> List[Dict[str, Any]]:
        """The plan requests a traced run rebuilds in-process."""
        return workloads.plan_bodies(self.workload, self.seed,
                                     self.sizes.split_requests)

    def problem(self, index: int, envelope: Dict[str, Any]
                ) -> Optional[str]:
        """A workload-specific problem with one answer, if any."""
        return None


class DeltaTraffic(PlanTraffic):
    """Chained drifts, round-robin over sessions set up beforehand."""

    def setup(self, port: int) -> None:
        self.session_bodies = workloads.plan_bodies(
            self.workload, workloads.SESSION_SEED, self.sizes.sessions)
        self.handles: List[str] = []
        #: ``(canonical request, plan payload)`` per session.
        self.sessions: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        positions = []
        for body in self.session_bodies:
            sample, envelope = _establish(port, body)
            self.setup_samples.append(sample)
            self.handles.append(sample.session or "")
            canonical = canonical_request(body)
            self.sessions.append((canonical, envelope["payload"]))
            positions.append([(point.x, point.y) for point in
                              request_network(canonical).locations])
        self.drifts = workloads.DriftStream(
            self.seed, positions, self.workload.field_side_m)
        #: ``(session index, delta record)`` per request sent.
        self.sent: List[Tuple[int, Dict[str, Any]]] = []

    def trace_count(self) -> int:
        return self.sizes.trace_drifts

    def next_request(self, index: int) -> Tuple[str, bytes]:
        session, record = self.drifts.next()
        self.sent.append((session, record))
        return "/v1/plan/delta", workloads.encode(
            workloads.delta_body(self.handles[session], record))

    def observe(self, index: int, sample: Sample) -> None:
        if sample.status == 200 and sample.session:
            self.handles[self.sent[index][0]] = sample.session

    def split_bodies(self) -> List[Dict[str, Any]]:
        return self.session_bodies


class WarmTraffic(PlanTraffic):
    """Open-loop Zipf mix over a pool that is primed before the clock."""

    expect_cache = "hit"
    open_loop = True

    def setup(self, port: int) -> None:
        self.pool = workloads.plan_bodies(self.workload, self.seed,
                                          self.sizes.warm_pool)
        self.encoded = [workloads.encode(body) for body in self.pool]
        self.primed: List[str] = []
        for body in self.pool:
            sample, envelope = _establish(port, body)
            self.setup_samples.append(sample)
            self.primed.append(envelope["payload_sha256"])

    def timed_count(self, seconds: float) -> int:
        return max(self.sizes.prefix, round(seconds * WARM_RATE_RPS))

    def trace_count(self) -> int:
        return self.sizes.trace_arrivals

    def drive(self, port: int, seconds: float, count: int,
              on_sample: Optional[OnSample] = None
              ) -> Tuple[List[Sample], float, float]:
        """Send the first ``count`` arrivals of the schedule."""
        self.draws = workloads.zipf_draws(self.seed, len(self.pool), count)
        return open_loop(port, "/v1/plan",
                         [self.encoded[rank] for rank in self.draws],
                         workloads.arrival_offsets(count), WARM_SENDERS,
                         on_sample)

    def replay(self, port: int, count: int) -> List[Sample]:
        """Send the first ``count`` arrivals again, one after another."""
        self.draws = workloads.zipf_draws(self.seed, len(self.pool),
                                          max(count, len(self.draws)))
        samples, _, _ = closed_loop(
            port, lambda index: ("/v1/plan",
                                 self.encoded[self.draws[index]]),
            0.0, count)
        return samples

    def split_bodies(self) -> List[Dict[str, Any]]:
        return self.pool[:self.sizes.split_requests]

    def problem(self, index: int, envelope: Dict[str, Any]
                ) -> Optional[str]:
        primed = self.primed[self.draws[index]]
        if envelope.get("payload_sha256") != primed:
            return (f"warm hit {index} served payload "
                    f"{envelope.get('payload_sha256')} but {primed} "
                    f"was primed")
        return None


def make_traffic(workload: Workload, seed: int, sizes: Sizes) -> PlanTraffic:
    """The traffic object of ``workload``."""
    kind = {"delta_dense": DeltaTraffic,
            "warm_zipf": WarmTraffic}.get(workload.name, PlanTraffic)
    return kind(workload, seed, sizes)
