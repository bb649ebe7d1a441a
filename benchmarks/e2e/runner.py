"""One timed or one traced run of one workload, with its self-checks."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.validate import validate_response
from repro.service.executor import plan_payload
from repro.service.request import canonical_request, payload_digest

import layers
import stats
from catalog import END_TO_END, PER_LAYER, UNGATED
from counters import InstructionCounter
from harness import Sample, ServerProcess
from traffic import DeltaTraffic, PlanTraffic, make_traffic
from workloads import Sizes, Workload

#: The generator fell behind when its p99 send lag exceeds this.
MAX_SEND_LAG_S = 0.050
#: Largest |unattributed| share of one rebuilt request's wall time.
MAX_UNATTRIBUTED_SHARE = 0.02


@dataclass
class Outcome:
    """Metrics, request counts and failed self-checks of one run.

    ``metrics`` maps a name to ``(value, unit, samples)``, and ``info``
    the ungated values printed beside them in the same way; ``problems``
    maps a failed check's name to its first failure and failure count.
    """

    workload: str
    metrics: Dict[str, Tuple[float, str, Optional[int]]] = field(
        default_factory=dict)
    info: Dict[str, Tuple[float, str, Optional[int]]] = field(
        default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: Dict[str, Tuple[str, int]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def put(self, name: str, value: float,
            samples: Optional[int] = None) -> None:
        if name in UNGATED:
            self.info[name] = (float(value), UNGATED[name], samples)
            return
        unit = END_TO_END.get(name) or PER_LAYER[name]
        self.metrics[name] = (float(value), unit, samples)

    def check(self, ok: bool, name: str, detail: str) -> None:
        if ok:
            return
        first, count = self.problems.get(name, (detail, 0))
        self.problems[name] = (first, count + 1)


def _served(outcome: Outcome, traffic: PlanTraffic,
            samples: List[Sample]) -> List[Optional[Dict]]:
    """Check every answer of one loop; return the parsed envelopes.

    Fails a check when a request failed, an answer does not validate,
    the warm mix served another payload than it primed, the cache
    outcome is not the workload's (all hits or all misses), or the
    generator fell behind its schedule.
    """
    envelopes: List[Optional[Dict]] = []
    hits = failed = 0
    for index, sample in enumerate(samples):
        if sample.status != 200:
            failed += 1
            envelopes.append(None)
            continue
        envelope = json.loads(sample.body)
        problems = validate_response(envelope)
        outcome.check(not problems, "response-valid",
                      f"answer {index}: {problems[:1]}")
        problem = traffic.problem(index, envelope)
        outcome.check(problem is None, "warm-digest", str(problem))
        hits += sample.cache == "hit"
        envelopes.append(envelope)
    outcome.attempted += len(samples)
    outcome.failed += failed
    outcome.check(failed == 0, "requests-ok",
                  f"{failed} of {len(samples)} requests failed")
    answered = len(samples) - failed
    expected = 1.0 if traffic.expect_cache == "hit" else 0.0
    ratio = hits / answered if answered else 0.0
    outcome.check(ratio == expected, "cache-hit-ratio",
                  f"{ratio:.4f}, expected {expected}")
    lag = stats.percentile([sample.lag for sample in samples], 99.0)
    outcome.check(lag <= MAX_SEND_LAG_S, "send-lag",
                  f"p99 {lag * 1e3:.1f} ms: the generator fell behind")
    return envelopes


def timed_run(workload: Workload, seed: int, seconds: float, sizes: Sizes,
              root: str, work_dir: str) -> Outcome:
    """The end-to-end metrics of one workload, with no tracing at all.

    The server's instructions are counted over ``sizes.counted`` of the
    workload's requests from the end of the untimed set-up: the first
    ones of a closed loop, read between two requests once the last
    handler thread has ended; for the open loop, a closed-loop replay of
    its first arrivals after it.  (Counted threads make the server's
    garbage-collector pauses several times longer on a virtual machine,
    which an open loop turns into a backlog; one request at a time does
    not notice.)
    """
    outcome = Outcome(workload.name)
    setup: List[float] = []
    for cycle in range(sizes.setup_cycles):
        with ServerProcess(root, work_dir, f"setup{cycle}") as server:
            setup.append(server.wait_healthy() - server.spawned)
    traffic = make_traffic(workload, seed, sizes)
    counted = sizes.counted[workload.name]
    rss: List[float] = []
    instructions: List[int] = []
    replayed: List[Sample] = []
    with ServerProcess(root, work_dir, "timed") as server:
        server.wait_healthy()
        traffic.setup(server.port)
        idle = server.idle_threads()

        def read_rss(index: int, sample: Sample) -> None:
            if index == sizes.prefix - 1:
                rss.append(server.vm_hwm_mb())

        if traffic.open_loop:
            samples, start, end = traffic.drive(
                server.port, seconds, traffic.timed_count(seconds),
                read_rss)
            with InstructionCounter(server.proc.pid) as counter:
                replayed = traffic.replay(server.port, counted)
                server.settle(idle)
                instructions.append(counter.read())
        else:
            with InstructionCounter(server.proc.pid) as counter:

                def on_sample(index: int, sample: Sample) -> None:
                    read_rss(index, sample)
                    if index + 1 == counted:
                        server.settle(idle)
                        instructions.append(counter.read())

                samples, start, end = traffic.drive(
                    server.port, seconds, traffic.timed_count(seconds),
                    on_sample)
        code = server.stop()
    outcome.check(code == 0, "server-exit", f"exit status {code}")
    envelopes = _served(outcome, traffic, samples)
    if replayed:
        _served(outcome, traffic, replayed)
    latencies = [sample.latency for sample in samples
                 if sample.status == 200]
    energies = [envelope["payload"]["metrics"]["total_j"]
                for envelope in envelopes[:sizes.prefix]
                if envelope is not None]
    n = len(latencies)
    outcome.put("setup_s", stats.median(setup), len(setup))
    outcome.put("server_instructions_per_request",
                instructions[0] / counted, counted)
    outcome.put("energy_j_mean", stats.mean(energies), len(energies))
    outcome.put("server_rss_mb", rss[0])
    outcome.put("latency_p50_s", stats.percentile(latencies, 50.0), n)
    outcome.put("latency_p90_s", stats.percentile(latencies, 90.0), n)
    outcome.put("throughput_rps", n / (end - start), n)
    return outcome


def _replay(workload: Workload, seed: int, sizes: Sizes, root: str,
            work_dir: str, access_log: Optional[str]
            ) -> Tuple[PlanTraffic, List[Sample], int]:
    """Set up and send the traced prefix once; return what came back."""
    traffic = make_traffic(workload, seed, sizes)
    name = "traced" if access_log else "plain"
    with ServerProcess(root, work_dir, name, access_log) as server:
        server.wait_healthy()
        traffic.setup(server.port)
        samples, _, _ = traffic.drive(server.port, 0.0,
                                      traffic.trace_count())
        code = server.stop()
    return traffic, samples, code


def traced_run(workload: Workload, seed: int, sizes: Sizes, root: str,
               work_dir: str) -> Outcome:
    """The per-layer metrics of one workload.

    Replays a fixed prefix twice, against a server writing an access
    log and against a plain one (their difference is the tracing
    overhead), then rebuilds the prefix's plans and repairs in-process.
    """
    outcome = Outcome(workload.name)
    log_path = os.path.join(work_dir, "access.jsonl")
    traced, traced_samples, code = _replay(workload, seed, sizes, root,
                                           work_dir, log_path)
    outcome.check(code == 0, "server-exit", f"exit status {code}")
    plain, plain_samples, code = _replay(workload, seed, sizes, root,
                                         work_dir, None)
    outcome.check(code == 0, "server-exit", f"exit status {code}")
    envelopes = _served(outcome, traced, traced_samples)
    _served(outcome, plain, plain_samples)
    splits = _split_plans(outcome, traced, traced_samples, envelopes)
    _split_service(outcome, traced, traced_samples, plain_samples, splits,
                   layers.read_access_log(log_path))
    if isinstance(traced, DeltaTraffic):
        _split_repairs(outcome, traced, envelopes, sizes)
    else:
        for name in PER_LAYER:
            if name.startswith("delta_request."):
                outcome.put(name, 0.0)
    return outcome


def _split_plans(outcome: Outcome, traced: PlanTraffic,
                 samples: List[Sample], envelopes: List[Optional[Dict]]
                 ) -> List[layers.PlanSplit]:
    """Rebuild the traced plans in-process; check them against the server."""
    served_digests: Dict[str, str] = {}
    for sample in traced.setup_samples:
        served_digests.setdefault(sample.request_sha or "",
                                  json.loads(sample.body)["payload_sha256"])
    for sample, envelope in zip(samples, envelopes):
        if envelope is not None:
            served_digests.setdefault(sample.request_sha or "",
                                      envelope["payload_sha256"])
    splits = []
    with InstructionCounter(os.getpid()) as counter:
        for body in traced.split_bodies():
            split = layers.split_plan(body, counter)
            reference = payload_digest(plan_payload(canonical_request(body)))
            outcome.check(split.digest == reference, "rebuilt-digest",
                          f"rebuilt {split.digest[:12]}, plan_payload "
                          f"{reference[:12]}")
            served = served_digests.get(split.request_sha)
            outcome.check(split.digest == served, "served-digest",
                          f"rebuilt {split.digest[:12]}, served {served}")
            share = abs(split.unattributed) / split.wall
            outcome.check(share <= MAX_UNATTRIBUTED_SHARE, "reconciliation",
                          f"unattributed {share:.2%} of a request's wall")
            splits.append(split)
    for name, value in layers.split_metrics(splits).items():
        outcome.put(name, value, len(splits))
    return splits


def _split_service(outcome: Outcome, traced: PlanTraffic,
                   samples: List[Sample], plain_samples: List[Sample],
                   splits: List[layers.PlanSplit],
                   records: List[Dict]) -> None:
    """The cross-process split: client samples joined to the access log."""
    answered = [sample for sample in samples if sample.status == 200]
    setup_count = len(traced.setup_samples)
    matched = layers.match_access(traced.setup_samples + samples, records)
    pairs = [(sample, record) for sample, record
             in zip(samples, matched[setup_count:])
             if sample.status == 200 and record is not None]
    outcome.check(len(pairs) == len(answered), "access-log",
                  f"{len(answered) - len(pairs)} answers without an "
                  f"access record")
    parts = [stats.split_latency(sample.round_trip, record["latency_s"],
                                 record["queue_wait_s"],
                                 record["compute_s"])
             for sample, record in pairs]
    queue = [part["queue"] for part in parts]
    http = [part["http"] for part in parts]
    n = len(parts)
    outcome.put("service.queue_wait_s_p50", stats.percentile(queue, 50.0), n)
    outcome.put("service.queue_wait_s_p90", stats.percentile(queue, 90.0), n)
    outcome.put("service.batch_size_mean", stats.mean(
        layers.batch_sizes([record for _, record in pairs])), n)
    outcome.put("service.handler_s_p50",
                stats.median([part["handler"] for part in parts]), n)
    outcome.put("service.http_s_p50", stats.percentile(http, 50.0), n)
    outcome.put("service.http_s_p99", stats.percentile(http, 99.0), n)
    outcome.put("cache.hit_ratio", stats.mean(
        [sample.cache == "hit" for sample in answered]), len(answered))
    first_compute: Dict[str, float] = {}
    for record in records:
        first_compute.setdefault(record["digest"], record["compute_s"])
    store = [first_compute[split.request_sha] - split.wall
             for split in splits if split.request_sha in first_compute]
    outcome.put("cache.store_s_p50", stats.median(store), len(store))
    outcome.put("loadgen.send_lag_s_p99", stats.percentile(
        [sample.lag for sample in samples], 99.0), len(samples))
    latencies = [sample.latency for sample in answered]
    plain = [sample.latency for sample in plain_samples
             if sample.status == 200]
    outcome.put("trace.overhead_s",
                stats.median(latencies) - stats.median(plain), len(answered))
    outcome.put("client.latency_p50_s", stats.median(plain), len(plain))
    outcome.put("client.latency_p99_s", stats.percentile(latencies, 99.0),
                len(latencies))


def _split_repairs(outcome: Outcome, traced: DeltaTraffic,
                   envelopes: List[Optional[Dict]], sizes: Sizes) -> None:
    """Repeat the served drifts in-process; check them against the server."""
    drifts = [(session, record, envelope["payload"])
              for (session, record), envelope in zip(traced.sent, envelopes)
              if envelope is not None]
    repairs = layers.replay_repairs(
        traced.sessions, drifts, max(1, len(drifts) // sizes.ratio_repairs))
    mismatched = sum(not repair.matches for repair in repairs)
    outcome.check(mismatched == 0, "repaired-plan",
                  f"{mismatched} in-process repairs differ from the served "
                  f"plan")
    for name, value in layers.repair_metrics(repairs).items():
        outcome.put(name, value, len(repairs))
