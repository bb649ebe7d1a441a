"""Every workload generator is a pure function of its seed."""

import collections

import pytest

import workloads
from repro.delta.protocol import delta_request_problems
from repro.service.request import request_problems
from workloads import WORKLOADS, DriftStream


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_bodies_repeat_per_seed(name):
    workload = WORKLOADS[name]
    first = workloads.plan_bodies(workload, 7, 16)
    assert first == workloads.plan_bodies(workload, 7, 16)
    assert first != workloads.plan_bodies(workload, 8, 16)
    assert workloads.plan_body(workload, 7, 11) == first[11]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_bodies_are_valid_and_distinct(name):
    workload = WORKLOADS[name]
    bodies = workloads.plan_bodies(workload, 3, 64)
    assert all(request_problems(body) == [] for body in bodies)
    seeds = {body["deployment"]["seed"] for body in bodies}
    assert len(seeds) == len(bodies)  # every request is cold
    assert {body["planner"] for body in bodies} == {workload.planner}


def test_zipf_draws_repeat_per_seed_and_skew_to_rank_zero():
    draws = workloads.zipf_draws(5, 64, 3000)
    assert draws == workloads.zipf_draws(5, 64, 3000)
    assert draws != workloads.zipf_draws(6, 64, 3000)
    assert all(0 <= rank < 64 for rank in draws)
    counts = collections.Counter(draws)
    assert counts.most_common(1)[0][0] == 0
    assert counts[0] > counts[1] > counts[8]


def test_arrival_offsets_are_a_constant_rate():
    offsets = workloads.arrival_offsets(5, rate_rps=100.0)
    assert offsets == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])


def _positions(count, side):
    return [[(side * i / count, side * (count - i) / count)
             for i in range(count)] for _ in range(2)]


def _drifts(seed, count=200, side=100.0):
    stream = DriftStream(seed, _positions(50, side), side)
    return [stream.next() for _ in range(count)]


def test_drift_stream_repeats_per_seed():
    assert _drifts(1) == _drifts(1)
    assert _drifts(1) != _drifts(2)


def test_drifts_round_robin_chain_and_stay_in_field():
    side = 100.0
    stream = DriftStream(4, _positions(50, side), side)
    last = {(s, i): p for s in range(2)
            for i, p in enumerate(_positions(50, side)[s])}
    for position in range(400):
        session, record = stream.next()
        assert session == position % 2
        key = (session, record["index"])
        old_x, old_y = last[key]
        assert abs(record["x"] - old_x) <= workloads.DRIFT_STEP_M
        assert abs(record["y"] - old_y) <= workloads.DRIFT_STEP_M
        assert 0.0 <= record["x"] <= side and 0.0 <= record["y"] <= side
        last[key] = (record["x"], record["y"])


def test_delta_bodies_are_valid():
    session, record = DriftStream(0, _positions(10, 100.0), 100.0).next()
    body = workloads.delta_body("root.state", record)
    assert delta_request_problems(body) == []
    assert body["deltas"] == [record]
