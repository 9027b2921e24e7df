"""Detection pipeline: per-cluster window features, trained-detector fixtures,
polling cadence, and response-time accounting."""

import numpy as np
import pytest

from crahnsim.detection import (DisasterEvent, Deployment, DetectionRunResult,
                                POLL_PERIOD_S, context_record, deploy,
                                make_training_set,
                                run_detection_replication, sensor_magnitudes,
                                synthesize_trace, train_detector, window_features)
from crahnsim.kernel import Kernel
from crahnsim.mlp import DISASTER_HAPPENED, DISASTER_NOT_HAPPENED, Mlp
from crahnsim.mobility import Area, NodeState


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _deployment(membership, cluster_count):
    sensors = [NodeState(id=i, x=0.0, y=0.0, role="sensor") for i in range(len(membership))]
    heads = [NodeState(id=len(membership) + c, x=0.0, y=0.0, role="cluster-head")
             for c in range(cluster_count)]
    return Deployment(sensors=sensors, heads=heads, membership=np.array(membership))


def _features(membership, cluster_count, readings):
    """window_features of one window: readings is (instants x sensors)."""
    return window_features(_deployment(membership, cluster_count),
                           np.array(readings, dtype=float)[np.newaxis])[0]


def test_aggregate_hand_arithmetic():
    assert _features([0, 0], 1, [[1.0, 3.0]]).tolist() == [2.0, 3.0, 2.0]


def test_aggregate_singleton():
    assert _features([0], 1, [[5.0]]).tolist() == [5.0, 5.0, 1.0]


def test_aggregate_empty_window_gives_no_report():
    # a window without sampling instants, and a cluster without sensors, report zeros
    assert _features([0, 1], 2, np.zeros((0, 2))).tolist() == [0.0] * 6
    assert _features([1], 2, [[4.0]]).tolist() == [0.0, 0.0, 0.0, 4.0, 4.0, 1.0]


def test_window_features_layout():
    # per-cluster (mean, max, count) blocks in cluster order; silent clusters zero
    assert _features([], 4, np.zeros((1, 0))).tolist() == [0.0] * 12
    vec = _features([0, 2, 0, 2, 0, 2], 3, [[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]])
    assert vec.tolist() == [2.0, 3.0, 3.0, 0.0, 0.0, 0.0, 5.0, 6.0, 3.0]
    # readings of all instants pool per cluster
    vec = _features([0, 1], 2, [[1.0, 8.0], [3.0, 2.0]])
    assert vec.tolist() == [2.0, 3.0, 2.0, 5.0, 8.0, 2.0]


def test_context_record_dimensionality():
    dep = deploy(12, 3, Area(), _rng(0))
    rec = context_record(dep, 10.0, [], _rng(1))
    assert rec.shape == (9,)


def test_deploy_membership_is_nearest_head():
    dep = deploy(20, 4, Area(), _rng(2))
    for i, s in enumerate(dep.sensors):
        dists = [s.distance_to(h) for h in dep.heads]
        assert dep.membership[i] == int(np.argmin(dists))


def test_signal_decays_with_distance_from_epicenter():
    dep = deploy(2, 1, Area(), _rng(3))
    dep.sensors[0].x, dep.sensors[0].y = 100.0, 100.0
    dep.sensors[1].x, dep.sensors[1].y = 700.0, 700.0
    ev = DisasterEvent(time=0.0, epicenter=(100.0, 100.0), intensity=8.0)
    mags = sensor_magnitudes(dep, [1.0], [ev], _rng(4))[0]
    assert mags[0] > mags[1]


@pytest.fixture(scope="module")
def trained():
    area = Area()
    dep = deploy(15, 2, area, _rng(10))
    x, y = make_training_set(dep, _rng(11), area, intensity=8.0,
                             positives=150, negatives=150)
    model, stats = train_detector(_rng(12), x, y, epochs=200, seed=5)
    return dep, model, stats, area


def test_trained_detector_validation_accuracy(trained):
    _, _, stats, _ = trained
    assert stats["val_accuracy"] >= 0.95


def test_quiet_background_classifies_not_happened(trained):
    dep, model, _, _ = trained
    rec = context_record(dep, 10.0, [], _rng(20))
    assert model.classify_binary(rec) == DISASTER_NOT_HAPPENED


def test_event_near_sensors_classifies_happened(trained):
    dep, model, _, _ = trained
    # epicenter 50 m from the first sensor
    sx, sy = dep.sensors[0].x, dep.sensors[0].y
    ev = DisasterEvent(time=0.0, epicenter=(sx + 50.0, sy), intensity=8.0)
    rec = context_record(dep, 10.0, [ev], _rng(21))
    assert model.classify_binary(rec) == DISASTER_HAPPENED


def _always_fires(dim):
    model = Mlp.init([dim, 2, 1], _rng(0))
    model.weights = [np.zeros_like(w) for w in model.weights]
    model.biases[-1] = np.array([10.0])  # sigmoid(10) > 0.5 regardless of input
    return model


def test_polling_grid_has_51_polls_in_500_seconds():
    dep = deploy(4, 1, Area(), _rng(30))
    kernel = Kernel(seed=1, end=500.0)
    res = run_detection_replication(kernel, dep, _always_fires(3), [], 500.0)
    assert len(res.poll_codes) == 51
    assert [t for t, _ in res.poll_codes] == [10.0 * i for i in range(51)]


def test_response_time_hand_trace():
    # event at t=103 -> first poll inside the window at t=110 -> 7 s + kappa
    dep = deploy(4, 1, Area(), _rng(31))
    kernel = Kernel(seed=2, end=500.0)
    ev = DisasterEvent(time=103.0, epicenter=(500.0, 500.0), intensity=8.0)
    res = run_detection_replication(kernel, dep, _always_fires(3), [ev], 500.0)
    assert res.response_times == [pytest.approx(7.0 + 0.020)]
    assert res.false_negative_rate_pct == 0.0


def test_never_fires_means_all_missed():
    dep = deploy(4, 1, Area(), _rng(32))
    model = Mlp.init([3, 2, 1], _rng(0))
    model.weights = [np.zeros_like(w) for w in model.weights]
    model.biases[-1] = np.array([-10.0])
    kernel = Kernel(seed=3, end=500.0)
    ev = DisasterEvent(time=103.0, epicenter=(500.0, 500.0), intensity=8.0)
    res = run_detection_replication(kernel, dep, model, [ev], 500.0)
    assert res.missed == 1
    assert res.false_negative_rate_pct == 100.0


def test_zero_injected_events_has_undefined_rate():
    res = DetectionRunResult(injected=0, missed=0, poll_codes=[], response_times=[])
    assert res.false_negative_rate_pct is None


def test_responses_are_causal(trained):
    dep, model, _, area = trained
    kernel = Kernel(seed=4, end=500.0)
    events = synthesize_trace(kernel.stream("disaster-trace"), area, 3, 8.0, 500.0)
    res = run_detection_replication(kernel, dep, model, events, 500.0)
    assert all(rt >= 0 for rt in res.response_times)


def test_synthesized_trace_is_ordered_and_inside_horizon():
    events = synthesize_trace(_rng(40), Area(), 5, 8.0, 500.0)
    times = [e.time for e in events]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(20.0 <= t <= 460.0 for t in times)
    assert all(b - a >= 60.0 for a, b in zip(times, times[1:]))
