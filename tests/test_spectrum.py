"""Spectrum management: PU timelines, hole detection, selection policies,
switching-time metric, and the event-driven simulation against schedule oracles."""

import numpy as np
import pytest

from crahnsim import experiments, spectrum
from crahnsim.kernel import Kernel
from crahnsim.mlp import Mlp, train
from crahnsim.scenario import ScenarioConfig
from crahnsim.spectrum import (EXPONENTIAL_BLOCK, SpectrumParams, SpectrumSim, SuAssignment,
                               draw_toggle_times, extract_features, schedule_toggle_times,
                               score_holes, spectrum_holes, switching_time_metric)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _run_cell(seed, params, sim_time_s, pu_schedules=None):
    """One spectrum cell on the default area, run to `sim_time_s`."""
    kernel = Kernel(seed=seed, end=sim_time_s)
    sim = SpectrumSim(kernel, params, pu_schedules=pu_schedules)
    sim.start()
    kernel.run_until(sim_time_s)
    return sim


class _RawScorer:
    """Stands in for the scorer: `raw` is its output for the holes in channel
    order, for every batch of a stack (SUs x holes x features)."""

    def __init__(self, raw):
        self.raw = np.array(raw, dtype=float)

    def predict(self, batch):
        assert batch.shape[-2] == len(self.raw)
        return np.broadcast_to(self.raw[:, None], batch.shape[:-1] + (1,))


def test_session_window_slides_to_newest_n():
    # busy periods of 2, 4, 6 and 8 s; a window of 3 keeps the newest three
    times = [1.0, 3.0, 5.0, 9.0, 10.0, 16.0, 21.0, 29.0]
    assert extract_features(times, 30.0, 3, -60.0, 0.0)[:3] == [4.0, 6.0, 8.0]
    assert extract_features(times, 20.0, 3, -60.0, 0.0)[:3] == [2.0, 4.0, 6.0]


def test_session_on_empty_log():
    assert extract_features([10.0, 12.5], 13.0, 5, -60.0, 0.0)[:5] == [0.0] * 4 + [2.5]
    assert extract_features([], 7.0, 5, -60.0, 0.0) == [0.0] * 5 + [-60.0, 0.0, 7.0]


def test_reversed_and_overlapping_sessions_rejected():
    # a period that does not move time forward would end a session before it
    # starts, or start one inside recorded history
    for durations in ([5.0, -2.0], [5.0, 0.0, 3.0], [float("nan")], [float("-inf")]):
        with pytest.raises(ValueError):
            schedule_toggle_times(durations, 100.0)
    assert schedule_toggle_times([5.0, 2.0, float("inf"), 1.0], 100.0) == [5.0, 7.0]
    assert schedule_toggle_times([5.0, 2.0, 90.0, 4.0], 97.0) == [5.0, 7.0, 97.0]


def test_drawn_times_carry_across_blocks_as_one_duration_at_a_time_sums():
    times = draw_toggle_times(_rng(11), 0.2, 1000.0)
    ref, t, expected = _rng(11), 0.0, []
    while True:
        t = t + float(ref.exponential(0.2))
        if t > 1000.0:
            break
        expected.append(t)
    assert len(times) > 4 * EXPONENTIAL_BLOCK  # five blocks, four carries
    assert times == expected
    # the cut is inclusive: a time equal to `end` is the last one kept
    for last in (EXPONENTIAL_BLOCK - 1, EXPONENTIAL_BLOCK, 2500):
        assert draw_toggle_times(_rng(11), 0.2, times[last]) == times[:last + 1]


@pytest.mark.parametrize("policy", ["mlp-history", "random-baseline"])
def test_cells_with_more_pus_share_the_first_pus_and_every_su(policy):
    """A grid point differs from the next in its PU count only: PU i draws
    its timeline from its own stream and SUs are placed from theirs."""
    cells = []
    for pu_count in (5, 25):
        kernel = Kernel(seed=13, end=500.0)
        sim = SpectrumSim(kernel, SpectrumParams(pu_count=pu_count, su_count=4, policy=policy))
        sim.start()
        cells.append(sim)
    few, many = cells
    for pu in few.pus:
        other = many.pus[pu.id]
        assert (pu.x, pu.y) == (other.x, other.y)
        assert few.scales[pu.id] == many.scales[pu.id]
        assert few.timelines[pu.id] == many.timelines[pu.id]
        assert few.timelines[pu.id]
    assert [(su.x, su.y) for su in few.sus] == [(su.x, su.y) for su in many.sus]


def test_holes_empty_when_all_pus_transmit():
    timelines = {0: [1.0], 1: [2.0, 3.0, 4.0]}
    assert spectrum_holes(timelines, 5.0) == []


def test_channel_without_log_is_vacuously_a_hole():
    # a PU that never toggles is idle since the beginning
    assert spectrum_holes({9: []}, 7.0) == [9]


def test_holes_hand_schedule():
    # PU0 busy 1-5 then idle from 5; PU1 idle from 0 until 8; queried at t=6
    timelines = {0: [1.0, 5.0], 1: [8.0]}
    assert spectrum_holes(timelines, 6.0) == [0, 1]
    # a toggle at exactly t has happened by t
    assert spectrum_holes(timelines, 5.0) == [0, 1]
    assert spectrum_holes(timelines, 8.0) == [0]


def test_feature_layout_matches_definition():
    # busy 1-5, 10-16 and 17-25: durations 4, 6, 8; idle since 25
    times = [1.0, 5.0, 10.0, 16.0, 17.0, 25.0]
    feats = extract_features(times, 28.0, 5, -60.0, 2.0)
    assert feats == [0.0, 0.0, 4.0, 6.0, 8.0, -60.0, 2.0, 3.0]
    assert len(feats) == 5 + 3


def test_features_undefined_while_transmitting():
    with pytest.raises(ValueError):
        extract_features([1.0], 2.0, 5, -60.0, 0.0)
    with pytest.raises(ValueError):
        extract_features([1.0, 3.0, 4.0], 4.0, 5, -60.0, 0.0)


def test_zero_model_scores_zero():
    model = Mlp.init([8, 4, 1], _rng(0), output_activation="identity")
    model.weights = [np.zeros_like(w) for w in model.weights]
    model.biases = [np.zeros_like(b) for b in model.biases]
    feats = np.zeros((1, 8))
    assert np.array_equal(score_holes(model, feats), [0.0])
    assert np.array_equal(score_holes(model, feats), score_holes(model, feats))


def test_negative_prediction_clamps_to_zero():
    model = Mlp.init([3, 2, 1], _rng(1), output_activation="identity")
    model.weights = [np.zeros_like(w) for w in model.weights]
    model.biases[-1] = np.array([-4.0])
    assert np.array_equal(score_holes(model, np.zeros((1, 3))), [0.0])
    raw = _RawScorer([-3.0, float("nan"), 2.5, -0.0])
    assert np.array_equal(score_holes(raw, np.zeros((4, 1))), [0.0, 0.0, 2.5, 0.0])


def test_scorer_learns_periodic_idle_schedule():
    # strictly periodic PU: busy 5 s, idle 10 s; target = remaining idle time
    n = 5
    xs, ys = [], []
    for elapsed in np.linspace(0.0, 9.5, 60):
        xs.append([5.0] * n + [-60.0, 2.0, elapsed])
        ys.append([10.0 - elapsed])
    model = Mlp.init([n + 3, 8, 1], _rng(2), output_activation="identity")
    train(model, np.array(xs), np.array(ys), learning_rate=0.2, epochs=500)
    for elapsed, want in ((2.0, 8.0), (5.0, 5.0), (9.0, 1.0)):
        [got] = score_holes(model, np.array([[5.0] * n + [-60.0, 2.0, elapsed]]))
        assert got == pytest.approx(want, abs=2.0)


# PUs 1 and 3 are busy over [0.5, 100]; at t = 1 the holes are channels 0, 2 and 4
SELECT_SCHEDULE = {0: [], 1: [0.5, 99.5], 2: [], 3: [0.5, 99.5], 4: []}


def _select_once(raw):
    """The channel an `mlp-history` SU starting at t = 1 takes when the
    scorer's raw outputs for the holes in channel order are `raw`;
    `score_holes` clamps them."""
    params = SpectrumParams(pu_count=5, su_count=1, policy="mlp-history", su_start_s=1.0)
    kernel = Kernel(seed=3, end=2.0)
    sim = SpectrumSim(kernel, params, pu_schedules=SELECT_SCHEDULE)
    sim.model = _RawScorer(raw)
    sim.start()
    kernel.run_until(2.0)
    [a] = sim.assignments
    return a.channel_index


def test_mlp_selection_takes_best_score_then_lowest_channel():
    assert _select_once([4.0, 9.0, 1.0]) == 2
    # equal scores: the lowest channel
    assert _select_once([5.0, 5.0, 5.0]) == 0
    assert _select_once([1.0, 5.0, 5.0]) == 2
    # negative and NaN outputs clamp to 0, so they tie with each other
    assert _select_once([-1.0, -0.5, -2.0]) == 0
    assert _select_once([float("nan"), 0.5, -1.0]) == 2
    assert _select_once([-1.0, float("nan"), -2.0]) == 0


def test_random_baseline_draws_within_holes():
    picks = set()
    for seed in range(40):
        params = SpectrumParams(pu_count=5, su_count=1, policy="random-baseline",
                                su_start_s=1.0)
        sim = _run_cell(seed=seed, params=params, sim_time_s=2.0,
                        pu_schedules=SELECT_SCHEDULE)
        picks.add(sim.assignments[0].channel_index)
    assert picks == {0, 2, 4}


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="greedy"):
        SpectrumSim(Kernel(seed=1, end=10.0), SpectrumParams(policy="greedy"))


def test_random_baseline_builds_no_scorer_input(monkeypatch):
    def no_features(*args, **kwargs):
        raise AssertionError("random-baseline built hole features")
    monkeypatch.setattr(spectrum, "extract_features", no_features)
    params = SpectrumParams(pu_count=6, su_count=3, policy="random-baseline",
                            su_start_s=50.0, refit_interval=2)
    sim = _run_cell(seed=9, params=params, sim_time_s=400.0)
    assert sim.assignments and any(a.evicted_at is not None for a in sim.assignments)
    assert all(a.selection_features is None for a in sim.assignments)
    assert sim.buffer_x == [] and sim.buffer_y == [] and not sim.model_trained


def test_switching_metric_hand_values():
    assignments = [
        SuAssignment(su_id=0, channel_index=0, assigned_at=2.0, evicted_at=9.0),
        SuAssignment(su_id=1, channel_index=1, assigned_at=0.0, evicted_at=1.0),
        SuAssignment(su_id=2, channel_index=2, assigned_at=0.0, evicted_at=2.0),
        SuAssignment(su_id=3, channel_index=3, assigned_at=0.0, evicted_at=3.0),
    ]
    m = switching_time_metric(assignments, horizon=100.0)
    assert m["samples"][0] == 7.0
    assert np.mean(m["samples"][1:]) == 2.0
    assert m["count"] == 4


def test_open_assignment_truncates_at_horizon():
    m = switching_time_metric(
        [SuAssignment(su_id=0, channel_index=0, assigned_at=490.0)], horizon=500.0)
    assert m["samples"] == [10.0]


SCHEDULE = {
    # alternating [idle, busy, idle, busy, ...] durations per PU
    0: [30.0, 10.0, 40.0, 20.0],
    1: [5.0, 15.0, 60.0, 10.0],
    2: [100.0, 50.0],
}


def _busy_intervals(seq):
    out = []
    t = 0.0
    for i, dur in enumerate(seq):
        if i % 2 == 1:
            out.append((t, t + dur))
        t += dur
    return out


def test_evictions_match_schedule_oracle():
    params = SpectrumParams(pu_count=3, su_count=2, policy="random-baseline",
                            su_start_s=1.0)
    sim = _run_cell(seed=4, params=params, sim_time_s=300.0,
                    pu_schedules={k: list(v) for k, v in SCHEDULE.items()})
    assert sim.assignments, "expected at least one assignment"
    busy = {pu: _busy_intervals(seq) for pu, seq in SCHEDULE.items()}
    for a in sim.assignments:
        pu = a.channel_index
        # never assigned while the licensed PU transmits
        assert not any(s <= a.assigned_at < e for s, e in busy[pu])
        starts = [s for s, _ in busy[pu] if s > a.assigned_at]
        expected = min(starts) if starts else None
        assert a.evicted_at == expected


def test_simulation_window_discipline_and_alternation():
    params = SpectrumParams(pu_count=6, su_count=3, n_window=4,
                            policy="mlp-history", su_start_s=50.0)
    sim = _run_cell(seed=9, params=params, sim_time_s=400.0)
    for times in sim.timelines.values():
        # toggles alternate idle -> busy -> idle at strictly increasing times
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times and times[-1] <= 400.0
    assert sim.assignments and sim.buffer_x
    for feats in [a.selection_features for a in sim.assignments] + sim.buffer_x:
        durations = list(feats[:params.n_window])
        assert len(feats) == params.n_window + 3
        # at most n durations, zero-padded oldest-first, each positive
        padding = next((i for i, d in enumerate(durations) if d != 0.0), len(durations))
        assert all(d > 0 for d in durations[padding:])


def test_policy_runs_are_seed_deterministic():
    params = SpectrumParams(pu_count=8, su_count=3)

    def metric(seed):
        return _run_cell(seed, params, sim_time_s=300.0).metric()

    a, b = metric(12), metric(12)
    assert a["samples"] == b["samples"]
    assert metric(13)["samples"] != a["samples"]


def test_mlp_policy_never_selects_busy_channel():
    params = SpectrumParams(pu_count=10, su_count=4, policy="mlp-history")
    rng = _rng(6)
    # alternating exponential periods, like the drawn activity, as a schedule
    schedule = {pu: list(rng.exponential(rng.uniform(0.2, 2.6), 600)) for pu in range(10)}
    sim = _run_cell(seed=6, params=params, sim_time_s=300.0, pu_schedules=schedule)
    busy = {pu: _busy_intervals(seq) for pu, seq in schedule.items()}
    assert sim.model_trained and len(sim.assignments) > 100
    for a in sim.assignments:
        pu = a.channel_index
        assert not any(s <= a.assigned_at < e for s, e in busy[pu])


def test_spectrum_cells_keep_every_node_in_the_scenario_area(monkeypatch, tmp_path):
    cfg = ScenarioConfig()
    cfg.simulation.area_width_m, cfg.simulation.area_height_m = 300.0, 200.0
    cfg.simulation.sim_time_s = 60.0
    cfg.simulation.replications = 1
    cfg.spectrum.pu_counts = (12,)
    cfg.spectrum.policies = ("random-baseline",)
    cfg.spectrum.su_start_s = 20.0  # SUs that start at or after the end are rejected
    sims = []

    class RecordingSim(SpectrumSim):
        def start(self):
            sims.append(self)
            super().start()
    monkeypatch.setattr(experiments, "SpectrumSim", RecordingSim)
    experiments.run_experiment(cfg, "spectrum", out_dir=str(tmp_path))
    (sim,) = sims
    positions = [(n.x, n.y) for n in sim.pus + sim.sus]
    assert len(positions) == 12 + cfg.spectrum.su_count
    assert all(0.0 <= x <= 300.0 and 0.0 <= y <= 200.0 for x, y in positions)


def test_spectrum_cells_move_nodes_at_the_scenario_speeds(monkeypatch, tmp_path):
    # one speed and no pauses: every leg of every node is walked at 12 m/s
    cfg = ScenarioConfig()
    cfg.simulation.v_min_mps = cfg.simulation.v_max_mps = 12.0
    cfg.simulation.pause_max_s = 0.0
    cfg.simulation.sim_time_s = 60.0
    cfg.simulation.replications = 1
    cfg.spectrum.pu_counts = (4,)
    cfg.spectrum.policies = ("mlp-history",)
    cfg.spectrum.su_start_s = 20.0
    sims = []

    class RecordingSim(SpectrumSim):
        def start(self):
            sims.append(self)
            super().start()
    monkeypatch.setattr(experiments, "SpectrumSim", RecordingSim)
    experiments.run_experiment(cfg, "spectrum", out_dir=str(tmp_path))
    (sim,) = sims
    assert all(n.waypoint is not None and n.speed == 12.0 for n in sim.pus + sim.sus)


def test_default_scenario_speeds_are_the_spectrum_defaults():
    params = experiments.spectrum_params(ScenarioConfig(), 4, "mlp-history")
    assert (params.v_min_mps, params.v_max_mps, params.pause_max_s) == (
        SpectrumParams.v_min_mps, SpectrumParams.v_max_mps, SpectrumParams.pause_max_s)
