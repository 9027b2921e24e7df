"""Scenario file loading: defaults, validation, key rejection."""

from dataclasses import fields

import pytest

from crahnsim.scenario import ScenarioConfig, ScenarioError, load_scenario


def _load(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return load_scenario(path)


def test_empty_file_yields_simulation_table_defaults(tmp_path):
    cfg = _load(tmp_path, "")
    s = cfg.simulation
    assert s.sim_time_s == 500.0
    assert (s.area_width_m, s.area_height_m) == (1000.0, 1000.0)
    assert s.routing == "aodv"
    assert s.pathloss == "free-space"
    assert s.mobility == "random-waypoint"
    assert s.replications == 30
    assert cfg.discovery.node_count == 50
    assert cfg.discovery.service_count == 10
    assert cfg.detection.cluster_counts == (1, 2, 3, 4, 5)
    assert cfg.spectrum.pu_counts == (5, 10, 15, 20, 25)


def test_overrides_and_tuple_parsing(tmp_path):
    cfg = _load(tmp_path, "[simulation]\nsim_time_s = 120\nseed = 9\n"
                          "[spectrum]\npu_counts = 5, 10\n"
                          "[detection]\ncluster_counts = 2,3\n")
    assert cfg.simulation.sim_time_s == 120.0
    assert cfg.simulation.seed == 9
    assert cfg.spectrum.pu_counts == (5, 10)
    assert cfg.detection.cluster_counts == (2, 3)


def test_negative_sim_time_names_the_key(tmp_path):
    with pytest.raises(ScenarioError, match="sim_time_s"):
        _load(tmp_path, "[simulation]\nsim_time_s = -5\n")


def test_unknown_section_and_key_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="weather"):
        _load(tmp_path, "[weather]\nrain = yes\n")
    with pytest.raises(ScenarioError, match="warp_speed"):
        _load(tmp_path, "[simulation]\nwarp_speed = 9\n")


def test_fixed_model_fields_reject_alternatives(tmp_path):
    with pytest.raises(ScenarioError, match="routing"):
        _load(tmp_path, "[simulation]\nrouting = dsr\n")
    with pytest.raises(ScenarioError, match="pathloss"):
        _load(tmp_path, "[simulation]\npathloss = two-ray\n")
    with pytest.raises(ScenarioError, match="mobility"):
        _load(tmp_path, "[simulation]\nmobility = static\n")


def test_value_type_errors_name_the_key(tmp_path):
    with pytest.raises(ScenarioError, match="seed"):
        _load(tmp_path, "[simulation]\nseed = soon\n")


def test_missing_file_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("/no/such/scenario.ini")


def test_malformed_syntax_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="malformed"):
        _load(tmp_path, "sim_time_s = 5\n")  # key before any section header


def test_cross_field_validation(tmp_path):
    with pytest.raises(ScenarioError, match="service_count"):
        _load(tmp_path, "[discovery]\nnode_count = 5\nservice_count = 9\n")
    with pytest.raises(ScenarioError, match="policies"):
        _load(tmp_path, "[spectrum]\npolicies = greedy\n")
    with pytest.raises(ScenarioError, match="scale_min"):
        _load(tmp_path, "[spectrum]\nscale_min = 2.0\nscale_max = 1.0\n")


def test_echo_reports_every_effective_parameter():
    echo = ScenarioConfig().echo()
    assert echo["simulation"]["sim_time_s"] == 500.0
    assert echo["spectrum"]["n_window"] == 5
    assert echo["discovery"]["advert_hops"] == 2
    assert set(echo) == {"simulation", "detection", "spectrum", "discovery"}


_FLOAT_KEYS = [(section, f.name)
               for section, block in ScenarioConfig().__dict__.items()
               for f in fields(block) if isinstance(getattr(block, f.name), float)]


def test_float_key_list_covers_every_section():
    assert {section for section, _ in _FLOAT_KEYS} == {
        "simulation", "detection", "spectrum", "discovery"}
    assert ("simulation", "sim_time_s") in _FLOAT_KEYS


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", _FLOAT_KEYS)
def test_non_finite_float_is_rejected_naming_the_key(tmp_path, section, key, raw):
    with pytest.raises(ScenarioError, match=rf"^{key}: must be finite"):
        _load(tmp_path, f"[{section}]\n{key} = {raw}\n")


@pytest.mark.parametrize("section,key", [("simulation", "pause_max_s"),
                                         ("spectrum", "su_start_s")])
def test_negative_time_is_rejected_but_zero_allowed(tmp_path, section, key):
    with pytest.raises(ScenarioError, match=rf"^{key}: must be >= 0"):
        _load(tmp_path, f"[{section}]\n{key} = -1\n")
    assert getattr(getattr(_load(tmp_path, f"[{section}]\n{key} = 0\n"), section), key) == 0.0
