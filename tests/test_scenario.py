"""Scenario file loading: defaults, validation, key rejection."""

import string
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crahnsim.experiments import run_experiment
from crahnsim.scenario import MAX_TICKS, ScenarioConfig, ScenarioError, load_scenario
from crahnsim.spectrum import POLICIES


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


@pytest.mark.parametrize("section,line", [
    ("detection", "cluster_counts = 1, , 2"), ("spectrum", "pu_counts = 5,"),
    ("detection", "cluster_counts ="), ("spectrum", "policies = mlp-history,,random-baseline")])
def test_empty_list_entry_is_rejected_naming_the_key(tmp_path, section, line):
    key = line.split("=")[0].strip()
    with pytest.raises(ScenarioError, match=rf"^{key}: .*empty entry"):
        _load(tmp_path, f"[{section}]\n{line}\n")


@pytest.mark.parametrize("section,line,dup", [
    ("detection", "cluster_counts = 1, 2, 1", "1"), ("spectrum", "pu_counts = 5, 5", "5"),
    ("spectrum", "policies = mlp-history, random-baseline, mlp-history", "'mlp-history'")])
def test_duplicate_list_entry_is_rejected_naming_the_key(tmp_path, section, line, dup):
    # a duplicate would run the same cells twice with the same seeds
    key = line.split("=")[0].strip()
    with pytest.raises(ScenarioError, match=rf"^{key}: duplicate entry {dup}$"):
        _load(tmp_path, f"[{section}]\n{line}\n")


def test_negative_sim_time_names_the_key(tmp_path):
    with pytest.raises(ScenarioError, match="sim_time_s"):
        _load(tmp_path, "[simulation]\nsim_time_s = -5\n")


def test_unknown_section_and_key_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="weather"):
        _load(tmp_path, "[weather]\nrain = yes\n")
    with pytest.raises(ScenarioError, match="warp_speed"):
        _load(tmp_path, "[simulation]\nwarp_speed = 9\n")


@pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n",
                                  "[DEFAULT]\nseed = 3\n\n[detection]\nsensor_count = 12\n"],
                         ids=["alone", "with-detection"])
def test_default_section_is_rejected_as_unknown(tmp_path, text):
    # configparser would otherwise apply its keys to every section, or drop them
    with pytest.raises(ScenarioError, match=r"^unknown section \[DEFAULT\]$"):
        _load(tmp_path, text)


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


def test_policies_default_to_every_policy_the_simulator_runs(tmp_path):
    assert _load(tmp_path, "").spectrum.policies == POLICIES
    for policy in POLICIES:
        assert _load(tmp_path, f"[spectrum]\npolicies = {policy}\n").spectrum.policies == (policy,)


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


@pytest.mark.parametrize("text,key", [
    ("[simulation]\nsim_time_s = 1e12\n", "beacon_interval_s"),
    ("[simulation]\nbeacon_interval_s = 1e-9\n", "beacon_interval_s"),
    ("[discovery]\nadvert_interval_s = 1e-9\n", "advert_interval_s"),
    (f"[simulation]\nsim_time_s = {MAX_TICKS + 1}\n", "beacon_interval_s"),
    (f"[simulation]\nsim_time_s = {MAX_TICKS}\n[discovery]\nadvert_interval_s = 0.999\n",
     "advert_interval_s"),
    # PU toggles: about sim_time_s / scale_min per PU
    ("[spectrum]\nscale_min = 1e-6\n", "scale_min"),
    (f"[simulation]\nsim_time_s = {MAX_TICKS}\n[spectrum]\nscale_min = 0.999\n", "scale_min"),
])
def test_endless_event_loop_is_rejected_naming_the_key(tmp_path, text, key):
    # checked at validate only: such a run is never started
    with pytest.raises(ScenarioError, match=rf"^{key}: sim_time_s / {key} = .* ticks"):
        _load(tmp_path, text)


def test_event_loop_cap_is_inclusive(tmp_path):
    # beacon ticks and PU toggles both exactly at the cap
    cfg = _load(tmp_path, f"[simulation]\nsim_time_s = {MAX_TICKS}\n[spectrum]\nscale_min = 1\n")
    assert cfg.simulation.sim_time_s / cfg.simulation.beacon_interval_s == MAX_TICKS
    assert cfg.simulation.sim_time_s / cfg.spectrum.scale_min == MAX_TICKS
    cfg = _load(tmp_path, "")  # the defaults pass
    assert cfg.simulation.sim_time_s / cfg.spectrum.scale_min < MAX_TICKS


# what `validate` requires of each numeric key, the other keys at their defaults
_RULES = {
    "positive": ("sim_time_s", "area_width_m", "area_height_m", "radio_range_m",
                 "beacon_interval_s", "v_max_mps", "intensity", "scale_min", "scale_max",
                 "advert_interval_s", "service_ttl_s"),
    "non-negative": ("v_min_mps", "pause_max_s", "su_start_s"),
    "at-least-one": ("replications", "sensor_count", "disaster_count", "su_count",
                     "n_window", "node_count", "service_count", "query_count",
                     "advert_hops"),
    "entries-at-least-one": ("cluster_counts", "pu_counts"),
    "any-integer": ("seed",),
}
_RULE_OF = {key: rule for rule, keys in _RULES.items() for key in keys}
_SECTION_OF = {f.name: section for section, block in ScenarioConfig().__dict__.items()
               for f in fields(block)}


def test_invalid_value_rules_cover_every_numeric_key():
    numeric = {f.name for block in ScenarioConfig().__dict__.values() for f in fields(block)
               if not isinstance(getattr(block, f.name), (str, tuple))
               or f.name in ("cluster_counts", "pu_counts")}
    assert set(_RULE_OF) == numeric


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


_NON_NUMERIC = st.text(alphabet=string.ascii_letters + string.digits + string.punctuation + " ",
                       max_size=12).filter(lambda t: not _is_number(t))
_NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "+Infinity", "-infinity"])
_NEGATIVE_FLOAT = st.floats(min_value=1e-300, max_value=1e300).map(lambda x: repr(-x))
_NEGATIVE_INT = st.integers(max_value=-1).map(str)


def _invalid_values(rule):
    if rule == "any-integer":
        return st.one_of(_NON_NUMERIC, _NON_FINITE)
    if rule == "entries-at-least-one":
        # one bad entry among valid ones; an empty or blank entry is bad too
        bad_entry = st.one_of(_NON_NUMERIC.filter(lambda t: "," not in t),
                              _NON_FINITE, _NEGATIVE_INT, st.just("0"))
        return st.tuples(st.lists(st.integers(1, 30).map(str), max_size=3), bad_entry,
                         st.integers(0, 3)).map(
            lambda parts: ", ".join(parts[0][:parts[2]] + [parts[1]] + parts[0][parts[2]:]))
    if rule == "at-least-one":
        return st.one_of(_NON_NUMERIC, _NON_FINITE, _NEGATIVE_INT, st.just("0"))
    bad = [_NON_NUMERIC, _NON_FINITE, _NEGATIVE_FLOAT]
    if rule == "positive":
        bad.append(st.sampled_from(["0", "0.0", "-0.0"]))
    return st.one_of(bad)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_invalid_numeric_value_is_rejected_naming_the_key(tmp_path, data):
    key = data.draw(st.sampled_from(sorted(_RULE_OF)), label="key")
    raw = data.draw(_invalid_values(_RULE_OF[key]), label="value")
    with pytest.raises(ScenarioError) as err:
        _load(tmp_path, f"[{_SECTION_OF[key]}]\n{key} = {raw}\n")
    assert key in str(err.value).split(":")[0]


# values set in code rather than read from a file: `validate` checks that each
# has its default's type, and names the key
@pytest.mark.parametrize("section,key,value,message", [
    ("detection", "cluster_counts", [1, 1], r"must be a tuple of integers, got \[1, 1\]"),
    ("discovery", "query_count", True, "must be an integer, got True"),
    ("simulation", "sim_time_s", "500", "must be a number, got '500'"),
    ("simulation", "replications", 2.0, "must be an integer, got 2.0"),
    ("simulation", "routing", None, "must be a string, got None"),
    ("spectrum", "pu_counts", (5, 10.0), r"must be a tuple of integers, got \(5, 10.0\)"),
    ("spectrum", "policies", ("random-baseline", 1),
     r"must be a tuple of strings, got \('random-baseline', 1\)"),
])
def test_value_of_another_type_is_rejected_naming_the_key(section, key, value, message):
    cfg = ScenarioConfig()
    setattr(getattr(cfg, section), key, value)
    with pytest.raises(ScenarioError, match=rf"^{key}: {message}$"):
        cfg.validate()


@pytest.mark.parametrize("key", sorted(_SECTION_OF))
def test_every_key_rejects_a_bool(key):
    cfg = ScenarioConfig()
    setattr(getattr(cfg, _SECTION_OF[key]), key, True)
    with pytest.raises(ScenarioError, match=rf"^{key}: must be .*, got True$"):
        cfg.validate()


def test_run_refuses_a_list_for_a_tuple_before_writing(tmp_path):
    cfg = ScenarioConfig()
    cfg.detection.cluster_counts = [1, 2]
    with pytest.raises(ScenarioError, match="^cluster_counts: must be a tuple of integers"):
        run_experiment(cfg, "detection", replications=1, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
