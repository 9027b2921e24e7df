"""Experiment orchestration and the command-line interface at small scale."""

import json
import math
import os

import pytest

from crahnsim import experiments
from crahnsim.cli import main
from crahnsim.experiments import (load_report, replication_seed, run_experiment)
from crahnsim.scenario import ScenarioConfig, load_scenario
from crahnsim.svgplot import line_chart

SMALL_SCENARIO = """\
[simulation]
sim_time_s = 160
replications = 2
seed = 7

[detection]
sensor_count = 10
cluster_counts = 1, 2
disaster_count = 1

[spectrum]
pu_counts = 4
su_count = 2

[discovery]
node_count = 12
service_count = 3
query_count = 4
"""


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "small.ini"
    path.write_text(SMALL_SCENARIO)
    return path


def _run_all(cfg_path, out_dir):
    cfg = load_scenario(cfg_path)
    return run_experiment(cfg, "all", out_dir=str(out_dir))


def test_outputs_are_byte_identical_across_runs(small_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run_all(small_cfg, a)
    _run_all(small_cfg, b)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    assert any(n.endswith(".svg") for n in names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_replication_seeds_differ_by_replication():
    seeds = [replication_seed(7, r) for r in range(5)]
    assert len(set(seeds)) == 5
    assert replication_seed(7, 0) != replication_seed(8, 0)


def test_report_round_trip_checks_aggregates(small_cfg, tmp_path):
    _run_all(small_cfg, tmp_path)
    for name in ("detection", "spectrum", "discovery"):
        report = load_report(tmp_path / f"{name}_report.json")
        assert report.rows and not report.errors
        # the config echo makes the run reproducible from its own output
        assert report.config["simulation"]["seed"] == 7
    # corrupting an aggregate must be caught on load
    path = tmp_path / "spectrum_report.json"
    raw = json.loads(path.read_text())
    raw["aggregates"][0]["mean_switching_time_s"] += 0.5
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="aggregate"):
        load_report(path)


@pytest.fixture(scope="module")
def small_reports(small_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    _run_all(small_cfg, out)
    return out


def _nan_first_number(raw):
    agg = raw["aggregates"][-1]
    key = next(k for k, v in agg.items() if k.startswith("mean_") and not math.isnan(v))
    agg[key] = float("nan")


CORRUPTIONS = {
    "drop-last-aggregate": lambda raw: raw["aggregates"].pop(),
    "empty-aggregates": lambda raw: raw["aggregates"].clear(),
    "drop-key": lambda raw: raw["aggregates"][0].popitem(),
    "add-key": lambda raw: raw["aggregates"][0].update(made_up_s=1.0),
    "empty-rows": lambda raw: raw.update(rows=[]),
    "number-to-nan": _nan_first_number,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("name", ["detection", "spectrum", "discovery"])
def test_load_report_rejects_corrupted_aggregates(small_reports, tmp_path, name, corruption):
    raw = json.loads((small_reports / f"{name}_report.json").read_text())
    CORRUPTIONS[corruption](raw)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="aggregate"):
        load_report(path)


@pytest.mark.parametrize("edit", [
    lambda raw: raw["seeds"].pop(),
    lambda raw: raw["config"]["simulation"].update(seed=8),
    lambda raw: raw["config"]["simulation"].update(replications=3),
], ids=["drop-seed", "config-seed", "config-replications"])
def test_load_report_rejects_seeds_that_do_not_follow_from_its_config(small_reports,
                                                                       tmp_path, edit):
    raw = json.loads((small_reports / "discovery_report.json").read_text())
    edit(raw)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="seeds"):
        load_report(path)


@pytest.mark.parametrize("section", ["simulation", "detection", "spectrum", "discovery"])
def test_load_report_names_a_missing_config_section(small_reports, tmp_path, section):
    raw = json.loads((small_reports / "discovery_report.json").read_text())
    del raw["config"][section]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=f"^config lacks section {section}$"):
        load_report(path)


@pytest.mark.parametrize("section,keys", [("simulation", ["seed"]),
                                          ("discovery", ["node_count", "query_count"]),
                                          ("detection", ["intensity"])])
def test_load_report_names_missing_config_keys(small_reports, tmp_path, section, keys):
    raw = json.loads((small_reports / "discovery_report.json").read_text())
    for key in keys:
        del raw["config"][section][key]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=f"^config.{section} lacks {', '.join(keys)}$"):
        load_report(path)


MALFORMED = {
    "no-rows": (lambda raw: raw.pop("rows"), r"^report fields \['rows'\] missing or extra$"),
    "extra-field": (lambda raw: raw.update(made_up=1),
                    r"^report fields \['made_up'\] missing or extra$"),
    "rows-string": (lambda raw: raw.update(rows="oops"), "^rows must be a list of objects$"),
    "row-not-object": (lambda raw: raw["rows"].append([1]), "^rows must be a list of objects$"),
    "aggregates-object": (lambda raw: raw.update(aggregates={}),
                          "^aggregates must be a list of objects$"),
    "errors-numbers": (lambda raw: raw.update(errors=[1, 2]),
                       "^errors must be a list of objects$"),
    "config-list": (lambda raw: raw.update(config=[]), "^config must be an object$"),
    "columns-reordered": (lambda raw: raw["columns"].reverse(),
                          r"^columns \['mean_miss_latency_s', .* are not the experiment's "),
    "row-without-a-statistic": (lambda raw: raw["rows"][1].pop("mean_miss_latency_s"),
                                r"^row 1: columns \['mean_miss_latency_s'\] missing or extra$"),
    "row-without-an-unread-column": (lambda raw: raw["rows"][0].pop("queries"),
                                     r"^row 0: columns \['queries'\] missing or extra$"),
    "row-with-an-extra-column": (lambda raw: raw["rows"][0].update(made_up=1),
                                 r"^row 0: columns \['made_up'\] missing or extra$"),
    # values of the wrong type, named with their field
    "config-replications-string": (
        lambda raw: raw["config"]["simulation"].update(replications="2"),
        r'^config.simulation.replications must be an integer, got "2"$'),
    "config-replications-null": (
        lambda raw: raw["config"]["simulation"].update(replications=None),
        "^config.simulation.replications must be an integer, got null$"),
    "config-seed-string": (lambda raw: raw["config"]["simulation"].update(seed="7"),
                           r'^config.simulation.seed must be an integer, got "7"$'),
    "config-bool-for-a-number": (lambda raw: raw["config"]["simulation"].update(sim_time_s=True),
                                 "^config.simulation.sim_time_s must be a number, got true$"),
    "config-list-of-strings": (
        lambda raw: raw["config"]["detection"].update(cluster_counts=["1", "2"]),
        r'^config.detection.cluster_counts must be a list of integers, got \["1", "2"\]$'),
    "row-hit-latency-string": (lambda raw: raw["rows"][0].update(mean_hit_latency_s="x"),
                               r'^row 0: mean_hit_latency_s must be a number or null, '
                               r'got "x"$'),
    "row-queries-string": (lambda raw: raw["rows"][1].update(queries="x"),
                           r'^row 1: queries must be a number or null, got "x"$'),
    "row-replication-list": (lambda raw: raw["rows"][0].update(replication=[1]),
                             r"^row 0: replication must be an integer, got \[1\]$"),
    # rows and error entries that name no cell the config runs, or one named before
    "row-seed": (lambda raw: raw["rows"][0].update(seed=5),
                 r"^row 0: seed 5 is not replication 0's seed \d+$"),
    "replications-swapped": (
        lambda raw: (raw["rows"][0].update(replication=1), raw["rows"][1].update(replication=0)),
        r"^row 0: seed \d+ is not replication 1's seed \d+$"),
    "replication-out-of-range": (lambda raw: raw["rows"][1].update(replication=7),
                                 "^row 1: replication 7 is not one of the config's 2$"),
    "made-up-error": (lambda raw: raw["errors"].append({"made": "up"}),
                      r"^error 0: keys \['error', 'error_type', 'made', 'replication', "
                      r"'seed'\] missing or extra$"),
    "error-text-number": (  # in place of row 1, the replication failed
        lambda raw: raw["errors"].append({"replication": 1, "seed": raw["rows"].pop()["seed"],
                                          "error": 5, "error_type": "RuntimeError"}),
        "^error 0: error must be a string, got 5$"),
    "duplicated-row": (lambda raw: raw["rows"].append(dict(raw["rows"][0])),
                       "^row 2: replication 0 of its grid point is named twice$"),
    "row-and-error": (
        lambda raw: raw["errors"].append({"replication": 1, "seed": raw["seeds"][1],
                                          "error": "boom", "error_type": "RuntimeError"}),
        "^error 0: replication 1 of its grid point is named twice$"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_report_rejects_a_malformed_report_naming_the_problem(small_reports, tmp_path,
                                                                  case):
    raw = json.loads((small_reports / "discovery_report.json").read_text())
    edit, message = MALFORMED[case]
    edit(raw)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=message):
        load_report(path)


def _config_edit(**sections):
    """An edit that updates each named section of a report's config."""
    def edit(raw):
        for section, values in sections.items():
            raw["config"][section].update(values)
    return edit


# (report, edit, message): configs the scenario's rules or the experiment refuse
REFUSED_CONFIGS = {
    "unknown-key": ("discovery", _config_edit(simulation={"bogus": 1}),
                    "^config.simulation.bogus is not a scenario key$"),
    "unknown-section": ("discovery", lambda raw: raw["config"].update(extra={}),
                        "^config.extra is not a scenario section$"),
    "negative-sim-time": ("discovery", _config_edit(simulation={"sim_time_s": -1.0}),
                          "^config.simulation.sim_time_s: must be positive, got -1.0$"),
    "zero-sim-time": ("discovery", _config_edit(simulation={"sim_time_s": 0}),
                      "^config.simulation.sim_time_s: must be positive, got 0$"),
    "unknown-policy": ("discovery", _config_edit(spectrum={"policies": ["bogus"]}),
                       "^config.spectrum.policies: unknown policy 'bogus'$"),
    "other-routing": ("discovery", _config_edit(simulation={"routing": "dsr"}),
                      "^config.simulation.routing: only 'aodv' is supported, got 'dsr'$"),
    "duplicate-pu-count": ("discovery", _config_edit(spectrum={"pu_counts": [5, 5]}),
                           "^config.spectrum.pu_counts: duplicate entry 5$"),
    "detection-too-short": ("detection", _config_edit(simulation={"sim_time_s": 50}),
                            "^config.simulation.sim_time_s: the detection experiment needs "
                            "sim_time_s >= 60, got 50$"),
    "spectrum-sus-never-start": (
        "spectrum", _config_edit(simulation={"sim_time_s": 120}, spectrum={"su_start_s": 500}),
        "^config.spectrum.su_start_s: the spectrum experiment needs su_start_s < "
        "sim_time_s, got 500 >= 120$"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_CONFIGS))
def test_load_report_checks_its_config_by_the_scenario_rules(small_reports, tmp_path, case):
    name, edit, message = REFUSED_CONFIGS[case]
    raw = json.loads((small_reports / f"{name}_report.json").read_text())
    edit(raw)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=message):
        load_report(path)


def test_load_report_rejects_a_report_that_lacks_a_cell(small_reports, tmp_path):
    # both rows have hit latency 0.0: without row 1 the aggregates still match
    raw = json.loads((small_reports / "discovery_report.json").read_text())
    assert [row["mean_hit_latency_s"] for row in raw["rows"]] == [0.0, 0.0]
    del raw["rows"][1]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="^replication 1 of grid point 0 has neither a row "
                                         "nor an error$"):
        load_report(path)


def test_load_report_rejects_a_row_off_the_config_grid(small_reports, tmp_path):
    raw = json.loads((small_reports / "spectrum_report.json").read_text())
    raw["rows"][0]["policy"] = "made-up"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="^row 0: pu_count, policy name no grid point"):
        load_report(path)


def test_load_report_draws_no_seed_for_a_replication_count_its_seeds_lack(
        small_reports, tmp_path, monkeypatch):
    raw = json.loads((small_reports / "discovery_report.json").read_text())
    raw["config"]["simulation"]["replications"] = 10**15
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))

    def no_draw(*_):
        raise AssertionError("a seed list was built for 10**15 replications")
    monkeypatch.setattr(experiments, "replication_seed", no_draw)
    with pytest.raises(ValueError, match="^seeds do not follow"):
        load_report(path)


def test_load_report_takes_an_integer_for_a_float_key(small_reports, tmp_path):
    raw = json.loads((small_reports / "discovery_report.json").read_text())
    assert raw["config"]["simulation"]["sim_time_s"] == 160.0
    raw["config"]["simulation"]["sim_time_s"] = 160
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    assert load_report(path).config["simulation"]["sim_time_s"] == 160


def test_load_report_rejects_a_json_list(small_reports, tmp_path):
    path = tmp_path / "report.json"
    path.write_text(f"[{(small_reports / 'discovery_report.json').read_text()}]")
    with pytest.raises(ValueError, match="^a report is a JSON object, got list$"):
        load_report(path)


def test_overrides_write_what_the_same_scenario_file_writes(tmp_path):
    base = SMALL_SCENARIO.replace("replications = 2\nseed = 7", "replications = 3\nseed = 1")
    same = SMALL_SCENARIO.replace("seed = 7", "seed = 5")
    for name, text in (("base", base), ("same", same)):
        (tmp_path / f"{name}.ini").write_text(text)
    run_experiment(load_scenario(tmp_path / "base.ini"), "discovery", seed=5, replications=2,
                   out_dir=str(tmp_path / "overridden"))
    run_experiment(load_scenario(tmp_path / "same.ini"), "discovery",
                   out_dir=str(tmp_path / "from-file"))
    names = sorted(os.listdir(tmp_path / "overridden"))
    assert names == sorted(os.listdir(tmp_path / "from-file"))
    for name in names:
        assert ((tmp_path / "overridden" / name).read_bytes()
                == (tmp_path / "from-file" / name).read_bytes()), name
    report = load_report(tmp_path / "overridden" / "discovery_report.json")
    assert (report.config["simulation"]["seed"], len(report.seeds)) == (5, 2)


def test_plot_data_matches_report_aggregates(small_cfg, tmp_path):
    cfg = load_scenario(small_cfg)
    (report,) = run_experiment(cfg, "detection", out_dir=str(tmp_path))
    lines = (tmp_path / "fig8_data.csv").read_text().splitlines()
    assert len(lines) == 1 + len(report.aggregates)
    header = lines[0].split(",")
    for line, agg in zip(lines[1:], report.aggregates):
        got = dict(zip(header, line.split(",")))
        assert int(got["cluster_count"]) == agg["cluster_count"]
        # the CSV carries 9 significant digits
        assert float(got["mean_response_time_s"]) == pytest.approx(
            agg["mean_response_time_s"], rel=1e-8)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_experiment(ScenarioConfig(), "quantum")


def test_line_chart_is_deterministic_and_validates():
    series = [("a", [(0.0, 1.0), (1.0, 3.0)]), ("b", [(0.0, 2.0)])]
    svg = line_chart(series, "t", "x", "y")
    assert svg == line_chart(series, "t", "x", "y")
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    with pytest.raises(ValueError):
        line_chart([("empty", [])], "t", "x", "y")


# -- CLI ----------------------------------------------------------------------

def test_cli_validate_good_and_bad(small_cfg, tmp_path, capsys):
    assert main(["validate", "--scenario", str(small_cfg)]) == 0
    bad = tmp_path / "bad.ini"
    bad.write_text("[simulation]\nsim_time_s = -1\n")
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert "sim_time_s" in capsys.readouterr().err


def test_cli_validate_applies_the_checks_of_run_for_its_experiment(tmp_path, capsys):
    scenario = tmp_path / "short.ini"
    scenario.write_text(SMALL_SCENARIO.replace("sim_time_s = 160", "sim_time_s = 50"))
    assert main(["validate", "--scenario", str(scenario)]) == 1
    assert capsys.readouterr().err == (
        "invalid scenario: sim_time_s: the detection experiment needs sim_time_s >= 60, "
        "got 50.0\n")
    assert main(["validate", "--scenario", str(scenario), "--experiment", "discovery"]) == 0
    assert capsys.readouterr().out == "scenario ok\n"


def test_cli_run_writes_report_files(small_cfg, tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(small_cfg), "--experiment", "detection",
                 "--replications", "1", "--out", str(out)])
    assert code == 0
    assert (out / "detection_rows.csv").exists()
    assert (out / "detection_report.json").exists()
    report = load_report(out / "detection_report.json")
    assert len(report.seeds) == 1


def test_cli_run_fails_on_an_unusable_out_dir_before_any_runner(small_cfg, tmp_path,
                                                                monkeypatch, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    called = []
    monkeypatch.setattr(experiments, "_RUNNERS",
                        {name: lambda cfg, name=name: called.append(name)
                         for name in experiments._RUNNERS})
    code = main(["run", "--scenario", str(small_cfg), "--experiment", "detection",
                 "--out", str(out)])
    assert code == 2
    assert called == []
    assert "run failed" in capsys.readouterr().err


@pytest.mark.parametrize("replications", [0, -2])
def test_cli_run_rejects_replications_below_one_before_writing(small_cfg, tmp_path, capsys,
                                                               replications):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(small_cfg), "--experiment", "detection",
                 "--replications", str(replications), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"invalid scenario: replications: must be >= 1, got {replications}\n")
    assert not out.exists()


@pytest.mark.parametrize("sim_time_s", [60, 100])
@pytest.mark.parametrize("experiment", ["spectrum", "all"])
def test_cli_run_rejects_spectrum_sus_that_never_start_before_writing(tmp_path, capsys,
                                                                       experiment, sim_time_s):
    # su_start_s is 100 s: the SUs would never hold a channel
    scenario = tmp_path / "short.ini"
    scenario.write_text(SMALL_SCENARIO.replace("sim_time_s = 160", f"sim_time_s = {sim_time_s}"))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario), "--experiment", experiment,
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"invalid scenario: su_start_s: the spectrum experiment needs su_start_s < "
        f"sim_time_s, got 100.0 >= {float(sim_time_s)}\n")
    assert not out.exists()


def test_short_run_without_spectrum_still_runs(tmp_path):
    scenario = tmp_path / "short.ini"
    scenario.write_text(SMALL_SCENARIO.replace("sim_time_s = 160", "sim_time_s = 60"))
    cfg = load_scenario(scenario)
    for experiment in ("detection", "discovery"):
        (report,) = run_experiment(cfg, experiment, replications=1)
        assert report.rows and not report.errors


@pytest.mark.parametrize("sim_time_s", [50, 59.9])
@pytest.mark.parametrize("experiment", ["detection", "all"])
def test_cli_run_rejects_detection_traces_that_do_not_fit_before_writing(
        tmp_path, capsys, experiment, sim_time_s):
    # trace events start at 20 s or later, last 30 s and end 10 s before the
    # horizon: below 60 s every replication's trace fails, after training
    scenario = tmp_path / "short.ini"
    scenario.write_text(SMALL_SCENARIO.replace("sim_time_s = 160", f"sim_time_s = {sim_time_s}"))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario), "--experiment", experiment,
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"invalid scenario: sim_time_s: the detection experiment needs sim_time_s >= 60, "
        f"got {float(sim_time_s)}\n")
    assert not out.exists()


def test_cli_runs_detection_at_the_shortest_horizon(tmp_path):
    # at 60 s a trace fits exactly: its first event starts at 20 s
    scenario = tmp_path / "short.ini"
    scenario.write_text(SMALL_SCENARIO.replace("sim_time_s = 160", "sim_time_s = 60"))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--experiment", "detection",
                 "--out", str(out)]) == 0
    report = load_report(out / "detection_report.json")
    assert len(report.rows) == 4 and not report.errors
    assert {row["injected"] for row in report.rows} == {1}


def test_cli_run_exits_2_when_a_replication_fails(small_cfg, tmp_path, monkeypatch,
                                                 capsys):
    import crahnsim.experiments as experiments
    real = experiments.run_discovery_replication
    poisoned = replication_seed(7, 1)

    def run_or_raise(cfg, seed, *args, **kwargs):
        if seed == poisoned:
            raise RuntimeError("poisoned replication")
        return real(cfg, seed, *args, **kwargs)
    monkeypatch.setattr(experiments, "run_discovery_replication", run_or_raise)
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(small_cfg), "--experiment", "discovery",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "poisoned replication" in err
    assert f'"seed": {poisoned}' in err
    assert "first (discovery, RuntimeError)" in err
    report = load_report(out / "discovery_report.json")
    assert [r["replication"] for r in report.rows] == [0]
    assert [e["replication"] for e in report.errors] == [1]
    assert report.errors[0]["error_type"] == "RuntimeError"


@pytest.mark.parametrize("experiment,target,error", [
    ("detection", "synthesize_trace", KeyError),
    ("spectrum", "SpectrumSim", ZeroDivisionError),
    ("discovery", "run_discovery_replication", OverflowError),
])
def test_every_runner_records_the_error_type(small_cfg, tmp_path, monkeypatch, experiment,
                                             target, error):
    import crahnsim.experiments as experiments

    def fail(*args, **kwargs):
        raise error("injected")
    monkeypatch.setattr(experiments, target, fail)
    # the detector is trained outside the per-replication guard; skip the training
    monkeypatch.setattr(experiments, "train_detection_model",
                        lambda cfg, counts: [(None, None, {}, None)] * len(counts))
    cfg = load_scenario(small_cfg)
    (report,) = run_experiment(cfg, experiment, replications=1, out_dir=str(tmp_path))
    assert report.errors and not report.rows
    loaded = load_report(tmp_path / f"{experiment}_report.json")
    assert [e["error_type"] for e in loaded.errors] == [error.__name__] * len(report.errors)


def test_cli_validate_rejects_nan(tmp_path, capsys):
    bad = tmp_path / "nan.ini"
    bad.write_text("[simulation]\nsim_time_s = nan\n")
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert "sim_time_s: must be finite" in capsys.readouterr().err


def test_cli_run_rejects_bad_scenario(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[simulation]\nrouting = dsr\n")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == 1


def test_cli_render_situation_text_and_csv(tmp_path):
    db = tmp_path / "db.csv"
    db.write_text(
        "latitude,longitude,situation,timestamp,short_message\n"
        "24.8614620,67.0099390,Red,20052015201820,Injured Persons in critical condition\n"
        "24.8615620,67.0039390,Green,20052015200820,Rescue Work successfully done\n")
    out_txt = tmp_path / "table.txt"
    assert main(["render-situation", "--db", str(db), "--out", str(out_txt)]) == 0
    text = out_txt.read_text()
    assert text.splitlines()[0].split() == ["Location", "Situation", "TimeStamp",
                                            "ShortMessage"]
    assert "24.8614620, 67.0099390" in text
    out_csv = tmp_path / "table.csv"
    assert main(["render-situation", "--db", str(db), "--out", str(out_csv),
                 "--format", "csv"]) == 0
    assert out_csv.read_text().startswith("location,situation,timestamp")


def test_cli_render_situation_bad_db(tmp_path, capsys):
    db = tmp_path / "db.csv"
    db.write_text("lat,lon\n1,2\n")
    assert main(["render-situation", "--db", str(db),
                 "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("row", [
    "24.8614620,67.0099390,Red,20052015201820",
    "24.8614620,67.0099390,Red,20052015201820,Injured,extra"])
def test_cli_render_situation_rejects_wrong_row_length(tmp_path, capsys, row):
    db = tmp_path / "db.csv"
    db.write_text("latitude,longitude,situation,timestamp,short_message\n"
                  "24.8615620,67.0039390,Green,20052015200820,Rescue Work successfully done\n"
                  f"{row}\n")
    out = tmp_path / "table.txt"
    assert main(["render-situation", "--db", str(db), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot load situation db: line 3: ")
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("abc,67.0099390,Red,20052015201820,Injured",
     "could not convert string to float: 'abc'"),
    ("24.8614620,67.0099390,Blue,20052015201820,Injured",
     "situation: not one of ('Red', 'Yellow', 'Green'): 'Blue'")])
def test_cli_render_situation_names_the_line_of_a_bad_field(tmp_path, capsys, row, message):
    db = tmp_path / "db.csv"
    db.write_text("latitude,longitude,situation,timestamp,short_message\n"
                  "24.8615620,67.0039390,Green,20052015200820,Rescue Work successfully done\n"
                  f"{row}\n")
    out = tmp_path / "table.txt"
    assert main(["render-situation", "--db", str(db), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"cannot load situation db: line 3: {message}\n"
    assert not out.exists()
