"""Golden outputs: short scenarios must keep writing the same bytes.

The discovery digests were first recorded before the flood-suppression fast
path in `Network.broadcast`, and held across every speedup since, which pins
the rule that a given scenario and seed produce byte-identical output. They
(both entries of `GOLDEN_SHA256` and the four discovery entries of
`ALL_SHA256`) were re-recorded once, for a declared protocol change: an SREQ
is forwarded or answered only on its first arrival at a node, a node sends at
most one SREP per query, and adverts take their sequence numbers from the
node's one sequence counter. Fewer sends take fewer MAC delay draws, so the
later draws and the discovery numbers moved. Discovery draws only from
PCG64 streams and does no BLAS arithmetic, so those digests do not depend on
the platform.

The digests of every file `run_experiment(cfg, "all", ...)` writes, and of a
single-policy spectrum run, were recorded before the experiments were driven
by one `ExperimentSpec` each. Detection and the `mlp-history` spectrum policy
train MLPs through numpy matmul, so unlike discovery's these digests are
recorded for one numpy build (numpy 2.4.6 with its bundled OpenBLAS 0.3.31,
x86-64 Linux) and may differ under another numpy build or BLAS. The five
spectrum entries of `ALL_SHA256` were re-recorded when spectrum cells began
placing their nodes in the scenario's area (600 m square here) instead of
the 1000 m default. `SINGLE_POLICY_SHA256` stayed: random-baseline reads no
position. Both were re-recorded once more, for a declared change of the
spectrum draws: each PU draws its durations from its own `pu-activity-{i}`
stream, not from one stream shared by all PUs in merged time order, and the
SUs are placed from their own `su-placement` stream, not after the PUs.

`DISCOVERY_TRACE_SHA256` pins the kernel trace (time, event id, target and
kind of every event run) of one discovery replication with the
`discovery-flood` benchmark settings, at replication seed 29000. Output
digests see the order of events only through aggregates; this pin sees it
event by event, so a refactor of discovery that claims to keep event order
is checked by it. Like the discovery digests, it does not depend on the
platform.

A change that is meant to change these numbers must say so and record new
digests; a declared change of discovery's events re-pins the trace too.
"""

import functools
import hashlib

from crahnsim import experiments
from crahnsim.experiments import run_experiment
from crahnsim.kernel import Kernel
from crahnsim.scenario import ScenarioConfig

GOLDEN_SHA256 = {
    "discovery_rows.csv": "7b709c75451e4f992728f95985c1b4d23ab6d5e12c882f6d4e0bf4bd4b0ba3a2",
    "discovery_report.json": "005f77e5483ac67f9c340d70f9cd46b93fdc0c0a48f2713c122ec0ce3793ef55",
}

ALL_SHA256 = {
    "detection_report.json": "c351baf7ae41ed25b14cd31f51d2d361801e2eb5b3252051669dd3506870586d",
    "detection_rows.csv": "58929b4c1b21e2c6cd8f1cdf29ae215bfc3c51909b8872557a0ae10b491c12c4",
    "discovery_report.json": "ca7084a6232271ff830ca63e5a35bce196d8f970a16e3d8fc918c5fc4ed170c1",
    "discovery_rows.csv": "f3fe904c55f1892654b047cbc17500552a926c4731b2614f6debeeb8279cabd4",
    "fig10_policy_comparison.svg":
        "5da5310215f01654de8416e9cab13c4bc05e11e24c2e2d86c73dc96e3d9560f3",
    "fig11_data.csv": "16bd18a5582f6aee060740c9673bdc09bf927d96e2b6ea5422d430eeab7d768a",
    "fig11_discovery_latency.svg":
        "2e4f3839de3fec133173315f63fdab3c9e628633e5f979097a3ab9851a4a3cee",
    "fig8_data.csv": "675e57c749c25626c6683db1a0987d3a4901ac420daf105b122601f0beb54567",
    "fig8a_false_negative_rate.svg":
        "09d57475b43c1922f7af881eb6fb39d6f5edda3b451a9600c40f4977e62a8157",
    "fig8b_response_time.svg": "dfe315cfd7a19c554d9dddaa29e62de55c86a6fbcdd30ccc569e64e0a21d4369",
    "fig9_10_data.csv": "2c6da18c628e9ab759a87194f6eab9d62ad13b7aea4377c02cf2ddfe35dc56a7",
    "fig9_switching_time.svg": "a9b3681569eecf285526d184cbb65f185486fb11504deb654c102f56378b3211",
    "spectrum_report.json": "669ac872bca45e8b68640f000a29800d3428973feadd1685bb829b73fdc1ca23",
    "spectrum_rows.csv": "f204178e669ccbbb6db3077c575132b0c381343d9838897d488b4ab950617dfb",
}

DISCOVERY_TRACE_EVENTS = 21861
DISCOVERY_TRACE_SHA256 = "9179e352f5ff9fdc847a007d5f15a0b74e2642376512261462834b89f0e654d7"

SINGLE_POLICY_SHA256 = {
    "fig9_10_data.csv": "89c733dfb240e9f187644c5e6ca62357309d2acc842c07724b7ced26eaa877ff",
    "fig9_switching_time.svg": "4adec70c1c569228a94f6479c721d41ce45dd241574f03239a09d3961b9022fe",
    "spectrum_report.json": "fc0d6a00b43856ef7310bbb8ad2ac38b74b15424aa85842ffee9fdd0333ad6d4",
    "spectrum_rows.csv": "1fa99191759cb08c0b1f5930f7a61a9fc52176056fb12d090a9b94ade317fee9",
}


def _digests(out_dir) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


def _short_scenario(policies=("mlp-history", "random-baseline")) -> ScenarioConfig:
    cfg = ScenarioConfig()
    s = cfg.simulation
    s.sim_time_s = 160.0
    s.replications = 2
    s.seed = 7
    s.area_width_m = s.area_height_m = 600.0
    cfg.detection.sensor_count = 10
    cfg.detection.cluster_counts = (1, 2)
    cfg.detection.disaster_count = 1
    cfg.spectrum.pu_counts = (4, 8)
    cfg.spectrum.su_count = 2
    cfg.spectrum.policies = policies
    cfg.discovery.node_count = 20
    cfg.discovery.service_count = 3
    cfg.discovery.query_count = 12
    cfg.discovery.advert_interval_s = 60.0
    cfg.discovery.advert_hops = 1
    return cfg


def test_short_discovery_scenario_matches_golden_digests(tmp_path):
    cfg = ScenarioConfig()
    cfg.simulation.sim_time_s = 100.0
    cfg.simulation.replications = 1
    cfg.discovery.query_count = 60
    (report,) = run_experiment(cfg, "discovery", out_dir=str(tmp_path))
    # the scenario exercises floods, not only cache hits
    assert report.rows[0]["misses_resolved"] > 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


def test_short_scenario_of_all_experiments_matches_golden_digests(tmp_path):
    reports = run_experiment(_short_scenario(), "all", out_dir=str(tmp_path))
    # every experiment produced rows, and discovery both hits and floods
    assert all(r.rows and not r.errors for r in reports)
    assert all(row["cache_hits"] and row["misses_resolved"] for row in reports[2].rows)
    # the file list is pinned too: both policies draw fig10
    assert _digests(tmp_path) == ALL_SHA256


def test_single_policy_spectrum_draws_fig9_only(tmp_path):
    run_experiment(_short_scenario(("random-baseline",)), "spectrum", out_dir=str(tmp_path))
    assert _digests(tmp_path) == SINGLE_POLICY_SHA256


def test_discovery_replication_matches_golden_trace(monkeypatch):
    log = []
    monkeypatch.setattr(experiments, "Kernel", functools.partial(Kernel, trace=log))
    cfg = ScenarioConfig()
    cfg.simulation.replications = 1
    cfg.discovery.query_count = 300
    cfg.discovery.advert_hops = 1
    experiments.run_discovery_replication(cfg, 29000)
    assert len(log) == DISCOVERY_TRACE_EVENTS
    assert hashlib.sha256("\n".join(log).encode()).hexdigest() == DISCOVERY_TRACE_SHA256
