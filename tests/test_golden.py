"""Golden outputs: short scenarios must keep writing the same bytes.

The discovery digests were recorded before the flood-suppression fast path
in `Network.broadcast`, so they pin the rule that a given scenario and seed
produce byte-identical output across speedups. Discovery draws only from
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
position.

A change that is meant to change these numbers must say so and record new
digests.
"""

import hashlib

from crahnsim.experiments import run_experiment
from crahnsim.scenario import ScenarioConfig

GOLDEN_SHA256 = {
    "discovery_rows.csv": "5b99a138e2a3af9dc1cd51792f6ac0caabf6c0f4dff7b903e636b539afa5c06e",
    "discovery_report.json": "2fd1916bd631714fd50b731832e6157a45888b2d7ab4e51ab38e95e085e84308",
}

ALL_SHA256 = {
    "detection_report.json": "c351baf7ae41ed25b14cd31f51d2d361801e2eb5b3252051669dd3506870586d",
    "detection_rows.csv": "58929b4c1b21e2c6cd8f1cdf29ae215bfc3c51909b8872557a0ae10b491c12c4",
    "discovery_report.json": "1017b521acecad32cd0c1ee6be8c19fe749c14d321858972a4403cbec943c52b",
    "discovery_rows.csv": "3d3bc9d9fe18c6379cec33b31bd32a057611c61680ea548a9dab23713db83b73",
    "fig10_policy_comparison.svg":
        "e91c019853ef32fdc94625ffedb86c54a467ade53e103ebae0eb05e775caa66f",
    "fig11_data.csv": "31435bdacaff275d86eed64a9fa3b19730b98d68ab4bbea99a3f45798a100693",
    "fig11_discovery_latency.svg":
        "8cb6bf812720c4bd40a4adca5b616633705d3b745f39b0fd9e6d32290fac28af",
    "fig8_data.csv": "675e57c749c25626c6683db1a0987d3a4901ac420daf105b122601f0beb54567",
    "fig8a_false_negative_rate.svg":
        "09d57475b43c1922f7af881eb6fb39d6f5edda3b451a9600c40f4977e62a8157",
    "fig8b_response_time.svg": "dfe315cfd7a19c554d9dddaa29e62de55c86a6fbcdd30ccc569e64e0a21d4369",
    "fig9_10_data.csv": "9b63b98cfd9dfe8038f52afc841e4dfbfd84e02ab76477c44b38f92489359b02",
    "fig9_switching_time.svg": "291e4bf2c6861ada39ab9ca3b13905b7d32ca94c4f042375de5851ad84f066ac",
    "spectrum_report.json": "fee3d56efaab7e4023f628754c759c2a79ba3f876a77f5a7b93dfa8485cbedbf",
    "spectrum_rows.csv": "fdd97beb51acfb32808af0c2db6dbe4e6fd2a638970bdc55467ca84404eec810",
}

SINGLE_POLICY_SHA256 = {
    "fig9_10_data.csv": "67f3ddec888782464b65cbf91fe30358a530ba86f3e7a971255fbbc14497c0da",
    "fig9_switching_time.svg": "3e66127d168e4c3817fbba1bf3045200fb43e7ed7c28e245b1fe048823007d21",
    "spectrum_report.json": "5ccdf2a83e9d30dee87f097449c8fb4d3d74de54b5b8b01d4a32daff280012ee",
    "spectrum_rows.csv": "80117c96696525245c10a614c05538b0748d212bdfd01e973303898d4cc23770",
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
