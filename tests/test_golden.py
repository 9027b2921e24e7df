"""Golden outputs: a short discovery scenario must keep writing the same bytes.

The digests were recorded before the flood-suppression fast path in
`Network.broadcast`, so they pin the rule that a given scenario and seed
produce byte-identical output across speedups. Discovery draws only from
PCG64 streams and does no BLAS arithmetic, so the digests do not depend on
the platform. A change that is meant to change these numbers must say so
and record new digests.
"""

import hashlib

from crahnsim.experiments import run_experiment
from crahnsim.scenario import ScenarioConfig

GOLDEN_SHA256 = {
    "discovery_rows.csv": "5b99a138e2a3af9dc1cd51792f6ac0caabf6c0f4dff7b903e636b539afa5c06e",
    "discovery_report.json": "2fd1916bd631714fd50b731832e6157a45888b2d7ab4e51ab38e95e085e84308",
}


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
