"""README's scenario example is what the loader reads."""

import re
from pathlib import Path

from crahnsim.scenario import ScenarioConfig, load_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_scenario_example_shows_the_defaults(tmp_path):
    # the text above the example says it shows the defaults
    (example,) = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    path = tmp_path / "readme.ini"
    path.write_text(example)
    assert load_scenario(path).echo() == ScenarioConfig().echo()
