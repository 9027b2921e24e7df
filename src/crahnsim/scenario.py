"""Scenario configuration: INI-style sections with simulation-table defaults.

Grammar: configparser sections `[simulation]`, `[detection]`, `[spectrum]`,
`[discovery]`; `key = value` pairs. Every key has a default, so an empty file
is a valid scenario. Unknown sections or keys are rejected.
"""

import configparser
import math
from dataclasses import asdict, dataclass, field, fields

from .spectrum import POLICIES

# most runs of one periodic loop (mobility and beacon ticks, adverts) that a
# scenario may ask for: sim_time_s / interval
MAX_TICKS = 10**6


class ScenarioError(ValueError):
    pass


@dataclass
class SimulationConfig:
    sim_time_s: float = 500.0
    area_width_m: float = 1000.0
    area_height_m: float = 1000.0
    routing: str = "aodv"
    pathloss: str = "free-space"
    mobility: str = "random-waypoint"
    seed: int = 1
    replications: int = 30
    radio_range_m: float = 250.0
    beacon_interval_s: float = 1.0
    v_min_mps: float = 1.0
    v_max_mps: float = 5.0
    pause_max_s: float = 10.0


@dataclass
class DetectionConfig:
    sensor_count: int = 30
    cluster_counts: tuple = (1, 2, 3, 4, 5)
    disaster_count: int = 3
    intensity: float = 8.0


@dataclass
class SpectrumConfig:
    su_count: int = 5
    pu_counts: tuple = (5, 10, 15, 20, 25)
    n_window: int = 5
    policies: tuple = POLICIES
    scale_min: float = 0.2
    scale_max: float = 2.6
    su_start_s: float = 100.0


@dataclass
class DiscoveryConfig:
    node_count: int = 50
    service_count: int = 10
    query_count: int = 30
    advert_interval_s: float = 10.0
    advert_hops: int = 2
    service_ttl_s: float = 30.0


@dataclass
class ScenarioConfig:
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    spectrum: SpectrumConfig = field(default_factory=SpectrumConfig)
    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)

    def validate(self) -> None:
        for block in (self.simulation, self.detection, self.spectrum, self.discovery):
            for f in fields(block):
                value = getattr(block, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ScenarioError(f"{f.name}: must be finite, got {value}")
                if isinstance(value, tuple):
                    dup = next((v for i, v in enumerate(value) if v in value[:i]), None)
                    if dup is not None:
                        raise ScenarioError(f"{f.name}: duplicate entry {dup!r}")
        s = self.simulation
        _positive("sim_time_s", s.sim_time_s)
        _positive("area_width_m", s.area_width_m)
        _positive("area_height_m", s.area_height_m)
        _positive("radio_range_m", s.radio_range_m)
        _positive("beacon_interval_s", s.beacon_interval_s)
        if s.routing != "aodv":
            raise ScenarioError(f"routing: only 'aodv' is supported, got {s.routing!r}")
        if s.pathloss != "free-space":
            raise ScenarioError(f"pathloss: only 'free-space' is supported, got {s.pathloss!r}")
        if s.mobility != "random-waypoint":
            raise ScenarioError(
                f"mobility: only 'random-waypoint' is supported, got {s.mobility!r}")
        if s.replications < 1:
            raise ScenarioError(f"replications: must be >= 1, got {s.replications}")
        if not 0 <= s.v_min_mps <= s.v_max_mps:
            raise ScenarioError(f"v_min_mps/v_max_mps: need 0 <= min <= max")
        if s.pause_max_s < 0:
            raise ScenarioError(f"pause_max_s: must be >= 0, got {s.pause_max_s}")
        d = self.detection
        _at_least_one("sensor_count", d.sensor_count)
        _at_least_one("disaster_count", d.disaster_count)
        _positive("intensity", d.intensity)
        if not d.cluster_counts or any(c < 1 for c in d.cluster_counts):
            raise ScenarioError("cluster_counts: all entries must be >= 1")
        sp = self.spectrum
        _at_least_one("su_count", sp.su_count)
        _at_least_one("n_window", sp.n_window)
        if not sp.pu_counts or any(c < 1 for c in sp.pu_counts):
            raise ScenarioError("pu_counts: all entries must be >= 1")
        if not 0 < sp.scale_min <= sp.scale_max:
            raise ScenarioError("scale_min/scale_max: need 0 < min <= max")
        if sp.su_start_s < 0:
            raise ScenarioError(f"su_start_s: must be >= 0, got {sp.su_start_s}")
        for pol in sp.policies:
            if pol not in POLICIES:
                raise ScenarioError(f"policies: unknown policy {pol!r}")
        dc = self.discovery
        _at_least_one("node_count", dc.node_count)
        _at_least_one("service_count", dc.service_count)
        _at_least_one("query_count", dc.query_count)
        _at_least_one("advert_hops", dc.advert_hops)
        _positive("advert_interval_s", dc.advert_interval_s)
        _positive("service_ttl_s", dc.service_ttl_s)
        if dc.service_count > dc.node_count:
            raise ScenarioError("service_count: cannot exceed node_count")
        for key, interval in (("beacon_interval_s", s.beacon_interval_s),
                              ("advert_interval_s", dc.advert_interval_s)):
            if s.sim_time_s / interval > MAX_TICKS:
                raise ScenarioError(f"{key}: sim_time_s / {key} = {s.sim_time_s / interval:.6g}"
                                    f" ticks, more than {MAX_TICKS}")

    def echo(self) -> dict:
        """Every effective parameter, defaults included."""
        return {
            "simulation": asdict(self.simulation),
            "detection": asdict(self.detection),
            "spectrum": asdict(self.spectrum),
            "discovery": asdict(self.discovery),
        }


def _positive(name, value):
    if value <= 0:
        raise ScenarioError(f"{name}: must be positive, got {value}")


def _at_least_one(name, value):
    if value < 1:
        raise ScenarioError(f"{name}: must be >= 1, got {value}")


_SECTIONS = {
    "simulation": SimulationConfig,
    "detection": DetectionConfig,
    "spectrum": SpectrumConfig,
    "discovery": DiscoveryConfig,
}


def _convert(name: str, raw: str, default):
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            parts = [p.strip() for p in raw.split(",")]
            if not all(parts):
                raise ValueError("empty entry")  # e.g. `1, , 2` or a trailing comma
            elem = default[0] if default else ""
            if isinstance(elem, int):
                return tuple(int(p) for p in parts)
            return tuple(parts)
        return raw.strip()
    except ValueError as exc:
        raise ScenarioError(f"{name}: invalid value {raw!r} ({exc})") from exc


def load_scenario(path) -> ScenarioConfig:
    # no interpolation: a '%' in a value is plain text, rejected by conversion
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc
    cfg = ScenarioConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(f"unknown section [{section}]")
        block = getattr(cfg, section)
        known = {f.name: getattr(block, f.name) for f in fields(block)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")
            setattr(block, key, _convert(key, raw, known[key]))
    cfg.validate()
    return cfg
