"""Scenario configuration: INI-style sections with simulation-table defaults.

Grammar: configparser sections `[simulation]`, `[detection]`, `[spectrum]`,
`[discovery]` (the fields of `ScenarioConfig`); `key = value` pairs. Every key
has a default, so an empty file is a valid scenario. Unknown sections or keys
are rejected. A default the models share is the model module's constant.
"""

import configparser
import math
from dataclasses import asdict, dataclass, field, fields

from .discovery import DEFAULT_ADVERT_HOPS, DEFAULT_ADVERT_INTERVAL_S, DEFAULT_SERVICE_TTL_S
from .kernel import DEFAULT_SIM_TIME_S
from .mobility import (DEFAULT_AREA_M, DEFAULT_PAUSE_MAX_S, DEFAULT_RADIO_RANGE_M,
                       DEFAULT_V_MAX, DEFAULT_V_MIN)
from .spectrum import (DEFAULT_N_WINDOW, DEFAULT_SCALE_MAX, DEFAULT_SCALE_MIN,
                       DEFAULT_SU_COUNT, DEFAULT_SU_START_S, POLICIES)

# most runs of one periodic loop (mobility and beacon ticks, adverts) that a
# scenario may ask for: sim_time_s / interval; also the most PU toggles,
# about sim_time_s / scale_min per PU
MAX_TICKS = 10**6


class ScenarioError(ValueError):
    pass


@dataclass
class SimulationConfig:
    sim_time_s: float = DEFAULT_SIM_TIME_S
    area_width_m: float = DEFAULT_AREA_M
    area_height_m: float = DEFAULT_AREA_M
    routing: str = "aodv"
    pathloss: str = "free-space"
    mobility: str = "random-waypoint"
    seed: int = 1
    replications: int = 30
    radio_range_m: float = DEFAULT_RADIO_RANGE_M
    beacon_interval_s: float = 1.0
    v_min_mps: float = DEFAULT_V_MIN
    v_max_mps: float = DEFAULT_V_MAX
    pause_max_s: float = DEFAULT_PAUSE_MAX_S


@dataclass
class DetectionConfig:
    sensor_count: int = 30
    cluster_counts: tuple = (1, 2, 3, 4, 5)
    disaster_count: int = 3
    intensity: float = 8.0


@dataclass
class SpectrumConfig:
    su_count: int = DEFAULT_SU_COUNT
    pu_counts: tuple = (5, 10, 15, 20, 25)
    n_window: int = DEFAULT_N_WINDOW
    policies: tuple = POLICIES
    scale_min: float = DEFAULT_SCALE_MIN
    scale_max: float = DEFAULT_SCALE_MAX
    su_start_s: float = DEFAULT_SU_START_S


@dataclass
class DiscoveryConfig:
    node_count: int = 50
    service_count: int = 10
    query_count: int = 30
    advert_interval_s: float = DEFAULT_ADVERT_INTERVAL_S
    advert_hops: int = DEFAULT_ADVERT_HOPS
    service_ttl_s: float = DEFAULT_SERVICE_TTL_S


def is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# by the type of a key's default: (what a value must be, what a tuple of
# values must be, the test of one value)
_TYPES = {int: ("an integer", "a tuple of integers", is_integer),
          float: ("a number", "a tuple of numbers", is_number),
          str: ("a string", "a tuple of strings", lambda value: isinstance(value, str))}


def _type_problem(value, default):
    """What is wrong with the type of `value` for a key whose default is
    `default`, or None: a float's value may be an integer, a tuple's is a
    tuple of its first entry's type."""
    if isinstance(default, tuple):
        _, name, test = _TYPES[type(default[0])]
        fits = isinstance(value, tuple) and all(map(test, value))
    else:
        name, _, test = _TYPES[type(default)]
        fits = test(value)
    return None if fits else f"must be {name}, got {value!r}"


# per-key rules: each returns what is wrong with a value, or None

def _positive(value):
    return None if value > 0 else f"must be positive, got {value}"


def _non_negative(value):
    return None if value >= 0 else f"must be >= 0, got {value}"


def _at_least_one(value):
    return None if value >= 1 else f"must be >= 1, got {value}"


def _entries_at_least_one(value):
    return None if value and all(v >= 1 for v in value) else "all entries must be >= 1"


def _only(fixed):
    return lambda value: None if value == fixed else f"only {fixed!r} is supported, got {value!r}"


def _known_policies(value):
    unknown = next((p for p in value if p not in POLICIES), None)
    return None if unknown is None else f"unknown policy {unknown!r}"


# seed takes any integer; v_min_mps/v_max_mps and scale_min/scale_max are
# checked as ranges by `validate`
_RULE_OF = {
    **dict.fromkeys(("sim_time_s", "area_width_m", "area_height_m", "radio_range_m",
                     "beacon_interval_s", "intensity", "advert_interval_s",
                     "service_ttl_s"), _positive),
    **dict.fromkeys(("pause_max_s", "su_start_s"), _non_negative),
    **dict.fromkeys(("replications", "sensor_count", "disaster_count", "su_count",
                     "n_window", "node_count", "service_count", "query_count",
                     "advert_hops"), _at_least_one),
    **dict.fromkeys(("cluster_counts", "pu_counts"), _entries_at_least_one),
    "routing": _only(SimulationConfig.routing),
    "pathloss": _only(SimulationConfig.pathloss),
    "mobility": _only(SimulationConfig.mobility),
    "policies": _known_policies,
}


@dataclass
class ScenarioConfig:
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    spectrum: SpectrumConfig = field(default_factory=SpectrumConfig)
    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)

    def validate(self) -> None:
        """Each key in turn: the type of its default, finite, no repeated
        entry, its own rule; then the rules that relate keys."""
        for section in fields(self):
            block = getattr(self, section.name)
            for f in fields(block):
                value = getattr(block, f.name)
                problem = _type_problem(value, f.default)
                if problem is not None:
                    raise ScenarioError(f"{f.name}: {problem}")
                if isinstance(value, float) and not math.isfinite(value):
                    raise ScenarioError(f"{f.name}: must be finite, got {value}")
                if isinstance(value, tuple):
                    dup = next((v for i, v in enumerate(value) if v in value[:i]), None)
                    if dup is not None:
                        raise ScenarioError(f"{f.name}: duplicate entry {dup!r}")
                problem = _RULE_OF[f.name](value) if f.name in _RULE_OF else None
                if problem is not None:
                    raise ScenarioError(f"{f.name}: {problem}")
        s, sp, dc = self.simulation, self.spectrum, self.discovery
        if not 0 <= s.v_min_mps <= s.v_max_mps:
            raise ScenarioError("v_min_mps/v_max_mps: need 0 <= min <= max")
        if not 0 < sp.scale_min <= sp.scale_max:
            raise ScenarioError("scale_min/scale_max: need 0 < min <= max")
        if dc.service_count > dc.node_count:
            raise ScenarioError("service_count: cannot exceed node_count")
        for key, interval in (("beacon_interval_s", s.beacon_interval_s),
                              ("advert_interval_s", dc.advert_interval_s),
                              ("scale_min", sp.scale_min)):
            if s.sim_time_s / interval > MAX_TICKS:
                raise ScenarioError(f"{key}: sim_time_s / {key} = {s.sim_time_s / interval:.6g}"
                                    f" ticks, more than {MAX_TICKS}")

    def echo(self) -> dict:
        """Every effective parameter, defaults included: {section: {key: value}}."""
        return asdict(self)

    @classmethod
    def from_echo(cls, echo: dict) -> "ScenarioConfig":
        """The config whose `echo()` is `echo`; a list stands for a tuple."""
        return cls(**{f.name: f.type(**{key: tuple(v) if isinstance(v, list) else v
                                        for key, v in echo[f.name].items()})
                      for f in fields(cls)})


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
    # no interpolation: a '%' in a value is plain text, rejected by conversion;
    # no default section: no header can be empty, so [DEFAULT] is an unknown
    # section rather than keys applied to every section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc
    cfg = ScenarioConfig()
    sections = {f.name for f in fields(cfg)}
    for section in parser.sections():
        if section not in sections:
            raise ScenarioError(f"unknown section [{section}]")
        block = getattr(cfg, section)
        known = {f.name: getattr(block, f.name) for f in fields(block)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")
            setattr(block, key, _convert(key, raw, known[key]))
    cfg.validate()
    return cfg
