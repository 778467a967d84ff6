"""Scenario configuration and calibration.

The bundled scenario is a mid-block crossing on a multilane road. The AV
approaches in the inner lane at a constant test speed. A second vehicle
(the transmitter) has already yielded in the outer lane, stopped flush
with the walk line and hiding it from the AV. A pedestrian walks in from
the roadside, passes in front of the stopped vehicle's bumper, and crosses
toward the AV's lane.

Entry calibration picks the instant the pedestrian starts walking so that,
if the AV never brakes, the two collision discs first touch a configured
interval after the pedestrian clears the stopped vehicle's inner edge.
That construction guarantees an unmitigated collision at every test speed
while pinning how much sight-line warning the AV gets: a short window at
15 mph and above, a longer one at 10 mph where an emergency stop can still
succeed. Calibration is the last rule of the config boundary: a config
that cannot stage the conflict raises :class:`ConfigError` naming a key,
like any other invalid config.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from collections import namedtuple

from .geometry import Vec2
from .world import AV_RADIUS_M, METERS_PER_FOOT, R_SUM_M, WorldState

MPS_PER_MPH = 0.44704  # exact: 1,609.344 m in 3,600 s

# Width of the stopped transmitter's rectangular footprint, the occluder;
# its length is the AV's, 2 * AV_RADIUS_M (14.6 ft).
BODY_WIDTH_M = 1.8

# A run ends this long after the pedestrian has cleared the AV's lane.
CLEARANCE_TAIL_S = 5.0

# The most steps a run may take; calibrate_entry rejects longer runs.
MAX_RUN_STEPS = 1_000_000

# The SI facts, in m/s and m, that each config works out once from its road-unit keys; the
# last two are the conflict's lines: the stopped transmitter's inner edge and the lane clearance.
_STAGED = ("av_speed_mps", "ped_speed_mps", "road_width_m", "av_lane_y", "tx_lane_y",
           "sightline_edge_y", "clearance_y")


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


# Functions, not inline products: perfbench/tracer.py counts both (ROADMAP item 1).
def mph_to_mps(mph: float) -> float:
    return mph * MPS_PER_MPH


def to_si(ft: float) -> float:  # feet, or feet per second, in meters (per second)
    return ft * METERS_PER_FOOT


# Each key's own range beyond finite, as a test and what the key must do
# to pass it; a key not listed may take any finite value.
_POSITIVE = (lambda v: v > 0.0, "be positive")
_RANGES = {
    "av_speed_mph": _POSITIVE, "lane_width_ft": _POSITIVE,
    "num_lanes": (lambda v: v >= 2, "be at least 2"),  # the AV's lane and the transmitter's
    "ped_speed_ftps": _POSITIVE, "approach_time_s": _POSITIVE,
    "reveal_margin_s": _POSITIVE, "reveal_margin_slow_s": _POSITIVE, "tau_max_s": _POSITIVE,
    "p_max_bar": _POSITIVE, "d_max_mps2": _POSITIVE, "av_sensor_range_m": _POSITIVE,
    "av_sensor_fov_half_rad": (lambda v: 0.0 < v <= math.pi, "lie in (0, pi]"),
    "tx_sensor_range_m": _POSITIVE, "v2v_range_m": _POSITIVE, "bsm_period_s": _POSITIVE,
    "latency_s": (lambda v: v >= 0.0, "be nonnegative"),
    "drop_prob": (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"), "dt_s": _POSITIVE,
}
_EXPECTS = {bool: "on or off (a bool)", int: "an integer", float: "a number"}


def _check_key(key: str, value: object) -> bool | int | float:
    """One key's rules, in order: its default's type (``v2v`` takes only a
    bool, an integer key what ``operator.index`` takes and a number key what
    ``math.isfinite`` takes, but no bool, Python's or numpy's), finite (but
    the seed: random.Random takes any int), held exactly by a float (a float
    key) and its range. Returns the value to store, of the default's own
    type, so a run sees only plain bools, ints and floats. _derive runs them
    on each key a config changes from its base: the constructor's keywords,
    config_for's speed and v2v."""
    kind, in_range, must = _RULES[key]
    try:
        # numpy's bool is no bool subclass: numpy.bool, numpy.bool_ before numpy 2.
        cls = value.__class__
        if (cls is not bool if kind is bool
                else cls is not kind and cls.__name__ in ("bool", "bool_")):
            raise TypeError
        number = operator.index(value) if kind is int else value
        finite = kind is bool or key == "seed" or math.isfinite(number)
    except TypeError:  # an int's digits may be too many to print
        shown = "an integer" if kind is bool and isinstance(value, int) else repr(value)
        raise ConfigError(f"{key}: must be {_EXPECTS[kind]}, got {shown}") from None
    except OverflowError:  # an int too big to convert; never print its digits
        finite, value = False, "an integer too big for a float"
    if not finite:
        raise ConfigError(f"{key}: must be finite, got {value}")
    if kind is float:  # math.isfinite took it, so float() does too
        number = float(value)
        if number != value:
            raise ConfigError(f"{key}: must be a number that a float holds exactly, "
                              f"got {value!r}")
    if in_range is not None and not in_range(value):
        raise ConfigError(f"{key}: must {must}, got {value}")
    return number


def _check_speeds(cfg: ScenarioConfig) -> None:
    speeds_mps = {"av_speed_mph": cfg.av_speed_mps, "ped_speed_ftps": cfg.ped_speed_mps}
    for name, mps in speeds_mps.items():
        if mps == 0.0:
            raise ConfigError(f"{name}: must be positive in m/s, got {getattr(cfg, name)}")
    # In one step neither actor may move farther than the contact radius.
    # With calibrate_entry's run-length cap this bounds every speed and
    # distance, so no product on the step path overflows.
    step_m = max(speeds_mps.values()) * cfg.dt_s
    if step_m > R_SUM_M:
        raise ConfigError(f"dt_s: one step may move an actor at most the contact radius "
                          f"{R_SUM_M:.3f} m, but {cfg.dt_s} s moves it {step_m:.4g} m")


def _derive(cfg: ScenarioConfig, base: dict[str, object],
            changes: dict[str, object]) -> ScenarioConfig:
    """Fill the blank *cfg* from *base*, the attributes of a validated config
    or the defaults, with *changes*, given in key order. Validated here and
    nowhere below: each changed key's own rules, then every rule that reads
    two keys, on every config, and calibration last."""
    attrs = vars(cfg)
    attrs.update(base)
    for key, value in changes.items():
        attrs[key] = _check_key(key, value)
    lane_m = to_si(cfg.lane_width_ft)
    av_y, tx_y = (cfg.av_lane_index + 0.5) * lane_m, (cfg.transmitter_lane_index + 0.5) * lane_m
    attrs.update(zip(_STAGED, (
        mph_to_mps(cfg.av_speed_mph), to_si(cfg.ped_speed_ftps), cfg.num_lanes * lane_m,
        av_y, tx_y, tx_y + BODY_WIDTH_M / 2.0, av_y + R_SUM_M), strict=True))
    _check_speeds(cfg)
    for name in ("av_lane_index", "transmitter_lane_index"):
        idx = getattr(cfg, name)
        if not (0 <= idx < cfg.num_lanes):
            raise ConfigError(f"{name}: must lie in [0, {cfg.num_lanes}), got {idx}")
    if cfg.av_lane_index == cfg.transmitter_lane_index:
        raise ConfigError("av_lane_index: must differ from transmitter_lane_index")
    if cfg.transmitter_lane_index > cfg.av_lane_index:
        raise ConfigError(
            "transmitter_lane_index: the transmitter yields in an outer lane, "
            "so its index must be below av_lane_index"
        )
    if cfg.reveal_knee_lo_mph >= cfg.reveal_knee_hi_mph:
        raise ConfigError(
            "reveal_knee_lo_mph: must be below reveal_knee_hi_mph, got "
            f"{cfg.reveal_knee_lo_mph} >= {cfg.reveal_knee_hi_mph}"
        )
    # Last, the config must stage the conflict within the run-length cap.
    attrs["ped_entry_time_s"] = calibrate_entry(cfg)
    attrs["tail_s"] = CLEARANCE_TAIL_S  # not a key: see run_scenario
    return cfg


class ScenarioConfig:
    """One experiment's inputs, in the units used at the file boundary.

    Its keys, listed in ``KEYS``, are the annotated defaults below. It is
    built by keyword and read-only. Construction derives it from the
    defaults: it validates each given key and every rule that reads two
    keys, sets the ``_STAGED`` SI facts once and calibrates
    ``ped_entry_time_s``. The defaults are code, not input, so their own
    rules run in a test (``test_every_default_passes_its_own_rules_unchanged``),
    not at each construction.

    It has no ``==`` of its own: two configs compare by identity, and the
    tests compare keys with ``tests/_oracle.py::same_config``.
    """

    av_speed_mph: float = 45.0
    v2v: bool = True
    lane_width_ft: float = 12.0
    num_lanes: int = 4
    av_lane_index: int = 1
    transmitter_lane_index: int = 0
    ped_speed_ftps: float = 4.0
    ped_start_offset_m: float = -18.0
    approach_time_s: float = 20.0
    reveal_margin_s: float = 0.18
    reveal_margin_slow_s: float = 0.85
    reveal_knee_lo_mph: float = 10.0
    reveal_knee_hi_mph: float = 15.0
    tau_max_s: float = 10.0
    p_max_bar: float = 200.0
    d_max_mps2: float = 8.0
    av_sensor_range_m: float = 25.0
    av_sensor_fov_half_rad: float = math.pi / 2
    tx_sensor_range_m: float = 150.0
    v2v_range_m: float = 150.0
    bsm_period_s: float = 0.02
    latency_s: float = 0.0
    drop_prob: float = 0.0
    dt_s: float = 0.02
    seed: int = 0

    def __init__(self, **values: object) -> None:
        # Each key is set once, in order, so all configs share one order.
        # With the staged facts a config has 34 attributes, too many for
        # CPython 3.11's shared key table, so each config has its own dict.
        changes = {key: values.pop(key) for key in _DEFAULTS if key in values}
        if values:
            raise TypeError(f"ScenarioConfig: unknown keys {', '.join(map(repr, values))}")
        _derive(self, _DEFAULTS, changes)

    # A copy, not a run_scenario parameter: perfbench/tracer.py's run_scenario hooks take a config.
    def results_only(self) -> ScenarioConfig:
        """This config without the clearance tail: a copy, keys and staged
        facts alike, with ``tail_s`` 0 (not a key), neither validated nor
        calibrated again. Its run ends by ``harness.run_scenario``'s miss rule,
        and keeps the tail only when that rule never fires."""
        copy = object.__new__(ScenarioConfig)
        vars(copy).update(vars(self), tail_s=0.0)
        return copy

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"ScenarioConfig is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"ScenarioConfig({', '.join(f'{k}={getattr(self, k)!r}' for k in self.KEYS)})"


ScenarioConfig.KEYS = tuple(ScenarioConfig.__annotations__)  # the config keys, in order
_DEFAULTS = {key: getattr(ScenarioConfig, key) for key in ScenarioConfig.KEYS}
# Each key's own rules: its default's type (on/off, an integer or a number) and its range.
_RULES = {k: (type(d), *_RANGES.get(k, (None, None))) for k, d in _DEFAULTS.items()}

SimResult = namedtuple("SimResult", "av_speed_mph strategy detected_time_s first_ttc_s min_ttc_s "
                                    "collision collision_time_s max_pressure_bar")
SimResult.__doc__ = "One output row of an experiment run."

# Config file grammar: one "key = value" per line, '#' comments, strict keys.

# Each key is read by the type of its default: a reader, which raises
# KeyError or ValueError on a bad value, and the text that it expects.
_BOOL_WORDS = {"on": True, "true": True, "yes": True, "1": True,
               "off": False, "false": False, "no": False, "0": False}
_READERS = {bool: (lambda value: _BOOL_WORDS[value.lower()], "on/off"),
            int: (int, "an integer"), float: (float, "a number")}
_KEY_READERS = {key: _READERS[kind] for key, (kind, _, _) in _RULES.items()}


def load_config(text: str) -> ScenarioConfig:
    """Parse config text. Unknown keys, bad values, and invariant
    violations all raise :class:`ConfigError`."""
    data: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        reader = _KEY_READERS.get(key)
        if reader is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in data:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        read, expects = reader
        try:
            data[key] = read(value)
        except (KeyError, ValueError):
            # CPython before 3.10.7 has neither int()'s cap nor its getter: 0, no cap.
            limit = getattr(sys, "get_int_max_str_digits", int)()
            digits = value.lstrip("+-").replace("_", "")
            if read is int and len(digits) > limit > 0 and digits.isdecimal():  # int()'s cap
                raise ConfigError(f"line {lineno}: {key} expects an integer, got one of more "
                                  f"than {limit} digits ({value[:16]}...)") from None
            raise ConfigError(f"line {lineno}: {key} expects {expects}, got {value!r}") from None
    return ScenarioConfig(**data)


def calibrate_entry(cfg: ScenarioConfig) -> float:
    """Time at which the pedestrian starts walking; the last config rule.

    Closed form: the pedestrian must reach the staged contact point
    exactly when the unbraked AV does. Its lateral position there,
    contact_y, lies reveal_margin seconds of walking past the sight-line
    edge; at that instant, t_contact, the AV center falls short of the
    walk line by the distance that the contact condition |X| = r_sum
    fixes. Raises :class:`ConfigError` naming a key when the contact lies
    out of the discs' reach, when the pedestrian starts past it or cannot
    reach it within the approach window, and when the run would take over
    MAX_RUN_STEPS. Where several keys could be at fault, it names the
    first one whose default would let the check pass, else a fallback key.
    """
    edge_y, v = cfg.sightline_edge_y, cfg.av_speed_mps
    lo, hi = mph_to_mps(cfg.reveal_knee_lo_mph), mph_to_mps(cfg.reveal_knee_hi_mph)

    def contact_y_for(fast: float, slow: float) -> float:
        # The pedestrian's lateral position at contact: the reveal margin at
        # this speed, interpolated between the slow and fast margins across
        # the knee speeds, walked on past the sight-line edge.
        margin = (slow if v <= lo else fast if v >= hi
                  else fast + (slow - fast) * ((hi - v) / (hi - lo)))
        return edge_y + margin * cfg.ped_speed_mps

    fast, slow = cfg.reveal_margin_s, cfg.reveal_margin_slow_s
    contact_y = contact_y_for(fast, slow)
    dy = cfg.av_lane_y - contact_y
    if not (0.0 < dy < R_SUM_M):
        defaults = ScenarioConfig.reveal_margin_s, ScenarioConfig.reveal_margin_slow_s
        for key, margins in (("reveal_margin_s", (defaults[0], slow)),
                             ("reveal_margin_slow_s", (fast, defaults[1]))):
            if 0.0 < cfg.av_lane_y - contact_y_for(*margins) < R_SUM_M:
                break
        else:
            key = "lane_width_ft"
        raise ConfigError(f"{key}: contact out of reach: the pedestrian's offset from the AV's "
                          f"lane center {dy:.4g} m must lie in (0, {R_SUM_M:.4g})")
    contact_dx = math.sqrt(R_SUM_M * R_SUM_M - dy * dy)
    walk_time = (contact_y - cfg.ped_start_offset_m) / cfg.ped_speed_mps
    if walk_time <= 0.0:
        raise ConfigError(f"ped_start_offset_m: the start {cfg.ped_start_offset_m:.4g} m is past "
                          f"the contact point {contact_y:.4g} m")
    # A speed so small that an actor needs forever to reach the contact, which no
    # other key can make up for.
    for key, span_s in (("av_speed_mph", contact_dx / v), ("ped_speed_ftps", walk_time)):
        if not math.isfinite(span_s):
            raise ConfigError(f"{key}: must be fast enough to reach the contact point in "
                              f"finite time, got {getattr(cfg, key)}")
    t_contact = cfg.approach_time_s - contact_dx / v
    entry = t_contact - walk_time
    if entry < 0.0:
        default_walk = (contact_y - ScenarioConfig.ped_start_offset_m) / cfg.ped_speed_mps
        key = "ped_start_offset_m" if t_contact - default_walk >= 0.0 else "approach_time_s"
        raise ConfigError(f"{key}: the pedestrian cannot reach the conflict in time: it needs "
                          f"{walk_time:.4g} s but the unbraked AV arrives at t={t_contact:.4g} s")
    length_s = run_length_s(cfg, entry)
    if length_s / cfg.dt_s > MAX_RUN_STEPS:
        # Blame the step if the run would fit at the default one, else the
        # longer of the two spans the run is made of (up to rounding): the
        # approach until contact and the walk on from contact to clearance.
        walk_on_s = (cfg.clearance_y - contact_y) / cfg.ped_speed_mps
        key = ("dt_s" if length_s / ScenarioConfig.dt_s <= MAX_RUN_STEPS
               else "approach_time_s" if t_contact >= walk_on_s else "ped_speed_ftps")
        raise ConfigError(f"{key}: the run would take {length_s / cfg.dt_s:.4g} steps, "
                          f"more than the cap of {MAX_RUN_STEPS}")
    return entry


def run_length_s(cfg: ScenarioConfig, entry: float) -> float:
    """Closed-form duration of a run without collision: the entry time,
    the walk until the pedestrian clears the AV's lane, and the tail, which
    the cap counts even though a sweep's run ends before it."""
    walk_s = (cfg.clearance_y - cfg.ped_start_offset_m) / cfg.ped_speed_mps
    return entry + walk_s + CLEARANCE_TAIL_S


def build_world(cfg: ScenarioConfig) -> WorldState:
    """Construct the initial world for a config, at its calibrated entry,
    with the run's fixed sensing geometry worked out once."""
    v = cfg.av_speed_mps

    # The transmitter has already yielded: stopped in the outer lane with its bumper a fixed
    # 0.02 m past the walk line, which calibration's staging assumes (the overlap keeps the
    # footprint containment test robust while the pedestrian passes the bumper). Its body is
    # as long as the AV's, so its half-length is AV_RADIUS_M.
    tx_x = 0.02 - AV_RADIUS_M
    tx_y = cfg.tx_lane_y

    return WorldState(
        # x is measured from the walk line.
        av_x=-v * cfg.approach_time_s,
        av_y=cfg.av_lane_y,
        av_speed=v,
        av_sensor_range_m=cfg.av_sensor_range_m,
        av_sensor_cos_fov=math.cos(cfg.av_sensor_fov_half_rad),
        transmitter=Vec2(tx_x, tx_y),
        # Its inner side is the sight-line edge that calibration stages.
        occluder=(tx_x - AV_RADIUS_M, tx_x + AV_RADIUS_M,
                  tx_y - BODY_WIDTH_M / 2.0, cfg.sightline_edge_y),
        # The pedestrian moves along the walk line and is sensed only
        # once active.
        ped_y=cfg.ped_start_offset_m,
        ped_vy=cfg.ped_speed_mps,
        ped_entry_time_s=cfg.ped_entry_time_s,
        road_width_m=cfg.road_width_m,
        rng=random.Random(cfg.seed) if cfg.v2v and cfg.drop_prob > 0.0 else None,
    )


def config_for(base: ScenarioConfig, av_speed_mph: float, v2v: bool) -> ScenarioConfig:
    """A copy of the validated *base* at a different test speed and
    strategy, derived and checked as the constructor derives a config from
    the defaults. So it accepts and rejects exactly what the full rebuild,
    ``tests/_oracle.py::replace``, does, with the same messages."""
    return _derive(object.__new__(ScenarioConfig), vars(base),
                   {"av_speed_mph": av_speed_mph, "v2v": v2v})
