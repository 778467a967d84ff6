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
import random
from collections import namedtuple

from .geometry import ActorState, Vec2
from .units import mph_to_mps, to_si
from .world import AV_RADIUS_M, R_SUM_M, WorldState

# Width of the stopped transmitter's rectangular footprint, the occluder;
# its length is the AV's, 2 * AV_RADIUS_M (14.6 ft).
BODY_WIDTH_M = 1.8

# A run ends this long after the pedestrian has cleared the AV's lane.
CLEARANCE_TAIL_S = 5.0

# The most steps a run may take; calibrate_entry rejects longer runs.
MAX_RUN_STEPS = 1_000_000


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


class ScenarioConfig:
    """One experiment's inputs, in the units used at the file boundary.

    Its keys, listed in ``KEYS``, are the annotated defaults below. It is
    built by keyword and read-only. Construction validates every key and
    calibrates the pedestrian's entry, kept as ``ped_entry_time_s``.
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
    tx_stop_gap_m: float = -0.02
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
        # Each key is set once, in order, so all configs share one layout.
        # Never through vars() or __dict__: on CPython 3.11 that builds the
        # instance dict, and every later read of the config costs ~5x.
        for key in self.KEYS:
            object.__setattr__(self, key, values.pop(key, getattr(ScenarioConfig, key)))
        if values:
            raise TypeError(f"ScenarioConfig: unknown keys {', '.join(map(repr, values))}")
        # Every parameter is validated here and nowhere below.
        for key in self.KEYS:
            value = getattr(self, key)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value}")
        positive = (
            "av_speed_mph", "lane_width_ft", "ped_speed_ftps", "approach_time_s",
            "reveal_margin_s", "reveal_margin_slow_s", "tau_max_s", "p_max_bar",
            "d_max_mps2", "av_sensor_range_m", "tx_sensor_range_m", "v2v_range_m",
            "bsm_period_s", "dt_s",
        )
        for name in positive:
            value = getattr(self, name)
            if not value > 0.0:
                raise ConfigError(f"{name}: must be positive, got {value}")
        speeds_mps = {"av_speed_mph": self.av_speed_mps, "ped_speed_ftps": self.ped_speed_mps}
        for name, mps in speeds_mps.items():
            if mps == 0.0:
                raise ConfigError(f"{name}: must be positive in m/s, got {getattr(self, name)}")
        # In one step neither actor may move farther than the contact radius.
        # With calibrate_entry's run-length cap this bounds every speed and
        # distance, so no product on the step path overflows.
        step_m = max(speeds_mps.values()) * self.dt_s
        if step_m > R_SUM_M:
            raise ConfigError(f"dt_s: one step may move an actor at most the contact radius "
                              f"{R_SUM_M:.3f} m, but {self.dt_s} s moves it {step_m:.4g} m")
        if self.num_lanes < 1:
            raise ConfigError(f"num_lanes: must be at least 1, got {self.num_lanes}")
        for name in ("av_lane_index", "transmitter_lane_index"):
            idx = getattr(self, name)
            if not (0 <= idx < self.num_lanes):
                raise ConfigError(f"{name}: must lie in [0, {self.num_lanes}), got {idx}")
        if self.av_lane_index == self.transmitter_lane_index:
            raise ConfigError("av_lane_index: must differ from transmitter_lane_index")
        if self.transmitter_lane_index > self.av_lane_index:
            raise ConfigError(
                "transmitter_lane_index: the transmitter yields in an outer lane, "
                "so its index must be below av_lane_index"
            )
        if not (0.0 < self.av_sensor_fov_half_rad <= math.pi):
            raise ConfigError(
                f"av_sensor_fov_half_rad: must lie in (0, pi], got {self.av_sensor_fov_half_rad}"
            )
        if not (0.0 <= self.drop_prob <= 1.0):
            raise ConfigError(f"drop_prob: must lie in [0, 1], got {self.drop_prob}")
        if self.latency_s < 0.0:
            raise ConfigError(f"latency_s: must be nonnegative, got {self.latency_s}")
        if self.reveal_knee_lo_mph >= self.reveal_knee_hi_mph:
            raise ConfigError(
                "reveal_knee_lo_mph: must be below reveal_knee_hi_mph, got "
                f"{self.reveal_knee_lo_mph} >= {self.reveal_knee_hi_mph}"
            )
        # Last, the config must stage the conflict within the run-length cap.
        object.__setattr__(self, "ped_entry_time_s", calibrate_entry(self))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"ScenarioConfig is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ScenarioConfig:
            return NotImplemented
        return all(getattr(self, key) == getattr(other, key) for key in self.KEYS)

    def __repr__(self) -> str:
        return f"ScenarioConfig({', '.join(f'{k}={getattr(self, k)!r}' for k in self.KEYS)})"

    # Derived SI quantities.

    @property
    def av_speed_mps(self) -> float:
        return mph_to_mps(self.av_speed_mph)

    @property
    def ped_speed_mps(self) -> float:
        return to_si(self.ped_speed_ftps, "ft_per_s")

    @property
    def lane_width_m(self) -> float:
        return to_si(self.lane_width_ft, "ft")

    @property
    def road_width_m(self) -> float:
        return self.num_lanes * self.lane_width_m

    @property
    def av_lane_y(self) -> float:
        return (self.av_lane_index + 0.5) * self.lane_width_m

    @property
    def tx_lane_y(self) -> float:
        return (self.transmitter_lane_index + 0.5) * self.lane_width_m

    def sightline_edge_y(self) -> float:
        """Lateral position of the stopped transmitter's inner edge, where
        the pedestrian first clears the AV's blocked sight line."""
        return self.tx_lane_y + BODY_WIDTH_M / 2.0

    def reveal_margin_for(self, av_speed_mps: float, **override: float) -> float:
        """Seconds between the pedestrian clearing the sight line and the
        unbraked disc contact, interpolated between the slow and fast
        margins across the knee speeds. *override* replaces the value of
        ``reveal_margin_s`` or ``reveal_margin_slow_s``."""
        fast = override.get("reveal_margin_s", self.reveal_margin_s)
        slow = override.get("reveal_margin_slow_s", self.reveal_margin_slow_s)
        lo = mph_to_mps(self.reveal_knee_lo_mph)
        hi = mph_to_mps(self.reveal_knee_hi_mph)
        if av_speed_mps <= lo:
            return slow
        if av_speed_mps >= hi:
            return fast
        frac = (hi - av_speed_mps) / (hi - lo)
        return fast + (slow - fast) * frac


ScenarioConfig.KEYS = tuple(ScenarioConfig.__annotations__)  # the config keys, in order

SimResult = namedtuple("SimResult", "av_speed_mph strategy detected_time_s first_ttc_s min_ttc_s "
                                    "collision collision_time_s max_pressure_bar")
SimResult.__doc__ = "One output row of an experiment run."

# Config file grammar: one "key = value" per line, '#' comments, strict keys.

# Each key's type is that of its default: bool, int or float.
_KEY_TYPES = {key: type(getattr(ScenarioConfig, key)) for key in ScenarioConfig.KEYS}

_TRUE_WORDS = {"on", "true", "yes", "1"}
_FALSE_WORDS = {"off", "false", "no", "0"}


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
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in data:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if kind is bool:
            lowered = value.lower()
            if lowered in _TRUE_WORDS:
                data[key] = True
            elif lowered in _FALSE_WORDS:
                data[key] = False
            else:
                raise ConfigError(f"line {lineno}: {key} expects on/off, got {value!r}")
        elif kind is int:
            try:
                data[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} expects an integer, got {value!r}") from None
        else:
            try:
                data[key] = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} expects a number, got {value!r}") from None
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
    v = cfg.av_speed_mps
    edge_y = cfg.sightline_edge_y()
    contact_y = edge_y + cfg.reveal_margin_for(v) * cfg.ped_speed_mps
    dy = cfg.av_lane_y - contact_y
    if not (0.0 < dy < R_SUM_M):
        for key in ("reveal_margin_s", "reveal_margin_slow_s"):
            margin = cfg.reveal_margin_for(v, **{key: getattr(ScenarioConfig, key)})
            if 0.0 < cfg.av_lane_y - (edge_y + margin * cfg.ped_speed_mps) < R_SUM_M:
                break
        else:
            key = "lane_width_ft"
        raise ConfigError(f"{key}: contact out of reach: the pedestrian's offset from the AV's "
                          f"lane center {dy:.4g} m must lie in (0, {R_SUM_M:.4g})")
    contact_dx = math.sqrt(R_SUM_M * R_SUM_M - dy * dy)
    t_contact = cfg.approach_time_s - contact_dx / v
    walk_time = (contact_y - cfg.ped_start_offset_m) / cfg.ped_speed_mps
    if walk_time <= 0.0:
        raise ConfigError(f"ped_start_offset_m: the start {cfg.ped_start_offset_m:.4g} m is past "
                          f"the contact point {contact_y:.4g} m")
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
        walk_on_s = (cfg.av_lane_y + R_SUM_M - contact_y) / cfg.ped_speed_mps
        key = ("dt_s" if length_s / ScenarioConfig.dt_s <= MAX_RUN_STEPS
               else "approach_time_s" if t_contact >= walk_on_s else "ped_speed_ftps")
        raise ConfigError(f"{key}: the run would take {length_s / cfg.dt_s:.4g} steps, "
                          f"more than the cap of {MAX_RUN_STEPS}")
    return entry


def run_length_s(cfg: ScenarioConfig, entry: float) -> float:
    """Closed-form duration of a run without collision: the entry time,
    the walk until the pedestrian clears the AV's lane, and the tail."""
    walk_s = (cfg.av_lane_y + R_SUM_M - cfg.ped_start_offset_m) / cfg.ped_speed_mps
    return entry + walk_s + CLEARANCE_TAIL_S


def build_world(cfg: ScenarioConfig) -> WorldState:
    """Construct the initial world for a config, at its calibrated entry,
    with the run's fixed sensing geometry worked out once."""
    v = cfg.av_speed_mps

    # The transmitter has already yielded: stopped in the outer lane with
    # its bumper at the walk line (a small overlap keeps the footprint
    # containment test robust while the pedestrian passes the bumper).
    # Its body is as long as the AV's, so its half-length is AV_RADIUS_M.
    tx_x = -cfg.tx_stop_gap_m - AV_RADIUS_M
    tx_y = cfg.tx_lane_y
    transmitter = ActorState(pos=Vec2(tx_x, tx_y), vel=Vec2(0.0, 0.0), radius=AV_RADIUS_M)

    return WorldState(
        # x is measured from the walk line.
        av_x=-v * cfg.approach_time_s,
        av_y=cfg.av_lane_y,
        av_speed=v,
        av_sensor_range_m=cfg.av_sensor_range_m,
        av_sensor_cos_fov=math.cos(cfg.av_sensor_fov_half_rad),
        transmitter=transmitter,
        occluder=(tx_x - AV_RADIUS_M, tx_x + AV_RADIUS_M,
                  tx_y - BODY_WIDTH_M / 2.0, tx_y + BODY_WIDTH_M / 2.0),
        # The pedestrian moves along the walk line and is sensed only
        # once active.
        ped_y=cfg.ped_start_offset_m,
        ped_vy=cfg.ped_speed_mps,
        ped_entry_time_s=cfg.ped_entry_time_s,
        road_width_m=cfg.road_width_m,
        rng=random.Random(cfg.seed),
    )


def replace(cfg: ScenarioConfig, **changes: object) -> ScenarioConfig:
    """A copy of *cfg* with *changes* to its keys, validated and calibrated anew."""
    return ScenarioConfig(**{key: getattr(cfg, key) for key in cfg.KEYS} | changes)


def config_for(base: ScenarioConfig, av_speed_mph: float, v2v: bool) -> ScenarioConfig:
    """A copy of *base* at a different test speed and strategy."""
    return replace(base, av_speed_mph=av_speed_mph, v2v=v2v)
