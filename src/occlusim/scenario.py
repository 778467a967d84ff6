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
succeed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace

from .braking import BrakePolicy
from .geometry import ActorState, Vec2
from .units import mph_to_mps, to_si
from .world import ChannelModel, SensorModel, VehicleBody, WorldState

# Disc radii: half the subject car's body length, and the pedestrian's
# reach envelope (7.3 ft and 5 ft).
AV_RADIUS_M = to_si(7.3, "ft")
PED_RADIUS_M = to_si(5.0, "ft")

# A run ends this long after the pedestrian has cleared the AV's lane.
CLEARANCE_TAIL_S = 5.0

# The most steps a run may take; calibrate_entry rejects longer runs.
MAX_RUN_STEPS = 1_000_000


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


class CalibrationError(ValueError):
    """The requested scenario geometry cannot produce the staged conflict."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment's inputs, in the units used at the file boundary."""

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

    def __post_init__(self) -> None:
        # Every parameter is validated here (the run length in calibrate_entry)
        # and nowhere below.
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name}: must be finite, got {value}")
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
        if step_m > self.r_sum_m:
            raise ConfigError(f"dt_s: one step may move an actor at most the contact radius "
                              f"{self.r_sum_m:.3f} m, but {self.dt_s} s moves it {step_m:.4g} m")
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

    @property
    def r_sum_m(self) -> float:
        return AV_RADIUS_M + PED_RADIUS_M

    def sightline_edge_y(self) -> float:
        """Lateral position of the stopped transmitter's inner edge, where
        the pedestrian first clears the AV's blocked sight line."""
        return self.tx_lane_y + VehicleBody().width_m / 2.0

    def reveal_margin_for(self, av_speed_mps: float) -> float:
        """Seconds between the pedestrian clearing the sight line and the
        unbraked disc contact, interpolated between the slow and fast
        margins across the knee speeds."""
        lo = mph_to_mps(self.reveal_knee_lo_mph)
        hi = mph_to_mps(self.reveal_knee_hi_mph)
        if av_speed_mps <= lo:
            return self.reveal_margin_slow_s
        if av_speed_mps >= hi:
            return self.reveal_margin_s
        frac = (hi - av_speed_mps) / (hi - lo)
        return self.reveal_margin_s + (self.reveal_margin_slow_s - self.reveal_margin_s) * frac

    def policy(self) -> BrakePolicy:
        return BrakePolicy(
            ttc_threshold_s=self.tau_max_s,
            max_pressure_bar=self.p_max_bar,
            max_decel_mps2=self.d_max_mps2,
        )

    def channel(self) -> ChannelModel:
        return ChannelModel(
            latency_s=self.latency_s,
            drop_prob=self.drop_prob,
            range_m=self.v2v_range_m,
            period_s=self.bsm_period_s,
        )


@dataclass(frozen=True)
class SimResult:
    """One output row of an experiment run."""

    av_speed_mph: float
    strategy: str
    detected_time_s: float | None
    first_ttc_s: float | None
    min_ttc_s: float | None
    collision: bool
    collision_time_s: float | None
    max_pressure_bar: float


# Config file grammar: one "key = value" per line, '#' comments, strict keys.

_BOOL_KEYS = {"v2v"}
_INT_KEYS = {"num_lanes", "av_lane_index", "transmitter_lane_index", "seed"}
_CONFIG_KEYS: tuple[str, ...] = tuple(f.name for f in fields(ScenarioConfig))

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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in data:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered in _TRUE_WORDS:
                data[key] = True
            elif lowered in _FALSE_WORDS:
                data[key] = False
            else:
                raise ConfigError(f"line {lineno}: {key} expects on/off, got {value!r}")
        elif key in _INT_KEYS:
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


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config as parseable text; load_config(serialize_config(c))
    reproduces c exactly."""
    lines = []
    for name in _CONFIG_KEYS:
        value = getattr(cfg, name)
        if name in _BOOL_KEYS:
            rendered = "on" if value else "off"
        elif name in _INT_KEYS:
            rendered = str(value)
        else:
            rendered = repr(float(value))
        lines.append(f"{name} = {rendered}")
    return "\n".join(lines) + "\n"


def calibrate_entry(cfg: ScenarioConfig) -> float:
    """Time at which the pedestrian starts walking.

    Closed form: the pedestrian must reach the staged contact point
    exactly when the unbraked AV does. Its lateral position there,
    contact_y, lies reveal_margin seconds of walking past the sight-line
    edge; at that instant, t_contact, the AV center falls short of the
    walk line by the distance that the contact condition |X| = r_sum
    fixes. Raises :class:`CalibrationError` when the pedestrian cannot
    reach the conflict from its start point within the approach window,
    and :class:`ConfigError` when the run would take over MAX_RUN_STEPS.
    """
    v = cfg.av_speed_mps
    contact_y = cfg.sightline_edge_y() + cfg.reveal_margin_for(v) * cfg.ped_speed_mps
    dy = cfg.av_lane_y - contact_y
    if not (0.0 < dy < cfg.r_sum_m):
        raise CalibrationError(
            f"conflict phase out of reach: pedestrian contact offset {dy:.4g} m "
            f"must lie in (0, {cfg.r_sum_m:.4g})"
        )
    contact_dx = math.sqrt(cfg.r_sum_m * cfg.r_sum_m - dy * dy)
    t_contact = cfg.approach_time_s - contact_dx / v
    walk_time = (contact_y - cfg.ped_start_offset_m) / cfg.ped_speed_mps
    if walk_time <= 0.0:
        raise CalibrationError(
            f"pedestrian start offset {cfg.ped_start_offset_m:.4g} m is past the conflict point"
        )
    entry = t_contact - walk_time
    if entry < 0.0:
        raise CalibrationError(
            f"pedestrian cannot reach the conflict in time: needs {walk_time:.4g} s of "
            f"walking but the unbraked AV arrives at t={t_contact:.4g} s"
        )
    length_s = run_length_s(cfg, entry)
    if length_s / cfg.dt_s > MAX_RUN_STEPS:
        # Blame the step if the run would fit at the default one, else the
        # longer of the two spans the run is made of (up to rounding): the
        # approach until contact and the walk on from contact to clearance.
        walk_on_s = (cfg.av_lane_y + cfg.r_sum_m - contact_y) / cfg.ped_speed_mps
        key = ("dt_s" if length_s / ScenarioConfig.dt_s <= MAX_RUN_STEPS
               else "approach_time_s" if t_contact >= walk_on_s else "ped_speed_ftps")
        raise ConfigError(f"{key}: the run would take {length_s / cfg.dt_s:.4g} steps, "
                          f"more than the cap of {MAX_RUN_STEPS}")
    return entry


def run_length_s(cfg: ScenarioConfig, entry: float) -> float:
    """Closed-form duration of a run without collision: the entry time,
    the walk until the pedestrian clears the AV's lane, and the tail."""
    walk_s = (cfg.av_lane_y + cfg.r_sum_m - cfg.ped_start_offset_m) / cfg.ped_speed_mps
    return entry + walk_s + CLEARANCE_TAIL_S


def build_world(cfg: ScenarioConfig) -> WorldState:
    """Construct the initial world for a config, entry time included."""
    entry = calibrate_entry(cfg)
    v = cfg.av_speed_mps

    body = VehicleBody()
    # The transmitter has already yielded: stopped in the outer lane with
    # its bumper at the walk line (a small overlap keeps the footprint
    # containment test robust while the pedestrian passes the bumper).
    transmitter = ActorState(
        pos=Vec2(-cfg.tx_stop_gap_m - body.length_m / 2.0, cfg.tx_lane_y),
        vel=Vec2(0.0, 0.0),
        radius=AV_RADIUS_M,
    )

    return WorldState(
        # x is measured from the walk line.
        av_x=-v * cfg.approach_time_s,
        av_y=cfg.av_lane_y,
        av_speed=v,
        av_radius_m=AV_RADIUS_M,
        av_sensor=SensorModel(
            range_m=cfg.av_sensor_range_m,
            fov_half_angle_rad=cfg.av_sensor_fov_half_rad,
        ),
        transmitter=transmitter,
        transmitter_body=body,
        tx_sensor_range_m=cfg.tx_sensor_range_m,
        # The pedestrian moves and is sensed only once active.
        ped_x=0.0,
        ped_y=cfg.ped_start_offset_m,
        ped_vx=0.0,
        ped_vy=cfg.ped_speed_mps,
        ped_radius_m=PED_RADIUS_M,
        ped_entry_time_s=entry,
        road_width_m=cfg.road_width_m,
        rng=random.Random(cfg.seed),
    )


def config_for(base: ScenarioConfig, av_speed_mph: float, v2v: bool) -> ScenarioConfig:
    """A copy of *base* at a different test speed and strategy."""
    return replace(base, av_speed_mph=av_speed_mph, v2v=v2v)
