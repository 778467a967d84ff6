"""Run single scenarios, run speed sweeps, and serialize results.

A run steps the world from t=0 until a collision, or until the pedestrian
has cleared the AV's lane plus a 5-second tail; the pedestrian walks at
constant speed from its calibrated entry, so every run ends one of those
two ways. The per-step trace is recorded at every timestep so the TTC and
pressure histories can be plotted by any external tool.

Serialized TTC uses 10000 seconds as the no-valid-TTC sentinel; inside the
package the absence of a TTC is always None.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import world as world_mod
from .scenario import (CLEARANCE_TAIL_S, CalibrationError, ConfigError, ScenarioConfig, SimResult,
                       build_world, calibrate_entry, config_for)
from .ttc import TtcOutcome
from .world import los_occluded

NO_TTC_SENTINEL_S = 10000.0

DEFAULT_SWEEP_SPEEDS_MPH: tuple[float, ...] = tuple(float(s) for s in range(10, 75, 5))

RESULTS_HEADER = (
    "speed_mph,strategy,detected_time_s,first_ttc_s,min_ttc_s,"
    "collision,collision_time_s,max_pressure_bar"
)

TRACE_HEADER = "t_s,av_x_m,av_speed_mps,ped_x_m,ped_y_m,ttc_s,pressure_bar,detected,occluded"


@dataclass(slots=True)
class StepRecord:
    """One trace row, recorded after every step. Not frozen: a frozen
    dataclass costs several times as much to build, once per step."""

    t_s: float
    av_x_m: float
    av_speed_mps: float
    ped_x_m: float
    ped_y_m: float
    ttc_s: float
    pressure_bar: float
    detected: bool
    occluded: bool


@dataclass(frozen=True)
class SweepSpec:
    """Speeds and base configuration of a sweep; both strategies run at
    every speed with identical seeds so the pair is directly comparable."""

    speeds_mph: tuple[float, ...] = DEFAULT_SWEEP_SPEEDS_MPH
    base: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        if not self.speeds_mph:
            raise ConfigError("speeds_mph must not be empty")
        # Check every speed's config and calibration before any run starts.
        for s in self.speeds_mph:
            try:
                calibrate_entry(config_for(self.base, s, True))
            except (CalibrationError, ConfigError) as exc:
                raise type(exc)(f"{s:g} mph: {exc}") from None


def serialize_ttc(outcome: TtcOutcome) -> float:
    """None (no valid TTC) becomes the 10000 s sentinel."""
    return NO_TTC_SENTINEL_S if outcome is None else outcome


def run_scenario(cfg: ScenarioConfig, braking: bool = True) -> tuple[SimResult, list[StepRecord]]:
    """Run one scenario to completion and return its result row and trace.

    ``braking=False`` runs the same world with the pressure command
    discarded; it exists so tests can verify that the calibrated scenario
    collides when unmitigated.
    """
    w = build_world(cfg)
    policy = cfg.policy()
    channel = cfg.channel()
    tx_pos, tx_body = w.transmitter.pos, w.transmitter_body
    clearance_y = cfg.av_lane_y + cfg.r_sum_m

    trace: list[StepRecord] = []
    min_ttc: float | None = None
    max_pressure = 0.0
    cleared_at: float | None = None

    while True:
        world_mod.step(w, cfg.dt_s, policy, channel, cfg.v2v, braking=braking)

        ttc_s, pressure = w.last_ttc_s, w.last_pressure_bar
        if ttc_s is not None:
            min_ttc = ttc_s if min_ttc is None else min(min_ttc, ttc_s)
        max_pressure = max(max_pressure, pressure)
        # Fields in StepRecord order; the sight line runs from the AV's
        # front-center sensor.
        trace.append(StepRecord(
            w.t_s, w.av_x, w.av_speed, w.ped_x, w.ped_y, serialize_ttc(ttc_s), pressure,
            w.last_estimate is not None,
            los_occluded(w.av_x + w.av_radius_m, w.av_y, w.ped_x, w.ped_y, tx_pos, tx_body),
        ))

        if w.collided:
            break
        if cleared_at is None and w.ped_y > clearance_y:
            cleared_at = w.t_s
        if cleared_at is not None and w.t_s >= cleared_at + CLEARANCE_TAIL_S:
            break

    result = SimResult(
        av_speed_mph=cfg.av_speed_mph,
        strategy="with_v2v" if cfg.v2v else "without_v2v",
        detected_time_s=w.detected_time_s,
        first_ttc_s=w.first_ttc_s,
        min_ttc_s=min_ttc,
        collision=w.collided,
        collision_time_s=w.collision_time_s,
        max_pressure_bar=max_pressure,
    )
    return result, trace


def sweep(spec: SweepSpec) -> list[SimResult]:
    """One result per (speed, strategy) pair, ordered by speed and then
    strategy (with_v2v before without_v2v). Each run's trace is dropped
    as soon as the run ends."""
    return [run_scenario(cfg)[0] for cfg in _sweep_configs(spec)]


def sweep_with_traces(spec: SweepSpec) -> list[tuple[SimResult, list[StepRecord]]]:
    """Like :func:`sweep` but keeping each run's trace."""
    return [run_scenario(cfg) for cfg in _sweep_configs(spec)]


def _sweep_configs(spec: SweepSpec) -> list[ScenarioConfig]:
    return [config_for(spec.base, speed, v2v)
            for speed in spec.speeds_mph for v2v in (True, False)]


def _fmt_time(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _fmt_ttc(value: float | None) -> str:
    # The sentinel prints bare, matching its role as an out-of-band marker.
    if value is None or value >= NO_TTC_SENTINEL_S:
        return "10000"
    return f"{value:.4f}"


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def write_results_csv(results: list[SimResult]) -> str:
    """Results as CSV text: fixed header, 4-decimal times, locale-free."""
    if not results:
        raise ValueError("no results to serialize")
    lines = [RESULTS_HEADER]
    for r in results:
        lines.append(",".join((
            f"{r.av_speed_mph:g}",
            r.strategy,
            _fmt_time(r.detected_time_s),
            _fmt_ttc(r.first_ttc_s),
            _fmt_ttc(r.min_ttc_s),
            _fmt_bool(r.collision),
            _fmt_time(r.collision_time_s),
            f"{r.max_pressure_bar:.4f}",
        )))
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: list[StepRecord]) -> str:
    """Per-step trace as CSV text."""
    if not trace:
        raise ValueError("no trace rows to serialize")
    lines = [TRACE_HEADER]
    for rec in trace:
        lines.append(",".join((
            f"{rec.t_s:.4f}",
            f"{rec.av_x_m:.4f}",
            f"{rec.av_speed_mps:.4f}",
            f"{rec.ped_x_m:.4f}",
            f"{rec.ped_y_m:.4f}",
            _fmt_ttc(rec.ttc_s),
            f"{rec.pressure_bar:.4f}",
            _fmt_bool(rec.detected),
            _fmt_bool(rec.occluded),
        )))
    return "\n".join(lines) + "\n"


def save_text(path: str, text: str) -> None:
    """Write text to a file, surfacing the path on failure."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
