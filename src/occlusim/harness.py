"""Run single scenarios, run speed sweeps, and serialize results.

A run steps the world from t=0 until a collision, or until the pedestrian
has cleared the AV's lane plus a 5-second tail; the pedestrian walks at
constant speed from the entry its config calibrated, so every run ends one
of those two ways. From what each step returns the run keeps its first
detection with that step's TTC and its collision, each timed at the world
time before the step, and one trace row per step for any plotting tool. A
sweep builds, and so validates and calibrates, every run's config before
the first run starts.

Serialized TTC and a trace row's TTC use 10000 seconds as the no-valid-TTC
sentinel; elsewhere in the package the absence of a TTC is always None.
"""

from __future__ import annotations

from collections import namedtuple

from . import world as world_mod
from .braking import BrakePolicy
from .scenario import (CLEARANCE_TAIL_S, ConfigError, ScenarioConfig, SimResult, build_world,
                       config_for)
from .world import AV_RADIUS_M, R_SUM_M, los_occluded

NO_TTC_SENTINEL_S = 10000.0

# A TTC is None or nonnegative, so none is at or below this law's threshold.
_UNBRAKED = BrakePolicy(tau_max_s=-1.0)

DEFAULT_SWEEP_SPEEDS_MPH: tuple[float, ...] = tuple(float(s) for s in range(10, 75, 5))

RESULTS_HEADER = (
    "speed_mph,strategy,detected_time_s,first_ttc_s,min_ttc_s,"
    "collision,collision_time_s,max_pressure_bar"
)

TRACE_HEADER = "t_s,av_x_m,av_speed_mps,ped_x_m,ped_y_m,ttc_s,pressure_bar,detected,occluded"
# One trace row in TRACE_HEADER's column order; ped_x_m is always 0, and
# the no-valid-TTC sentinel prints bare.
_TRACE_ROW = "%.4f,%.4f,%.4f,0.0000,%.4f,%.4f,%.4f,%s,%s"
_TRACE_ROW_NO_TTC = "%.4f,%.4f,%.4f,0.0000,%.4f,10000,%.4f,%s,%s"
_BOOL_TEXT = ("false", "true")


StepRecord = namedtuple("StepRecord",
                        "t_s av_x_m av_speed_mps ped_y_m ttc_s pressure_bar detected sight")
StepRecord.__doc__ = """One trace row, recorded after every step from values the step has
already produced. ``ttc_s`` holds the 10000 s sentinel when there was
no valid TTC. ``sight`` is the run's (sensor lane y, occluder bounds),
one tuple shared by every row of a run: the ``occluded`` column is
worked out from it by :func:`write_trace_csv`, only when a trace is
written. The pedestrian's x is the walk line's, 0, in every row."""


class SweepSpec:
    """Speeds and base configuration of a sweep; both strategies run at
    every speed with identical seeds so the pair is directly comparable.
    ``configs`` holds every run's config, ordered by speed and then
    strategy (with_v2v before without_v2v). No base means the default one."""

    def __init__(self, speeds_mph: tuple[float, ...] = DEFAULT_SWEEP_SPEEDS_MPH,
                 base: ScenarioConfig | None = None) -> None:
        if not speeds_mph:
            raise ConfigError("speeds_mph must not be empty")
        self.speeds_mph = speeds_mph
        self.base = base = ScenarioConfig() if base is None else base
        configs = []
        for s in speeds_mph:
            try:
                configs += (config_for(base, s, v2v) for v2v in (True, False))
            except ConfigError as exc:
                raise ConfigError(f"{speed_label(s)} mph: {exc}") from None
        self.configs = tuple(configs)


def speed_label(mph: float) -> str:
    """The shortest text that reads back as *mph*, without a trailing
    ".0": 45.0 prints as 45 and 100.0001 as itself."""
    text = repr(float(mph))
    return text[:-2] if text.endswith(".0") else text


def run_scenario(cfg: ScenarioConfig, braking: bool = True) -> tuple[SimResult, list[StepRecord]]:
    """Run one scenario to completion and return its result row and trace.

    ``braking=False`` runs the same world under a brake law that no TTC
    engages, so every step commands and applies 0.0; tests use it to verify
    that the calibrated scenario collides when unmitigated.
    """
    w = build_world(cfg)
    policy = cfg if braking else _UNBRAKED
    clearance_y = cfg.av_lane_y + R_SUM_M

    trace: list[StepRecord] = []
    detected_at: float | None = None
    first_ttc: float | None = None
    min_ttc: float | None = None
    max_pressure = 0.0
    collision_at: float | None = None
    cleared_at: float | None = None
    t_s = 0.0  # the world's time before the coming step: the last row's t_s

    # Bound once per run: what the loop calls and what never changes
    # during a run. world.step is looked up here, so a wrapper installed
    # on it before the run still sees every step. A row is built the way
    # namedtuple's _make builds one, without its Python frame.
    step = world_mod.step
    record = trace.append
    new_row = tuple.__new__
    dt = cfg.dt_s
    v2v = cfg.v2v
    sight = (w.av_y, w.occluder)

    while True:
        ttc_s, pressure, source, contact = step(w, dt, policy, cfg, v2v)

        if source is not None and detected_at is None:
            detected_at = t_s
            first_ttc = ttc_s
        if ttc_s is not None and (min_ttc is None or ttc_s < min_ttc):
            min_ttc = ttc_s
        if pressure > max_pressure:
            max_pressure = pressure
        # Fields in StepRecord order; no valid TTC is stored as the
        # sentinel, and the occluded cell is left to write_trace_csv.
        t_next = w.t_s
        ped_y = w.ped_y
        record(new_row(StepRecord, (
            t_next, w.av_x, w.av_speed, ped_y,
            NO_TTC_SENTINEL_S if ttc_s is None else ttc_s, pressure,
            source is not None, sight,
        )))

        if contact:  # the first contact ends the run, after its row
            collision_at = t_s
            break
        t_s = t_next
        if cleared_at is None and ped_y > clearance_y:
            cleared_at = t_s
        if cleared_at is not None and t_s >= cleared_at + CLEARANCE_TAIL_S:
            break

    result = SimResult(
        av_speed_mph=cfg.av_speed_mph,
        strategy="with_v2v" if cfg.v2v else "without_v2v",
        detected_time_s=detected_at,
        first_ttc_s=first_ttc,
        min_ttc_s=min_ttc,
        collision=collision_at is not None,
        collision_time_s=collision_at,
        max_pressure_bar=max_pressure,
    )
    return result, trace


def sweep(spec: SweepSpec) -> list[SimResult]:
    """One result per config of *spec*, in its order. Each run's trace is
    dropped as soon as the run ends."""
    return [run_scenario(cfg)[0] for cfg in spec.configs]


def _fmt_time(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _fmt_ttc(value: float | None) -> str:
    # The sentinel prints bare, matching its role as an out-of-band marker.
    if value is None or value >= NO_TTC_SENTINEL_S:
        return "10000"
    return f"{value:.4f}"


def write_results_csv(results: list[SimResult]) -> str:
    """Results as CSV text: fixed header, 4-decimal times, locale-free."""
    if not results:
        raise ValueError("no results to serialize")
    lines = [RESULTS_HEADER]
    for r in results:
        lines.append(",".join((
            speed_label(r.av_speed_mph),
            r.strategy,
            _fmt_time(r.detected_time_s),
            _fmt_ttc(r.first_ttc_s),
            _fmt_ttc(r.min_ttc_s),
            _BOOL_TEXT[r.collision],
            _fmt_time(r.collision_time_s),
            f"{r.max_pressure_bar:.4f}",
        )))
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: list[StepRecord]) -> str:
    """Per-step trace as CSV text. The ped_x_m column keeps the trace's
    layout: the pedestrian crosses at x = 0, so it is always 0.0000. The
    occluded column is the sight line from the AV's front-center sensor
    to the pedestrian, checked against the row's occluder."""
    if not trace:
        raise ValueError("no trace rows to serialize")
    lines = [TRACE_HEADER]
    append = lines.append
    for t_s, av_x, speed, ped_y, ttc_s, pressure, detected, (sensor_y, occluder) in trace:
        occluded = los_occluded(av_x + AV_RADIUS_M, sensor_y, 0.0, ped_y, occluder)
        # One format per row; %.4f prints exactly what f"{x:.4f}" does.
        if ttc_s >= NO_TTC_SENTINEL_S:
            append(_TRACE_ROW_NO_TTC % (t_s, av_x, speed, ped_y, pressure,
                                        _BOOL_TEXT[detected], _BOOL_TEXT[occluded]))
        else:
            append(_TRACE_ROW % (t_s, av_x, speed, ped_y, ttc_s, pressure,
                                 _BOOL_TEXT[detected], _BOOL_TEXT[occluded]))
    return "\n".join(lines) + "\n"


def save_text(path: str, text: str) -> None:
    """Write text to a file, surfacing the path on failure."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
