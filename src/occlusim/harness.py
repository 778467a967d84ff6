"""Run single scenarios, run speed sweeps, and serialize results.

A run steps the world from t=0 until a collision, or until the pedestrian
has cleared the AV's lane plus a 5-second tail: it walks at constant speed
from its calibrated entry, so one comes. A run whose trace is dropped, a
sweep's or a CLI run's without --trace, ends once its path misses for good.
From what each step returns the run keeps its first detection with that
step's TTC and its collision, each timed at the world time before the step,
and one trace row per step for any plotting tool. A sweep builds, and so
validates and calibrates, every run's config before the first run starts.

A trace row is a plain tuple, recorded after every step from what the
step returned and the world it left:
``(t_s, av_x_m, av_speed_mps, ped_y_m, ttc_s, pressure_bar, source, sight)``.
``ttc_s`` is the step's TTC, None when it has none, and ``source`` where
the step's pedestrian estimate came from: None, "sensor" or "v2v".
``sight`` is the run's (sensor lane y, occluder bounds), one tuple shared
by every row of a run: the trace CSV's occluded column is worked out from
it by :func:`write_trace_csv`, only when a trace is written. The
pedestrian's x is the walk line's, 0, in every row. Rows are exact tuples,
not a tuple subclass, so the cyclic garbage collector stops scanning them.

A trace's CSV body is made by one ``%`` over the whole trace: each row
adds its values and one of eight row formats, which bake in the TTC
sentinel and the detected and occluded cells. A speed or pressure cell is
formatted only when the row's float is not the very object the row before
held: the world reassigns the AV's speed only on braked steps, and zero
pressure is one shared constant, so most rows reuse both texts. Reuse is
keyed on identity because the same object always prints the same text,
whereas equal floats need not: ``0.0 == -0.0``, but they print differently.

The CSV writers print a missing TTC, and any of 10000 s or more, as the
sentinel ``10000``; elsewhere, trace rows included, no TTC is None.
"""

from __future__ import annotations

from types import SimpleNamespace

from . import world as world_mod
from .scenario import (CLEARANCE_TAIL_S, ConfigError, ScenarioConfig, SimResult, build_world,
                       config_for)
from .world import AV_RADIUS_M, R_SUM_M, los_occluded

NO_TTC_SENTINEL_S = 10000.0

# A TTC is None or nonnegative, so none is at or below this threshold, and
# the brake law, returning 0, reads no other key.
_UNBRAKED = SimpleNamespace(tau_max_s=-1.0)

# A results-only run's path misses once cross^2 - R^2 a > 2**-30 |X|^2 a. ttc()'s
# b*b - a*c, exactly R^2 a - cross^2, rounds by a few ulps of |X|^2 a, as b*b and a*c are
# at most |X|^2 a; |X| shrinks while the pair closes, so it stays 2**20 below this margin.
_MISS_MARGIN = 2.0 ** -30

DEFAULT_SWEEP_SPEEDS_MPH: tuple[float, ...] = tuple(float(s) for s in range(10, 75, 5))

RESULTS_HEADER = (
    "speed_mph,strategy,detected_time_s,first_ttc_s,min_ttc_s,"
    "collision,collision_time_s,max_pressure_bar"
)

TRACE_HEADER = "t_s,av_x_m,av_speed_mps,ped_x_m,ped_y_m,ttc_s,pressure_bar,detected,occluded"
_BOOL_TEXT = ("false", "true")
# One trace row in TRACE_HEADER's column order, indexed by
# [TTC prints as the sentinel][detected][occluded]. ped_x_m is always 0, the
# no-valid-TTC sentinel prints bare, and the speed and pressure cells
# arrive as text already made with "%.4f".
_TRACE_ROWS = tuple(
    tuple(tuple(f"%.4f,%.4f,%s,0.0000,%.4f,{ttc},%s,{det},{occ}\n" for occ in _BOOL_TEXT)
          for det in _BOOL_TEXT)
    for ttc in ("%.4f", "10000"))


class SweepSpec:
    """The runs of a sweep over speeds from a base configuration; both
    strategies run at every speed with identical seeds so the pair is
    directly comparable. ``configs`` holds every run's config, ordered by
    speed and then strategy (with_v2v before without_v2v). No base means
    the default one."""

    def __init__(self, speeds_mph: tuple[float, ...] = DEFAULT_SWEEP_SPEEDS_MPH,
                 base: ScenarioConfig | None = None) -> None:
        speeds_mph = tuple(speeds_mph)  # an array's truth is an error, a generator's always true
        if not speeds_mph:
            raise ConfigError("speeds_mph must not be empty")
        base = ScenarioConfig() if base is None else base
        configs = []
        for s in speeds_mph:
            try:
                configs += (config_for(base, s, v2v) for v2v in (True, False))
            except ConfigError as exc:
                try:  # a speed that no float holds is shown as it came, or named
                    label = f"{speed_label(s)} mph"
                except (TypeError, ValueError, OverflowError):
                    label = "an integer" if isinstance(s, int) else repr(s)
                raise ConfigError(f"{label}: {exc}") from None
        self.configs = tuple(configs)


def speed_label(mph: float) -> str:
    """The shortest text that reads back as *mph*, without a trailing
    ".0": 45.0 prints as 45 and 100.0001 as itself."""
    text = repr(float(mph))
    return text[:-2] if text.endswith(".0") else text


def run_scenario(cfg: ScenarioConfig, braking: bool = True) -> tuple[SimResult, list[tuple]]:
    """Run one scenario to completion and return its result row and its
    trace: one plain-tuple row per step, laid out as the module says, with
    the TTC (None when there is none) and estimate source the step returned.

    ``braking=False`` runs the same world under a brake law that no TTC
    engages, so every step commands and applies 0.0; tests use it to verify
    that the calibrated scenario collides when unmitigated.

    Each step records its row, then branches once on its estimate: most
    have none, and so nothing to keep. The stop rules run on every step.

    A run that clears ends CLEARANCE_TAIL_S after clearance. One with
    ``cfg.tail_s`` 0 ends on the first step that has detected and has no TTC
    if, after it, the relative path X + V t, with X = (-av_x, ped_y - av_y)
    and V = (-av_speed, ped_vy), misses the contact disc by _MISS_MARGIN. No
    later step can change its result: no TTC, no pressure, so both velocities
    and the cross product X x V stay fixed and the discs never touch; every
    estimate lies on the pedestrian's line (a V2V one, extrapolated at its
    velocity, off by rounding only), so no later TTC is valid either.
    """
    w = build_world(cfg)
    policy = cfg if braking else _UNBRAKED
    clearance_y = cfg.clearance_y

    trace: list[tuple] = []
    detected_at: float | None = None
    first_ttc: float | None = None
    min_ttc: float | None = None
    max_pressure = 0.0
    collision_at: float | None = None
    end_s: float | None = None  # clearance plus the tail, once the pedestrian has cleared
    t_s = 0.0  # the world's time before the coming step: the last row's t_s

    # Bound once per run: what the loop calls and what never changes
    # during a run. world.step is looked up here, so a wrapper installed
    # on it before the run still sees every step.
    step = world_mod.step
    record = trace.append
    dt = cfg.dt_s
    v2v = cfg.v2v
    sight = (w.av_y, w.occluder)
    vy = w.ped_vy
    stops_early = not cfg.tail_s

    while True:
        ttc_s, pressure, source, contact = step(w, dt, policy, cfg, v2v)

        # The documented row; write_trace_csv works out the occluded cell.
        t_next = w.t_s
        ped_y = w.ped_y
        record((t_next, w.av_x, w.av_speed, ped_y, ttc_s, pressure, source, sight))
        if source is not None:
            if detected_at is None:
                detected_at = t_s
                first_ttc = ttc_s
            if ttc_s is not None and (min_ttc is None or ttc_s < min_ttc):
                min_ttc = ttc_s
            if pressure > max_pressure:
                max_pressure = pressure

        if contact:  # the first contact ends the run, after its row
            collision_at = t_s
            break
        t_s = t_next
        if end_s is None and ped_y > clearance_y:
            end_s = t_s + CLEARANCE_TAIL_S
        elif end_s is not None and t_s >= end_s:
            break
        if ttc_s is None and stops_early and detected_at is not None:
            x, y, vx = 0.0 - w.av_x, ped_y - w.av_y, 0.0 - w.av_speed
            a, cross = vx * vx + vy * vy, x * vy - y * vx
            if cross * cross - R_SUM_M * R_SUM_M * a > _MISS_MARGIN * (x * x + y * y) * a:
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
    """One result per config of *spec*, in its order. Each run skips the
    tail that only a trace shows, and its trace is dropped when it ends."""
    return [run_scenario(cfg.results_only())[0] for cfg in spec.configs]


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


def write_trace_csv(trace: list[tuple]) -> str:
    """Per-step trace as CSV text, from rows in the order
    :func:`run_scenario` records them. The ped_x_m column keeps the trace's
    layout: the pedestrian crosses at x = 0, so it is always 0.0000. The
    occluded column is the sight line from the AV's front-center sensor
    to the pedestrian, checked against the row's own sight.

    The body is one ``%`` over the whole trace, the header joined on after
    it. "%.4f" prints exactly what f"{x:.4f}" does. A speed or pressure
    text is made again only when the row's float is not the previous row's
    object: the same object always prints the same text, while a test on
    ``==`` would merge 0.0 with -0.0."""
    if not trace:
        raise ValueError("no trace rows to serialize")
    ttc_rows, sentinel_rows = _TRACE_ROWS
    formats: list[str] = []
    values: list = []
    add_format = formats.append
    add_values = values.extend
    speed = pressure = speed_text = pressure_text = None
    for t_s, av_x, v, ped_y, ttc_s, p, source, (sensor_y, occluder) in trace:
        if v is not speed:
            speed = v
            speed_text = "%.4f" % v
        if p is not pressure:
            pressure = p
            pressure_text = "%.4f" % p
        occluded = los_occluded(av_x + AV_RADIUS_M, sensor_y, 0.0, ped_y, occluder)
        if ttc_s is None or ttc_s >= NO_TTC_SENTINEL_S:
            add_format(sentinel_rows[source is not None][occluded])
            add_values((t_s, av_x, speed_text, ped_y, pressure_text))
        else:
            add_format(ttc_rows[source is not None][occluded])
            add_values((t_s, av_x, speed_text, ped_y, ttc_s, pressure_text))
    return TRACE_HEADER + "\n" + "".join(formats) % tuple(values)


def save_text(path: str, text: str) -> None:
    """Write text to a file, surfacing the path on failure."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
