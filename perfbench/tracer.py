"""Per-layer tracing of occlusim from outside the package.

Every wrapper is installed at the module attribute the caller looks up at
call time (``occlusim.world.ttc`` for the call ``world.step`` makes, for
example), so the package source is untouched and the original objects are
put back by :meth:`Tracer.uninstall`.

A timed wrapper records a span: its duration minus the time covered by the
timed spans it encloses is its self time. Calls and self time are summed
on the fly; full spans are kept only for one named run (see
``record_run``), because a whole pass produces millions of them.
"""

from __future__ import annotations

import time
from collections import Counter
from importlib import import_module

# import_module, because the package re-exports a function named ``ttc``
# that shadows the submodule for ``import occlusim.ttc as ...``.
cli, geometry, harness, scenario, ttc_mod, world = (
    import_module(f"occlusim.{name}")
    for name in ("cli", "geometry", "harness", "scenario", "ttc", "world")
)

# Timed layer boundaries: metric prefix -> [(module or class, attribute)].
TIMED = {
    "geometry.relative_state": [(ttc_mod, "relative_state")],
    "ttc.ttc": [(world, "ttc")],
    "braking.brake_pressure": [(world, "brake_pressure")],
    "braking.deceleration_for": [(world, "deceleration_for")],
    "world.step": [(world, "step")],
    "world.channel_step": [(world, "channel_step")],
    "world.compute_control": [(world, "compute_control")],
    "world.sense": [(world, "sense")],
    "world.los_occluded": [(world, "los_occluded")],
    "harness.trace_los": [(harness, "los_occluded")],
    "scenario.load_config": [(cli, "load_config")],
    "scenario.build_world": [(harness, "build_world")],
    "scenario.calibrate_entry": [(scenario, "calibrate_entry")],
    "harness.run_scenario": [(cli, "run_scenario"), (harness, "run_scenario")],
    "harness.write_trace_csv": [(cli, "write_trace_csv")],
    "harness.write_results_csv": [(cli, "write_results_csv")],
    "harness.save_text": [(cli, "save_text")],
    "cli.main": [(cli, "main")],
}

# Counted-only call sites: counter name -> [(module or class, attribute)].
COUNTED = {
    "geometry.vec2_new": [(geometry.Vec2, "__init__")],
    "geometry.actor_replace": [(world, "replace")],
    "units": [(scenario, "mph_to_mps"), (scenario, "to_si")],
    "world.v2v_message": [(world, "V2VMessage")],
}


def patch_points() -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer replaces."""
    return [p for points in (*TIMED.values(), *COUNTED.values()) for p in points]


class Tracer:
    """Installs counting and timing wrappers and aggregates what they see.

    ``record_run`` names one run by (speed in mph, v2v flag); the first
    time ``run_scenario`` is called with that config, every span inside it
    is kept in ``spans`` as (id, parent id, name, start s, end s).
    """

    def __init__(self, record_run: tuple[float, bool] | None = None) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.events: Counter[str] = Counter()
        self.in_flight_max = 0
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._record_run = record_run
        self._recording = False
        self._v2v = True
        # One frame per open timed span: [child seconds, span id].
        self._stack: list[list] = []
        self._next_id = 1
        self._originals: dict[tuple[int, str], tuple[object, str, object]] = {}

    def reset_counts(self) -> None:
        """Start a new aggregation window (spans are kept)."""
        self.calls.clear()
        self.self_s.clear()
        self.events.clear()
        self.in_flight_max = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for name, points in TIMED.items():
            for owner, attr in points:
                self._patch(owner, attr, self._timed(name, getattr(owner, attr)))
        for name, points in COUNTED.items():
            for owner, attr in points:
                self._patch(owner, attr, self._counted(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in self._originals.values():
            setattr(owner, attr, original)
        self._originals.clear()

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._originals[(id(owner), attr)] = (owner, attr, getattr(owner, attr))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------

    def _counted(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, name: str, fn):
        calls = self.calls
        self_s = self.self_s
        stack = self._stack
        clock = time.perf_counter
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def timed(*args, **kwargs):
            state = before(*args, **kwargs) if before is not None else None
            span_id = 0
            if self._recording:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if span_id:
                    parent = stack[-1][1] if stack else 0
                    self.spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(state, result, *args, **kwargs)
            return result

        return timed

    # Hooks named after the timed prefix; each sees the call's arguments.

    def _before_world_step(self, w, dt, policy, channel, v2v_enabled, braking=True):
        self._v2v = v2v_enabled

    def _before_world_channel_step(self, w, channel, dt):
        return len(w.in_flight), self.calls["world.v2v_message"]

    def _after_world_channel_step(self, state, result, w, channel, dt):
        queued_before, made_before = state
        queued = len(w.in_flight)
        self.events["channel.delivered"] += (
            queued_before + self.calls["world.v2v_message"] - made_before - queued
        )
        if queued > self.in_flight_max:
            self.in_flight_max = queued
        if not self._v2v:
            self.events["channel.v2v_off_calls"] += 1

    def _after_ttc_ttc(self, state, result, *args):
        if result is not None:
            self.events["ttc.valid"] += 1

    def _after_braking_brake_pressure(self, state, result, *args):
        if result > 0.0:
            self.events["braking.engaged"] += 1

    def _after_world_sense(self, state, result, *args, **kwargs):
        if result is not None:
            self.events["sense.seen"] += 1

    def _before_harness_run_scenario(self, cfg, braking=True):
        if self._record_run == (cfg.av_speed_mph, cfg.v2v) and not self.spans:
            self._recording = True
            return True
        return False

    def _after_harness_run_scenario(self, state, result, cfg, braking=True):
        self.events["trace_rows.built"] += len(result[1])
        if state:
            self._recording = False

    def _after_harness_write_trace_csv(self, state, result, trace):
        self.events["trace_rows.written"] += len(trace)

    def _after_harness_save_text(self, state, result, path, text):
        self.events["save_text.bytes"] += len(text.encode("utf-8"))

    # -- results ------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """Exact, repeatable per-window counts and ratios."""
        c, e = self.calls, self.events
        built = e["trace_rows.built"]
        return {
            "geometry.vec2_new.calls": c["geometry.vec2_new"],
            "geometry.actor_replace.calls": c["geometry.actor_replace"],
            "geometry.relative_state.calls": c["geometry.relative_state"],
            "ttc.ttc.calls": c["ttc.ttc"],
            "ttc.valid_frac": _frac(e["ttc.valid"], c["ttc.ttc"]),
            "braking.brake_pressure.calls": c["braking.brake_pressure"],
            "braking.engaged_frac": _frac(e["braking.engaged"], c["braking.brake_pressure"]),
            "braking.deceleration_for.calls": c["braking.deceleration_for"],
            "world.step.calls": c["world.step"],
            "world.channel_step.calls": c["world.channel_step"],
            "world.channel_step.v2v_off_frac": _frac(
                e["channel.v2v_off_calls"], c["world.channel_step"]),
            "world.channel.in_flight_max": self.in_flight_max,
            "world.channel.delivered": e["channel.delivered"],
            "world.compute_control.calls": c["world.compute_control"],
            "world.sense.calls": c["world.sense"],
            "world.sense.seen_frac": _frac(e["sense.seen"], c["world.sense"]),
            "world.los_occluded.calls": c["world.los_occluded"],
            "scenario.load_config.calls": c["scenario.load_config"],
            "scenario.build_world.calls": c["scenario.build_world"],
            "scenario.calibrate_entry.calls": c["scenario.calibrate_entry"],
            "units.calls": c["units"],
            "harness.run_scenario.calls": c["harness.run_scenario"],
            "harness.trace_los.calls": c["harness.trace_los"],
            "harness.trace_rows.built": built,
            "harness.trace_rows.written": e["trace_rows.written"],
            "harness.trace_use_frac": _frac(e["trace_rows.written"], built),
            "harness.write_trace_csv.calls": c["harness.write_trace_csv"],
            "harness.save_text.calls": c["harness.save_text"],
            "harness.save_text.bytes": e["save_text.bytes"],
            "cli.main.calls": c["cli.main"],
        }

    def self_times(self) -> dict[str, float]:
        """Self seconds of every timed layer in the current window."""
        return {f"{name}.self_s": self.self_s[name] for name in TIMED}


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
