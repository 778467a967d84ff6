import gc
import math
import platform
import re
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import replace, same_config, write_trace_csv_rowwise
from conftest import StepRecord, ab, named_rows
from occlusim import harness
from occlusim import world as world_mod
from occlusim.geometry import Vec2
from occlusim.harness import (
    DEFAULT_SWEEP_SPEEDS_MPH,
    NO_TTC_SENTINEL_S,
    RESULTS_HEADER,
    TRACE_HEADER,
    SweepSpec,
    run_scenario,
    sweep,
    write_results_csv,
    write_trace_csv,
)
from occlusim.scenario import (AV_RADIUS_M, CLEARANCE_TAIL_S, ConfigError, ScenarioConfig,
                               SimResult, build_world, config_for)
from occlusim.world import R_SUM_M


class TestRunScenario:
    def test_45mph_with_v2v_avoids(self, sweep_runs):
        result, _ = sweep_runs[(45.0, True)]
        assert result.collision is False

    def test_45mph_without_v2v_collides_near_zero_ttc(self, sweep_runs):
        result, _ = sweep_runs[(45.0, False)]
        assert result.collision is True
        assert result.first_ttc_s is not None
        assert result.first_ttc_s < 0.2

    def test_10mph_without_v2v_misses_at_a_crawl(self, sweep_runs):
        result, trace = sweep_runs[(10.0, False)]
        assert result.collision is False
        # Heavy braking down to a crawl while the pedestrian passes clear.
        assert result.max_pressure_bar > 150.0
        assert min(r.av_speed_mps for r in trace) < 1.0

    def test_10mph_without_v2v_closest_approach_matches_readme(self, sweep_runs):
        # README: "closest approach 1.3 m bumper-to-walk-line at a 0.66 m/s crawl".
        _, trace = sweep_runs[(10.0, False)]
        cfg = ScenarioConfig()
        distance, closest = min(
            ((math.hypot(r.av_x_m, r.ped_y_m - cfg.av_lane_y), r) for r in trace),
            key=lambda pair: pair[0],
        )
        assert distance > R_SUM_M
        assert round(-(closest.av_x_m + AV_RADIUS_M), 1) == 1.3
        assert round(closest.av_speed_mps, 2) == 0.66

    @pytest.mark.parametrize("margin_s,collides", [
        *((m, True) for m in (0.20, 0.25, 0.30, 0.35, 0.40, 0.45)),
        *((m, False) for m in (0.46, 0.50, 0.85)),
    ])
    def test_10mph_without_v2v_needs_over_045_s_of_warning(self, margin_s, collides):
        # README: at 10 mph a margin of 0.45 s or less ends in disc overlap
        # regardless of braking, while 0.46 s is enough. This is why
        # criterion 4's sub-0.2 s first TTC and criterion 3's miss cannot
        # both hold there: the sight line always opens under the margin.
        cfg = ScenarioConfig(av_speed_mph=10, v2v=False, reveal_margin_slow_s=margin_s)
        result, _ = run_scenario(cfg)
        assert result.collision is collides
        assert result.first_ttc_s < margin_s

    def test_detection_with_v2v_strictly_earlier(self, sweep_runs):
        for mph in (10.0, 20.0, 45.0, 70.0):
            with_r, _ = sweep_runs[(mph, True)]
            without_r, _ = sweep_runs[(mph, False)]
            assert with_r.detected_time_s is not None
            assert without_r.detected_time_s is not None
            assert with_r.detected_time_s < without_r.detected_time_s

    def test_trace_time_strictly_increasing(self, sweep_runs):
        _, trace = sweep_runs[(45.0, True)]
        for earlier, later in zip(trace, trace[1:]):
            assert later.t_s > earlier.t_s

    def test_trace_pressure_bounded(self, sweep_runs):
        for (mph, v2v), (_, trace) in sweep_runs.items():
            for rec in trace:
                assert 0.0 <= rec.pressure_bar <= 200.0

    def test_run_is_deterministic(self):
        cfg = config_for(ScenarioConfig(), 45.0, True)
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert first == second

    def test_lossy_channel_runs_are_seed_deterministic(self):
        cfg = replace(config_for(ScenarioConfig(), 45.0, True),
                      latency_s=0.1, drop_prob=0.3, seed=42)
        assert run_scenario(cfg) == run_scenario(cfg)

    def test_fully_lossy_channel_degenerates_to_no_relay(self, sweep_runs):
        cfg = replace(config_for(ScenarioConfig(), 45.0, True), drop_prob=1.0)
        relayless, _ = run_scenario(cfg)
        without, _ = sweep_runs[(45.0, False)]
        assert relayless.collision is True
        assert relayless.detected_time_s == without.detected_time_s
        assert relayless.max_pressure_bar == without.max_pressure_bar

    def test_ttc_returns_to_sentinel_after_clearance(self, sweep_runs):
        # Once the pedestrian has crossed out of reach the TTC goes back to
        # None, the CSV's sentinel, and stays there to the end of the run.
        for mph in (20.0, 45.0, 70.0):
            _, trace = sweep_runs[(mph, True)]
            braked = next(i for i, r in enumerate(trace) if r.pressure_bar > 0.0)
            tail = next(i for i in range(braked, len(trace)) if trace[i].ttc_s is None)
            assert all(r.ttc_s is None for r in trace[tail:])
            assert all(r.pressure_bar == 0.0 for r in trace[tail:])

    def test_detected_time_is_start_of_first_detected_step(self, sweep_runs):
        # The detection is timed at the world's time before its step: the
        # t_s of the row before the first detected row, 0.0 on the first
        # row. Its TTC is that step's, and later steps never move either.
        for result, trace in sweep_runs.values():
            first = next(i for i, row in enumerate(trace) if row.source is not None)
            assert result.detected_time_s == (trace[first - 1].t_s if first else 0.0)
            assert result.first_ttc_s is trace[first].ttc_s

    @pytest.mark.parametrize("v2v", [True, False])
    def test_rows_carry_the_estimate_source(self, sweep_runs, v2v):
        # The relay's estimate comes first with V2V, the AV's own sensor's
        # without; its row follows the one timed at the detection, and a
        # row without an estimate has neither a TTC nor a pressure.
        result, trace = sweep_runs[(45.0, v2v)]
        first = next(i for i, row in enumerate(trace) if row.source is not None)
        assert trace[first].source == ("v2v" if v2v else "sensor")
        assert first > 0 and trace[first - 1].t_s == result.detected_time_s
        blind = [row for row in trace if row.source is None]
        assert blind and all(row.ttc_s is None and row.pressure_bar == 0.0 for row in blind)

    @pytest.mark.parametrize("v2v", [True, False])
    def test_rows_are_plain_tuples_the_collector_untracks(self, v2v):
        # CPython's collector untracks an exact tuple whose items it need
        # not track, but never a tuple subclass such as a named tuple, so
        # every collection during a run would walk a live trace of those.
        # A collection untracks a tuple only once its items are
        # untracked, and a row holds the run's sight tuple, which holds the
        # occluder's: whatever order a collection visits them in, three
        # collections untrack every row.
        _, trace = run_scenario(config_for(ScenarioConfig(), 45.0, v2v))
        assert all(type(row) is tuple for row in trace)
        assert {len(row) for row in trace} == {len(StepRecord._fields)}
        if platform.python_implementation() == "CPython":
            for _ in range(3):
                gc.collect()
            assert not any(gc.is_tracked(row) for row in trace)

    def test_docstring_documents_the_row_order(self):
        row = f"({', '.join(StepRecord._fields)})"
        assert f"``{row}``" in harness.__doc__
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"`{row}`" in readme

    def test_first_contact_ends_the_run(self):
        # Stepping by hand, the first step that reports contact is the
        # run's last, and the collision is timed at that step's start.
        # The world latches nothing: the next step reports it again.
        cfg = config_for(ScenarioConfig(), 45.0, False)
        result, trace = run_scenario(cfg)
        trace = named_rows(trace)
        w = build_world(cfg)
        starts = []
        while True:
            starts.append(w.t_s)
            if world_mod.step(w, cfg.dt_s, cfg, cfg, cfg.v2v)[3]:
                break
        assert len(trace) == len(starts)
        assert result.collision is True
        assert result.collision_time_s == starts[-1] == trace[-2].t_s
        assert world_mod.step(w, cfg.dt_s, cfg, cfg, cfg.v2v)[3] is True

    @pytest.mark.parametrize("v2v,channel", [
        (True, {}),
        (False, {}),
        (True, {"latency_s": 0.3, "drop_prob": 0.5, "seed": 7}),
    ])
    def test_one_world_step_call_per_trace_row(self, monkeypatch, v2v, channel):
        # perfbench/run.py divides a pass's time by the steps it counts
        # through occlusim.world.step, and checks that count against the
        # rows built: a run calls the module's step once per row.
        calls = []
        step = world_mod.step

        def counted(*args):
            calls.append(args[0])
            return step(*args)

        monkeypatch.setattr(world_mod, "step", counted)
        _, trace = run_scenario(replace(config_for(ScenarioConfig(), 45.0, v2v), **channel))
        assert len(calls) == len(trace) > 0
        assert len(set(map(id, calls))) == 1  # one world, stepped every time

    @pytest.mark.parametrize("v2v", [True, False])
    def test_step_returns_match_trace_rows(self, monkeypatch, sweep_runs, v2v):
        # Each row holds the very TTC, pressure and source objects its step
        # returned: nothing is converted on the way into the trace.
        returned = []
        step = world_mod.step

        def recorded(*args):
            returned.append(step(*args))
            return returned[-1]

        monkeypatch.setattr(world_mod, "step", recorded)
        _, trace = run_scenario(config_for(ScenarioConfig(), 45.0, v2v))
        assert trace == sweep_runs[(45.0, v2v)][1]
        assert len(returned) == len(trace)
        for (ttc_s, pressure, source, _), row in zip(returned, named_rows(trace)):
            assert ttc_s is row.ttc_s
            assert pressure is row.pressure_bar
            assert source is row.source
            assert source in (("sensor", "v2v", None) if v2v else ("sensor", None))

    def test_clearance_tail_ends_on_its_boundary(self):
        # At dt_s = 1/64 every time is exact in binary, so the last row
        # falls exactly on clearance + tail; a run that ran on to the next
        # step would end 1/64 s later.
        cfg = config_for(ScenarioConfig(dt_s=1 / 64), 45.0, True)
        result, trace = run_scenario(cfg)
        trace = named_rows(trace)
        assert result.collision is False
        cleared = next(row.t_s for row in trace if row.ped_y_m > cfg.av_lane_y + R_SUM_M)
        assert (cleared, len(trace)) == (25.03125, 1922)
        assert trace[-1].t_s == cleared + CLEARANCE_TAIL_S
        assert trace[-2].t_s < cleared + CLEARANCE_TAIL_S

    def test_results_only_copy_differs_only_in_its_tail(self):
        cfg = config_for(ScenarioConfig(), 30.0, False)
        copy = cfg.results_only()
        assert same_config(copy, cfg)
        # Every attribute __init__ set, in its order and as the very same
        # object, but the tail: one that the copy leaves out fails by name.
        original, copied = vars(cfg), vars(copy)
        assert list(copied) == list(original)
        assert [k for k in original if k != "tail_s" and copied[k] is not original[k]] == []
        assert (cfg.tail_s, copy.tail_s) == (CLEARANCE_TAIL_S, 0.0)
        with pytest.raises(AttributeError, match="read-only"):
            copy.tail_s = CLEARANCE_TAIL_S

    def test_results_only_run_ends_once_its_path_clears_the_disc(self, monkeypatch):
        # Same exact time grid as the tail test above: the full run clears
        # at 25.03125 s, but braking has steered the AV's relative path
        # clear of the pedestrian long before, and the results-only run
        # ends on the first row after that with no valid TTC.
        cfg = config_for(ScenarioConfig(dt_s=1 / 64), 45.0, True)
        full_result, full = run_scenario(cfg)
        result, trace = run_scenario(cfg.results_only())
        assert result == full_result and trace == full[:len(trace)]
        rows = named_rows(trace)
        last_braked = max(i for i, row in enumerate(rows) if row.pressure_bar != 0.0)
        first_clear = next(i for i, row in enumerate(rows)
                           if i > last_braked and row.ttc_s is None)
        assert first_clear == len(rows) - 1 and len(trace) == 1091
        assert rows[-1].ped_y_m < cfg.av_lane_y
        # A sweep takes the same steps; its run without the relay collides.
        unrelayed = len(run_scenario(config_for(cfg, 45.0, False))[1])
        steps = []
        step = world_mod.step
        monkeypatch.setattr(world_mod, "step", lambda *args: steps.append(1) or step(*args))
        assert sweep(SweepSpec((45.0,), ScenarioConfig(dt_s=1 / 64)))[0] == result
        assert len(steps) == len(trace) + unrelayed

    def test_results_only_run_keeps_the_tail_when_its_path_never_clears(self, monkeypatch):
        # With no path counted as clear, a detected run falls back on the
        # clearance tail: it ends 5 s after clearance, as the full run does.
        monkeypatch.setattr(harness, "_MISS_MARGIN", math.inf)
        cfg = config_for(ScenarioConfig(dt_s=1 / 64), 45.0, True)
        full_result, full = run_scenario(cfg)
        result, trace = run_scenario(cfg.results_only())
        assert result == full_result and result.detected_time_s is not None
        assert trace == full and named_rows(trace)[-1].t_s == 25.03125 + CLEARANCE_TAIL_S

    def test_default_sweep_runs_end_before_the_pedestrian_reaches_the_lane(self, monkeypatch):
        # The stop rule's gain, pinned: a rule that silently stops firing
        # lets the runs walk on to the clearance tail and take more steps.
        steps = []
        runs = []
        step, run = world_mod.step, harness.run_scenario

        def counted_run(cfg, *args):
            runs.append((cfg, *run(cfg, *args)))
            return runs[-1][1:]

        monkeypatch.setattr(world_mod, "step", lambda *args: steps.append(1) or step(*args))
        monkeypatch.setattr(harness, "run_scenario", counted_run)
        sweep(SweepSpec())
        assert len(steps) == 23_811 and len(runs) == 26
        for cfg, result, trace in runs:
            if not result.collision:
                assert named_rows(trace)[-1].ped_y_m < cfg.av_lane_y, cfg

    def test_results_only_run_keeps_the_tail_until_it_has_detected(self, monkeypatch):
        # With every estimate and contact hidden the AV drives through; the
        # run could still detect in the tail, so it keeps all of it.
        step = world_mod.step

        def blind(*args):
            step(*args)
            return None, 0.0, None, False

        monkeypatch.setattr(world_mod, "step", blind)
        cfg = config_for(ScenarioConfig(), 45.0, True)
        full_result, full = run_scenario(cfg)
        result, trace = run_scenario(cfg.results_only())
        assert result == full_result and result.detected_time_s is None
        assert trace == full

    def test_results_only_run_ends_on_a_clear_step_without_an_estimate(self, monkeypatch):
        # The miss rule reads the world, not the estimate: with every
        # estimate hidden from the run's first clear step on (step 1,091 of
        # the dt_s = 1/64 run above), the run that has detected still ends
        # on that step, not at the clearance tail.
        cfg = config_for(ScenarioConfig(dt_s=1 / 64), 45.0, True).results_only()
        step = world_mod.step
        steps = []

        def hidden(*args):
            observed = step(*args)
            steps.append(observed)
            return observed if len(steps) < 1091 else (None, 0.0, None, observed[3])

        monkeypatch.setattr(world_mod, "step", hidden)
        result, trace = run_scenario(cfg)
        assert result.detected_time_s is not None and len(trace) == len(steps) == 1091
        # That step had the relay's estimate, and no TTC; its row shows none.
        assert steps[-1][:3] == (None, 0.0, "v2v") and named_rows(trace)[-1].source is None

    def test_results_only_run_ends_only_once_its_path_misses_by_more_than_the_margin(
            self, monkeypatch):
        # A scripted world: its first step detects; on its second the
        # relative path misses the disc by exactly the margin, which does not
        # end the run; on its third, with the pedestrian an ulp farther on,
        # it misses by more, which does. A fourth step would collide.
        av_x, av_speed = -95.204, 11.315
        tie_y, past_y = -1.00116268391169, -1.001162683911689
        cfg = ScenarioConfig().results_only()
        vy, av_y = cfg.ped_speed_mps, cfg.av_lane_y

        def gap(ped_y):  # the miss rule's two sides, subtracted
            x, y, vx = 0.0 - av_x, ped_y - av_y, 0.0 - av_speed
            a, cross = vx * vx + vy * vy, x * vy - y * vx
            return cross * cross - R_SUM_M * R_SUM_M * a - 2.0 ** -30 * (x * x + y * y) * a

        assert gap(tie_y) == 0.0 < gap(past_y)
        # Each step's pedestrian y (None: the world is left as it is) and
        # what the step returns.
        script = iter([(None, (5.0, 0.0, "v2v", False)), (tie_y, (None, 0.0, "v2v", False)),
                       (past_y, (None, 0.0, "v2v", False)), (None, (None, 0.0, "v2v", True))])

        def scripted(w, dt, *args):
            ped_y, observed = next(script)
            w.t_s += dt
            if ped_y is not None:
                w.av_x, w.av_speed, w.ped_y = av_x, av_speed, ped_y
            return observed

        monkeypatch.setattr(world_mod, "step", scripted)
        result, trace = run_scenario(cfg)
        assert len(trace) == 3 and not result.collision
        assert named_rows(trace)[-1].ped_y_m == past_y

    @pytest.mark.parametrize("mph,v2v", [(45.0, True), (10.0, False)])
    def test_unbraked_run_commands_and_applies_no_pressure(self, monkeypatch, mph, v2v):
        calls = []
        decelerate = world_mod.deceleration_for

        def counted(*args):
            calls.append(args)
            return decelerate(*args)

        monkeypatch.setattr(world_mod, "deceleration_for", counted)
        cfg = config_for(ScenarioConfig(), mph, v2v)
        result, trace = run_scenario(ab.unbraked(cfg))
        assert all(row.pressure_bar == 0.0 for row in named_rows(trace))
        assert result.max_pressure_bar == 0.0
        assert calls == []
        # The braked run of the same config does reach the counter.
        run_scenario(cfg)
        assert calls

    @pytest.mark.parametrize("dt_s", [0.005, 0.01, 0.02, 0.05, 0.1, 0.119, 0.125, 0.15, 0.18])
    def test_collision_pattern_holds_at_every_step_size(self, dt_s):
        # Criteria 3 and 9: the relay avoids at every speed, the run without
        # it avoids at 10 mph and collides from 15 mph on, and every
        # unbraked run collides. Up to the default base's largest step, each
        # case runs the speeds that the step-length rule admits.
        base = ScenarioConfig(dt_s=dt_s)
        refused = {0.125: (70.0,), 0.15: (60.0, 65.0, 70.0),
                   0.18: (50.0, 55.0, 60.0, 65.0, 70.0)}.get(dt_s, ())
        for mph in refused:
            with pytest.raises(ConfigError, match="^dt_s: one step may move an actor"):
                config_for(base, mph, False)
        spec = SweepSpec([s for s in DEFAULT_SWEEP_SPEEDS_MPH if s not in refused], base)
        for cfg, result in zip(spec.configs, sweep(spec), strict=True):
            assert result.collision is (not cfg.v2v and cfg.av_speed_mph >= 15.0), cfg
            assert run_scenario(ab.unbraked(cfg))[0].collision is True, cfg


class TestAllocation:
    def test_no_object_is_built_per_step(self, monkeypatch):
        """A 1,439-step run and a 997-step run build the same records."""
        built: Counter[str] = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Vec2, "__init__", counting("Vec2", Vec2.__init__))

        def run(speed, v2v):
            built.clear()
            _, trace = run_scenario(config_for(ScenarioConfig(), speed, v2v))
            return len(trace), dict(built)

        slow_steps, slow = run(10.0, True)
        fast_steps, fast = run(70.0, False)
        assert (slow_steps, fast_steps) == (1439, 997)
        assert slow == fast


class TestSweep:
    def test_default_shape_26_rows(self, default_spec, sweep_runs):
        results = [r for r, _ in sweep_runs.values()]
        assert len(results) == 26

    def test_single_speed_two_rows(self):
        spec = SweepSpec(speeds_mph=(45.0,), base=ScenarioConfig())
        results = sweep(spec)
        assert len(results) == 2
        assert [r.strategy for r in results] == ["with_v2v", "without_v2v"]

    def test_ordering_speed_then_strategy(self):
        spec = SweepSpec(speeds_mph=(20.0, 30.0), base=ScenarioConfig())
        results = sweep(spec)
        assert [(r.av_speed_mph, r.strategy) for r in results] == [
            (20.0, "with_v2v"), (20.0, "without_v2v"),
            (30.0, "with_v2v"), (30.0, "without_v2v"),
        ]

    def test_empty_speed_list_rejected(self):
        # A numpy array and a generator are read as the tuple of their speeds.
        for speeds in ((), np.arange(0.0), (s for s in ())):
            with pytest.raises(ConfigError, match="^speeds_mph must not be empty$"):
                SweepSpec(speeds_mph=speeds)

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(speeds_mph=(45.0, -5.0))

    @pytest.mark.parametrize("speeds", [(45.0, math.nan), (45.0, math.inf)], ids=["nan", "inf"])
    def test_non_finite_speed_rejected(self, speeds):
        with pytest.raises(ConfigError, match="av_speed_mph"):
            SweepSpec(speeds_mph=speeds)

    @pytest.mark.parametrize(("speeds", "label"), [
        ((10.0, 10.0), "10"), ((45.0, 10.0, 45.0), "45"), ((1e1, 10.0), "10"),
        ((45, 45.0), "45"), (np.array([20.0, 45.0, 20.0]), "20"), ((45.0, 45.0, "abc"), "45"),
    ], ids=["10,10", "45,10,45.0", "1e1,10", "int-and-float", "numpy", "before-a-bad-speed"])
    def test_repeated_speed_rejected(self, speeds, label):
        # Each speed runs once, compared as stored: a repeat would write its rows twice.
        with pytest.raises(ConfigError, match=rf"^{label} mph: repeats a speed$"):
            SweepSpec(speeds_mph=speeds)

    def test_error_names_the_exact_speed(self):
        with pytest.raises(ConfigError, match=r"^1000\.0001 mph: dt_s: "):
            SweepSpec(speeds_mph=(45.0, 1000.0001))

    @pytest.mark.parametrize(("speed", "label"), [
        (None, "None"), ("abc", "'abc'"), ("45", "45 mph"), (10**5000, "an integer"),
    ], ids=["None", "abc", "45", "huge"])
    def test_speed_that_is_not_a_number_is_labelled_as_it_came(self, speed, label):
        # speed_label reads only what float() takes; any other speed is shown
        # by repr, and an int no float holds is named, not printed. The text
        # "45" after 45.0 keeps its own error: repeats are checked on the
        # stored speed.
        with pytest.raises(ConfigError, match=rf"^{re.escape(label)}: av_speed_mph: must be "):
            SweepSpec(speeds_mph=(45.0, speed))

    def test_numpy_speeds_accepted(self):
        # An array, its tuple, a generator and numpy ints sweep as the default
        # grid: each speed is stored as a plain float, so the bytes are the same.
        grid = np.arange(10.0, 75.0, 5.0)
        default = write_results_csv(sweep(SweepSpec()))
        for speeds in (grid, tuple(grid), (s for s in grid), tuple(np.arange(10, 75, 5))):
            spec = SweepSpec(speeds_mph=speeds)
            assert [cfg.av_speed_mph for cfg in spec.configs[::2]] == list(range(10, 75, 5))
            assert {type(cfg.av_speed_mph) for cfg in spec.configs} == {float}
            assert write_results_csv(sweep(spec)) == default

    def test_calibration_checked_at_every_speed(self):
        # The slow margin still calibrates at 10 mph; 15 mph is the first
        # speed the 4 s fast margin puts out of reach.
        base = ScenarioConfig(av_speed_mph=10.0, reveal_margin_s=4.0)
        with pytest.raises(ConfigError, match=r"^15 mph: reveal_margin_s: contact out of reach"):
            SweepSpec(speeds_mph=(10.0, 15.0, 20.0), base=base)


# The default run's sight and one whose sensor lane and occluder both
# differ, so a row can be hidden under one and in the open under the other.
_DEFAULT_WORLD = build_world(ScenarioConfig())
SIGHTS = ((_DEFAULT_WORLD.av_y, _DEFAULT_WORLD.occluder), (1.8, (-12.0, -8.0, -1.0, 5.0)))

# Float cells: signed zeros, the extremes of the range drawn, values that
# tie at the 4th decimal, and any float in between.
CELL_FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, 1e7, -1e7, 0.00005, -0.00005, 0.00015, 1.00025, 2.5)),
    st.floats(-1e7, 1e7))
# No TTC, TTCs at, just below and just above the sentinel, and ordinary ones.
TTCS = st.one_of(
    st.none(),
    st.sampled_from((NO_TTC_SENTINEL_S, math.nextafter(NO_TTC_SENTINEL_S, 0.0),
                     math.nextafter(NO_TTC_SENTINEL_S, math.inf), 1e7, 0.0, 0.00005)),
    st.floats(0.0, 2e4))


def _twin(x: float) -> float:
    """A float equal to *x*, sign of zero included, that is not *x*."""
    return struct.unpack("<d", struct.pack("<d", x))[0]


@st.composite
def _next_cell(draw, previous: float | None) -> float:
    """The next row's speed or pressure: the previous row's very object, an
    equal but distinct object, its negation (0.0 then -0.0), or a new draw."""
    how = "new" if previous is None else draw(st.sampled_from(("same", "twin", "negate", "new")))
    if how == "same":
        return previous
    if how == "twin":
        twin = _twin(previous)
        assert twin is not previous
        return twin
    if how == "negate":
        return -previous
    return draw(CELL_FLOATS)


@st.composite
def _traces(draw) -> list[tuple]:
    rows = []
    speed = pressure = None
    for _ in range(draw(st.integers(1, 12))):
        speed = draw(_next_cell(speed))
        pressure = draw(_next_cell(pressure))
        rows.append((draw(CELL_FLOATS), draw(st.one_of(st.floats(-60.0, 10.0), CELL_FLOATS)),
                     speed, draw(st.one_of(st.floats(-3.0, 9.0), CELL_FLOATS)), draw(TTCS),
                     pressure, draw(st.sampled_from((None, "sensor", "v2v"))),
                     draw(st.sampled_from(SIGHTS))))
    return rows


class TestSerialization:
    def _result(self, **overrides):
        base = dict(
            av_speed_mph=45.0, strategy="with_v2v", detected_time_s=7.82,
            first_ttc_s=7.1975, min_ttc_s=6.5, collision=False,
            collision_time_s=None, max_pressure_bar=56.1234,
        )
        base.update(overrides)
        return SimResult(**base)

    def test_single_row_csv(self):
        text = write_results_csv([self._result()])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == RESULTS_HEADER
        assert lines[1] == "45,with_v2v,7.8200,7.1975,6.5000,false,,56.1234"

    def test_no_ttc_serializes_as_sentinel(self):
        text = write_results_csv([self._result(first_ttc_s=None, min_ttc_s=None)])
        assert ",10000,10000," in text.splitlines()[1]

    def test_collision_row_literals(self):
        text = write_results_csv([self._result(collision=True, collision_time_s=19.88)])
        assert ",true,19.8800," in text.splitlines()[1]

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            write_results_csv([])

    def test_readme_documents_both_csv_layouts(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"\n{RESULTS_HEADER}\n" in readme
        assert f"(`{TRACE_HEADER}`)" in readme

    def test_readme_module_table_matches_src(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = list(re.finditer(r"^\| `occlusim\.(\w+)` \|.*", readme, re.M))
        modules = {path.stem for path in Path(harness.__file__).parent.glob("*.py")}
        # One row per module but __init__, and none for a module that is gone.
        assert Counter(row[1] for row in rows) == Counter(modules - {"__init__"})
        assert [row[0] for row in rows if len(row[0]) > 200] == []

    def test_trace_csv_layout(self):
        # Both rows share one run's sight: the default sensor lane and the
        # stopped car. At x = -30 the car hides the pedestrian at y = 2; at
        # x = -20 the pedestrian at y = 3.5 is in the open.
        w = build_world(ScenarioConfig())
        sight = (w.av_y, w.occluder)
        hidden = StepRecord(t_s=9.02, av_x_m=-30.0, av_speed_mps=20.1168, ped_y_m=2.0,
                            ttc_s=None, pressure_bar=0.0, source=None, sight=sight)
        seen = StepRecord(t_s=9.04, av_x_m=-20.0, av_speed_mps=19.5, ped_y_m=3.5,
                          ttc_s=2.5, pressure_bar=56.1234, source="sensor", sight=sight)
        lines = write_trace_csv([hidden, seen]).splitlines()
        assert lines == [
            TRACE_HEADER,
            "9.0200,-30.0000,20.1168,0.0000,2.0000,10000,0.0000,false,true",
            "9.0400,-20.0000,19.5000,0.0000,3.5000,2.5000,56.1234,true,false",
        ]

    def test_sight_line_checked_only_when_a_trace_is_written(self, monkeypatch):
        calls = 0
        seen = []
        original = harness.los_occluded

        def counting(*args):
            nonlocal calls
            calls += 1
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "los_occluded", counting)
        assert len(sweep(SweepSpec(speeds_mph=(45.0,)))) == 2
        assert calls == 0
        _, trace = run_scenario(config_for(ScenarioConfig(), 45.0, True))
        assert calls == 0
        write_trace_csv(trace)
        assert calls == len(trace)

        def own_sight_lines(rows):
            return [(av_x + AV_RADIUS_M, sensor_y, 0.0, ped_y, occluder)
                    for _, av_x, _, ped_y, _, _, _, (sensor_y, occluder) in rows]

        # Each call gets its own row's sensor, pedestrian and occluder, the
        # sight too: the second half of the mixed trace carries another one.
        assert seen == own_sight_lines(trace)
        half = len(trace) // 2
        mixed = trace[:half] + [row[:7] + (SIGHTS[1],) for row in trace[half:]]
        assert mixed[0][7] == SIGHTS[0] != SIGHTS[1]
        seen.clear()
        write_trace_csv(mixed)
        assert seen == own_sight_lines(mixed)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            write_trace_csv([])

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(trace=_traces())
    def test_trace_csv_matches_the_rowwise_writer(self, trace):
        assert write_trace_csv(trace) == write_trace_csv_rowwise(trace)

    def test_csv_bytes_stable_across_invocations(self):
        spec = SweepSpec(speeds_mph=(15.0,), base=ScenarioConfig())
        assert write_results_csv(sweep(spec)) == write_results_csv(sweep(spec))
