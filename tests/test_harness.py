import math
from collections import Counter
from pathlib import Path

import pytest

from occlusim import harness
from occlusim import world as world_mod
from occlusim.geometry import ActorState, Vec2
from occlusim.harness import (
    NO_TTC_SENTINEL_S,
    RESULTS_HEADER,
    TRACE_HEADER,
    StepRecord,
    SweepSpec,
    run_scenario,
    sweep,
    write_results_csv,
    write_trace_csv,
)
from occlusim.scenario import (AV_RADIUS_M, CLEARANCE_TAIL_S, ConfigError, ScenarioConfig,
                               SimResult, build_world, config_for, replace)
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
        # Once the pedestrian has crossed out of reach the serialized TTC
        # goes back to the sentinel and stays there to the end of the run.
        for mph in (20.0, 45.0, 70.0):
            _, trace = sweep_runs[(mph, True)]
            braked = next(i for i, r in enumerate(trace) if r.pressure_bar > 0.0)
            tail = next(
                i for i in range(braked, len(trace)) if trace[i].ttc_s >= NO_TTC_SENTINEL_S
            )
            assert all(r.ttc_s >= NO_TTC_SENTINEL_S for r in trace[tail:])
            assert all(r.pressure_bar == 0.0 for r in trace[tail:])

    def test_detected_time_is_start_of_first_detected_step(self, sweep_runs):
        # The detection is timed at the world's time before its step: the
        # t_s of the row before the first detected row, 0.0 on the first
        # row. Its TTC is that step's, and later steps never move either.
        for result, trace in sweep_runs.values():
            first = next(i for i, row in enumerate(trace) if row.detected)
            assert result.detected_time_s == (trace[first - 1].t_s if first else 0.0)
            ttc_s = trace[first].ttc_s
            assert result.first_ttc_s == (None if ttc_s >= NO_TTC_SENTINEL_S else ttc_s)

    def test_first_contact_ends_the_run(self):
        # Stepping by hand, the first step that reports contact is the
        # run's last, and the collision is timed at that step's start.
        # The world latches nothing: the next step reports it again.
        cfg = config_for(ScenarioConfig(), 45.0, False)
        result, trace = run_scenario(cfg)
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

    @pytest.mark.parametrize("v2v", [True, False])
    def test_step_returns_match_trace_rows(self, sweep_runs, v2v):
        _, trace = sweep_runs[(45.0, v2v)]
        cfg = config_for(ScenarioConfig(), 45.0, v2v)
        w = build_world(cfg)
        for row in trace:
            ttc_s, pressure, source, _ = world_mod.step(w, cfg.dt_s, cfg, cfg, v2v)
            assert (NO_TTC_SENTINEL_S if ttc_s is None else ttc_s) == row.ttc_s
            assert pressure == row.pressure_bar
            assert (source is not None) == row.detected
            assert source in (("sensor", "v2v", None) if v2v else ("sensor", None))

    def test_clearance_tail_ends_on_its_boundary(self):
        # At dt_s = 1/64 every time is exact in binary, so the last row
        # falls exactly on clearance + tail; a run that ran on to the next
        # step would end 1/64 s later.
        cfg = config_for(ScenarioConfig(dt_s=1 / 64), 45.0, True)
        result, trace = run_scenario(cfg)
        assert result.collision is False
        cleared = next(row.t_s for row in trace if row.ped_y_m > cfg.av_lane_y + R_SUM_M)
        assert (cleared, len(trace)) == (25.03125, 1922)
        assert trace[-1].t_s == cleared + CLEARANCE_TAIL_S
        assert trace[-2].t_s < cleared + CLEARANCE_TAIL_S

    @pytest.mark.parametrize("mph,v2v", [(45.0, True), (10.0, False)])
    def test_unbraked_run_commands_and_applies_no_pressure(self, monkeypatch, mph, v2v):
        calls = []
        decelerate = world_mod.deceleration_for

        def counted(*args):
            calls.append(args)
            return decelerate(*args)

        monkeypatch.setattr(world_mod, "deceleration_for", counted)
        cfg = config_for(ScenarioConfig(), mph, v2v)
        result, trace = run_scenario(cfg, braking=False)
        assert all(row.pressure_bar == 0.0 for row in trace)
        assert result.max_pressure_bar == 0.0
        assert calls == []
        # The braked run of the same config does reach the counter.
        run_scenario(cfg)
        assert calls

    @pytest.mark.parametrize("dt_s", [0.005, 0.01, 0.02, 0.05, 0.1])
    def test_collision_pattern_holds_at_every_step_size(self, dt_s):
        # Criteria 3 and 9: the relay avoids at every speed, the run without
        # it avoids at 10 mph and collides from 15 mph on, and every
        # unbraked run collides.
        spec = SweepSpec(base=ScenarioConfig(dt_s=dt_s))
        for cfg, result in zip(spec.configs, sweep(spec), strict=True):
            assert result.collision is (not cfg.v2v and cfg.av_speed_mph >= 15.0), cfg
            assert run_scenario(cfg, braking=False)[0].collision is True, cfg


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
        monkeypatch.setattr(ActorState, "__init__", counting("ActorState", ActorState.__init__))
        monkeypatch.setattr(world_mod, "replace", counting("replace", world_mod.replace))

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
        with pytest.raises(ValueError):
            SweepSpec(speeds_mph=())

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(speeds_mph=(45.0, -5.0))

    @pytest.mark.parametrize("speeds", [(45.0, math.nan), (45.0, math.inf)], ids=["nan", "inf"])
    def test_non_finite_speed_rejected(self, speeds):
        with pytest.raises(ConfigError, match="av_speed_mph"):
            SweepSpec(speeds_mph=speeds)

    def test_error_names_the_exact_speed(self):
        with pytest.raises(ConfigError, match=r"^1000\.0001 mph: dt_s: "):
            SweepSpec(speeds_mph=(45.0, 1000.0001))

    def test_calibration_checked_at_every_speed(self):
        # The slow margin still calibrates at 10 mph; 15 mph is the first
        # speed the 4 s fast margin puts out of reach.
        base = ScenarioConfig(av_speed_mph=10.0, reveal_margin_s=4.0)
        with pytest.raises(ConfigError, match=r"^15 mph: reveal_margin_s: contact out of reach"):
            SweepSpec(speeds_mph=(10.0, 15.0, 20.0), base=base)


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

    def test_trace_csv_layout(self):
        # Both rows share one run's sight: the default sensor lane and the
        # stopped car. At x = -30 the car hides the pedestrian at y = 2; at
        # x = -20 the pedestrian at y = 3.5 is in the open.
        w = build_world(ScenarioConfig())
        sight = (w.av_y, w.occluder)
        hidden = StepRecord(t_s=9.02, av_x_m=-30.0, av_speed_mps=20.1168, ped_y_m=2.0,
                            ttc_s=NO_TTC_SENTINEL_S, pressure_bar=0.0, detected=False,
                            sight=sight)
        seen = StepRecord(t_s=9.04, av_x_m=-20.0, av_speed_mps=19.5, ped_y_m=3.5,
                          ttc_s=2.5, pressure_bar=56.1234, detected=True, sight=sight)
        lines = write_trace_csv([hidden, seen]).splitlines()
        assert lines == [
            TRACE_HEADER,
            "9.0200,-30.0000,20.1168,0.0000,2.0000,10000,0.0000,false,true",
            "9.0400,-20.0000,19.5000,0.0000,3.5000,2.5000,56.1234,true,false",
        ]

    def test_sight_line_checked_only_when_a_trace_is_written(self, monkeypatch):
        calls = 0
        original = harness.los_occluded

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(harness, "los_occluded", counting)
        assert len(sweep(SweepSpec(speeds_mph=(45.0,)))) == 2
        assert calls == 0
        _, trace = run_scenario(config_for(ScenarioConfig(), 45.0, True))
        assert calls == 0
        write_trace_csv(trace)
        assert calls == len(trace)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            write_trace_csv([])

    def test_csv_bytes_stable_across_invocations(self):
        spec = SweepSpec(speeds_mph=(15.0,), base=ScenarioConfig())
        assert write_results_csv(sweep(spec)) == write_results_csv(sweep(spec))
