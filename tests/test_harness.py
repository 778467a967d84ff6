import math
from collections import Counter

import pytest

from occlusim import world as world_mod
from occlusim.geometry import ActorState, Vec2
from occlusim.harness import (
    NO_TTC_SENTINEL_S,
    RESULTS_HEADER,
    TRACE_HEADER,
    StepRecord,
    SweepSpec,
    run_scenario,
    serialize_ttc,
    sweep,
    write_results_csv,
    write_trace_csv,
)
from occlusim.scenario import CalibrationError, ConfigError, ScenarioConfig, SimResult, config_for


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
        from dataclasses import replace

        cfg = replace(config_for(ScenarioConfig(), 45.0, True),
                      latency_s=0.1, drop_prob=0.3, seed=42)
        assert run_scenario(cfg) == run_scenario(cfg)

    def test_fully_lossy_channel_degenerates_to_no_relay(self, sweep_runs):
        from dataclasses import replace

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

    def test_calibration_checked_at_every_speed(self):
        # The slow margin still calibrates at 10 mph; 15 mph is the first
        # speed the 4 s fast margin puts out of reach.
        with pytest.raises(CalibrationError, match=r"^15 mph: conflict phase out of reach"):
            SweepSpec(speeds_mph=(10.0, 15.0, 20.0), base=ScenarioConfig(reveal_margin_s=4.0))


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
        assert serialize_ttc(None) == NO_TTC_SENTINEL_S
        assert serialize_ttc(2.5) == 2.5

    def test_collision_row_literals(self):
        text = write_results_csv([self._result(collision=True, collision_time_s=19.88)])
        assert ",true,19.8800," in text.splitlines()[1]

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            write_results_csv([])

    def test_trace_csv_layout(self):
        rec = StepRecord(t_s=0.02, av_x_m=-400.0, av_speed_mps=20.1168,
                         ped_x_m=0.0, ped_y_m=-18.0, ttc_s=NO_TTC_SENTINEL_S,
                         pressure_bar=0.0, detected=False, occluded=True)
        text = write_trace_csv([rec])
        lines = text.splitlines()
        assert lines[0] == TRACE_HEADER
        assert lines[1] == "0.0200,-400.0000,20.1168,0.0000,-18.0000,10000,0.0000,false,true"

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            write_trace_csv([])

    def test_csv_bytes_stable_across_invocations(self):
        spec = SweepSpec(speeds_mph=(15.0,), base=ScenarioConfig())
        assert write_results_csv(sweep(spec)) == write_results_csv(sweep(spec))
