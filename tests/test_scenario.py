import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlusim.scenario import (
    CalibrationError,
    ConfigError,
    ScenarioConfig,
    build_world,
    calibrate_entry,
    config_for,
    load_config,
    serialize_config,
)
from occlusim.harness import run_scenario

FLOAT_KEYS = [f.name for f in fields(ScenarioConfig) if isinstance(f.default, float)]

# Bounds that only ScenarioConfig enforces (the policy, sensor and channel
# records built from it do not check), plus every float key at each
# non-finite value.
OUT_OF_BOUNDS = [
    ("tau_max_s", 0.0), ("p_max_bar", -5.0), ("d_max_mps2", 0.0),
    ("av_sensor_range_m", 0.0),
    ("av_sensor_fov_half_rad", 0.0), ("av_sensor_fov_half_rad", 3.5),
    ("latency_s", -0.1), ("drop_prob", 1.5), ("bsm_period_s", 0.0),
    ("dt_s", 0.0), ("dt_s", -0.02),
] + [(key, value) for key in FLOAT_KEYS for value in (math.nan, math.inf, -math.inf)]

# Keys that may take any finite value; the rest are bounded below by zero.
SIGNED_KEYS = {"ped_start_offset_m", "ped_cross_x_m", "tx_stop_gap_m"}
FINITE = st.floats(allow_nan=False, allow_infinity=False)
BOUNDED = {
    "av_sensor_fov_half_rad": st.floats(0.0, math.pi, exclude_min=True),
    "drop_prob": st.floats(0.0, 1.0),
    "latency_s": st.floats(0.0, allow_infinity=False),
}


@st.composite
def valid_configs(draw) -> ScenarioConfig:
    kwargs = {}
    for f in fields(ScenarioConfig):
        if f.name in BOUNDED:
            kwargs[f.name] = draw(BOUNDED[f.name])
        elif f.name in SIGNED_KEYS:
            kwargs[f.name] = draw(FINITE)
        elif isinstance(f.default, float):
            kwargs[f.name] = draw(st.floats(0.0, exclude_min=True, allow_infinity=False))
    knees = draw(st.lists(FINITE, min_size=2, max_size=2, unique=True))
    kwargs["reveal_knee_lo_mph"], kwargs["reveal_knee_hi_mph"] = sorted(knees)
    num_lanes = draw(st.integers(2, 64))
    tx_lane = draw(st.integers(0, num_lanes - 2))
    return ScenarioConfig(
        **kwargs,
        v2v=draw(st.booleans()),
        num_lanes=num_lanes,
        transmitter_lane_index=tx_lane,
        av_lane_index=draw(st.integers(tx_lane + 1, num_lanes - 1)),
        seed=draw(st.integers()),
    )


class TestLoadConfig:
    def test_minimal_config_takes_defaults(self):
        cfg = load_config("av_speed_mph = 45\n")
        assert cfg == ScenarioConfig(av_speed_mph=45.0)
        assert cfg.lane_width_ft == 12.0
        assert cfg.dt_s == 0.02
        assert cfg.v2v is True

    def test_comments_and_blank_lines_ignored(self):
        cfg = load_config("""
        # experiment setup
        av_speed_mph = 30   # test speed

        v2v = off
        """)
        assert cfg.av_speed_mph == 30.0
        assert cfg.v2v is False

    def test_unknown_key_rejected_by_name(self):
        # A config that still sets the removed time limit fails loudly.
        for key in ("av_sped_mph", "t_end_s"):
            with pytest.raises(ConfigError, match=f"^line 1: unknown key '{key}'$"):
                load_config(f"{key} = 45\n")

    def test_readme_config_block_lists_every_key_at_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Config file\n", 1)[1]
        block = section.split("```\n", 2)[1]
        pairs = re.findall(r"(\w+) = (\S+)", block)
        assert [key for key, _ in pairs] == [f.name for f in fields(ScenarioConfig)]
        assert load_config("\n".join(f"{k} = {v}" for k, v in pairs)) == ScenarioConfig()

    def test_invariant_violation_names_field(self):
        with pytest.raises(ConfigError, match="lane_width_ft"):
            load_config("lane_width_ft = -1\n")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            load_config("av_speed_mph = 45\nthis is not a key value pair\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            load_config("av_speed_mph = fast\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config("seed = 1\nseed = 2\n")

    def test_bool_words(self):
        assert load_config("v2v = on\n").v2v is True
        assert load_config("v2v = false\n").v2v is False
        with pytest.raises(ConfigError):
            load_config("v2v = maybe\n")

    def test_round_trip_identity(self):
        cfg = ScenarioConfig(av_speed_mph=37.5, v2v=False, seed=99,
                             drop_prob=0.125, latency_s=0.06)
        assert load_config(serialize_config(cfg)) == cfg

    def test_round_trip_of_defaults(self):
        cfg = ScenarioConfig()
        assert load_config(serialize_config(cfg)) == cfg

    @settings(derandomize=True, database=None)
    @given(valid_configs())
    def test_round_trip_of_any_valid_config(self, cfg):
        assert load_config(serialize_config(cfg)) == cfg


class TestValidation:
    def test_lane_indices_must_differ(self):
        with pytest.raises(ConfigError, match="av_lane_index"):
            ScenarioConfig(av_lane_index=0, transmitter_lane_index=0)

    def test_lane_indices_bounded(self):
        with pytest.raises(ConfigError, match="av_lane_index"):
            ScenarioConfig(av_lane_index=4, num_lanes=4)

    def test_transmitter_outside_av(self):
        with pytest.raises(ConfigError, match="transmitter_lane_index"):
            ScenarioConfig(av_lane_index=0, transmitter_lane_index=1)

    def test_drop_prob_range(self):
        with pytest.raises(ConfigError, match="drop_prob"):
            ScenarioConfig(drop_prob=1.01)

    def test_positive_speed(self):
        with pytest.raises(ConfigError, match="av_speed_mph"):
            ScenarioConfig(av_speed_mph=0.0)

    @pytest.mark.parametrize(("key", "value"), OUT_OF_BOUNDS)
    def test_out_of_bounds_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key}: "):
            ScenarioConfig(**{key: value})

    def test_derived_geometry(self):
        cfg = ScenarioConfig()
        assert cfg.lane_width_m == pytest.approx(3.6576, abs=1e-12)
        assert cfg.av_lane_y == pytest.approx(5.4864, abs=1e-12)
        assert cfg.tx_lane_y == pytest.approx(1.8288, abs=1e-12)
        assert cfg.road_width_m == pytest.approx(14.6304, abs=1e-12)
        assert cfg.r_sum_m == pytest.approx(3.74904, abs=1e-12)
        assert cfg.sightline_edge_y() == pytest.approx(2.7288, abs=1e-12)


class TestCalibration:
    def test_entry_scales_with_speed(self):
        # Twice the speed halves the unbraked arrival clock, and both
        # calibrated runs still collide when unmitigated.
        base = ScenarioConfig()
        slow = config_for(base, 20.0, True)
        fast = config_for(base, 40.0, True)
        e_slow, e_fast = calibrate_entry(slow), calibrate_entry(fast)
        assert e_slow != e_fast
        for cfg in (slow, fast):
            result, _ = run_scenario(cfg, braking=False)
            assert result.collision

    def test_unmitigated_45mph_collides(self):
        result, _ = run_scenario(config_for(ScenarioConfig(), 45.0, True), braking=False)
        assert result.collision

    def test_10mph_without_v2v_avoids_with_braking(self):
        result, _ = run_scenario(config_for(ScenarioConfig(), 10.0, False))
        assert not result.collision

    def test_entry_nonnegative_at_all_sweep_speeds(self):
        base = ScenarioConfig()
        for mph in range(10, 75, 5):
            assert calibrate_entry(config_for(base, float(mph), True)) >= 0.0

    def test_infeasible_walk_raises(self):
        # Start so far away the pedestrian cannot arrive inside the window.
        cfg = ScenarioConfig(ped_start_offset_m=-60.0)
        with pytest.raises(CalibrationError, match="cannot reach"):
            calibrate_entry(cfg)

    def test_start_past_conflict_raises(self):
        cfg = ScenarioConfig(ped_start_offset_m=10.0)
        with pytest.raises(CalibrationError):
            calibrate_entry(cfg)

    def test_contact_within_disc_reach_at_arrival(self):
        # The staging guarantees the pair is inside contact range when the
        # unbraked AV reaches the walk line.
        cfg = ScenarioConfig()
        v = cfg.av_speed_mps
        entry = calibrate_entry(cfg)
        arrival = cfg.approach_time_s
        ped_y = cfg.ped_start_offset_m + (arrival - entry) * cfg.ped_speed_mps
        assert abs(ped_y - cfg.av_lane_y) <= cfg.r_sum_m
        assert v > 0


class TestBuildWorld:
    def test_initial_layout(self):
        cfg = ScenarioConfig()
        w = build_world(cfg)
        assert w.av.pos.x == pytest.approx(-cfg.av_speed_mps * 20.0, rel=1e-12)
        assert w.av.pos.y == pytest.approx(5.4864)
        assert w.av.vel.x == pytest.approx(cfg.av_speed_mps)
        assert w.transmitter.vel == type(w.transmitter.vel)(0.0, 0.0)
        # Stopped with its bumper just past the walk line.
        bumper = w.transmitter.pos.x + w.transmitter_body.length_m / 2
        assert bumper == pytest.approx(-cfg.tx_stop_gap_m, abs=1e-12)
        assert w.pedestrian.pos.y == cfg.ped_start_offset_m
        assert w.pedestrian.vel == type(w.pedestrian.vel)(0.0, cfg.ped_speed_mps)
        assert w.ped_entry_time_s == pytest.approx(calibrate_entry(cfg))

    def test_seed_flows_to_rng(self):
        w1 = build_world(ScenarioConfig(seed=5))
        w2 = build_world(ScenarioConfig(seed=5))
        assert w1.rng.random() == w2.rng.random()


class TestConfigFor:
    def test_only_speed_and_strategy_change(self):
        base = ScenarioConfig(seed=3)
        derived = config_for(base, 60.0, False)
        assert derived.av_speed_mph == 60.0
        assert derived.v2v is False
        assert replace(derived, av_speed_mph=base.av_speed_mph, v2v=base.v2v) == base
