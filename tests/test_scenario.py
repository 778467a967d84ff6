import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlusim.scenario import (
    AV_RADIUS_M,
    BODY_WIDTH_M,
    ConfigError,
    MAX_RUN_STEPS,
    R_SUM_M,
    ScenarioConfig,
    build_world,
    calibrate_entry,
    config_for,
    load_config,
    replace,
    run_length_s,
)
from occlusim.harness import run_scenario

FLOAT_KEYS = [k for k in ScenarioConfig.KEYS if isinstance(getattr(ScenarioConfig, k), float)]


def config_text(cfg: ScenarioConfig) -> str:
    """*cfg* as config text: bools as on/off, numbers by repr."""
    pairs = ((key, getattr(cfg, key)) for key in cfg.KEYS)
    return "".join(f"{k} = {('off', 'on')[v] if isinstance(v, bool) else repr(v)}\n"
                   for k, v in pairs)


# Bounds that only ScenarioConfig enforces (nothing that reads it checks
# again), plus every float key at each non-finite value.
OUT_OF_BOUNDS = [
    ("tau_max_s", 0.0), ("p_max_bar", -5.0), ("d_max_mps2", 0.0),
    ("av_sensor_range_m", 0.0),
    ("av_sensor_fov_half_rad", 0.0), ("av_sensor_fov_half_rad", 3.5),
    ("latency_s", -0.1), ("drop_prob", 1.5), ("bsm_period_s", 0.0),
    ("dt_s", 0.0), ("dt_s", -0.02),
] + [(key, value) for key in FLOAT_KEYS for value in (math.nan, math.inf, -math.inf)]

# Keys that may take any finite value; the rest are bounded below by zero.
SIGNED_KEYS = {"ped_start_offset_m", "tx_stop_gap_m"}
FINITE = st.floats(allow_nan=False, allow_infinity=False)
BOUNDED = {
    "av_sensor_fov_half_rad": st.floats(0.0, math.pi, exclude_min=True),
    "drop_prob": st.floats(0.0, 1.0),
    "latency_s": st.floats(0.0, allow_infinity=False),
}


# The keys calibration reads are drawn from a box that always stages the
# conflict (adjacent lanes, the transmitter in one of the four outer ones);
# every other key ranges over all the values its rule admits.
STAGED = {
    "av_speed_mph": st.floats(10.0, 100.0),
    "lane_width_ft": st.floats(11.0, 13.0),
    "ped_speed_ftps": st.floats(3.5, 6.0),
    "ped_start_offset_m": st.floats(-25.0, -5.0),
    "approach_time_s": st.floats(45.0, 60.0),
    "reveal_margin_s": st.floats(0.05, 0.9),
    "reveal_margin_slow_s": st.floats(0.05, 0.9),
    "dt_s": st.floats(0.001, 0.05),
}


@st.composite
def valid_configs(draw) -> ScenarioConfig:
    kwargs = {name: draw(strategy) for name, strategy in STAGED.items()}
    for key in ScenarioConfig.KEYS:
        if key in kwargs:
            continue
        if key in BOUNDED:
            kwargs[key] = draw(BOUNDED[key])
        elif key in SIGNED_KEYS:
            kwargs[key] = draw(FINITE)
        elif isinstance(getattr(ScenarioConfig, key), float):
            kwargs[key] = draw(st.floats(0.0, exclude_min=True, allow_infinity=False))
    knees = draw(st.lists(FINITE, min_size=2, max_size=2, unique=True))
    kwargs["reveal_knee_lo_mph"], kwargs["reveal_knee_hi_mph"] = sorted(knees)
    tx_lane = draw(st.integers(0, 3))
    return ScenarioConfig(
        **kwargs,
        v2v=draw(st.booleans()),
        num_lanes=draw(st.integers(tx_lane + 2, 64)),
        transmitter_lane_index=tx_lane,
        av_lane_index=tx_lane + 1,
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
        assert [key for key, _ in pairs] == list(ScenarioConfig.KEYS)
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
        assert load_config(config_text(cfg)) == cfg

    def test_round_trip_of_defaults(self):
        cfg = ScenarioConfig()
        assert load_config(config_text(cfg)) == cfg

    @settings(derandomize=True, database=None)
    @given(valid_configs())
    def test_round_trip_of_any_valid_config(self, cfg):
        assert load_config(config_text(cfg)) == cfg


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

    def test_step_travel_within_contact_radius(self):
        # 419 mph moves the AV 3.746 m per 0.02 s step, 420 mph 3.755 m,
        # past the 3.749 m contact radius; the pedestrian is held the same.
        ScenarioConfig(av_speed_mph=419.0)
        for kwargs in ({"av_speed_mph": 420.0}, {"ped_speed_ftps": 700.0},
                       {"av_speed_mph": 70.0, "dt_s": 0.3}, {"dt_s": 1e308}):
            with pytest.raises(ConfigError, match=r"^dt_s: one step may move an actor"):
                ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("key", ["av_speed_mph", "ped_speed_ftps"])
    def test_speed_that_rounds_to_zero_rejected(self, key):
        with pytest.raises(ConfigError, match=rf"^{key}: must be positive in m/s"):
            ScenarioConfig(**{key: 5e-324})

    def test_derived_geometry(self):
        cfg = ScenarioConfig()
        assert cfg.lane_width_m == pytest.approx(3.6576, abs=1e-12)
        assert cfg.av_lane_y == pytest.approx(5.4864, abs=1e-12)
        assert cfg.tx_lane_y == pytest.approx(1.8288, abs=1e-12)
        assert cfg.road_width_m == pytest.approx(14.6304, abs=1e-12)
        assert R_SUM_M == pytest.approx(3.74904, abs=1e-12)
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
        with pytest.raises(ConfigError, match="^ped_start_offset_m: .* cannot reach"):
            ScenarioConfig(ped_start_offset_m=-60.0)

    def test_start_past_conflict_raises(self):
        with pytest.raises(ConfigError, match="^ped_start_offset_m: .* past the contact point"):
            ScenarioConfig(ped_start_offset_m=10.0)

    @pytest.mark.parametrize(("overrides", "key"), [
        ({"approach_time_s": 1e200}, "approach_time_s"),
        ({"approach_time_s": 1e308}, "approach_time_s"),
        ({"dt_s": 4e-6}, "dt_s"),
        # A crawl from close by: the walk on past the contact point is
        # longer than the approach.
        ({"ped_speed_ftps": 1e-3, "ped_start_offset_m": -1.0, "approach_time_s": 13000.0},
         "ped_speed_ftps"),
    ])
    def test_run_longer_than_cap_names_dominant_key(self, overrides, key):
        with pytest.raises(ConfigError, match=rf"^{key}: the run would take .* steps, more than "
                                              rf"the cap of {MAX_RUN_STEPS}$"):
            ScenarioConfig(**overrides)

    def test_run_at_cap_is_accepted(self):
        # The cap is 20,000 s at 0.02 s: a run 1 s shorter is accepted, and
        # one 1 s longer is not.
        cfg = ScenarioConfig()
        entry = calibrate_entry(cfg)
        longest = replace(cfg, approach_time_s=cfg.approach_time_s
                          + MAX_RUN_STEPS * cfg.dt_s - run_length_s(cfg, entry) - 1.0)
        assert run_length_s(longest, calibrate_entry(longest)) / cfg.dt_s <= MAX_RUN_STEPS
        with pytest.raises(ConfigError, match="^approach_time_s: "):
            replace(longest, approach_time_s=longest.approach_time_s + 2.0)

    def test_run_length_matches_trace_rows(self, sweep_runs):
        # Every run that does not collide ends by the clearance tail, so its
        # row count is the closed-form length in steps, rounded up three
        # times on the step grid: at the pedestrian's entry, at its
        # clearance, and at the end of the tail.
        checked = 0
        for (speed, v2v), (result, trace) in sweep_runs.items():
            if result.collision:
                continue
            cfg = config_for(ScenarioConfig(), speed, v2v)
            steps = run_length_s(cfg, calibrate_entry(cfg)) / cfg.dt_s
            assert 0.0 < len(trace) - steps < 3.0, (speed, v2v, len(trace), steps)
            checked += 1
        assert checked == 14

    def test_contact_within_disc_reach_at_arrival(self):
        # The staging guarantees the pair is inside contact range when the
        # unbraked AV reaches the walk line.
        cfg = ScenarioConfig()
        v = cfg.av_speed_mps
        entry = calibrate_entry(cfg)
        arrival = cfg.approach_time_s
        ped_y = cfg.ped_start_offset_m + (arrival - entry) * cfg.ped_speed_mps
        assert abs(ped_y - cfg.av_lane_y) <= R_SUM_M
        assert v > 0


class TestBuildWorld:
    def test_initial_layout(self):
        cfg = ScenarioConfig()
        w = build_world(cfg)
        assert w.av_x == pytest.approx(-cfg.av_speed_mps * 20.0, rel=1e-12)
        assert w.av_y == pytest.approx(5.4864)
        assert w.av_speed == pytest.approx(cfg.av_speed_mps)
        assert w.transmitter.vel == type(w.transmitter.vel)(0.0, 0.0)
        # Stopped with its bumper just past the walk line.
        bumper = w.occluder[1]
        assert bumper == pytest.approx(-cfg.tx_stop_gap_m, abs=1e-12)
        assert (w.ped_y, w.ped_vy) == (cfg.ped_start_offset_m, cfg.ped_speed_mps)
        assert w.ped_entry_time_s == pytest.approx(calibrate_entry(cfg))

    @pytest.mark.parametrize("overrides", [
        {},
        {"lane_width_ft": 11.0},
        {"transmitter_lane_index": 1, "av_lane_index": 2, "approach_time_s": 25.0},
    ])
    def test_one_footprint_for_calibration_and_occlusion(self, overrides):
        # Calibration stages the reveal at the sight-line edge; the sensor
        # must be blocked by exactly that footprint.
        cfg = ScenarioConfig(**overrides)
        min_x, max_x, min_y, max_y = build_world(cfg).occluder
        assert cfg.sightline_edge_y() == max_y
        assert max_x - min_x == pytest.approx(2 * AV_RADIUS_M, rel=1e-12)
        assert max_y - min_y == pytest.approx(BODY_WIDTH_M, rel=1e-12)

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


class TestConfigRecord:
    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="'av_sped_mph'"):
            ScenarioConfig(av_sped_mph=45.0)
        with pytest.raises(TypeError, match="'t_end_s'"):
            replace(ScenarioConfig(), t_end_s=30.0)

    def test_config_refuses_assignment_and_deletion(self):
        cfg = ScenarioConfig()
        with pytest.raises(AttributeError, match="read-only"):
            cfg.dt_s = 0.01
        with pytest.raises(AttributeError, match="read-only"):
            del cfg.seed
        assert cfg == ScenarioConfig()

    def test_keys_are_the_annotated_defaults_in_order(self):
        cfg = ScenarioConfig(seed=7)
        assert ScenarioConfig.KEYS[:2] == ("av_speed_mph", "v2v")
        assert ScenarioConfig.KEYS[-2:] == ("dt_s", "seed")
        assert len(ScenarioConfig.KEYS) == 26
        assert repr(cfg) == "ScenarioConfig(" + ", ".join(
            f"{key}={getattr(cfg, key)!r}" for key in ScenarioConfig.KEYS) + ")"
        assert "ped_entry_time_s" not in repr(cfg)

    def test_replace_changes_only_the_named_keys_and_recalibrates(self):
        base = ScenarioConfig()
        derived = replace(base, approach_time_s=25.0)
        assert [k for k in ScenarioConfig.KEYS
                if getattr(derived, k) != getattr(base, k)] == ["approach_time_s"]
        assert derived.ped_entry_time_s == calibrate_entry(derived) != base.ped_entry_time_s
        assert replace(derived, approach_time_s=20.0) == base
