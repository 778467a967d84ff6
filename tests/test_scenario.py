import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracle import replace, same_config
from conftest import ab
from occlusim import scenario
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
    run_length_s,
)
from occlusim.cli import EXIT_CONFIG, main
from occlusim.harness import run_scenario, write_results_csv, write_trace_csv

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

INT_KEYS = [k for k in ScenarioConfig.KEYS if type(getattr(ScenarioConfig, k)) is int]

# A value of the wrong type for each key: text or None for any, a bool for
# a number key, a fraction or a list for an integer key, a number for v2v.
# The list case is named: its automatic ID, its index, shifts with the key count.
WRONG_TYPES = (
    [(key, value) for key in ScenarioConfig.KEYS for value in ("45", None)]
    + [(key, value) for key in [*FLOAT_KEYS, *INT_KEYS] for value in (True, False)]
    + [(key, 1.5) for key in INT_KEYS] + [("num_lanes", 4.5), ("v2v", 2),
                                          pytest.param("seed", [1], id="seed-list")]
)

# Every number key at its default, as a numpy scalar of the default's kind.
NUMPY_DEFAULTS = {key: (np.int64 if key in INT_KEYS else np.float64)(getattr(ScenarioConfig, key))
                  for key in [*FLOAT_KEYS, *INT_KEYS]}

# A lossy channel, so that the seed and every channel key reach the run.
LOSSY = {"latency_s": 0.1, "drop_prob": 0.3}

# Keys that may take any finite value; the rest are bounded below by zero.
SIGNED_KEYS = {"ped_start_offset_m"}
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
        assert same_config(cfg, ScenarioConfig(av_speed_mph=45.0))
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
        readme_cfg = load_config("\n".join(f"{k} = {v}" for k, v in pairs))
        assert same_config(readme_cfg, ScenarioConfig())

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

    @pytest.mark.parametrize(("key", "value", "expects"), [
        ("v2v", "maybe", "on/off"), ("num_lanes", "2.5", "an integer"), ("dt_s", "fast", "a number"),
    ])
    def test_bad_value_names_what_the_key_expects(self, key, value, expects):
        with pytest.raises(ConfigError, match=rf"^line 2: {key} expects {expects}, got '{value}'$"):
            load_config(f"seed = 1\n{key} = {value}\n")

    @pytest.mark.parametrize(("key", "value"), [("num_lanes", "1" + "0" * 5000),
                                                ("seed", "-1_" + "0" * 5000)],
                             ids=["num_lanes", "seed"])
    def test_integer_past_the_int_string_limit_is_named_briefly(self, key, value):
        # int() reads no integer text of more digits than CPython's limit;
        # the message says so and echoes a prefix, not all 5,001 digits.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ConfigError) as caught:
                load_config(f"{key} = {value}\n")
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(caught.value) == (f"line 1: {key} expects an integer, got one of more than "
                                     f"4300 digits ({value[:16]}...)")

    @pytest.mark.parametrize(("key", "value", "expects"), [
        ("dt_s", "fast", "a number"), ("v2v", "maybe", "on/off"),
    ])
    def test_bad_value_is_named_where_int_has_no_digit_limit(self, monkeypatch, key, value,
                                                              expects):
        # CPython 3.10.0-3.10.6, which pyproject.toml admits, has no
        # sys.get_int_max_str_digits; reading it there raised AttributeError.
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        with pytest.raises(ConfigError, match=rf"^line 1: {key} expects {expects}, got '{value}'$"):
            load_config(f"{key} = {value}\n")

    def test_bool_words(self):
        assert load_config("v2v = on\n").v2v is True
        assert load_config("v2v = false\n").v2v is False
        with pytest.raises(ConfigError):
            load_config("v2v = maybe\n")

    def test_round_trip_identity(self):
        cfg = ScenarioConfig(av_speed_mph=37.5, v2v=False, seed=99,
                             drop_prob=0.125, latency_s=0.06)
        assert same_config(load_config(config_text(cfg)), cfg)

    def test_round_trip_of_defaults(self):
        cfg = ScenarioConfig()
        assert same_config(load_config(config_text(cfg)), cfg)

    @settings(derandomize=True, database=None)
    @given(valid_configs())
    def test_round_trip_of_any_valid_config(self, cfg):
        assert same_config(load_config(config_text(cfg)), cfg)


class TestValidation:
    def test_lane_indices_must_differ(self):
        with pytest.raises(ConfigError, match="av_lane_index"):
            ScenarioConfig(av_lane_index=0, transmitter_lane_index=0)

    def test_lane_indices_bounded(self):
        with pytest.raises(ConfigError, match="av_lane_index"):
            ScenarioConfig(av_lane_index=4, num_lanes=4)

    def test_one_lane_names_num_lanes(self):
        # The AV and the transmitter need two lanes; the count, not an index, is at fault.
        with pytest.raises(ConfigError, match=r"^num_lanes: must be at least 2, got 1$"):
            ScenarioConfig(num_lanes=1)
        two = ScenarioConfig(num_lanes=2, av_lane_index=1, transmitter_lane_index=0)
        assert (two.num_lanes, two.av_lane_index) == (2, 1)

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

    @pytest.mark.parametrize(("key", "value"), WRONG_TYPES)
    def test_wrong_typed_value_names_key(self, key, value):
        # The type rule, not a later rule that the value trips, names the key.
        with pytest.raises(ConfigError, match=rf"^{key}: must be (on or off \(a bool\)|an integer"
                                              r"|a number), got "):
            ScenarioConfig(**{key: value})

    @pytest.mark.parametrize(("key", "value", "message"), [
        ("num_lanes", 4.5, "num_lanes: must be an integer, got 4.5"),
        ("av_lane_index", 1.5, "av_lane_index: must be an integer, got 1.5"),
        ("seed", [1], "seed: must be an integer, got [1]"),
        ("av_speed_mph", True, "av_speed_mph: must be a number, got True"),
        ("latency_s", False, "latency_s: must be a number, got False"),
        ("dt_s", True, "dt_s: must be a number, got True"),
        ("dt_s", "0.02", "dt_s: must be a number, got '0.02'"),
        ("latency_s", np.True_, f"latency_s: must be a number, got {np.True_!r}"),
        ("drop_prob", np.False_, f"drop_prob: must be a number, got {np.False_!r}"),
    ], ids=["num_lanes", "av_lane_index", "seed", "av_speed_mph", "latency_s", "dt_s-bool",
            "dt_s-text", "latency_s-numpy-bool", "drop_prob-numpy-bool"])
    def test_wrong_type_message(self, key, value, message):
        with pytest.raises(ConfigError) as caught:
            ScenarioConfig(**{key: value})
        assert str(caught.value) == message

    def test_numpy_numbers_accepted(self):
        # Each is stored as a plain number of its default's type.
        kinds = [type(getattr(ScenarioConfig, key)) for key in ScenarioConfig.KEYS]
        for cfg in (ScenarioConfig(**NUMPY_DEFAULTS), ScenarioConfig(tau_max_s=Decimal("10")),
                    config_for(ScenarioConfig(), np.float64(45.0), True)):
            assert same_config(cfg, ScenarioConfig())
            assert [type(getattr(cfg, key)) for key in cfg.KEYS] == kinds

    @pytest.mark.parametrize("key", NUMPY_DEFAULTS)
    def test_numpy_number_runs_as_its_plain_value(self, key):
        # A numpy number in the world makes numpy bools, which cannot index a tuple.
        plain = ScenarioConfig(**LOSSY)
        given = ScenarioConfig(**{**LOSSY, key: type(NUMPY_DEFAULTS[key])(getattr(plain, key))})
        (a, a_trace), (b, b_trace) = run_scenario(plain), run_scenario(given)
        assert write_results_csv([b]) == write_results_csv([a])
        assert write_trace_csv(b_trace) == write_trace_csv(a_trace)

    @pytest.mark.parametrize(("key", "value"), [
        ("tau_max_s", Decimal("0.1")), ("dt_s", Fraction(1, 3)), ("approach_time_s", 2**53 + 1),
    ], ids=["decimal", "fraction", "int-past-2**53"])
    def test_number_that_no_float_holds_is_refused(self, key, value):
        with pytest.raises(ConfigError) as caught:
            ScenarioConfig(**{key: value})
        assert str(caught.value) == (f"{key}: must be a number that a float holds exactly, "
                                     f"got {value!r}")
        with pytest.raises(ConfigError, match="^av_speed_mph: must be a number that a float "):
            config_for(ScenarioConfig(), value, True)

    def test_every_default_passes_its_own_rules_unchanged(self):
        # The constructor checks only the keys it is given, so the defaults,
        # code and not input, meet their own rules here.
        for key in ScenarioConfig.KEYS:
            default = getattr(ScenarioConfig, key)
            checked = scenario._check_key(key, default)
            assert (type(checked), checked) == (type(default), default), key
        built, rebuilt = ScenarioConfig(), replace(ScenarioConfig())
        assert list(vars(built).items()) == list(vars(rebuilt).items())

    def test_every_ranged_key_is_a_config_key(self):
        # A misspelled key in the range table would silently drop its rule.
        assert set(scenario._RANGES) <= set(ScenarioConfig.KEYS)

    @pytest.mark.parametrize("key", ["num_lanes", "av_lane_index", "transmitter_lane_index"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_lane_int_that_no_float_can_hold_rejected(self, key, sign):
        # Lane counts and indices enter float arithmetic, where 10**400
        # overflows. The message names the key and prints none of its digits.
        with pytest.raises(ConfigError, match=rf"^{key}: must be finite, got an integer too big "
                                              r"for a float$"):
            ScenarioConfig(**{key: sign * 10**400})

    def test_seed_of_any_size_accepted(self):
        # random.Random takes any int, so the seed alone has no float bound.
        assert ScenarioConfig(seed=10**400).seed == 10**400

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
        assert cfg.av_lane_y - cfg.tx_lane_y == pytest.approx(3.6576, abs=1e-12)
        assert cfg.av_lane_y == pytest.approx(5.4864, abs=1e-12)
        assert cfg.tx_lane_y == pytest.approx(1.8288, abs=1e-12)
        assert cfg.road_width_m == pytest.approx(14.6304, abs=1e-12)
        assert R_SUM_M == pytest.approx(3.74904, abs=1e-12)
        assert cfg.sightline_edge_y == pytest.approx(2.7288, abs=1e-12)
        assert cfg.clearance_y == cfg.av_lane_y + R_SUM_M


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
            result, _ = run_scenario(ab.unbraked(cfg))
            assert result.collision

    def test_unmitigated_45mph_collides(self):
        result, _ = run_scenario(ab.unbraked(config_for(ScenarioConfig(), 45.0, True)))
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

    @pytest.mark.parametrize(("key", "speed"), [("av_speed_mph", 1e-308), ("ped_speed_ftps", 1e-310)])
    def test_speed_too_small_for_a_finite_time_to_the_contact_is_named(self, key, speed):
        # The AV's time from the contact offset to the walk line, or the
        # pedestrian's walk to the contact, overflows: no approach time fits it.
        with pytest.raises(ConfigError, match=rf"^{key}: must be fast enough to reach the "
                                              rf"contact point in finite time, got {speed}$"):
            ScenarioConfig(**{key: speed})

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

    # Each blame rule below meets its boundary exactly: the approach times,
    # lane widths and walking speeds were found by stepping a float one ulp
    # at a time, and each test asserts the tie it stages.

    @pytest.mark.parametrize(("lane_width_ft", "ped_speed_ftps", "twin_margin_s", "dy"), [
        (12.0, 50.26246719160106, 0.1, 0.0), (16.0, 4.1513560804899585, 0.3, R_SUM_M)])
    def test_contact_on_a_reach_bound_at_the_default_margin_blames_the_lane(
            self, lane_width_ft, ped_speed_ftps, twin_margin_s, dy):
        # The default fast margin stages the contact's offset exactly on a
        # bound of the open reach (0, R_SUM_M), so neither margin's default
        # passes, and the fallback key is named.
        keys = {"lane_width_ft": lane_width_ft, "ped_speed_ftps": ped_speed_ftps}
        twin = ScenarioConfig(**keys, reveal_margin_s=twin_margin_s)
        assert twin.av_lane_y - (twin.sightline_edge_y
                                 + ScenarioConfig.reveal_margin_s * twin.ped_speed_mps) == dy
        with pytest.raises(ConfigError, match="^lane_width_ft: contact out of reach"):
            ScenarioConfig(**keys)

    def test_late_start_blames_the_offset_when_its_default_enters_at_zero(self):
        # At this approach the default start enters at t = 0 exactly, the
        # earliest entry accepted, so a start farther back is at fault; one
        # ulp shorter, the default start is late too.
        approach_s = 17.31912696680855
        assert ScenarioConfig(approach_time_s=approach_s).ped_entry_time_s == 0.0
        with pytest.raises(ConfigError, match="^ped_start_offset_m: .* cannot reach"):
            ScenarioConfig(approach_time_s=approach_s, ped_start_offset_m=-30.0)
        with pytest.raises(ConfigError, match="^approach_time_s: .* cannot reach"):
            ScenarioConfig(approach_time_s=math.nextafter(approach_s, 0.0))

    def test_run_at_the_cap_at_the_default_step_blames_a_finer_step(self):
        approach_s = 19989.98034743925
        cfg = ScenarioConfig(approach_time_s=approach_s)
        assert run_length_s(cfg, cfg.ped_entry_time_s) / cfg.dt_s == MAX_RUN_STEPS
        with pytest.raises(ConfigError, match="^dt_s: the run would take"):
            ScenarioConfig(approach_time_s=approach_s, dt_s=0.01)

    def test_run_over_the_cap_blames_the_approach_when_it_ties_the_walk_on(self):
        # A crawl from close by, as in test_run_longer_than_cap_names_dominant_key's
        # last case, but with the unbraked AV's arrival at the contact exactly as
        # long as the walk on past it: the approach is named; one ulp shorter, the walk.
        keys = {"ped_speed_ftps": 1e-3, "ped_start_offset_m": -1.0}
        approach_s = 21347.19035364788
        cfg = ScenarioConfig(**keys, approach_time_s=approach_s, dt_s=0.1)  # under the cap
        contact_y = cfg.sightline_edge_y + cfg.reveal_margin_s * cfg.ped_speed_mps
        dy = cfg.av_lane_y - contact_y
        t_contact = approach_s - math.sqrt(R_SUM_M * R_SUM_M - dy * dy) / cfg.av_speed_mps
        assert t_contact == (cfg.av_lane_y + R_SUM_M - contact_y) / cfg.ped_speed_mps
        with pytest.raises(ConfigError, match="^approach_time_s: the run would take"):
            ScenarioConfig(**keys, approach_time_s=approach_s)
        with pytest.raises(ConfigError, match="^ped_speed_ftps: the run would take"):
            ScenarioConfig(**keys, approach_time_s=math.nextafter(approach_s, 0.0))

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
        # Stopped in its lane with its bumper 0.02 m past the walk line.
        tx_x = 0.02 - AV_RADIUS_M
        assert (w.tx_x, w.tx_y) == (tx_x, cfg.tx_lane_y)
        # The channel's fixed terms, staged with the same operands in the same order.
        dx = 0.0 - (tx_x + AV_RADIUS_M)
        assert w.tx_dx_sq == dx * dx
        assert w.av_tx_dy == cfg.av_lane_y - cfg.tx_lane_y
        bumper = w.occluder[1]
        assert bumper == pytest.approx(0.02, abs=1e-12)
        assert (w.ped_y, w.ped_vy) == (cfg.ped_start_offset_m, cfg.ped_speed_mps)
        assert cfg.ped_entry_time_s == pytest.approx(calibrate_entry(cfg))
        assert w.active_from_s == cfg.ped_entry_time_s - 1e-9

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
        assert cfg.sightline_edge_y == max_y
        assert max_x - min_x == pytest.approx(2 * AV_RADIUS_M, rel=1e-12)
        assert max_y - min_y == pytest.approx(BODY_WIDTH_M, rel=1e-12)

    def test_seed_flows_to_rng(self):
        # A lossy link's generator is seeded from the config; a loss-free
        # link never draws, and a run without the relay never steps the
        # link, so neither world holds one.
        w1 = build_world(ScenarioConfig(seed=5, drop_prob=0.5))
        w2 = build_world(ScenarioConfig(seed=5, drop_prob=0.5))
        assert w1.rng.random() == w2.rng.random()
        assert build_world(ScenarioConfig(seed=5)).rng is None
        assert build_world(ScenarioConfig(seed=5, drop_prob=0.5, v2v=False)).rng is None

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(valid_configs())
    def test_every_accepted_config_builds_a_finite_world(self, cfg):
        # Nothing in a run can overflow, starting with the world it is
        # built as: every float slot, the footprint's bounds included.
        w = build_world(cfg)
        values = [getattr(w, name) for name in type(w).__slots__]
        floats = [x for value in values for x in (value if isinstance(value, tuple) else (value,))
                  if isinstance(x, float)]
        assert len(floats) > 4 and all(map(math.isfinite, floats))


class TestConfigFor:
    def test_only_speed_and_strategy_change(self):
        base = ScenarioConfig(seed=3)
        derived = config_for(base, 60.0, False)
        assert derived.av_speed_mph == 60.0
        assert derived.v2v is False
        assert same_config(replace(derived, av_speed_mph=base.av_speed_mph, v2v=base.v2v), base)

    # Speeds that fail each speed rule in turn, the last one calibration:
    # at 2 mph the unbraked AV arrives before the pedestrian can.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(base=st.builds(lambda cfg, tail: cfg if tail else cfg.results_only(),
                          valid_configs(), st.booleans()),
           speed=st.one_of(st.floats(), st.floats(0.0, 500.0),
                                                 st.integers()), v2v=st.booleans())
    @example(base=ScenarioConfig(), speed=math.nan, v2v=True)
    @example(base=ScenarioConfig(), speed=math.inf, v2v=False)
    @example(base=ScenarioConfig(), speed=-0.0, v2v=True)
    @example(base=ScenarioConfig(), speed=-5.0, v2v=True)
    @example(base=ScenarioConfig(), speed=5e-324, v2v=True)
    @example(base=ScenarioConfig(), speed=10**400, v2v=True)
    @example(base=ScenarioConfig(), speed=1000.0001, v2v=False)
    @example(base=ScenarioConfig(), speed=2.0, v2v=True)
    @example(base=ScenarioConfig(), speed=45.0, v2v="off")
    @example(base=ScenarioConfig(), speed="45", v2v=True)
    @example(base=ScenarioConfig(), speed=None, v2v=True)
    @example(base=ScenarioConfig(), speed=True, v2v=True)
    def test_derived_copy_is_the_full_rebuild(self, base, speed, v2v):
        # config_for checks only the speed and the strategy, then every
        # two-key rule, on a copy of the validated base, its results-only
        # copy included: every attribute, its value, type and place, or
        # the error message, is what rebuilding all 25 keys gives.
        def outcome(build):
            try:
                return [(key, value, repr(value)) for key, value in vars(build()).items()]
            except ConfigError as exc:
                return str(exc)

        derived = outcome(lambda: config_for(base, speed, v2v))
        assert derived == outcome(lambda: replace(base, av_speed_mph=speed, v2v=v2v))

    # A truthy non-bool would read as the relay on, and a string would
    # reach the finiteness rule, which cannot compare it.
    @pytest.mark.parametrize(("v2v", "shown"), [(2, "an integer"), (1, "an integer"),
                                                ("off", "'off'"), (None, "None"),
                                                (10**5000, "an integer")],
                             ids=["2", "1", "off", "None", "huge"])
    def test_v2v_must_be_a_bool(self, v2v, shown):
        message = f"v2v: must be on or off (a bool), got {shown}"
        with pytest.raises(ConfigError) as built:
            ScenarioConfig(v2v=v2v)
        with pytest.raises(ConfigError) as derived:
            config_for(ScenarioConfig(), 45.0, v2v)
        assert str(built.value) == str(derived.value) == message

    @pytest.mark.parametrize(("argv", "message"), [
        (["run", "--speed", "nan"], "av_speed_mph: must be finite, got nan"),
        (["sweep", "--speeds", "nan"], "--speeds: nan mph: av_speed_mph: must be finite, got nan"),
    ])
    def test_cli_names_a_bad_speed_as_before(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestConfigRecord:
    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="'av_sped_mph'"):
            ScenarioConfig(av_sped_mph=45.0)
        with pytest.raises(TypeError, match="'t_end_s'"):
            replace(ScenarioConfig(), t_end_s=30.0)

    def test_transmitter_gap_is_no_key_at_either_boundary(self, tmp_path, capsys):
        # The stopped transmitter's place is fixed, as calibration stages it.
        cfg = tmp_path / "gap.cfg"
        cfg.write_text("tx_stop_gap_m = -0.02\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: line 1: unknown key 'tx_stop_gap_m'\n"
        assert not (tmp_path / "r.csv").exists()
        with pytest.raises(TypeError, match="'tx_stop_gap_m'"):
            ScenarioConfig(tx_stop_gap_m=-0.02)

    def test_config_refuses_assignment_and_deletion(self):
        cfg = ScenarioConfig()
        with pytest.raises(AttributeError, match="read-only"):
            cfg.dt_s = 0.01
        with pytest.raises(AttributeError, match="read-only"):
            del cfg.seed
        assert same_config(cfg, ScenarioConfig())

    def test_keys_are_the_annotated_defaults_in_order(self):
        cfg = ScenarioConfig(seed=7)
        assert ScenarioConfig.KEYS[:2] == ("av_speed_mph", "v2v")
        assert ScenarioConfig.KEYS[-2:] == ("dt_s", "seed")
        assert len(ScenarioConfig.KEYS) == 25
        assert repr(cfg) == "ScenarioConfig(" + ", ".join(
            f"{key}={getattr(cfg, key)!r}" for key in ScenarioConfig.KEYS) + ")"
        assert "ped_entry_time_s" not in repr(cfg)

    def test_replace_changes_only_the_named_keys_and_recalibrates(self):
        base = ScenarioConfig()
        derived = replace(base, approach_time_s=25.0)
        assert [k for k in ScenarioConfig.KEYS
                if getattr(derived, k) != getattr(base, k)] == ["approach_time_s"]
        assert derived.ped_entry_time_s == calibrate_entry(derived) != base.ped_entry_time_s
        assert same_config(replace(derived, approach_time_s=20.0), base)
