import faulthandler
import sys

import pytest

from occlusim import cli, harness
from occlusim.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, MAX_RANGE_SPEEDS, _parse_speeds,
                          build_parser, main)
from occlusim.harness import RESULTS_HEADER, TRACE_HEADER
from occlusim.scenario import ConfigError, ScenarioConfig


def test_run_writes_results_and_trace(tmp_path, capsys):
    out = tmp_path / "results.csv"
    trace = tmp_path / "trace.csv"
    code = main(["run", "--speed", "45", "--v2v", "off",
                 "--out", str(out), "--trace", str(trace)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == RESULTS_HEADER
    assert lines[1].startswith("45,without_v2v,")
    assert trace.read_text().splitlines()[0] == TRACE_HEADER
    assert "collision=true" in capsys.readouterr().out


def _run_outputs(tmp_path, capsys, args, traced):
    """results.csv bytes and stdout of one ``run`` call, with a trace or not."""
    out = tmp_path / ("traced.csv" if traced else "untraced.csv")
    trace = ["--trace", str(tmp_path / "trace.csv")] if traced else []
    assert main(["run", *args, "--out", str(out), *trace]) == EXIT_OK
    return out.read_bytes(), capsys.readouterr().out


LOSSY = "latency_s = 0.3\ndrop_prob = 0.5\nseed = 7\n"


@pytest.mark.parametrize("v2v", ["on", "off"])
@pytest.mark.parametrize("speed", ["10", "45", "70", "lossy"])
def test_run_without_trace_writes_what_a_traced_run_writes(tmp_path, capsys, speed, v2v):
    # An untraced run ends by the sweep's miss rule; its row must not move.
    if speed == "lossy":
        (tmp_path / "lossy.cfg").write_text(LOSSY)
        args = ["--config", str(tmp_path / "lossy.cfg"), "--v2v", v2v]
    else:
        args = ["--speed", speed, "--v2v", v2v]
    assert (_run_outputs(tmp_path, capsys, args, traced=False)
            == _run_outputs(tmp_path, capsys, args, traced=True))


def test_untraced_default_runs_stop_where_the_sweep_runs_stop(tmp_path, capsys, monkeypatch):
    steps = {False: [], True: []}

    def counted(cfg):
        result, trace = harness.run_scenario(cfg)
        steps[bool(cfg.tail_s)].append(len(trace))
        return result, trace

    monkeypatch.setattr(cli, "run_scenario", counted)
    sweep_steps = []
    for cfg in harness.SweepSpec().configs:
        args = ["--speed", str(cfg.av_speed_mph), "--v2v", "on" if cfg.v2v else "off"]
        assert (_run_outputs(tmp_path, capsys, args, traced=False)
                == _run_outputs(tmp_path, capsys, args, traced=True))
        sweep_steps.append(len(harness.run_scenario(cfg.results_only())[1]))
    assert steps[False] == sweep_steps
    assert (sum(steps[False]), sum(steps[True])) == (23_811, 32_800)


def test_run_reads_config_file(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("av_speed_mph = 20\nv2v = on\n")
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[1].startswith("20,with_v2v,")


def test_sweep_speeds_colon_form(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--speeds", "10:20:5", "--out", str(out)]) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 6  # 3 speeds x 2 strategies


def test_sweep_default_is_full_table(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 27  # header + 26 rows


def test_run_that_never_detects_prints_the_sentinel(tmp_path, capsys):
    # A 0.5 m sensor never sees the pedestrian: no detection and no TTC.
    cfg = tmp_path / "blind.cfg"
    cfg.write_text("av_sensor_range_m = 0.5\n")
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(cfg), "--v2v", "off", "--out", str(out)]) == EXIT_OK
    assert "detected=- first_ttc=none" in capsys.readouterr().out
    assert out.read_text().splitlines()[1] == "45,without_v2v,,10000,10000,true,19.8800,0.0000"


def test_run_that_brakes_to_a_standstill_stays_there(tmp_path):
    # 1000 m/s^2 stops the AV within a step, short of the pedestrian.
    cfg = tmp_path / "strong_brake.cfg"
    cfg.write_text("d_max_mps2 = 1000\n")
    out, trace = tmp_path / "r.csv", tmp_path / "trace.csv"
    assert main(["run", "--config", str(cfg), "--speed", "10", "--v2v", "off",
                 "--out", str(out), "--trace", str(trace)]) == EXIT_OK
    rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    stopped = [row for row in rows if row[2] == "0.0000"]
    assert stopped and stopped == rows[-len(stopped):]
    assert out.read_text().splitlines()[1].split(",")[5] == "false"


def test_seed_has_no_effect_on_the_ideal_channel(tmp_path):
    # With no drops the seeded generator is never drawn from.
    outputs = []
    for seed in (0, 987654321):
        cfg = tmp_path / f"seed{seed}.cfg"
        cfg.write_text(f"seed = {seed}\n")
        out = tmp_path / f"seed{seed}.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_calibrate_prints_entry_time(capsys):
    assert main(["calibrate"]) == EXIT_OK
    value = float(capsys.readouterr().out.strip())
    assert value >= 0.0


def test_config_with_byte_order_mark_reads_as_without(tmp_path, capsys):
    text = "av_speed_mph = 20\nped_speed_ftps = 5\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["calibrate", "--config", str(plain)]) == EXIT_OK
    entry = capsys.readouterr().out
    assert main(["calibrate", "--config", str(marked)]) == EXIT_OK
    assert capsys.readouterr().out == entry
    assert entry != "{:.6f}\n".format(ScenarioConfig().ped_entry_time_s)


def test_bad_config_path_is_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("out", [["--out", "same.csv"], ["--out", "./same.csv"], []],
                         ids=["same", "dot-slash", "default-out"])
def test_run_trace_to_the_out_file_exits_1_writing_nothing(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    trace = "results.csv" if not out else "same.csv"
    assert main(["run", *out, "--trace", trace]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: --trace: names the same file as --out ({trace})\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, error", [
    (["run", "--config", "a.cfg", "--out", "a.cfg"],
     "--out: names the same file as --config (a.cfg)"),
    (["sweep", "--config", "a.cfg", "--out", "./a.cfg"],
     "--out: names the same file as --config (./a.cfg)"),
    (["run", "--config", "a.cfg", "--out", "r.csv", "--trace", "a.cfg"],
     "--trace: names the same file as --config (a.cfg)"),
    (["run", "--config", "results.csv"], "--out: names the same file as --config (results.csv)"),
    (["sweep", "--config", "link.cfg", "--out", "a.cfg"],
     "--out: names the same file as --config (a.cfg)"),
], ids=["run-out", "sweep-out", "run-trace", "run-default-out", "sweep-symlink"])
def test_output_naming_the_config_file_exits_1_leaving_it_unchanged(tmp_path, capsys, monkeypatch,
                                                                     argv, error):
    monkeypatch.chdir(tmp_path)
    config = "av_speed_mph = 20\n"
    name = "results.csv" if "results.csv" in argv else "a.cfg"
    (tmp_path / name).write_text(config, encoding="utf-8")
    if "link.cfg" in argv:
        (tmp_path / "link.cfg").symlink_to(name)
    before = sorted(tmp_path.iterdir())
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert sorted(tmp_path.iterdir()) == before
    assert (tmp_path / name).read_text(encoding="utf-8") == config


@pytest.mark.parametrize("command", ["run", "sweep", "calibrate"])
def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"av_speed_mph = 20\xff\n")
    out = [] if command == "calibrate" else ["--out", str(tmp_path / "r.csv")]
    assert main([command, "--config", str(cfg), *out]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {cfg}: ")
    assert not (tmp_path / "r.csv").exists()


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("speed = 45\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


def test_infeasible_calibration_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "far.cfg"
    cfg.write_text("ped_start_offset_m = -60\n")
    assert main(["calibrate", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ped_start_offset_m: ")


@pytest.mark.parametrize("key,value", [
    ("ped_start_offset_m", "nan"), ("approach_time_s", "inf"), ("latency_s", "inf"),
])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


@pytest.mark.parametrize("command", ["run", "sweep", "calibrate"])
def test_lane_count_that_no_float_can_hold_exits_1(tmp_path, capsys, command):
    # Accepted at load time, this count overflowed in the first run's
    # build_world, with a traceback, while calibrate printed an entry time.
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("num_lanes = 1" + "0" * 400 + "\n")
    out = [] if command == "calibrate" else ["--out", str(tmp_path / "r.csv")]
    assert main([command, "--config", str(cfg), *out]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: num_lanes: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("speeds", ["0,10", ",", "10,nan", "10,inf", "10:70:nan",
                                    "10:70:1e-16", "10:70:1e-9", "10:10.000002:0.0000004",
                                    "10.0000005:10.00001:0.000001", "10,10", "20,10,20.0"])
def test_bad_sweep_speeds_are_config_error(tmp_path, capsys, monkeypatch, speeds):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_scenario", no_run)
    # 10:70:1e-16 never moves past 10 and 10:70:1e-9 lists 6e10 speeds;
    # both are rejected by count before any speed is listed. The two ranges
    # after them list speeds that repeat once rounded to 6 decimals; the
    # last two lists repeat a speed outright.
    assert main(["sweep", "--speeds", speeds, "--out", str(tmp_path / "s.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --speeds: ")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("speeds", [",", "", " , "])
def test_sweep_speeds_listing_no_speed_name_the_flag_not_a_parameter(tmp_path, capsys, speeds):
    assert main(["sweep", "--speeds", speeds, "--out", str(tmp_path / "s.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: --speeds: lists no speed, got {speeds!r}\n"


def test_sweep_labels_tell_close_speeds_apart(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--speeds", "100.0001,100.0002", "--out", str(out)]) == EXIT_OK
    labels = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert labels == ["100.0001", "100.0001", "100.0002", "100.0002"]
    assert [float(label) for label in labels[::2]] == [100.0001, 100.0002]
    capsys.readouterr()
    assert main(["run", "--speed", "100.0001", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("100.0001 mph with_v2v: ")


def test_sweep_calibration_error_names_speed_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_scenario", no_run)
    # The slow margin stages 10 mph; 15 mph is the first speed the 4 s fast
    # margin puts out of reach.
    cfg = tmp_path / "late.cfg"
    cfg.write_text("av_speed_mph = 10\nreveal_margin_s = 4.0\n")
    out = tmp_path / "s.csv"
    args = ["sweep", "--config", str(cfg), "--speeds", "10,15,20", "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --speeds: 15 mph: reveal_margin_s: ")
    assert not out.exists()


@pytest.mark.parametrize("lines,key", [
    ("lane_width_ft = 1e307", "lane_width_ft"),
    ("av_lane_index = 2", "lane_width_ft"),
    ("lane_width_ft = 2", "lane_width_ft"),
    ("reveal_margin_s = 4.0", "reveal_margin_s"),
    ("av_speed_mph = 10\nreveal_margin_slow_s = 4.0", "reveal_margin_slow_s"),
    ("av_speed_mph = 12.5\nreveal_margin_s = 10.0", "reveal_margin_s"),
    ("av_speed_mph = 12.5\nreveal_margin_slow_s = 10.0", "reveal_margin_slow_s"),
    ("ped_start_offset_m = -60", "ped_start_offset_m"),
    ("ped_start_offset_m = -1e300", "ped_start_offset_m"),
    ("ped_start_offset_m = 10", "ped_start_offset_m"),
    ("approach_time_s = 5", "approach_time_s"),
])
def test_unstageable_config_exits_1_naming_key(tmp_path, capsys, lines, key):
    # Offsets and times print with 4 significant digits, never 300.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(lines + "\n")
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ")
    assert len(err) < 200, err
    assert not out.exists()


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == EXIT_CONFIG


def test_exit_codes_are_the_documented_ones():
    assert (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME) == (0, 1, 2)


def test_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "results.csv"
    assert main(["run", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_calls_in_one_process_share_the_parser_and_nothing_else(tmp_path, capsys):
    # The parser is built once per process; no call's arguments may leak
    # into the next call's.
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("av_speed_mph = 20\nv2v = on\n")
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["run", "--speed", "fast"]) == EXIT_CONFIG
    assert main(["run", "--config", str(cfg), "--speed", "30", "--v2v", "off",
                 "--out", str(first)]) == EXIT_OK
    assert main(["run", "--config", str(cfg), "--out", str(second)]) == EXIT_OK
    assert first.read_text().splitlines()[1].startswith("30,without_v2v,")
    assert second.read_text().splitlines()[1].startswith("20,with_v2v,")
    assert build_parser() is build_parser()


def test_parse_speeds_forms():
    assert _parse_speeds("10:70:5") == tuple(float(s) for s in range(10, 75, 5))
    assert _parse_speeds("45") == (45.0,)
    assert _parse_speeds("20,45,70") == (20.0, 45.0, 70.0)
    # A list need not be sorted; SweepSpec refuses a repeat.
    assert _parse_speeds("70,20") == (70.0, 20.0)
    with pytest.raises(ConfigError):
        _parse_speeds("10:70")
    with pytest.raises(ConfigError):
        _parse_speeds("70:10:5")
    with pytest.raises(ConfigError):
        _parse_speeds("a:b:c")
    # Unbounded or NaN ranges are rejected before any speed is generated.
    for spec in ("10:inf:5", "-inf:70:5", "10:70:nan", "10:70:inf"):
        with pytest.raises(ConfigError, match="must be finite"):
            _parse_speeds(spec)
    # A range may list at most MAX_RANGE_SPEEDS speeds, its endpoint included.
    assert len(_parse_speeds(f"0:{MAX_RANGE_SPEEDS - 1}:1")) == MAX_RANGE_SPEEDS
    for spec in (f"0:{MAX_RANGE_SPEEDS}:1", "-1e308:1e308:1e-308", "1e6:1e6:1e-14"):
        with pytest.raises(ConfigError, match="more than"):
            _parse_speeds(spec)


@pytest.mark.parametrize("lines,args,key", [
    ("av_speed_mph = 1e308", [], "dt_s"),
    ("approach_time_s = 1e308", [], "approach_time_s"),
    ("dt_s = 1e308", [], "dt_s"),
    ("av_speed_mph = 1e200", [], "dt_s"),
    ("dt_s = 0.3", ["--speed", "70", "--v2v", "off"], "dt_s"),
    ("approach_time_s = 1e200", [], "approach_time_s"),
    ("ped_cross_x_m = 0", [], "line 1"),
])
def test_out_of_reach_config_exits_1_before_running(tmp_path, capsys, lines, args, key):
    # Unless rejected at load time, each of these runs to a wrong verdict,
    # never ends, or fails inside the run. A run that does not end aborts
    # the test process after 60 s with a traceback instead of hanging it.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(lines + "\n")
    out = tmp_path / "r.csv"
    faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
    try:
        code = main(["run", "--config", str(cfg), "--out", str(out), *args])
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not out.exists()


def test_sweep_config_error_names_speed_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_scenario", no_run)
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("dt_s = 0.15\n")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: 60 mph: dt_s: ")
    assert not out.exists()
