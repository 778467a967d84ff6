import faulthandler
import sys

import pytest

from occlusim import harness
from occlusim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, _parse_speeds, main
from occlusim.harness import RESULTS_HEADER, TRACE_HEADER
from occlusim.scenario import ConfigError


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


def test_calibrate_prints_entry_time(capsys):
    assert main(["calibrate"]) == EXIT_OK
    value = float(capsys.readouterr().out.strip())
    assert value >= 0.0


def test_bad_config_path_is_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("speed = 45\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


def test_infeasible_calibration_is_runtime_error(tmp_path, capsys):
    cfg = tmp_path / "far.cfg"
    cfg.write_text("ped_start_offset_m = -60\n")
    assert main(["calibrate", "--config", str(cfg)]) == EXIT_RUNTIME
    assert "calibration error" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("ped_start_offset_m", "nan"), ("tx_stop_gap_m", "inf"), ("latency_s", "inf"),
])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


@pytest.mark.parametrize("speeds", ["0,10", ",", "10,nan", "10,inf", "10:70:nan"])
def test_bad_sweep_speeds_are_config_error(tmp_path, capsys, speeds):
    assert main(["sweep", "--speeds", speeds, "--out", str(tmp_path / "s.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --speeds: ")
    assert not (tmp_path / "s.csv").exists()


def test_sweep_calibration_error_names_speed_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_scenario", no_run)
    cfg = tmp_path / "late.cfg"
    cfg.write_text("reveal_margin_s = 4.0\n")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("calibration error: 15 mph: ")
    assert not out.exists()


@pytest.mark.parametrize("line", ["lane_width_ft = 1e307", "ped_start_offset_m = -1e300"])
def test_calibration_error_message_stays_short(tmp_path, capsys, line):
    # Offsets and times print with 4 significant digits, never 300.
    cfg = tmp_path / "far.cfg"
    cfg.write_text(line + "\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("calibration error: ")
    assert len(err) < 200, err


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == EXIT_CONFIG


def test_parse_speeds_forms():
    assert _parse_speeds("10:70:5") == tuple(float(s) for s in range(10, 75, 5))
    assert _parse_speeds("45") == (45.0,)
    assert _parse_speeds("20,45,70") == (20.0, 45.0, 70.0)
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
    assert capsys.readouterr().err.startswith("config error: --speeds: 60 mph: dt_s: ")
    assert not out.exists()
