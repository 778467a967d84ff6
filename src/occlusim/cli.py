"""Command-line entry points: run one scenario, sweep speeds, calibrate.

Exit codes: 0 success, 1 usage or configuration error (a config that
cannot stage the conflict included), 2 simulation or output error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .harness import (
    DEFAULT_SWEEP_SPEEDS_MPH,
    SweepSpec,
    run_scenario,
    save_text,
    speed_label,
    sweep,
    write_results_csv,
    write_trace_csv,
)
from .scenario import ConfigError, ScenarioConfig, config_for, load_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

# The most speeds a start:stop:step range may list.
MAX_RANGE_SPEEDS = 10_000


def _load_base_config(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    try:
        # utf-8-sig drops the byte-order mark some editors write.
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config(text)


def _parse_speeds(spec: str) -> tuple[float, ...]:
    """Parse '--speeds': either 'start:stop:step' (inclusive) or a
    comma-separated list. SweepSpec refuses a repeated speed, one that a
    range's 6-decimal rounding repeats included."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--speeds: expects start:stop:step, got {spec!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"--speeds: expects numbers, got {spec!r}") from None
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ConfigError(f"--speeds: start, stop and step must be finite, got {spec!r}")
        if step <= 0.0 or stop < start:
            raise ConfigError(f"--speeds: range is empty or inverted: {spec!r}")
        # Count the speeds first: a step too small to move the speed would
        # otherwise list speeds without end.
        steps = (stop + 1e-9 - start) / step
        if steps >= MAX_RANGE_SPEEDS:
            raise ConfigError(f"--speeds: {spec!r} lists more than {MAX_RANGE_SPEEDS} speeds")
        speeds = tuple(round(start + i * step, 6) for i in range(math.floor(steps) + 1))
    else:
        try:
            speeds = tuple(float(p) for p in spec.split(",") if p.strip())
        except ValueError:
            raise ConfigError(f"--speeds: expects numbers, got {spec!r}") from None
        if not speeds:
            raise ConfigError(f"--speeds: lists no speed, got {spec!r}")
    return speeds


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_base_config(args.config)
    cfg = config_for(cfg, cfg.av_speed_mph if args.speed is None else args.speed,
                     cfg.v2v if args.v2v is None else args.v2v == "on")
    # Without a trace, only the results row is kept: the run ends as a sweep's does.
    result, trace = run_scenario(cfg.results_only() if args.trace is None else cfg)
    save_text(args.out, write_results_csv([result]))
    if args.trace is not None:
        save_text(args.trace, write_trace_csv(trace))

    detected = "-" if result.detected_time_s is None else f"{result.detected_time_s:.4f}s"
    first = "none" if result.first_ttc_s is None else f"{result.first_ttc_s:.4f}s"
    print(
        f"{speed_label(result.av_speed_mph)} mph {result.strategy}:"
        f" collision={str(result.collision).lower()} detected={detected}"
        f" first_ttc={first} max_pressure={result.max_pressure_bar:.1f} bar"
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _load_base_config(args.config)
    speeds = DEFAULT_SWEEP_SPEEDS_MPH if args.speeds is None else _parse_speeds(args.speeds)
    try:
        spec = SweepSpec(speeds_mph=speeds, base=base)
    except ConfigError as exc:
        raise ConfigError(str(exc) if args.speeds is None else f"--speeds: {exc}") from None
    results = sweep(spec)
    save_text(args.out, write_results_csv(results))
    collisions = sum(1 for r in results if r.collision)
    print(f"{len(results)} runs -> {args.out} ({collisions} collisions)")
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _load_base_config(args.config)
    print(f"{cfg.ped_entry_time_s:.6f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="occlusim",
        description=(
            "Simulate an automated vehicle approaching a pedestrian hidden "
            "by a stopped vehicle, with and without V2V relay of the "
            "pedestrian's state."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("--config", help="scenario config file (defaults used when omitted)")
    run_p.add_argument("--v2v", choices=("on", "off"), help="override the V2V strategy")
    run_p.add_argument("--speed", type=float, help="override the AV speed in mph")
    run_p.add_argument("--out", default="results.csv", help="results CSV path")
    run_p.add_argument("--trace", help="optional per-step trace CSV path")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run the speed/strategy sweep")
    sweep_p.add_argument("--config", help="base scenario config file")
    sweep_p.add_argument("--speeds", help="speeds as start:stop:step or a comma list (mph)")
    sweep_p.add_argument("--out", default="results.csv", help="results CSV path")
    sweep_p.set_defaults(func=_cmd_sweep)

    cal_p = sub.add_parser("calibrate", help="print the pedestrian entry time in seconds")
    cal_p.add_argument("--config", help="scenario config file")
    cal_p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the config code.
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        # No output may overwrite the config or the other one: compare real paths first.
        named: dict[str, str] = {}
        for flag in ("--config", "--out", "--trace"):
            path = getattr(args, flag[2:], None)
            other = None if path is None else named.setdefault(os.path.realpath(path), flag)
            if other not in (None, flag):
                raise ConfigError(f"{flag}: names the same file as {other} ({path})")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
