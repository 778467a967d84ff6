"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they execute.

Criteria 4 and 6 encode targets that the modeled physics cannot fully
reach; they are asserted as stated and fail honestly:

- Criterion 4 requires a sub-0.2 s first TTC in the 10 mph no-relay run.
  With the disc-overlap collision rule, a stop from 10 mph needs roughly
  0.4 s of warning (at 8 m/s^2 peak deceleration a later detection always
  ends in overlap), yet criterion 3 requires that same run to avoid the
  collision. The scenario gives the 10 mph case the warning it needs, so
  its first TTC is ~0.8 s and the other twelve speeds stay below 0.2 s.
- Criterion 6 requires the TTC trace to be nondecreasing from the first
  brake application. Proportional braking starts gently, and a gentle
  deceleration cannot outpace the clock: TTC rises monotonically only if
  decel * ttc exceeds the closing speed at braking onset, which is
  impossible above ~45 mph closing given 8 m/s^2 at full pressure (and
  never holds at onset when detection happens above the 10 s threshold).
  Every with-relay run therefore shows a shallow initial TTC dip before
  the rise.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from _oracle import brute_force_ttc
from conftest import SWEEP_SPEEDS
from occlusim import ScenarioConfig, SweepSpec, sweep, write_results_csv
from occlusim.braking import BrakePolicy, brake_pressure
from occlusim.harness import NO_TTC_SENTINEL_S
from occlusim.ttc import ttc

R_SUM = 3.74904


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_ttc_oracle_equivalence():
    """1000 seeded random relative states: tag agreement 100%, collision
    times within 1e-4 s of the fine-step oracle, under 30 s."""
    rng = np.random.default_rng(20260808)
    start = time.perf_counter()
    mismatches = []
    for i in range(1000):
        dist = rng.uniform(R_SUM, 200.0)
        ang_x = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(0.5, 40.0)
        ang_v = rng.uniform(0.0, 2.0 * math.pi)
        x, y = dist * math.cos(ang_x), dist * math.sin(ang_x)
        vx, vy = speed * math.cos(ang_v), speed * math.sin(ang_v)

        got = ttc(x, y, vx, vy, 1.524 + 2.22504)
        want = brute_force_ttc(x, y, vx, vy, R_SUM)
        if (got is None) != (want is None):
            mismatches.append((i, got, want))
        elif got is not None and abs(got - want) > 1e-4:
            mismatches.append((i, got, want))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30.0
    _report(
        "criterion 1 (oracle equivalence)",
        ok,
        f"1000 cases, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_brake_law_exactness():
    policy = BrakePolicy()
    checks = [
        brake_pressure(6.0, policy) == 80.0,
        brake_pressure(12.0, policy) == 0.0,
        brake_pressure(0.0, policy) == 200.0,
    ]
    rng = np.random.default_rng(7)
    worst = 0.0
    for tau in rng.uniform(0.0, 10.0, size=100):
        err = abs(brake_pressure(float(tau), policy) - (200.0 - 20.0 * float(tau)))
        worst = max(worst, err)
    checks.append(worst < 1e-9)
    _report(
        "criterion 2 (brake law exactness)",
        all(checks),
        f"decide(6)={brake_pressure(6.0, policy)}, linearity err {worst:.2e}",
    )


def test_criterion_3_collision_pattern(sweep_runs):
    failures = []
    for mph in SWEEP_SPEEDS:
        with_r, _ = sweep_runs[(mph, True)]
        without_r, _ = sweep_runs[(mph, False)]
        if with_r.collision:
            failures.append(f"{mph:g} mph with relay collided")
        expected = mph >= 15.0
        if without_r.collision != expected:
            failures.append(
                f"{mph:g} mph without relay: collision={without_r.collision}, expected {expected}"
            )
    _report("criterion 3 (collision pattern)", not failures, "; ".join(failures))


def test_criterion_4_first_ttc_bounds(sweep_runs):
    failures = []
    for mph in SWEEP_SPEEDS:
        without_r, _ = sweep_runs[(mph, False)]
        if without_r.first_ttc_s is None or without_r.first_ttc_s >= 0.2:
            failures.append(f"without at {mph:g} mph: first_ttc={without_r.first_ttc_s}")
        with_r, _ = sweep_runs[(mph, True)]
        if with_r.first_ttc_s is None or with_r.first_ttc_s <= 2.0:
            failures.append(f"with at {mph:g} mph: first_ttc={with_r.first_ttc_s}")
    _report("criterion 4 (first-TTC bounds)", not failures, "; ".join(failures))


def test_criterion_5_monotone_speed_trend(sweep_runs):
    speeds = [s for s in SWEEP_SPEEDS if s >= 20.0]
    values = [sweep_runs[(s, True)][0].first_ttc_s for s in speeds]
    failures = [f"missing first_ttc at {s:g}" for s, v in zip(speeds, values) if v is None]
    if not failures:
        for (s1, v1), (s2, v2) in zip(zip(speeds, values), zip(speeds[1:], values[1:])):
            if not v2 < v1:
                failures.append(f"{s1:g}->{s2:g} mph: {v1:.4f} -> {v2:.4f}")
    detail = ", ".join(f"{v:.2f}" for v in values if v is not None)
    _report("criterion 5 (decreasing first TTC 20-70)", not failures,
            "; ".join(failures) or detail)


def test_criterion_6_ttc_trend_under_braking(sweep_runs):
    failures = []
    for mph in SWEEP_SPEEDS:
        _, trace = sweep_runs[(mph, True)]
        braked = [i for i, r in enumerate(trace) if r.pressure_bar > 0.0]
        if not braked:
            failures.append(f"{mph:g} mph: never braked")
            continue
        start = braked[0]
        clear = next(
            (i for i in range(start, len(trace)) if trace[i].ttc_s >= NO_TTC_SENTINEL_S),
            None,
        )
        if clear is None:
            failures.append(f"{mph:g} mph: TTC never returned to the sentinel")
            continue
        segment = [r.ttc_s for r in trace[start:clear]]
        dips = [
            (trace[start + k].t_s, a, b)
            for k, (a, b) in enumerate(zip(segment, segment[1:]))
            if b < a - 1e-9
        ]
        if dips:
            t, a, b = dips[0]
            failures.append(
                f"{mph:g} mph: TTC decreased after braking onset "
                f"(first dip at t={t:.2f}s: {a:.4f} -> {b:.4f}, {len(dips)} dip steps)"
            )
        if not all(r.ttc_s >= NO_TTC_SENTINEL_S for r in trace[clear:]):
            failures.append(f"{mph:g} mph: TTC left the sentinel after clearance")
    _report("criterion 6 (TTC trend under braking)", not failures, "; ".join(failures[:3]))


def test_criterion_7_proportionality_benefit(sweep_runs):
    failures = []
    for mph in SWEEP_SPEEDS:
        with_r, _ = sweep_runs[(mph, True)]
        if not with_r.max_pressure_bar < 200.0:
            failures.append(f"{mph:g} mph with relay hit max pressure")
        without_r, _ = sweep_runs[(mph, False)]
        if without_r.collision and without_r.max_pressure_bar != 200.0:
            failures.append(
                f"{mph:g} mph colliding run peaked at {without_r.max_pressure_bar} bar"
            )
    _report("criterion 7 (proportionality benefit)", not failures, "; ".join(failures))


def test_criterion_8_determinism(default_spec):
    first = write_results_csv(sweep(default_spec))
    second = write_results_csv(sweep(SweepSpec(speeds_mph=SWEEP_SPEEDS, base=ScenarioConfig())))
    ok = first.encode() == second.encode()
    _report("criterion 8 (byte-identical sweeps)", ok, f"{len(first)} bytes")


def test_criterion_9_calibration_premise(unmitigated_runs):
    failures = [
        f"{mph:g} mph" for mph, result in unmitigated_runs.items() if not result.collision
    ]
    _report(
        "criterion 9 (unmitigated runs collide)",
        not failures,
        "no collision at: " + ", ".join(failures) if failures else "13/13 collide",
    )
