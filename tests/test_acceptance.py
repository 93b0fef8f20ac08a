"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every numeric claim is exact unless a tolerance is stated in the test.
"""

import random
import time
from fractions import Fraction

import pytest

from ergolab import fixtures
from ergolab.caratheodory import (arcs_basis, correlation_average,
                                  dyadic_basis, gap_theta, mixing_trace)
from ergolab.dynamics import (A_SET, Doubling, KakutaniTower, Odometer,
                              TOWER_EMPTY, TOWER_FULL, TowerSet, make_system,
                              verify_measure_preserving)
from ergolab.intervals import AT_ZERO, EMPTY, ParityTail, arc, make_set
from ergolab.randomsets import random_interval_set, random_offset_set
from ergolab.scalars import GOLDEN, Scalar
from ergolab.splinter import (CONVERGED, STALLED, additivity_check, splinter,
                              transport_check, verify_decomposition,
                              verify_orbit_decomposition)

F = Fraction
SEED = 20260826


def report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def doubling_run():
    return splinter(**fixtures.doubling_splinter_inputs())


@pytest.fixture(scope="module")
def golden_run():
    return splinter(**fixtures.golden_rotation_splinter_inputs())


@pytest.fixture(scope="module")
def stall_run():
    return splinter(**fixtures.rational_third_stall_inputs())


@pytest.fixture(scope="module")
def odometer_deep_run():
    return splinter(**fixtures.odometer_deep_splinter_inputs())


@pytest.fixture(scope="module")
def all_fixture_runs(doubling_run, golden_run, stall_run, odometer_deep_run):
    return [doubling_run, golden_run, stall_run, odometer_deep_run,
            splinter(**fixtures.odometer_splinter_inputs()),
            splinter(**fixtures.tower_splinter_inputs()),
            splinter(**fixtures.tower_column_splinter_inputs())]


def _random_battery(system: str, rng: random.Random):
    """A random set whose preimage stays in the representable class."""
    if system == "rotation:golden":
        if rng.random() < 0.5:
            return random_offset_set(rng, Scalar(0, 1, GOLDEN))
        return random_interval_set(rng, allow_tails=False)
    if system == "doubling":
        return random_interval_set(rng, allow_tails=False)
    if system == "odometer":
        s = random_interval_set(rng, allow_tails=False)
        if rng.random() < 0.3:
            s = s.union(make_set(
                [], [ParityTail(AT_ZERO, rng.randint(0, 6),
                                rng.choice(["even", "odd"]))]))
        return s
    base = random_interval_set(rng, allow_tails=False, allow_empty=True)
    top = random_interval_set(rng, allow_tails=False,
                              allow_empty=True).intersect(A_SET)
    return TowerSet(base, top)


def test_criterion_01_measure_preservation():
    rng = random.Random(SEED)
    t0 = time.time()
    ok = True
    for descriptor in fixtures.SYSTEM_DESCRIPTORS:
        T = make_system(descriptor)
        for _ in range(1000):
            S = _random_battery(descriptor, rng)
            ok &= T.preimage(S).measure() == S.measure()
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report(1, "measure preservation, 4 systems x 1000 seeded random sets "
              f"({elapsed:.1f}s)", ok)


@pytest.fixture(scope="module")
def replays(all_fixture_runs):
    return [verify_decomposition(d) for d in all_fixture_runs]


def replay_holds(replays, check: str) -> bool:
    """``check`` and ``same_sets`` hold on every replayed step of every
    fixture run."""
    return all(row[check] and row["same_sets"]
               for rep in replays for row in rep.rows)


def test_criterion_02_residual_identity(replays):
    report(2, "splinter residual identity exact at every step, all fixtures",
           replay_holds(replays, "residual_identity"))


def test_criterion_03_mass_conservation(replays):
    report(3, "mass conservation exact at every step, all fixtures",
           replay_holds(replays, "mass_conservation"))


def test_criterion_04_doubling_closed_form(doubling_run):
    ok = doubling_run.status == CONVERGED and doubling_run.depth == 20
    for n, B in enumerate(doubling_run.residuals, start=1):
        ok &= B.measure() == Scalar(F(1, 1 << (n + 1)))
    report(4, "doubling closed form mu(B_n) = 2^-(n+1), n <= 20", ok)


def test_criterion_05_odometer_one_step_cover():
    d = splinter(**fixtures.odometer_splinter_inputs())
    ok = d.depth == 1 and d.residuals[0].is_empty()
    report(5, "odometer one-step cover: B_1 empty exactly", ok)


def test_criterion_06_golden_rotation_splinter(golden_run):
    alpha = Scalar(0, 1, GOLDEN)
    ok = golden_run.splinters[0].measure() == Scalar(F(3, 4)) - alpha
    ok &= golden_run.status == CONVERGED
    ok &= golden_run.depth <= fixtures.GOLDEN_N_STAR
    ok &= golden_run.residuals[-1].measure() < Scalar(F(1, 1000))
    p, q = fixtures.GOLDEN_FINAL_B_MEASURE
    ok &= golden_run.residuals[-1].measure() == Scalar(p, q, GOLDEN)
    report(6, "golden rotation: mu(A_1) = 3/4 - alpha, converges below "
              f"10^-3 within the pinned budget N* = {fixtures.GOLDEN_N_STAR}",
           ok)


def test_criterion_07_non_ergodic_stall(stall_run):
    ok = stall_run.status == STALLED
    ok &= stall_run.depth >= 100
    ok &= all(B.measure() == Scalar(F(1, 6))
              for B in stall_run.residuals[:100])
    ok &= all(A.is_empty() for A in stall_run.splinters[:100])
    report(7, "rotation 1/3 stalls: mu(B_n) = 1/6 and A_n empty, n <= 100",
           ok)


def test_criterion_08_orbit_decomposition(doubling_run, golden_run,
                                          odometer_deep_run):
    ok = all(verify_orbit_decomposition(doubling_run, n).passed
             for n in range(1, 11))
    ok &= all(verify_orbit_decomposition(golden_run, n).passed
              for n in range(1, 65))
    ok &= all(verify_orbit_decomposition(odometer_deep_run, n).passed
              for n in range(1, 65))
    report(8, "orbit decomposition exact: doubling n <= 10, "
              "rotation and odometer n <= 64", ok)


def test_criterion_09_caratheodory_equality():
    rng = random.Random(SEED + 9)
    ok = True
    for basis in (dyadic_basis(6), arcs_basis(8)):
        windows = list(basis.elements())
        for i in range(1000):
            B = random_interval_set(rng)
            J = windows[rng.randrange(len(windows))]
            rep = gap_theta(B, J)
            ok &= rep.caratheodory_equality and rep.theta == Scalar(1)
    report(9, "theta = 1 exactly for 1000 random (B, J) pairs per basis", ok)


def test_criterion_10_transport_inequality(doubling_run, golden_run,
                                           stall_run):
    rep = transport_check(stall_run, fixtures.RATIONAL_THIRD_INVARIANT)
    ok = rep.passed and rep.note == "invariant"
    for d in (doubling_run, golden_run):
        T = d.transformation
        for B in (T.empty_set(), T.full_set()):
            rep = transport_check(d, B)
            ok &= rep.passed
            ok &= all(row["lhs"] == row["bound"] for row in rep.rows
                      if row["step"] != "limit")
    report(10, "transport chain exact for invariant fixtures, equality for "
               "empty and full", ok)


def test_criterion_11_mixing_vs_ergodic():
    C = make_set([(F(0), F(1, 2))])
    trace = mixing_trace(Doubling(), C, C, 20, component_budget=1 << 21)
    ok = all(x.sign() == 0 for x in trace)
    avg = correlation_average(Odometer(), C, C, 1 << 10)
    gap = avg - Scalar(F(1, 4))
    ok &= -Scalar(F(1, 100)) < gap < Scalar(F(1, 100))
    raw = mixing_trace(Odometer(), C, C, 8)
    ok &= any(x.sign() != 0 for x in raw)  # ergodic but not mixing
    report(11, "doubling trace identically 0 for j <= 20; odometer Cesaro "
               "average within 10^-2 of 1/4 at m = 2^10", ok)


def test_criterion_12_kakutani_suite():
    T = KakutaniTower()
    ok = TOWER_FULL.measure() == Scalar(F(5, 3))
    battery = [TOWER_FULL, TOWER_EMPTY,
               TowerSet(make_set([(F(1, 4), F(1, 2))]), EMPTY),
               TowerSet(make_set([(F(0), F(1, 4))]), A_SET),
               TowerSet(EMPTY, A_SET),
               TowerSet(make_set([], [ParityTail(AT_ZERO, 0, "even")]),
                        EMPTY)]
    ok &= all(verify_measure_preserving(T, S).passed for S in battery)
    listing = [x.to_text() for x in Odometer().discontinuities(4)]
    ok &= listing == ["0", "1/2", "3/4", "7/8", "15/16"]
    report(12, "Kakutani suite: total measure 5/3, preservation battery, "
               "psi discontinuities 1 - 2^-n", ok)


def test_criterion_13_finite_additivity(golden_run, doubling_run):
    probe = make_set([(F(0), F(2, 3))])
    ok = additivity_check(golden_run.splinters[:32], probe, 32).passed
    ok &= additivity_check(doubling_run.splinters, probe, 32).passed
    # I_n = [1 - 2**-n, 1 - 2**-(n+1)) is the arc [d-2, d-1) over 2**(n+1)
    blocks = [arc((2 << n) - 2, (2 << n) - 1, 2 << n) for n in range(32)]
    ok &= additivity_check(blocks, fixtures.RATIONAL_THIRD_INVARIANT,
                           32).passed
    report(13, "finite additivity with monotone tails over splinter "
               "families and I_n blocks, k <= 32", ok)
