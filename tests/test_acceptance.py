"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from billiardbook import (
    BookTable,
    PhaseState,
    certify_focus_focus,
    classify_fiber,
    continue_theta,
    inner_radius,
    linearization_operators,
    loop_around_origin,
    momentum_map,
    radial_period_quadrature,
    radial_period_simulated,
    simulate,
    FiberTag,
    SpectrumClass,
)
from test_dynamics import segment_min_radii

K = -1.0


def random_state(rng):
    r = 0.95 * math.sqrt(rng.uniform())
    ang = rng.uniform(0.0, 2.0 * math.pi)
    vx, vy = rng.uniform(-1.5, 1.5, size=2)
    return PhaseState(1, r * math.cos(ang), r * math.sin(ang), vx, vy)


@pytest.fixture(scope="module")
def long_runs():
    """10 random initial states for n=1 and n=3, 1e4 reflections each."""
    rng = np.random.default_rng(2026)
    runs = []
    for sheets in (1, 3):
        table = BookTable(k=K, sheets=sheets)
        for _ in range(10):
            start = random_state(rng)
            t0 = time.perf_counter()
            segments = simulate(table, start, max_reflections=10_000)
            elapsed = time.perf_counter() - t0
            runs.append((table, start, segments, elapsed))
    return runs


def test_criterion_1_conservation(long_runs):
    worst_h = worst_f = 0.0
    for table, start, segments, elapsed in long_runs:
        assert elapsed < 5.0, f"trajectory took {elapsed:.2f}s"
        ref = momentum_map(start, table.k)
        x, y, vx, vy = segments.end.T
        h = 0.5 * (vx * vx + vy * vy) + 0.5 * table.k * (x * x + y * y)
        f = x * vy - y * vx
        worst_h = max(worst_h, np.abs(h - ref.h).max())
        worst_f = max(worst_f, np.abs(f - ref.f).max())
    assert worst_h < 1e-9
    assert worst_f < 1e-9
    print(
        f"\nACCEPTANCE 1 PASS: conservation over 1e4 reflections, "
        f"max |dH|={worst_h:.2e}, max |dF|={worst_f:.2e}"
    )


def test_criterion_2_confinement(long_runs):
    worst_inner = math.inf
    worst_outer = 0.0
    for table, start, segments, _ in long_runs:
        mv = momentum_map(start, table.k)
        r0 = inner_radius(mv.h, mv.f, table.k)
        radii = segment_min_radii(segments, table.k)
        worst_inner = min(worst_inner, radii.min() - r0)
        for column in (segments.end, segments.start):
            x, y = column[:, 0], column[:, 1]
            worst_outer = max(worst_outer, (x * x + y * y - 1.0).max())
        assert (radii >= r0 - 1e-9).all()
    assert worst_outer <= 1e-12
    print(
        f"\nACCEPTANCE 2 PASS: confinement to the annulus, "
        f"min (r - r0)={worst_inner:.2e}, max (r^2 - 1)={worst_outer:.2e}"
    )


def test_criterion_3_momentum_image():
    rng = np.random.default_rng(7)
    count = 1_000_000
    r = np.sqrt(rng.uniform(size=count))
    ang = rng.uniform(0.0, 2.0 * math.pi, size=count)
    x, y = r * np.cos(ang), r * np.sin(ang)
    vx, vy = rng.uniform(-3.0, 3.0, size=(2, count))
    h = 0.5 * (vx * vx + vy * vy) + 0.5 * K * (x * x + y * y)
    f = x * vy - y * vx
    violations = int(np.sum(h < (f * f + K) / 2.0))
    assert violations == 0
    print(f"\nACCEPTANCE 3 PASS: {count} random states in image, {violations} violations")


def test_criterion_4_eigenvalues():
    ok, spectrum = certify_focus_focus(K)
    assert ok and spectrum.classification is SpectrumClass.FOCUS_FOCUS
    expected = np.sort_complex(np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]))
    got = np.sort_complex(np.array(spectrum.eigenvalues))
    assert np.allclose(got, expected, atol=1e-12)
    # independent oracle: generic eigensolver on A_H + A_F
    a_h, a_f = linearization_operators(K)
    numeric = np.sort_complex(np.linalg.eigvals(a_h + a_f))
    assert np.allclose(numeric, got, atol=1e-12)
    print("\nACCEPTANCE 4 PASS: pencil spectrum {+-1 +- i}, focus-focus certified")


def test_criterion_5_fiber_classification_grid():
    table = BookTable(k=K, sheets=3)
    tol = 1e-9
    values = np.linspace(-1.5, 1.5, 201)
    checked = 0
    for h in values:
        for f in values:
            fiber = classify_fiber(table, float(h), float(f))
            d = h - (f * f + K) / 2.0
            if d < -tol:
                expected = FiberTag.OUTSIDE_IMAGE
            elif max(abs(h), abs(f)) <= tol:
                expected = FiberTag.PINCHED_TORUS
            elif abs(d) <= tol:
                expected = FiberTag.ATOM_A_CIRCLE
            else:
                expected = FiberTag.REGULAR_TORUS
            assert fiber.tag is expected, (h, f)
            if expected is FiberTag.PINCHED_TORUS:
                assert fiber.pinches == 3
            checked += 1
    assert checked == 201 * 201
    print(f"\nACCEPTANCE 5 PASS: {checked} grid values classified per the analytic rule")


def test_criterion_6_quadrature_vs_simulation():
    table = BookTable(k=K, sheets=1)
    t0 = time.perf_counter()
    worst_t = worst_phi = 0.0
    for h in np.linspace(0.05, 0.95, 10):
        for f in np.linspace(0.1, 0.9, 10):
            quad = radial_period_quadrature(table, float(h), float(f))
            sim = radial_period_simulated(table, float(h), float(f))
            worst_t = max(worst_t, abs(quad.T_r - sim.T_r))
            worst_phi = max(worst_phi, abs(quad.dphi - sim.dphi))
    elapsed = time.perf_counter() - t0
    assert worst_t < 1e-6
    assert worst_phi < 1e-6
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 6 PASS: 10x10 grid, |dT_r|={worst_t:.2e}, "
        f"|d dphi|={worst_phi:.2e}, {elapsed:.1f}s"
    )


def test_criterion_7_monodromy_integer():
    for n in (1, 2, 3, 4, 5):
        table = BookTable(k=K, sheets=n)
        t0 = time.perf_counter()
        loop = loop_around_origin(table, c=0.5, f_max=0.8)
        report = continue_theta(table, loop)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert abs(report.delta_theta / (2.0 * math.pi) - n) < 0.05
        assert report.m == n
        assert report.monodromy_matrix == ((1, 0), (n, 1))
        print(
            f"\nACCEPTANCE 7 PASS (n={n}): m={report.m}, "
            f"dtheta/2pi={report.delta_theta / (2 * math.pi):.6f}, {elapsed:.1f}s"
        )


def test_criterion_8_loop_robustness():
    table = BookTable(k=K, sheets=3)
    ms = []
    for c in (0.3, 0.5, 0.7):
        ms.append(continue_theta(table, loop_around_origin(table, c=c)).m)
    refined = continue_theta(
        table, loop_around_origin(table, c=0.5, points_per_arc=128)
    ).m
    assert ms == [3, 3, 3]
    assert refined == 3
    print(f"\nACCEPTANCE 8 PASS: m invariant over c in {{0.3, 0.5, 0.7}} and 2x refinement")


def test_criterion_9_center_limit():
    for n in (1, 3):
        table = BookTable(k=K, sheets=n)
        thetas = [
            radial_period_quadrature(table, 0.5, 0.4 * 0.5**j).theta for j in range(7)
        ]
        # Richardson extrapolation over the halving sequence
        rows = [thetas]
        for j in range(1, 7):
            fac = 2.0**j
            rows.append(
                [
                    (fac * rows[-1][i + 1] - rows[-1][i]) / (fac - 1.0)
                    for i in range(len(rows[-1]) - 1)
                ]
            )
        limit = rows[-1][0]
        assert abs(limit - n * math.pi) < 0.01
        print(
            f"\nACCEPTANCE 9 PASS (n={n}): extrapolated theta={limit:.9f}, "
            f"n*pi={n * math.pi:.9f}"
        )


def test_criterion_10_molecule_labels():
    for n in (1, 4):
        table = BookTable(k=K, sheets=n)
        report = continue_theta(table, loop_around_origin(table))
        labels = report.labels
        # the labels must come from the measured m, not from the sheet count
        assert labels.derived_from_m == report.m
        assert labels.r_hneg == math.inf and labels.epsilon == 1
        assert labels.r_hpos == Fraction(1, n) % 1
        print(
            f"\nACCEPTANCE 10 PASS (n={n}): labels h<0 (r=inf, eps=1), "
            f"h>0 (r={labels.r_hpos}, eps=1) from measured m={report.m}"
        )
