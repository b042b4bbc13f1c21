import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from billiardbook import (
    BookTable,
    FiberTag,
    ValidationError,
    classify_fiber,
    continue_theta,
    loop_around_origin,
    molecule_labels,
    radial_period_quadrature,
    radial_period_simulated,
)

K = -1.0
KS = (-0.25, -1.0, -4.0)

# 200-node Gauss-Legendre rule mapped to [0, pi/2]
_GL_S, _GL_W = np.polynomial.legendre.leggauss(200)
_GL_S = (_GL_S + 1.0) * math.pi / 4.0
_GL_W = _GL_W * math.pi / 4.0


def integral_oracle(k, h, f):
    """T_r and dphi from their defining integrals, without the closed forms.

    In rho = r^2 the integrals read int drho / sqrt(-k (rho - rho0)(rho - rho_neg))
    and the same with weight f/rho over [rho0, 1]; rho = rho0 + (1 - rho0) sin^2 s
    removes the turning-point singularity, and Gauss-Legendre integrates the
    smooth integrand over s in [0, pi/2].
    """
    root = math.sqrt(h * h - k * f * f)
    rho0 = f * f / (root + h) if h > 0.0 else (root - h) / (-k)
    rho_neg = f * f / (k * rho0)
    rho = rho0 + (1.0 - rho0) * np.sin(_GL_S) ** 2
    dt = 2.0 * math.sqrt(1.0 - rho0) * np.cos(_GL_S) / np.sqrt(-k * (rho - rho_neg))
    return float(_GL_W @ dt), float(_GL_W @ (f / rho * dt))


def diameter_period(k, h):
    """Wall-to-wall time through the center: 2 asinh(w / sqrt(2h)) / w."""
    w = math.sqrt(-k)
    return 2.0 * math.asinh(w / math.sqrt(2.0 * h)) / w


def circle_loop(center, radius, count=48):
    angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    return [
        (center[0] + radius * math.cos(a), center[1] + radius * math.sin(a))
        for a in angles
    ]


class TestRadialPeriodQuadrature:
    def test_diameter_closed_form(self):
        # time 0 -> 1 along a diameter is asinh(1/sqrt(2h)); dphi is the
        # center-passage jump pi
        table = BookTable(k=K, sheets=1)
        sample = radial_period_quadrature(table, 0.5, 0.0)
        assert sample.T_r == pytest.approx(2.0 * math.asinh(1.0), abs=1e-10)
        assert sample.dphi == math.pi

    def test_matches_direct_simulation(self):
        table = BookTable(k=K, sheets=1)
        quad = radial_period_quadrature(table, 0.375, 0.5)
        sim = radial_period_simulated(table, 0.375, 0.5)
        assert quad.T_r == pytest.approx(sim.T_r, abs=1e-6)
        assert quad.dphi == pytest.approx(sim.dphi, abs=1e-6)

    def test_dphi_odd_in_f(self):
        table = BookTable(k=K, sheets=2)
        rng = np.random.default_rng(21)
        for _ in range(20):
            h = rng.uniform(-0.2, 0.8)
            f = rng.uniform(0.05, 0.7)
            if classify_fiber(table, h, f).tag is not FiberTag.REGULAR_TORUS:
                continue
            plus = radial_period_quadrature(table, h, f)
            minus = radial_period_quadrature(table, h, -f)
            assert minus.dphi == pytest.approx(-plus.dphi, abs=1e-10)
            assert minus.T_r == pytest.approx(plus.T_r, abs=1e-10)

    def test_theta_scales_with_sheets(self):
        one = radial_period_quadrature(BookTable(k=K, sheets=1), 0.3, 0.4)
        four = radial_period_quadrature(BookTable(k=K, sheets=4), 0.3, 0.4)
        assert four.theta == pytest.approx(4.0 * one.dphi, abs=1e-12)

    def test_singular_value_rejected(self):
        table = BookTable(k=K, sheets=1)
        with pytest.raises(ValidationError):
            radial_period_quadrature(table, 0.0, 0.0)
        with pytest.raises(ValidationError):
            radial_period_quadrature(table, -0.5, 0.0)


class TestClosedForms:
    def test_match_integral_oracle_on_random_regular_values(self):
        rng = np.random.default_rng(31)
        worst_t = worst_phi = 0.0
        for k in KS:
            table = BookTable(k=k, sheets=2)
            for _ in range(700):
                f = rng.uniform(0.05, 1.5) * rng.choice((-1.0, 1.0))
                h = (f * f + k) / 2.0 + rng.uniform(0.01, 2.0)
                sample = radial_period_quadrature(table, h, f)
                t_r, dphi = integral_oracle(k, h, f)
                worst_t = max(worst_t, abs(sample.T_r - t_r))
                worst_phi = max(worst_phi, abs(sample.dphi - dphi))
        assert worst_t < 1e-10
        assert worst_phi < 1e-10

    @given(
        k=st.sampled_from(KS),
        f=st.floats(-1.5, 1.5),
        log_margin=st.floats(-6.0, -2.0),
    )
    def test_near_parabola_period_finite_and_positive(self, k, f, log_margin):
        h = (f * f + k) / 2.0 + 10.0**log_margin
        sample = radial_period_quadrature(BookTable(k=k, sheets=1), h, f)
        assert math.isfinite(sample.T_r) and sample.T_r > 0.0
        t_r, dphi = integral_oracle(k, h, f)
        assert sample.T_r == pytest.approx(t_r, rel=1e-6)
        assert sample.dphi == pytest.approx(dphi, abs=1e-9)

    @given(
        k=st.sampled_from(KS),
        h=st.floats(0.05, 1.5),
        log_f=st.floats(-12.0, -4.0),
        sign=st.sampled_from((-1.0, 1.0)),
    )
    def test_dphi_tends_to_pi_as_f_vanishes_with_h_positive(self, k, h, log_f, sign):
        f = sign * 10.0**log_f
        table = BookTable(k=k, sheets=1)
        sample = radial_period_quadrature(table, h, f)
        # leading order: pi - |dphi| = |f| sqrt(2h - k) / h, T_r - T_diam = O(f^2)
        assert math.copysign(1.0, sample.dphi) == sign
        assert 0.0 <= math.pi - abs(sample.dphi) <= 2.0 * abs(f) * math.sqrt(2.0 * h - k) / h
        assert abs(sample.T_r - diameter_period(k, h)) <= math.sqrt(-k) * (f / h) ** 2 + 1e-14
        sim = radial_period_simulated(table, h, f)
        assert sim.T_r == pytest.approx(sample.T_r, abs=1e-9)
        assert sim.dphi == pytest.approx(sample.dphi, abs=1e-9)

    @given(
        k=st.sampled_from(KS),
        depth=st.floats(0.05, 0.95),
        log_f=st.floats(-12.0, -3.0),
        sign=st.sampled_from((-1.0, 1.0)),
    )
    def test_dphi_tends_to_zero_as_f_vanishes_with_h_negative(self, k, depth, log_f, sign):
        h = depth * k / 2.0
        f = sign * 10.0**log_f
        table = BookTable(k=k, sheets=1)
        sample = radial_period_quadrature(table, h, f)
        # rho0 >= 2|h|/w^2 and atan x <= x bound |dphi| by |f| w / |h|
        assert math.copysign(1.0, sample.dphi) == sign
        assert abs(sample.dphi) <= abs(f) * math.sqrt(-k) / abs(h)
        assert math.isfinite(sample.T_r) and sample.T_r > 0.0
        assert radial_period_quadrature(table, h, 0.0).dphi == 0.0


class TestLoopAroundOrigin:
    def test_parabola_point_left_of_origin(self):
        table = BookTable(k=K, sheets=1)
        loop = loop_around_origin(table, c=0.5, f_max=0.8)
        h_at_f0 = min(h for h, f in loop if abs(f) < 1e-12)
        assert h_at_f0 == pytest.approx(-0.25, abs=1e-12)

    def test_every_waypoint_regular(self):
        table = BookTable(k=K, sheets=3)
        for h, f in loop_around_origin(table, c=0.5, f_max=0.8):
            assert classify_fiber(table, h, f).tag is FiberTag.REGULAR_TORUS

    def test_winding_number_is_one(self):
        # counterclockwise in the (f, h) plane
        table = BookTable(k=K, sheets=1)
        loop = loop_around_origin(table)
        pts = np.array(loop + [loop[0]])
        angles = np.unwrap(np.arctan2(pts[:, 0], pts[:, 1]))
        assert (angles[-1] - angles[0]) / (2.0 * math.pi) == pytest.approx(1.0, abs=1e-9)

    def test_non_enclosing_parameters_rejected(self):
        table = BookTable(k=K, sheets=1)
        with pytest.raises(ValidationError):
            loop_around_origin(table, c=0.5, f_max=0.4)
        with pytest.raises(ValidationError):
            loop_around_origin(table, c=1.5)


class TestContinueTheta:
    def test_single_sheet_monodromy(self):
        table = BookTable(k=K, sheets=1)
        report = continue_theta(table, loop_around_origin(table, c=0.5))
        assert report.m == 1
        assert report.monodromy_matrix == ((1, 0), (1, 1))

    def test_two_sheets(self):
        # an even count samples f = 0 at h > 0, where dphi = pi is taken
        # without a sign convention; an odd count samples no f = 0 at all
        table = BookTable(k=K, sheets=2)
        for points_per_arc in (64, 65):
            loop = loop_around_origin(table, c=0.5, points_per_arc=points_per_arc)
            diameter = [f for h, f in loop if f == 0.0 and h > 0.0]
            assert len(diameter) == 1 - points_per_arc % 2
            report = continue_theta(table, loop)
            assert report.m == 2
            assert report.monodromy_matrix == ((1, 0), (2, 1))

    def test_non_enclosing_loop_gives_identity(self):
        table = BookTable(k=K, sheets=3)
        report = continue_theta(table, circle_loop((-0.3, 0.0), 0.08))
        assert report.m == 0
        assert report.monodromy_matrix == ((1, 0), (0, 1))
        assert report.labels is None

    def test_unwrap_margin(self):
        table = BookTable(k=K, sheets=3)
        report = continue_theta(table, loop_around_origin(table))
        largest = np.abs(np.diff(report.theta_unwrapped)).max()
        assert 0.0 < report.unwrap_margin < 1.0
        assert report.unwrap_margin == pytest.approx(largest / (math.pi / 2.0), rel=1e-12)

    def test_start_point_invariance(self):
        table = BookTable(k=K, sheets=2)
        loop = loop_around_origin(table)
        shifted = loop[37:] + loop[:37]
        assert continue_theta(table, shifted).m == 2

    def test_theta_odd_under_loop_reflection(self):
        table = BookTable(k=K, sheets=1)
        report = continue_theta(table, loop_around_origin(table))
        by_value = {(s.h, s.f): s.theta for s in report.samples}
        for (h, f), theta in by_value.items():
            if (h, -f) in by_value and f != 0.0:
                assert by_value[(h, -f)] == pytest.approx(-theta, abs=1e-10)


class TestMoleculeLabels:
    def test_h_negative_side(self):
        labels = molecule_labels(BookTable(k=K, sheets=1), -1)
        assert labels.r_hneg == math.inf
        assert labels.epsilon == 1

    def test_single_sheet_h_positive(self):
        labels = molecule_labels(BookTable(k=K, sheets=1), +1)
        assert labels.r_hpos == Fraction(0)
        assert labels.epsilon == 1

    def test_four_sheets_h_positive(self):
        labels = molecule_labels(BookTable(k=K, sheets=4), +1)
        assert labels.r_hpos == Fraction(1, 4)
        assert labels.derived_from_m == 4

    def test_labels_from_supplied_report(self):
        table = BookTable(k=K, sheets=2)
        report = continue_theta(table, loop_around_origin(table))
        labels = molecule_labels(table, +1, report=report)
        assert labels.derived_from_m == report.m == 2
        assert labels.r_hpos == Fraction(1, 2)

    def test_gluing_matrix_consistent_with_label(self):
        table = BookTable(k=K, sheets=3)
        report = continue_theta(table, loop_around_origin(table))
        alpha, beta = report.gluing_matrix_hpos[0]
        assert Fraction(alpha, beta) % 1 == report.labels.r_hpos
