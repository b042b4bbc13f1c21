import dataclasses
import math
import pickle
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from billiardbook import (
    BookTable,
    ConvergenceError,
    FiberTag,
    PeriodSample,
    ValidationError,
    boundary_state,
    classify_fiber,
    continue_theta,
    loop_around_origin,
    radial_period_quadrature,
    radial_period_simulated,
    simulate,
)
from billiardbook.monodromy import (
    UNWRAP_STEP, PeriodSamples, _period_columns, _unwrap, molecule_labels, theta_center_limit,
)

K = -1.0
KS = (-0.25, -1.0, -4.0)
#: a loop around (0, 0) at k = -1 through (0, -0.5) and (0, 0.5): the chord between them has its
#: bisection midpoint at (0, 0). It is the parabola arc of c = 0.5 with 3 intervals up to
#: f = 1.5, a count loop_around_origin() now rounds up to 4.
SINGULAR_CHORD_LOOP = [(2.0, -1.5), (0.0, -0.5), (0.0, 0.5), (2.0, 1.5), (2.0, 0.5), (2.0, -0.5)]

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


def per_sample_continuation(table, loop):
    """theta_unwrapped from the scalar closed form, one waypoint at a time.

    The reference for continue_theta's array pass: each sample's theta is
    moved by the whole turns that bring it nearest its predecessor. Valid
    while every theta step stays below pi/2, which it asserts.
    """
    thetas = []
    for h, f in loop + [loop[0]]:
        theta = radial_period_quadrature(table, h, f).theta
        if thetas:
            theta += 2.0 * math.pi * round((thetas[-1] - theta) / (2.0 * math.pi))
            assert abs(theta - thetas[-1]) < math.pi / 2.0
        thetas.append(theta)
    return np.array(thetas)


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

    @pytest.mark.parametrize("h,f", [(1e200, 0.5), (1e200, 1e100), (2e154, 0.5)])
    def test_overflowing_value_rejected(self, h, f):
        # h^2 - k f^2 overflows, so the closed form would take acosh(0)
        with pytest.raises(ValidationError, match=r"^value \(.*\) overflows h\^2"):
            radial_period_quadrature(BookTable(k=K, sheets=2), h, f)

    @pytest.mark.parametrize("k,h,f", [(K, 1e16, 0.5), (K, 1e16, 1e8), (-1e-20, 0.3, 0.5)])
    def test_value_whose_period_rounds_away_rejected(self, k, h, f):
        # cosh(w T_r) rounds to 1 or just below: acosh would give T_r = 0 or fail
        with pytest.raises(ValidationError, match=r"^value \(.*\) .* rounds T_r to 0"):
            radial_period_quadrature(BookTable(k=k, sheets=2), h, f)


def refusal_reason(message):
    """The fiber tag a refusal names, or "period" for the cosh(w T_r) gate."""
    fiber = re.search(r"is not a regular value \(fiber: ([\w-]+)\)$", message)
    if fiber:
        return fiber.group(1)
    assert "cosh(w T_r) = " in message, message
    return "period"


class TestPeriodColumns:
    def test_match_scalar_closed_form(self):
        # random regular values, the f = 0, h > 0 waypoint, f -> 0+- with
        # h > 0, and values near the parabola
        rng = np.random.default_rng(43)
        for k in KS:
            table = BookTable(k=k, sheets=3)
            values = []
            for _ in range(300):
                f = rng.uniform(-1.5, 1.5)
                values.append(((f * f + k) / 2.0 + rng.uniform(1e-3, 2.0), f))
            for h in (0.05, 0.5, 1.5):
                values.append((h, 0.0))
                values += [(h, s * 10.0**e) for s in (-1.0, 1.0) for e in (-14.0, -10.0, -6.0)]
            for f in (-1.2, -0.4, 0.0, 0.3, 1.1):
                values += [((f * f + k) / 2.0 + 10.0**e, f) for e in (-8.0, -6.0, -3.0)]
            values = [
                (h, f) for h, f in values
                if classify_fiber(table, h, f).tag is FiberTag.REGULAR_TORUS
            ]
            t_r, dphi = _period_columns(table, *np.array(values).T)
            for (h, f), got_t, got_phi in zip(values, t_r.tolist(), dphi.tolist()):
                sample = radial_period_quadrature(table, h, f)
                assert abs(got_t - sample.T_r) <= 1e-14 and abs(got_phi - sample.dphi) <= 1e-14
                if f == 0.0:
                    assert got_phi == (math.pi if h > 0.0 else 0.0)


class TestRadialPeriodSimulated:
    def test_is_the_first_arc_of_simulate_bit_for_bit(self):
        # random regular values, values near the parabola, and f -> 0+- with h > 0
        rng = np.random.default_rng(41)
        for k in KS:
            table = BookTable(k=k, sheets=3)
            values = []
            for _ in range(200):
                f = rng.uniform(-1.5, 1.5)
                values.append(((f * f + k) / 2.0 + rng.uniform(1e-3, 2.0), f))
            for f in (-1.2, -0.4, 0.0, 0.3, 1.1):
                values += [((f * f + k) / 2.0 + 10.0**e, f) for e in (-8.0, -6.0, -3.0)]
            for h in (0.05, 0.5, 1.5):
                values += [(h, s * 10.0**e) for s in (-1.0, 1.0) for e in (-12.0, -8.0, -4.0)]
            for h, f in values:
                if classify_fiber(table, h, f).tag is not FiberTag.REGULAR_TORUS:
                    continue
                sample = radial_period_simulated(table, h, f)
                arc = simulate(table, boundary_state(table, h, f), max_reflections=1)
                (ax, ay), (bx, by) = arc.start[0, :2].tolist(), arc.end[0, :2].tolist()
                dphi = math.atan2(ax * by - ay * bx, ax * bx + ay * by)
                got = (sample.h, sample.f, sample.T_r, sample.dphi, sample.theta)
                expected = (h, f, arc.duration[0], dphi, 3 * dphi)
                assert [v.hex() for v in got] == [float(v).hex() for v in expected]

    @pytest.mark.parametrize(
        "h, f, reason",
        [
            (0.0, 0.0, "is not a regular value (fiber: pinched-torus)"),
            (-0.5 + 1e-10, 0.0, "is not a regular value (fiber: atom-A-circle)"),
            (-1.0, 0.5, "is not a regular value (fiber: outside-image)"),
            (math.nan, 0.5, "is not finite"),
        ],
        ids=["singular-value", "parabola-band", "outside-image", "nan"],
    )
    def test_boundary_state_is_refused_by_the_period_gate(self, h, f, reason):
        # the singular value and the parabola's SIGMA_TOL band have an inward boundary state,
        # but no period: they are refused as radial_period_quadrature refuses them
        message = rf"^value {re.escape(f'({h}, {f}) {reason}')}$"
        for call in (boundary_state, radial_period_simulated, radial_period_quadrature):
            with pytest.raises(ValidationError, match=message):
                call(BookTable(k=K, sheets=3), h, f)


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

    def test_period_one_form_is_closed(self):
        # T_r and -dphi are 2 pi times dI_r/dh and dI_r/df of the radial action I_r(h, f), so
        # dT_r/df = -d(dphi)/dh: central differences through both forms, 0.02 inside the image
        rng = np.random.default_rng(47)
        step = 1e-5
        for k in KS:
            table = BookTable(k=k, sheets=1)
            f = rng.uniform(0.05, 1.5, 400) * rng.choice((-1.0, 1.0), 400)
            h = (f * f + k) / 2.0 + rng.uniform(0.02, 2.0, 400)

            def one_at_a_time(hs, fs):
                samples = [radial_period_quadrature(table, *v) for v in zip(hs.tolist(), fs.tolist())]
                return np.array([(s.T_r, s.dphi) for s in samples]).T

            for period in (one_at_a_time, lambda hs, fs: _period_columns(table, hs, fs)):
                dt_df = (period(h, f + step)[0] - period(h, f - step)[0]) / (2.0 * step)
                dphi_dh = (period(h + step, f)[1] - period(h - step, f)[1]) / (2.0 * step)
                gap = np.abs(dt_df + dphi_dh)
                assert np.all(gap <= 1e-6 * np.maximum(np.abs(dt_df), np.abs(dphi_dh)))

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
        # a select that blends the f = 0, h > 0 case in by arithmetic loses this sign
        assert math.copysign(1.0, radial_period_quadrature(table, h, -0.0).dphi) == -1.0


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
            assert type(h) is float and type(f) is float

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

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_c_at_either_end_rejected(self, c):
        # c = 0 would divide by zero in the arc's h = (f^2 + c^2 k)/(2c)
        with pytest.raises(ValidationError, match="^c must lie strictly between 0 and 1$"):
            loop_around_origin(BookTable(k=K, sheets=1), c=c)

    @pytest.mark.parametrize("f_max", [0.0, -0.8])
    def test_non_positive_f_max_rejected(self, f_max):
        with pytest.raises(ValidationError, match="^f_max must be positive$"):
            loop_around_origin(BookTable(k=K, sheets=1), f_max=f_max)

    def test_corner_whose_period_rounds_away_is_named(self):
        with pytest.raises(ValidationError, match=r"^loop corner \(1e\+16, 100000000\.0\) "):
            loop_around_origin(BookTable(k=K, sheets=2), f_max=1e8)

    def test_singular_corner_is_named_before_the_waypoints(self):
        # at k = -1e-12 the corner (1e-22, 1e-6) lies within SIGMA_TOL of the parabola in the
        # w = 1 frame, where it reads (1e-10, 1), the corner of the same loop at k = -1
        with pytest.raises(
            ValidationError, match=r"^loop corner \(9\.999999683655225e-23, 1e-06\) is not a "
            r"regular value \(fiber: atom-A-circle\)$"
        ):
            loop_around_origin(BookTable(k=-1e-12, sheets=2), c=0.9999999999, f_max=1e-6)

    @pytest.mark.parametrize("points_per_arc", [64.5, "64", True])
    def test_points_per_arc_that_is_not_an_integer_rejected(self, points_per_arc):
        table = BookTable(k=K, sheets=1)
        with pytest.raises(ValidationError, match=r"^points_per_arc must be an integer >= 2, got "):
            loop_around_origin(table, points_per_arc=points_per_arc)
        assert loop_around_origin(table, points_per_arc=np.int64(64)) == loop_around_origin(table)

    def test_points_beyond_memory_rejected(self):
        # refused before numpy allocates: 10^14 points exceed any address space
        with pytest.raises(ValidationError, match=r"^points_per_arc=10+ would take .*physical"):
            loop_around_origin(BookTable(k=K, sheets=1), points_per_arc=10**14)


class TestContinueTheta:
    def test_single_sheet_monodromy(self):
        table = BookTable(k=K, sheets=1)
        report = continue_theta(table, loop_around_origin(table, c=0.5))
        assert report.m == 1
        assert report.monodromy_matrix == ((1, 0), (1, 1))

    @pytest.mark.parametrize("n", [10**18, 4 * 10**18, 2**62])
    def test_m_is_exact_at_any_sheet_count(self, n):
        # m is n times the whole turns of dphi, in integers: as floats n * dphi loses them
        table = BookTable(k=K, sheets=n)
        report = continue_theta(table, loop_around_origin(table))
        assert report.m == n and type(report.m) is int
        assert report.labels.r_hpos == Fraction(1, n)

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_fewer_than_three_waypoints_rejected(self, count):
        loop = loop_around_origin(BookTable(k=K, sheets=1))[:count]
        with pytest.raises(ValidationError, match="^loop needs at least 3 waypoints$"):
            continue_theta(BookTable(k=K, sheets=1), loop)

    def test_two_sheets(self):
        # the count is rounded up to even, so both counts sample f = 0 once on the arc, at
        # h < 0, and once on the closing segment, at h > 0, where dphi = pi is taken without
        # a sign convention
        table = BookTable(k=K, sheets=2)
        for points_per_arc in (64, 65):
            loop = loop_around_origin(table, c=0.5, points_per_arc=points_per_arc)
            assert len(loop) == 2 * (points_per_arc + points_per_arc % 2)
            assert sorted(h > 0.0 for h, f in loop if f == 0.0) == [False, True]
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
        # the largest dphi step, theta's over n, against pi/2
        table = BookTable(k=K, sheets=3)
        report = continue_theta(table, loop_around_origin(table))
        largest = np.abs(np.diff(report.theta_unwrapped)).max() / 3
        assert 0.0 < report.unwrap_margin < 1.0
        assert report.unwrap_margin == pytest.approx(largest / (math.pi / 2.0), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_default_loops_match_per_sample_continuation(self, n):
        table = BookTable(k=K, sheets=n)
        for points_per_arc in (64, 65, 128, 256):
            loop = loop_around_origin(table, points_per_arc=points_per_arc)
            report = continue_theta(table, loop)
            reference = per_sample_continuation(table, loop)
            s = report.samples
            assert list(zip(s.h.tolist(), s.f.tolist())) == loop + [loop[0]]
            assert report.bisections == 0
            assert np.abs(np.array(report.theta_unwrapped) - reference).max() <= 1e-12
            assert report.m == round((reference[-1] - reference[0]) / (2.0 * math.pi)) == n

    @pytest.mark.parametrize("n,points_per_arc,loop_args", [
        *((n, ppa, {}) for n in range(1, 6) for ppa in (64, 65, 128, 256)),
        (5, 4, {"c": 0.5, "f_max": 0.55}),  # bisected
    ])
    def test_samples_are_the_closed_forms_bit_for_bit(self, n, points_per_arc, loop_args):
        # the block continue_theta fills in place holds exactly what one array pass of the
        # closed forms gives at its (h, f), theta is n * dphi, and the margin and theta_unwrapped
        # are those of unwrapping the dphi row
        table = BookTable(k=K, sheets=n)
        loop = loop_around_origin(table, points_per_arc=points_per_arc, **loop_args)
        report = continue_theta(table, loop)
        s = report.samples
        assert (report.bisections > 0) == bool(loop_args)
        t_r, dphi = _period_columns(table, s.h, s.f)
        assert (s.T_r.tobytes(), s.dphi.tobytes()) == (t_r.tobytes(), dphi.tobytes())
        assert s.theta.tobytes() == (n * s.dphi).tobytes()
        unwrapped, steps = _unwrap(s.dphi)
        diffs = np.abs(np.diff(unwrapped))
        assert steps.tobytes() == diffs.tobytes()
        assert report.unwrap_margin == float(diffs.max()) / UNWRAP_STEP
        assert report.theta_unwrapped == tuple((n * unwrapped).tolist())

    def test_bisection_keeps_loop_order(self):
        table = BookTable(k=K, sheets=5)
        loop = loop_around_origin(table, c=0.5, f_max=0.55, points_per_arc=4)
        report = continue_theta(table, loop)
        assert report.m == 5
        assert report.bisections == len(report.samples) - len(loop) - 1 > 0
        assert len(report.theta_unwrapped) == len(report.samples)
        # every sample is the next waypoint or lies on the current edge,
        # further along it than the sample before
        closed = loop + [loop[0]]
        edge, along = 0, 0.0
        points = list(zip(report.samples.h.tolist(), report.samples.f.tolist()))
        assert points[0] == closed[0]
        for h, f in points[1:]:
            (h0, f0), (h1, f1) = closed[edge], closed[edge + 1]
            if (h, f) == (h1, f1):
                edge, along = edge + 1, 0.0
                continue
            t = ((h - h0) * (h1 - h0) + (f - f0) * (f1 - f0)) / ((h1 - h0) ** 2 + (f1 - f0) ** 2)
            assert along < t < 1.0
            assert (h, f) == pytest.approx((h0 + t * (h1 - h0), f0 + t * (f1 - f0)), abs=1e-15)
            along = t
        assert edge == len(loop)
        assert report.unwrap_margin < 1.0

    def test_coarse_loops_give_m_or_fail_loudly(self):
        # unwrapping theta = n * dphi aliased steps near 2*pi on coarse loops
        # into a wrong m; unwrapping dphi must give m == n or raise
        for k in (-1.0, -4.0):
            for n in (1, 2, 3, 4, 5):
                table = BookTable(k=k, sheets=n)
                for c in (0.3, 0.5, 0.7):
                    for ratio in (1.1, 1.6, 3.0, 6.0, 200.0):
                        for points_per_arc in range(2, 9):
                            loop = loop_around_origin(
                                table, c=c, f_max=ratio * c * math.sqrt(-k),
                                points_per_arc=points_per_arc,
                            )
                            try:
                                assert continue_theta(table, loop).m == n
                            except ConvergenceError:
                                pass

    def test_bisection_through_the_singular_value_raises(self):
        table = BookTable(k=K, sheets=2)
        with pytest.raises(ConvergenceError):
            continue_theta(table, SINGULAR_CHORD_LOOP)

    @pytest.mark.parametrize("f_max", [1e200, 1e154])
    def test_overflowing_waypoint_rejected(self, f_max):
        # the closed forms would give NaN thetas, from which no m can be read
        table = BookTable(k=K, sheets=2)
        with pytest.raises(ValidationError, match=r"^loop corner \(.*\) overflows h\^2"):
            loop_around_origin(table, f_max=f_max)
        loop = [(-0.1, -0.5), (f_max * f_max, 0.5), (0.2, 0.1), (f_max, 0.0)]
        with pytest.raises(ValidationError, match=r"^loop waypoint \(.*, 0\.5\) overflows h\^2"):
            continue_theta(table, loop)

    def test_waypoint_whose_period_rounds_away_rejected(self):
        table = BookTable(k=K, sheets=2)
        loop = [(-0.1, -0.5), (1e16, 0.5), (0.2, 0.1)]
        with pytest.raises(ValidationError, match=r"^loop waypoint \(1e\+16, 0\.5\) .* rounds T_r"):
            continue_theta(table, loop)

    def test_waypoint_without_a_period_names_its_fiber(self):
        # cosh(w T_r) = 0 here, from a finite h^2 - k f^2: the value is outside the image
        table = BookTable(k=K, sheets=2)
        loop = [(-1.0, 0.5), (0.5, 0.5), (0.2, 0.1)]
        with pytest.raises(
            ValidationError, match=r"^loop waypoint \(-1\.0, 0\.5\) is not a regular value "
            r"\(fiber: outside-image\)$"
        ):
            continue_theta(table, loop)

    def test_overflowing_f_refused_before_any_warning(self):
        table = BookTable(k=K, sheets=2)
        loop = [(-0.1, -0.5), (0.3, 1e200), (0.2, 0.1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^loop waypoint \(0\.3, 1e\+200\) "):
                continue_theta(table, loop)

    @pytest.mark.parametrize("h,f", [
        (0.3, 1e200), (-1.0, 0.5), (-0.375, 0.5), (0.0, 0.0), (1e16, 0.5), (1e200, 0.5),
        (1e150, 0.5), (2e154, 0.5),
        # within SIGMA_TOL of the parabola inside the image, and 2.2e-7 outside it, each with a
        # cosh(w T_r) that rounds above 1: only the fiber tests refuse them
        (-0.375 + 5e-10, 0.5), (201601.8052343674, 634.9839450483619),
    ])
    def test_refuses_a_value_for_the_scalar_forms_reason(self, h, f):
        # one gate, one rule: the fiber if it is not a regular value, else cosh(w T_r)
        table = BookTable(k=K, sheets=2)
        with pytest.raises(ValidationError) as scalar:
            radial_period_quadrature(table, h, f)
        with pytest.raises(ValidationError) as array:
            continue_theta(table, [(-0.1, -0.5), (h, f), (0.2, 0.1)])
        assert refusal_reason(str(scalar.value)) == refusal_reason(str(array.value))
        assert str(array.value).startswith(f"loop waypoint ({h}, {f}) ")
        # the simulated form would answer T_r = 0 at h = 1e150, 1e200 and 2e154
        with pytest.raises(ValidationError) as simulated:
            radial_period_simulated(table, h, f)
        assert str(simulated.value) == str(scalar.value)

    @pytest.mark.parametrize("h,f", [(math.nan, 0.5), (0.3, math.nan), (math.nan, math.nan)])
    def test_nan_value_is_refused_by_name_first(self, h, f):
        # NaN passes every fiber test and fails cosh(w T_r) > 1, so it is named before either
        table = BookTable(k=K, sheets=2)
        for form in (radial_period_quadrature, radial_period_simulated):
            with pytest.raises(ValidationError, match=r"^value \(.*\) is not finite$"):
                form(table, h, f)
        with pytest.raises(ValidationError, match=r"^loop waypoint \(.*\) is not finite$"):
            continue_theta(table, [(-0.1, -0.5), (h, f), (0.3, 1e200), (0.2, 0.1)])
        with pytest.raises(ValidationError, match=r"^loop corner \(nan, nan\) is not finite$"):
            loop_around_origin(table, f_max=math.nan)

    @pytest.mark.parametrize("loop,named", [
        ([(0.3, 0.5, 1.0)] * 3, r"0 \(0\.3, 0\.5, 1\.0\)"),
        ([(0.3, 0.5), (0.2,)] * 2, r"1 \(0\.2,\)"),
        ([("a", "b")] * 3, r"0 \('a', 'b'\)"),
        # 8 numbers for 4 waypoints: the count alone would read them as pairs
        ([(0.3, 0.5), (0.3, 0.5, 1.0), (0.2,), (0.1, 0.2)], r"1 \(0\.3, 0\.5, 1\.0\)"),
        ([(0.3, 0.5), (0.2, 0.1), 0.4], r"2 0\.4"),
        # two numbers, but no length: read once, it could not be reported in the loop
        ([(0.3, 0.5), iter((0.2, 0.1)), (0.1, 0.2)], r"1 <tuple_iterator object at 0x[0-9a-f]+>"),
    ], ids=["3-tuples", "ragged", "not-numbers", "ragged-to-an-even-count", "not-a-pair", "iterator"])
    def test_malformed_waypoint_is_refused_by_name(self, loop, named):
        table = BookTable(k=K, sheets=2)
        with pytest.raises(ValidationError, match=rf"^loop waypoint {named} is not a pair of numbers$"):
            continue_theta(table, loop)

    def test_first_unusable_waypoint_is_named(self):
        # (0, 0) has a period gate value of inf, so only its fiber refuses it, before (1e16, 0.5)
        table = BookTable(k=K, sheets=2)
        loop = [(-0.1, -0.5), (0.0, 0.0), (1e16, 0.5), (0.2, 0.1)]
        with pytest.raises(
            ValidationError,
            match=r"^loop waypoint \(0\.0, 0\.0\) is not a regular value \(fiber: pinched-torus\)$",
        ):
            continue_theta(table, loop)

    def test_singular_midpoint_is_named(self):
        table = BookTable(k=K, sheets=2)
        with pytest.raises(ConvergenceError, match=r"^bisection midpoint \(0\.0, 0\.0\) is not"):
            continue_theta(table, SINGULAR_CHORD_LOOP)

    def test_start_point_invariance(self):
        table = BookTable(k=K, sheets=2)
        loop = loop_around_origin(table)
        shifted = loop[37:] + loop[:37]
        assert continue_theta(table, shifted).m == 2

    def test_theta_odd_under_loop_reflection(self):
        table = BookTable(k=K, sheets=1)
        report = continue_theta(table, loop_around_origin(table))
        s = report.samples
        by_value = dict(zip(zip(s.h.tolist(), s.f.tolist()), s.theta.tolist()))
        for (h, f), theta in by_value.items():
            if (h, -f) in by_value and f != 0.0:
                assert by_value[(h, -f)] == pytest.approx(-theta, abs=1e-10)


class TestPeriodSamples:
    """report.samples: columns, read as PeriodSample values only on demand."""

    @pytest.fixture(scope="class")
    def report(self):
        table = BookTable(k=K, sheets=5)
        return continue_theta(table, loop_around_origin(table, c=0.5, f_max=0.55, points_per_arc=4))

    @staticmethod
    def tuple_form(samples):
        """The samples as the tuple of PeriodSample values a report held before."""
        rows = zip(samples.h, samples.f, samples.T_r, samples.dphi, samples.theta)
        return tuple(PeriodSample(*map(float, row)) for row in rows)

    def test_continuation_builds_no_period_sample(self, monkeypatch):
        built, init = [], PeriodSample.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(PeriodSample, "__init__", counting)
        table = BookTable(k=K, sheets=3)
        report = continue_theta(table, loop_around_origin(table, points_per_arc=256))
        assert built == []
        report.samples[-1]
        assert len(built) == 1

    def test_indexing(self, report):
        samples, old = report.samples, self.tuple_form(report.samples)
        assert len(samples) == len(old) > 8
        for i in (0, 7, len(old) - 1, -1, -len(old)):
            assert samples[i] == old[i]
            assert all(type(v) is float for v in dataclasses.astuple(samples[i]))
        for i in (len(old), -len(old) - 1):
            with pytest.raises(IndexError):
                samples[i]

    def test_slices_are_tuples_of_the_old_form(self, report):
        samples, old = report.samples, self.tuple_form(report.samples)
        for cut in (slice(None, 7), slice(8, None), slice(None), slice(-3, None),
                    slice(None, None, -2), slice(5, 2)):
            assert type(samples[cut]) is tuple
            assert samples[cut] == old[cut]
        assert samples[:7] + (old[7],) + samples[8:] == old

    def test_iteration_is_indexing(self, report):
        samples = report.samples
        assert list(samples) == [samples[i] for i in range(len(samples))]

    def test_equality_and_hash_agree(self, report):
        block = np.array([[0.0, 0.5]] * 5)
        negative = block.copy()
        negative[:, 0] = -0.0
        assert PeriodSamples(block) == PeriodSamples(negative)
        assert hash(PeriodSamples(block)) == hash(PeriodSamples(negative))
        assert PeriodSamples(block) != PeriodSamples(block[:, :1].copy())
        assert PeriodSamples(block) != tuple(PeriodSamples(block))
        table = BookTable(k=K, sheets=5)
        again = continue_theta(table, list(report.loop))
        assert again == report and hash(again) == hash(report)
        assert again.samples is not report.samples

    def test_pickle_round_trip(self, report):
        back = pickle.loads(pickle.dumps(report))
        assert back == report and hash(back) == hash(report)
        assert not back.samples.columns.flags.writeable

    def test_columns_refuse_writes(self, report):
        samples = report.samples
        for column in (samples.columns, samples.h, samples.f, samples.T_r, samples.dphi, samples.theta):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    def test_report_takes_a_tuple_of_samples(self, report):
        old = self.tuple_form(report.samples)
        replaced = dataclasses.replace(report, samples=old)
        assert replaced.samples is old
        assert replaced != report
        hash(replaced)


def default_labels(sheets):
    """The labels of the report over the default loop."""
    table = BookTable(k=K, sheets=sheets)
    return continue_theta(table, loop_around_origin(table)).labels


class TestMoleculeLabels:
    def test_h_negative_side(self):
        labels = default_labels(1)
        assert labels.r_hneg == math.inf
        assert labels.epsilon == 1

    def test_single_sheet_h_positive(self):
        labels = default_labels(1)
        assert labels.r_hpos == Fraction(0)
        assert labels.epsilon == 1

    def test_four_sheets_h_positive(self):
        labels = default_labels(4)
        assert labels.r_hpos == Fraction(1, 4)
        assert labels.derived_from_m == 4

    def test_labels_from_supplied_report(self):
        # molecule_labels, which bench/ calls, gives the report's labels for either sign of h
        table = BookTable(k=K, sheets=2)
        report = continue_theta(table, loop_around_origin(table))
        for h_sign in (-1, +1):
            assert molecule_labels(table, h_sign, report=report) is report.labels
        assert report.labels.derived_from_m == report.m == 2
        assert report.labels.r_hpos == Fraction(1, 2)
        with pytest.raises(ValidationError, match="h_sign"):
            molecule_labels(table, 0, report=report)

    def test_gluing_matrix_consistent_with_label(self):
        table = BookTable(k=K, sheets=3)
        report = continue_theta(table, loop_around_origin(table))
        alpha, beta = report.gluing_matrix_hpos[0]
        assert Fraction(alpha, beta) % 1 == report.labels.r_hpos


@pytest.mark.parametrize("n", [1, 3])
def test_theta_center_limit_is_the_richardson_value(n):
    # acceptance criterion 9's inline extrapolation, at h = 0.5
    table = BookTable(k=K, sheets=n)
    rows = [[radial_period_quadrature(table, 0.5, 0.4 * 0.5**j).theta for j in range(7)]]
    for j in range(1, 7):
        fac = 2.0**j
        rows.append(
            [(fac * rows[-1][i + 1] - rows[-1][i]) / (fac - 1.0) for i in range(len(rows[-1]) - 1)]
        )
    limit = theta_center_limit(table, 0.5)
    assert limit == rows[-1][0]
    assert abs(limit - n * math.pi) < 0.01
