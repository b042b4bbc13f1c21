import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from billiardbook import (
    FIBER_TAGS,
    BookTable,
    FiberTag,
    PhaseState,
    ValidationError,
    bifurcation_diagram,
    classify_fiber,
    classify_grid,
    gradients,
    in_image,
    inner_radius,
    momentum_map,
    simulate,
)
from billiardbook.momentum import SIGMA_TOL
from test_dynamics import segment_min_radii

K = -1.0
TABLE = BookTable(k=K, sheets=1)


class TestMomentumMap:
    def test_equilibrium_maps_to_origin(self):
        mv = momentum_map(PhaseState(1, 0.0, 0.0, 0.0, 0.0), K)
        assert (mv.h, mv.f) == (0.0, 0.0)

    def test_direct_substitution_on_boundary(self):
        mv = momentum_map(PhaseState(1, 1.0, 0.0, 0.0, 1.0), K)
        assert mv.h == pytest.approx(0.0, abs=1e-15)
        assert mv.f == pytest.approx(1.0, abs=1e-15)

    def test_direct_substitution_interior(self):
        mv = momentum_map(PhaseState(1, 0.5, 0.0, 0.0, 1.0), K)
        assert mv.h == pytest.approx(0.375, abs=1e-15)
        assert mv.f == pytest.approx(0.5, abs=1e-15)

    def test_gradients_vanish_only_at_equilibrium(self):
        dh, df = gradients(PhaseState(1, 0.0, 0.0, 0.0, 0.0), K)
        assert np.all(dh == 0.0) and np.all(df == 0.0)
        dh, df = gradients(PhaseState(1, 0.2, 0.0, 0.0, 0.3), K)
        assert np.linalg.norm(dh) > 0 and np.linalg.norm(df) > 0


class TestImage:
    def test_focus_focus_value_in_image(self):
        assert in_image(0.0, 0.0, K)

    def test_parabola_boundary_point_in_image(self):
        assert in_image(-0.5, 0.0, K)

    def test_below_parabola_outside(self):
        assert not in_image(-1.0, 0.0, K)

    def test_image_rule_is_the_classifiers(self):
        # 5e-10 below the parabola: within SIGMA_TOL of it, an atom-A circle of radius ~1
        h, f = -0.4550000005, 0.3
        assert classify_fiber(TABLE, h, f).tag is FiberTag.ATOM_A_CIRCLE
        assert in_image(h, f, K)
        assert inner_radius(h, f, K) == pytest.approx(1.0, abs=1e-9)
        assert not in_image(h - 2.0 * SIGMA_TOL, f, K)
        # the same in the w = 1 frame: at k = -1e-12 the values are (1e-12 h, 1e-6 f)
        assert in_image(h * 1e-12, f * 1e-6, -1e-12)
        assert not in_image((h - 2.0 * SIGMA_TOL) * 1e-12, f * 1e-6, -1e-12)
        with pytest.raises(ValidationError, match=r"^value \(nan, 0\.3\) is not finite$"):
            in_image(math.nan, f, K)

    def test_simulated_states_map_into_image(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r = 0.9 * math.sqrt(rng.uniform())
            ang = rng.uniform(0, 2 * math.pi)
            state = PhaseState(1, r * math.cos(ang), r * math.sin(ang), *rng.uniform(-1, 1, 2))
            traj = simulate(TABLE, state, max_reflections=20)
            for row in traj.end.tolist():
                mv = momentum_map(PhaseState(1, *row), K)
                assert in_image(mv.h, mv.f, K)


class TestInnerRadius:
    def test_diameter_orbits_reach_center(self):
        assert inner_radius(1.0, 0.0, K) == 0.0
        assert inner_radius(0.3, 0.0, K) == 0.0
        # rho0 written as f^2/(root + |h|) for every h would divide by zero here
        assert inner_radius(0.0, 0.0, K) == 0.0

    def test_direct_substitution(self):
        assert inner_radius(1.0, 1.0, K) == pytest.approx(
            math.sqrt(math.sqrt(2.0) - 1.0), abs=1e-15
        )

    def test_annulus_collapses_on_parabola(self):
        assert inner_radius(0.0, 1.0, K) == pytest.approx(1.0, abs=1e-15)

    def test_outside_image_rejected(self):
        with pytest.raises(ValidationError):
            inner_radius(-1.0, 0.0, K)

    @given(
        h=st.floats(-0.4, 1.0),
        f=st.floats(0.01, 0.9),
    )
    def test_symmetric_in_f(self, h, f):
        if not in_image(h, f, K):
            return
        assert inner_radius(h, f, K) == inner_radius(h, -f, K)

    def test_monotone_in_abs_f_at_fixed_h(self):
        h = 0.2
        values = [inner_radius(h, f, K) for f in np.linspace(0.0, 1.0, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_decreasing_in_h_at_fixed_f(self):
        f = 0.5
        values = [inner_radius(h, f, K) for h in np.linspace(-0.3, 1.0, 30)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_trajectory_attains_inner_radius(self):
        start = PhaseState(1, 0.5, 0.0, 0.0, 1.0)
        mv = momentum_map(start, K)
        segments = simulate(TABLE, start, max_reflections=50)
        min_r = segment_min_radii(segments, K).min()
        assert min_r == pytest.approx(inner_radius(mv.h, mv.f, K), abs=1e-6)


class TestClassifyFiber:
    def test_origin_is_pinched_torus_with_sheet_count(self):
        fiber = classify_fiber(BookTable(k=K, sheets=3), 0.0, 0.0)
        assert fiber.tag is FiberTag.PINCHED_TORUS
        assert fiber.pinches == 3
        assert fiber.contains_focus_focus

    def test_parabola_value_is_atom_a(self):
        assert classify_fiber(TABLE, -0.5, 0.0).tag is FiberTag.ATOM_A_CIRCLE

    def test_interior_value_is_regular_torus(self):
        assert classify_fiber(TABLE, 0.3, 0.2).tag is FiberTag.REGULAR_TORUS

    def test_outside_image(self):
        assert classify_fiber(TABLE, -1.0, 0.0).tag is FiberTag.OUTSIDE_IMAGE

    @given(h=st.floats(-1.5, 1.5), f=st.floats(-1.5, 1.5))
    def test_symmetric_in_f(self, h, f):
        assert classify_fiber(TABLE, h, f) == classify_fiber(TABLE, h, -f)


class TestClassifyGrid:
    def test_matches_classify_fiber_cell_by_cell(self):
        # the 201^2 grid, then values within and just outside SIGMA_TOL of the
        # parabola and of (0, 0)
        table = BookTable(k=K, sheets=3)
        values = np.linspace(-1.5, 1.5, 201)
        grid = classify_grid(table, values[:, None], values)
        h, f = (v.ravel().tolist() for v in np.meshgrid(values, values, indexing="ij"))
        offsets = [s * SIGMA_TOL for s in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
        for dh in offsets:
            for fv in (-1.2, -0.3, 0.0, 1e-10, 0.7):
                h.append((fv * fv + K) / 2.0 + dh)
                f.append(fv)
            h += [dh] * len(offsets)
            f += offsets
        # signed zeros and infinities; a NaN is refused, for a float and in an array
        special = (0.0, -0.0, math.inf, -math.inf)
        h += [hv for hv in special for _ in special]
        f += list(special) * len(special)
        codes = classify_grid(table, np.array(h), np.array(f))
        tags = [FIBER_TAGS[c] for c in codes.tolist()]
        assert tags == [classify_fiber(table, hv, fv).tag for hv, fv in zip(h, f)]
        assert set(tags) == set(FiberTag)
        assert grid.ravel().tolist() == codes[: values.size**2].tolist()
        for hv, fv in [(hv, math.nan) for hv in special + (math.nan,)] + [(math.nan, 0.5)]:
            message = rf"^value \({hv}, {fv}\) is not finite$"
            with pytest.raises(ValidationError, match=message):
                classify_fiber(table, hv, fv)
            with pytest.raises(ValidationError, match=message):
                classify_grid(table, np.array(h + [hv, 0.2]), np.array(f + [fv, math.nan]))

    def test_nan_is_refused_from_the_axes_of_a_grid(self):
        # the first NaN cell of the broadcast grid is named
        table = BookTable(k=K, sheets=3)
        h, f = np.array([[0.3], [math.nan]]), np.array([0.1, 0.2, math.nan])
        with pytest.raises(ValidationError, match=r"^value \(0\.3, nan\) is not finite$"):
            classify_grid(table, h, f)
        with pytest.raises(ValidationError, match=r"^value \(nan, 0\.1\) is not finite$"):
            classify_grid(table, h, f[:2])
        # an empty grid holds no value, NaN or not
        assert classify_grid(table, h, np.array([])).shape == (2, 0)


class TestBifurcationDiagram:
    def test_parabola_samples(self):
        diagram = bifurcation_diagram(K, -1.0, 1.0, resolution=201)
        i = np.argmin(np.abs(diagram.f))
        assert diagram.f[i] == 0.0
        assert diagram.h[i] == -0.5

    def test_isolated_point_is_origin(self):
        for k in (-1.0, -2.5, -0.3):
            assert bifurcation_diagram(k).isolated_point == (0.0, 0.0)

    def test_resolution_validated(self):
        with pytest.raises(ValidationError):
            bifurcation_diagram(K, resolution=1)

    def test_empty_f_range_rejected(self):
        # an empty range would draw an SVG whose viewBox has zero size
        with pytest.raises(ValidationError, match="f_min and f_max must differ"):
            bifurcation_diagram(K, 0.5, 0.5)

    def test_resolution_beyond_memory_rejected(self):
        # refused before numpy allocates: 10^14 samples exceed any address space
        with pytest.raises(ValidationError, match=r"^resolution=10+ would take .*physical memory"):
            bifurcation_diagram(K, resolution=10**14)


def critical_point_residual(
    k: float,
    grid: int = 9,
    v_max: float = 2.0,
    sigma_margin: float = 0.05,
) -> float:
    """Brute-force check that the equilibrium is the only interior critical point.

    Returns the minimum of ||dH ^ dF|| over a phase grid restricted to the disk
    interior and to states whose momentum value keeps a margin from Sigma (the
    parabola and the origin). A strictly positive return is evidence, not
    proof, that no further critical points exist.
    """
    s = np.linspace(-1.0, 1.0, grid)
    v = np.linspace(-v_max, v_max, grid)
    x, y, vx, vy = np.meshgrid(s, s, v, v, indexing="ij")
    r2 = x * x + y * y
    h = 0.5 * (vx * vx + vy * vy) + 0.5 * k * r2
    f = x * vy - y * vx
    keep = (r2 < 1.0) & (np.abs(h - (f * f + k) / 2.0) > sigma_margin)
    keep &= np.maximum(np.abs(h), np.abs(f)) > sigma_margin
    # 2x2 minors of the Jacobian [dH; dF]
    dh = (k * x, k * y, vx, vy)
    df = (vy, -vx, -y, x)
    wedge2 = np.zeros_like(x)
    for i in range(4):
        for j in range(i + 1, 4):
            m = dh[i] * df[j] - dh[j] * df[i]
            wedge2 += m * m
    return float(np.sqrt(wedge2[keep]).min())


def test_no_further_critical_points_brute_force():
    # residual check for the claim that the origin is the only rank-0 point
    assert critical_point_residual(K, grid=9) > 1e-3
