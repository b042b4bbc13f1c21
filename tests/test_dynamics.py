import math
import sys
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from billiardbook import (
    BookTable,
    ConvergenceError,
    PhaseState,
    Trajectory,
    ValidationError,
    flow_free,
    inner_radius,
    momentum_map,
    reflect,
    simulate,
    time_to_boundary,
)
from billiardbook.dynamics import _CHUNK, _hit_count, _rotated
from billiardbook.momentum import h_and_f

K = -1.0
KS = (-0.25, -1.0, -4.0)
TABLE = BookTable(k=K, sheets=1)


def random_interior_state(rng, v_max=2.0):
    r = 0.97 * math.sqrt(rng.uniform())
    ang = rng.uniform(0.0, 2.0 * math.pi)
    vx, vy = rng.uniform(-v_max, v_max, size=2)
    return PhaseState(1, r * math.cos(ang), r * math.sin(ang), vx, vy)


def worst_wall_residual(trajectory):
    x, y = trajectory.end[: trajectory.reflections, :2].T
    return np.abs(x * x + y * y - 1.0).max()


def event_driven(table, state, max_reflections=None, max_time=None):
    """Reference stepper: time_to_boundary, flow_free and reflect, one hit at a time.

    Each arc starts from the reflection of the previous hit, so its rounding
    error builds on all earlier ones; it is the independent oracle of the
    closed-form bounce map in simulate(). It stops at max_reflections, at
    max_time, or where the start or a reflection lies on the stable manifold,
    and returns the run as a Trajectory; it knows nothing of grazing hits.
    """
    arcs, t, stop_reason = [], 0.0, "reflections"
    while max_reflections is None or len(arcs) < max_reflections:
        dt = time_to_boundary(state, table.k)
        if dt == math.inf:
            stop_reason = "stable-manifold"
            break
        if max_time is not None and t + dt >= max_time:
            arcs.append((state, max_time - t, flow_free(state, max_time - t, table.k)))
            stop_reason = "time"
            break
        end = flow_free(state, dt, table.k)
        arcs.append((state, dt, end))
        state = reflect(table, end)
        t += dt
    columns = (
        np.array([state_row(start) for start, _, _ in arcs]).reshape(-1, 4),
        np.array([state_row(end) for _, _, end in arcs]).reshape(-1, 4),
        np.array([start.sheet for start, _, _ in arcs], dtype=int),
        np.array([duration for _, duration, _ in arcs], dtype=float),
    )
    return Trajectory(columns, len(arcs) - (stop_reason == "time"), stop_reason)


def first_rows(trajectory, m):
    """The first m rows of a run, as the run that its m-th reflection stops."""
    columns = tuple(getattr(trajectory, column)[:m] for column in Trajectory._COLUMNS)
    return Trajectory(columns, m, "reflections")


def segment_min_radii(trajectory, k):
    """Exact minimum of r over each segment of a run, as one column (closed form).

    r^2 = |a|^2 u + 2a.b + |b|^2/u is least at u = |b|/|a|, where it equals
    2(|a||b| + a.b) = (f/w)^2 / (2(|a||b| - a.b)); the second form avoids the
    cancellation when a.b < 0. That turning point counts when it comes
    before the segment ends; a segment sliding along the wall keeps r = 1.
    """
    w = math.sqrt(-k)
    x, y, vx, vy = trajectory.start.T
    px, py = vx / w, vy / w
    ax, ay, bx, by = 0.5 * (x + px), 0.5 * (y + py), 0.5 * (x - px), 0.5 * (y - py)
    na, nb = np.hypot(ax, ay), np.hypot(bx, by)
    ab, f = ax * bx + ay * by, x * vy - y * vx
    ex, ey = trajectory.end[:, 0], trajectory.end[:, 1]
    r2 = np.minimum(x * x + y * y, ex * ex + ey * ey)
    with np.errstate(divide="ignore", invalid="ignore"):
        turns = (0.0 < na) & (na < nb) & (np.log(nb / na) < 2.0 * w * trajectory.duration)
        inner = np.where(ab >= 0.0, 2.0 * (na * nb + ab), (f / w) ** 2 / (2.0 * (na * nb - ab)))
    radii = np.sqrt(np.where(turns, np.minimum(r2, inner), r2))
    if trajectory.boundary_orbit:
        radii[-1] = 1.0
    return radii


def sampled_states(trajectory, k, count):
    """States at count+1 equally spaced times along each segment of a run, one at a time.

    Returns a (segments, count+1, 4) block. Each state is flow_free() from its
    segment's start, and on a segment sliding along the wall the start turned
    by f*tau, as the angular speed on r = 1 is f; it shares no kernel with the
    column sampler of the writers.
    """
    rows, segments = [], zip(trajectory.start.tolist(), trajectory.duration.tolist())
    for i, (row, duration) in enumerate(segments):
        start = PhaseState(1, *row)
        if trajectory.boundary_orbit and i == len(trajectory) - 1:
            f = momentum_map(start, k).f
            angles = (f * duration * j / count for j in range(count + 1))
            rows += [_rotated(*row, math.cos(a), math.sin(a)) for a in angles]
        else:
            states = (flow_free(start, duration * j / count, k) for j in range(count + 1))
            rows += [(s.x, s.y, s.vx, s.vy) for s in states]
    return np.array(rows).reshape(len(trajectory), count + 1, 4)


def first_hit_and_turn(table, state):
    """The first wall hit of a run and the turn dphi between hits, as simulate() finds them."""
    hit = flow_free(state, time_to_boundary(state, table.k), table.k)
    start = reflect(table, hit)
    end = flow_free(start, time_to_boundary(start, table.k), table.k)
    return hit, math.atan2(hit.x * end.y - hit.y * end.x, hit.x * end.x + hit.y * end.y)


def turned_hits(hit, dphi, j):
    """Hit j of a run as one turn of the first hit by j*dphi, one row per j."""
    turns = np.asarray(j, dtype=float) * dphi
    return np.column_stack(_rotated(*state_row(hit), np.cos(turns), np.sin(turns)))


def time_reversed(state):
    """The same point with the velocity negated."""
    return PhaseState(state.sheet, state.x, state.y, -state.vx, -state.vy)


def state_row(state):
    return np.array([state.x, state.y, state.vx, state.vy])


class TestFlowFree:
    def test_origin_is_fixed_point(self):
        state = PhaseState(1, 0.0, 0.0, 0.0, 0.0)
        out = flow_free(state, 3.7, K)
        assert out == state

    def test_hand_evaluated_hyperbolic_arc(self):
        # x(t) = sinh(t), vx(t) = cosh(t) for a unit kick from the origin
        t = math.log(1.0 + math.sqrt(2.0))  # asinh(1)
        out = flow_free(PhaseState(1, 0.0, 0.0, 1.0, 0.0), t, K)
        assert out.x == pytest.approx(1.0, abs=1e-15)
        assert out.vx == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert out.y == 0.0 and out.vy == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            flow_free(PhaseState(1, 0.1, 0.0, 0.0, 0.0), -1e-9, K)

    def test_nan_time_rejected(self):
        with pytest.raises(ValidationError, match="^propagation time t must be nonnegative, got nan"):
            flow_free(PhaseState(1, 0.1, 0.0, 0.0, 0.0), math.nan, K)

    @pytest.mark.parametrize("t", [800.0, math.inf])
    def test_time_past_the_float_range_rejected(self, t):
        # exp(w t) is past the float range for w t above ln(max float), about 709.78
        with pytest.raises(ValidationError, match=f"t={t!r} at k=-1.0 "):
            flow_free(PhaseState(1, 0.1, 0.0, 0.0, 0.0), t, K)

    def test_conserves_h_and_f_on_random_states(self):
        # oracle: evaluate H and F directly before and after the flow
        rng = np.random.default_rng(1)
        for _ in range(1000):
            state = random_interior_state(rng)
            t = rng.uniform(0.0, 1.5)
            before = momentum_map(state, K)
            after = momentum_map(flow_free(state, t, K), K)
            assert abs(after.h - before.h) < 1e-12
            assert abs(after.f - before.f) < 1e-12


class TestTimeToBoundary:
    def test_radial_launch_closed_form(self):
        t = time_to_boundary(PhaseState(1, 0.0, 0.0, 1.0, 0.0), K)
        assert t == pytest.approx(math.asinh(1.0), abs=1e-14)

    def test_boundary_adjacent_limit(self):
        t = time_to_boundary(PhaseState(1, 0.9999999, 0.0, 1.0, 0.0), K)
        assert 0.0 < t < 1e-6

    def test_rest_at_origin_never_reaches_the_wall(self):
        assert time_to_boundary(PhaseState(1, 0.0, 0.0, 0.0, 0.0), K) == math.inf

    def test_state_outside_the_disk_rejected(self):
        # within BOUNDARY_TOL outside the wall counts as on it
        assert time_to_boundary(PhaseState(1, 1.0 + 1e-10, 0.0, 1.0, 0.0), K) == 0.0
        with pytest.raises(ValidationError, match="^state lies outside the closed unit disk$"):
            time_to_boundary(PhaseState(1, 1.0 + 1e-8, 0.0, -1.0, 0.0), K)

    def test_stable_manifold_detected(self):
        # v = -omega * r flows into the equilibrium, never reaching the wall
        assert time_to_boundary(PhaseState(1, 0.5, 0.0, -0.5, 0.0), K) == math.inf
        assert time_to_boundary(PhaseState(1, 0.0, 1.0, 0.0, -1.0), K) == math.inf

    @pytest.mark.parametrize("x", [1e-170, 1e-200, 1e-300])
    def test_tiny_light_cone_half_reaches_the_wall(self, x):
        # a = (x/2, 0) and b = (x/2, 1/2), so u = exp(2t) solves
        # (x^2/4) u^2 - (1 - x^2/2) u + (1 + x^2)/4 = 0 and t = ln(2/x) to within x^2;
        # |a|^2 is below the normal float range for each x
        t = time_to_boundary(PhaseState(1, x, 0.5, 0.0, -0.5), K)
        assert t == pytest.approx(math.log(2.0 / x), rel=1e-14)

    def test_first_crossing_on_random_states(self):
        # oracle: dense sampling of the closed-form flow
        rng = np.random.default_rng(2)
        for _ in range(1000):
            state = random_interior_state(rng)
            t = time_to_boundary(state, K)
            end = flow_free(state, t, K)
            assert abs(math.sqrt(end.r2) - 1.0) < 1e-10
            for j in range(1, 64):
                mid = flow_free(state, t * j / 64.0, K)
                assert math.sqrt(mid.r2) < 1.0 + 1e-12


class TestReflect:
    def test_oblique_reflection(self):
        state = PhaseState(1, 1.0, 0.0, 1.0, 1.0)
        out = reflect(TABLE, state)
        assert (out.vx, out.vy) == (-1.0, 1.0)
        assert out.sheet == 1
        assert (out.x, out.y) == (1.0, 0.0)

    def test_normal_incidence_advances_sheet(self):
        table = BookTable(k=K, sheets=3)
        out = reflect(table, PhaseState(2, 0.0, 1.0, 0.0, 2.0))
        assert (out.vx, out.vy) == (0.0, -2.0)
        assert out.sheet == 3

    def test_preserves_angular_momentum_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            x, y = math.cos(ang), math.sin(ang)
            vx, vy = rng.uniform(-2.0, 2.0, size=2)
            if vx * x + vy * y < 0:
                vx, vy = -vx, -vy
            state = PhaseState(1, x, y, vx, vy)
            out = reflect(TABLE, state)
            assert momentum_map(out, K).f == pytest.approx(
                momentum_map(state, K).f, abs=1e-14
            )

    def test_double_reflection_is_velocity_involution(self):
        table = BookTable(k=K, sheets=5)
        state = PhaseState(2, math.cos(0.3), math.sin(0.3), 0.7, 0.4)
        if state.x * state.vx + state.y * state.vy < 0:
            state = time_reversed(state)
        once = reflect(table, state)
        # the reflected velocity points inward; flip it to re-reflect
        twice = reflect(table, time_reversed(once))
        assert twice.vx == pytest.approx(-state.vx, abs=1e-15)
        assert twice.vy == pytest.approx(-state.vy, abs=1e-15)
        assert twice.sheet == 4

    def test_interior_state_rejected(self):
        with pytest.raises(ValidationError):
            reflect(TABLE, PhaseState(1, 0.5, 0.0, 1.0, 0.0))

    def test_inward_velocity_rejected(self):
        with pytest.raises(ValidationError):
            reflect(TABLE, PhaseState(1, 1.0, 0.0, -1.0, 0.0))


class TestSimulate:
    def test_requires_stop_condition(self):
        with pytest.raises(ValidationError):
            simulate(TABLE, PhaseState(1, 0.5, 0.0, 0.0, 1.0))

    def test_sheet_sequence_is_cyclic(self):
        table = BookTable(k=K, sheets=3)
        traj = simulate(table, PhaseState(1, 0.5, 0.0, 0.0, 1.0), max_reflections=9)
        assert traj.sheet.tolist() == [1, 2, 3, 1, 2, 3, 1, 2, 3]

    def test_conservation_drift_stays_small(self):
        start = PhaseState(1, 0.5, 0.0, 0.0, 1.0)
        traj = simulate(TABLE, start, max_reflections=2000)
        ref = momentum_map(start, K)
        h, f = h_and_f(*traj.end.T, K)
        assert np.abs(h - ref.h).max() < 1e-10
        assert np.abs(f - ref.f).max() < 1e-10

    def test_orbit_confined_to_annulus(self):
        start = PhaseState(1, 0.5, 0.0, 0.0, 1.0)
        mv = momentum_map(start, K)
        r0 = inner_radius(mv.h, mv.f, K)
        traj = simulate(TABLE, start, max_reflections=500)
        min_r = segment_min_radii(traj, K).min()
        assert min_r >= r0 - 1e-9
        # the radial turning point is reached every radial period
        assert min_r == pytest.approx(r0, abs=1e-6)
        x, y = traj.end[:, :2].T
        assert (x * x + y * y).max() <= 1.0 + 1e-12

    def test_angle_monotone_with_sign_of_f(self):
        for sign in (+1.0, -1.0):
            start = PhaseState(1, 0.5, 0.0, 0.0, sign * 1.0)
            states = sampled_states(simulate(TABLE, start, max_reflections=50), K, 32)
            angles = np.unwrap(np.arctan2(states[..., 1], states[..., 0]), axis=1)
            assert np.all(sign * np.diff(angles, axis=1) >= -1e-12)

    def test_time_reversal_reverses_path_and_negates_f(self):
        start = PhaseState(1, 0.4, 0.1, 0.3, 1.1)
        fwd = simulate(TABLE, start, max_reflections=10)
        end = time_reversed(PhaseState(1, *fwd.end[-1].tolist()))
        back = simulate(TABLE, end, max_time=math.fsum(fwd.duration))
        assert momentum_map(end, K).f == pytest.approx(-momentum_map(start, K).f, abs=1e-12)
        assert back.end[-1] == pytest.approx([start.x, start.y, -start.vx, -start.vy], abs=1e-8)

    def test_max_time_cuts_last_segment(self):
        traj = simulate(TABLE, PhaseState(1, 0.5, 0.0, 0.0, 1.0), max_time=2.5)
        assert math.fsum(traj.duration) == pytest.approx(2.5, abs=1e-12)
        # the last segment is the cut, which ends at no reflection
        assert (traj.stop_reason, traj.reflections) == ("time", len(traj) - 1)

    @pytest.mark.parametrize("start,max_time", [
        # a grazing run that slides for the rest of max_time: its flag is a bool, which json takes
        (PhaseState(1, 1.0, 0.0, -1e-12, 0.3), np.float64(3.0)),
        # under NumPy 2's promotion rules a float32 max_time would make the cut in float32
        (PhaseState(1, 0.5, 0.0, 0.0, 1.0), np.float32(2.5)),
    ], ids=["float64-grazing", "float32"])
    def test_numpy_max_time_cuts_as_a_python_float(self, start, max_time):
        traj = simulate(TABLE, start, max_time=max_time)
        assert traj == simulate(TABLE, start, max_time=float(max_time))
        assert type(traj.boundary_orbit) is bool
        assert math.fsum(traj.duration) == pytest.approx(float(max_time), abs=1e-12)

    def test_boundary_tangential_state_is_critical_orbit(self):
        # (h, f) on the parabola: the region of motion is the wall circle
        traj = simulate(TABLE, PhaseState(1, 1.0, 0.0, 0.0, 0.5), max_time=4.0)
        assert len(traj) == 1
        assert traj.boundary_orbit
        x, y = sampled_states(traj, K, 64)[0, :, :2].T
        assert np.sqrt(x * x + y * y) == pytest.approx(np.ones(65), abs=1e-12)
        # angular speed on the wall equals f
        x, y = traj.end[0, :2]
        assert math.atan2(y, x) == pytest.approx(0.5 * 4.0, abs=1e-12)

    def test_sheet_off_the_book_rejected(self):
        table = BookTable(k=K, sheets=3)
        for sheet in (0, 4):
            with pytest.raises(ValidationError, match="sheet"):
                simulate(table, PhaseState(sheet, 0.5, 0.0, 0.0, 1.0), max_reflections=1)

    def test_start_outside_the_disk_rejected(self):
        with pytest.raises(ValidationError, match="^initial state must lie in the closed unit disk$"):
            simulate(TABLE, PhaseState(1, 0.8, 0.7, 0.0, 0.1), max_reflections=1)

    def test_rest_state_at_origin_stops_at_once(self):
        # the equilibrium lies on its own stable manifold
        for stop in ({"max_reflections": 1}, {"max_time": 3.0}):
            traj = simulate(TABLE, PhaseState(1, 0.0, 0.0, 0.0, 0.0), **stop)
            assert (traj.reflections, traj.stop_reason, len(traj)) == (0, "stable-manifold", 0)

    @pytest.mark.parametrize("max_time", [math.inf, math.nan])
    def test_non_finite_max_time_rejected(self, max_time):
        with pytest.raises(ValidationError, match="max_time must be positive and finite"):
            simulate(TABLE, PhaseState(1, 0.5, 0.0, 0.0, 1.0), max_time=max_time)

    def test_fractional_max_reflections_rejected(self):
        with pytest.raises(ValidationError, match="max_reflections must be an integer"):
            simulate(TABLE, PhaseState(1, 0.5, 0.0, 0.0, 1.0), max_reflections=2.5)
        # a numpy integer is an integer
        assert len(simulate(TABLE, PhaseState(1, 0.5, 0.0, 0.0, 1.0), max_reflections=np.int64(3))) == 3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("component", range(4))
    def test_non_finite_initial_state_rejected(self, component, value):
        row = [0.5, 0.0, 0.1, 0.2]
        row[component] = value
        with pytest.raises(ValidationError, match="initial state must be finite"):
            simulate(TABLE, PhaseState(1, *row), max_reflections=3)

    @pytest.mark.parametrize("max_reflections", [None, 5])
    def test_int_max_time_past_the_float_range_rejected(self, max_reflections):
        # float() of such an int overflows; an int within the range cuts as its float
        start = PhaseState(1, 0.5, 0.0, 0.0, 1.0)
        with pytest.raises(ValidationError, match=r"^max_time must be positive and finite, got 1000"):
            simulate(TABLE, start, max_reflections, max_time=10**400)
        assert simulate(TABLE, start, max_time=3) == simulate(TABLE, start, max_time=3.0)
        huge = int(sys.float_info.max)
        assert simulate(TABLE, start, 5, max_time=huge) == simulate(TABLE, start, 5)

    @pytest.mark.parametrize("max_time", [1e15, 1e30])
    def test_max_time_beyond_memory_rejected(self, max_time):
        # at 1e30, t0 + j*t_r cannot tell j from j + 1: counting the hits one
        # by one would never end
        start = PhaseState(1, 0.5, 0.0, 0.0, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"wall hits .*max_time=.*physical memory"):
                simulate(TABLE, start, max_time=max_time)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        # fewer reflections than max_time holds still stop the run
        traj = simulate(TABLE, start, max_reflections=5, max_time=max_time)
        assert (len(traj), traj.stop_reason) == (5, "reflections")

    @pytest.mark.parametrize("row", [(0.5, 0.0, 0.0, 1e160), (0.5, 0.0, 1e154, 1e154)])
    def test_overflowing_h_or_f_rejected(self, row):
        with pytest.raises(ValidationError, match="H and F of the initial state must be finite"):
            simulate(TABLE, PhaseState(1, *row), max_reflections=3)

    def test_per_segment_conservation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            start = random_interior_state(rng)
            traj = simulate(TABLE, start, max_reflections=20)
            (h0, f0), (h1, f1) = h_and_f(*traj.start.T, K), h_and_f(*traj.end.T, K)
            assert np.abs(h0 - h1).max() < 1e-12
            assert np.abs(f0 - f1).max() < 1e-12


class TestSegmentMinRadius:
    def test_matches_dense_sampling(self):
        # oracle: the least r^2 over 2048 equal time steps of the segment;
        # the states cover both signs of a.b = (r^2 - |v/w|^2)/4
        rng = np.random.default_rng(5)
        for _ in range(100):
            start = random_interior_state(rng)
            traj = simulate(TABLE, start, max_reflections=1)
            x, y = sampled_states(traj, K, 2048)[0, :, :2].T
            sampled = (x * x + y * y).min()
            closed = segment_min_radii(traj, K)[0] ** 2
            assert sampled - 1e-6 <= closed <= sampled + 1e-12


class TestNearDegenerateStarts:
    """Wall hits stay on the wall near the stable manifold and near grazing."""

    def test_near_stable_manifold_reflects(self):
        table = BookTable(k=-1.0, sheets=3)
        traj = simulate(table, PhaseState(1, 0.5, 0.0, -0.5 + 1e-6, 0.0), max_reflections=3)
        assert traj.reflections == len(traj) == 3
        assert worst_wall_residual(traj) <= 1e-12

    @given(
        k=st.sampled_from(KS),
        sheets=st.sampled_from((1, 3)),
        log_vn=st.floats(-11.0, -6.0),
    )
    @example(k=-1.0, sheets=1, log_vn=-9.0)
    def test_near_grazing_family(self, k, sheets, log_vn):
        start = PhaseState(1, 1.0, 0.0, -(10.0**log_vn), 1.0)
        traj = simulate(BookTable(k=k, sheets=sheets), start, max_reflections=10)
        assert traj.reflections == len(traj) == 10
        assert worst_wall_residual(traj) <= 1e-12

    @given(
        k=st.sampled_from(KS),
        log_eps=st.floats(-12.0, -3.0),
        r=st.floats(0.05, 0.95),
        ang=st.floats(0.0, 2.0 * math.pi),
    )
    def test_near_stable_manifold_family(self, k, log_eps, r, ang):
        # v = -w x (1 - eps): the inbound ray just off the stable manifold
        x, y = r * math.cos(ang), r * math.sin(ang)
        slope = -math.sqrt(-k) * (1.0 - 10.0**log_eps)
        start = PhaseState(1, x, y, slope * x, slope * y)
        traj = simulate(BookTable(k=k, sheets=3), start, max_reflections=3)
        assert traj.reflections == len(traj) == 3
        assert worst_wall_residual(traj) <= 1e-12

    def test_long_orbit_hit_is_a_valid_start(self):
        table = BookTable(k=-4.0, sheets=3)
        start = PhaseState(3, -3.2e-4, 0.0504, -2.96e-3, 0.0377)
        traj = simulate(table, start, max_reflections=2000)
        assert worst_wall_residual(traj) <= 1e-12
        last_hit = PhaseState(traj.sheet[-1], *traj.end[-1].tolist())
        assert simulate(table, reflect(table, last_hit), max_reflections=1).reflections == 1


class TestBounceMap:
    """simulate() against the event-driven reference stepper."""

    def test_matches_event_driven_stepper(self):
        rng = np.random.default_rng(6)
        worst_state = worst_duration = 0.0
        for k in KS:
            for sheets in (1, 2, 3, 5):
                table = BookTable(k=k, sheets=sheets)
                s = random_interior_state(rng)
                start = PhaseState(int(rng.integers(1, sheets + 1)), s.x, s.y, s.vx, s.vy)
                t_r = simulate(table, start, max_reflections=2).duration[1]
                for stop, reason in (
                    ({"max_reflections": 1000}, "reflections"),
                    ({"max_time": rng.uniform(200.0, 400.0) * t_r}, "time"),
                ):
                    traj = simulate(table, start, **stop)
                    ref = event_driven(table, start, **stop)
                    assert (traj.stop_reason, traj.reflections, len(traj)) == (
                        reason, ref.reflections, len(ref)
                    )
                    assert ref.stop_reason == reason and np.array_equal(traj.sheet, ref.sheet)
                    for got, want in ((traj.start, ref.start), (traj.end, ref.end)):
                        worst_state = max(worst_state, np.abs(got - want).max())
                    # a max_time cut lasts max_time minus the last hit's time,
                    # which the stepper sums hit by hit: it is held like the states
                    arcs = traj.reflections
                    worst_duration = max(
                        worst_duration, np.abs(traj.duration[:arcs] - ref.duration[:arcs]).max()
                    )
                    worst_state = max(
                        worst_state, np.abs(traj.duration[arcs:] - ref.duration[arcs:]).max(initial=0.0)
                    )
        assert worst_state <= 1e-9
        assert worst_duration <= 1e-12

    def test_no_drift_over_a_million_reflections(self):
        k = -4.0
        table = BookTable(k=k, sheets=3)
        start = PhaseState(2, 0.2, -0.4, 0.9, 0.3)
        traj = simulate(table, start, max_reflections=1_000_000)
        assert len(traj) == traj.reflections == 1_000_000
        ref = momentum_map(start, k)
        for column in (traj.start, traj.end):
            x, y, vx, vy = column.T
            h = 0.5 * (vx * vx + vy * vy) + 0.5 * k * (x * x + y * y)
            f = x * vy - y * vx
            assert np.abs(h - ref.h).max() <= 1e-12
            assert np.abs(f - ref.f).max() <= 1e-12

    def test_each_start_is_the_reflection_of_the_previous_hit(self):
        table = BookTable(k=-4.0, sheets=5)
        traj = simulate(table, PhaseState(2, 0.2, -0.4, 0.9, 0.3), max_reflections=5000)
        # the hits come _CHUNK at a time: the rows on each side of a block's edge too
        for j in (1, 2, 3, 1000, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 4999):
            # a run's own sheet, a numpy integer, is a sheet
            hit = PhaseState(traj.sheet[j - 1], *traj.end[j - 1].tolist())
            assert reflect(table, hit) == PhaseState(traj.sheet[j], *traj.start[j].tolist())

    def test_block_edges_change_no_row(self):
        # a reflection-stopped run and a max_time tail, both in the third block
        table, start = BookTable(k=-1.0, sheets=3), PhaseState(2, 0.2, -0.4, 0.9, 0.3)
        head, t_r = simulate(table, start, max_reflections=2).duration
        runs = (
            simulate(table, start, max_reflections=2 * _CHUNK + 3),
            simulate(table, start, max_time=head + (2 * _CHUNK + 0.5) * t_r),
        )
        assert [(len(t), t.reflections, t.stop_reason) for t in runs] == [
            (2 * _CHUNK + 3, 2 * _CHUNK + 3, "reflections"),
            (2 * _CHUNK + 2, 2 * _CHUNK + 1, "time"),
        ]
        for m in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
            short = simulate(table, start, max_reflections=m)
            assert all(first_rows(traj, m) == short for traj in runs)
        for traj in runs:
            # each hit is the one before turned by the same angle, across the
            # block edges too
            hits = traj.end[: traj.reflections, 0] + 1j * traj.end[: traj.reflections, 1]
            turns = hits[1:] * hits[:-1].conj()
            assert np.abs(turns - turns[0]).max() <= 1e-12
            # every start after the first sits on the previous hit, bit for bit
            assert (traj.start[1:, :2].view(np.uint64) == traj.end[:-1, :2].view(np.uint64)).all()

    def test_first_block_turns_the_first_hit(self):
        # a run of one block keeps the bits of one turn of the hit per row
        table, start = BookTable(k=-4.0, sheets=3), PhaseState(2, 0.2, -0.4, 0.9, 0.3)
        hit, dphi = first_hit_and_turn(table, start)
        traj = simulate(table, start, max_reflections=_CHUNK)
        expected = turned_hits(hit, dphi, np.arange(_CHUNK))
        assert (traj.end.view(np.uint64) == expected.view(np.uint64)).all()

    def test_block_edges_of_a_long_run_match_one_turn_per_hit(self):
        # a later block turns the hit twice, by lo*dphi and then from the shared
        # table; both forms round j*dphi, so they part by eps times the angle
        table, start = BookTable(k=-4.0, sheets=3), PhaseState(2, 0.2, -0.4, 0.9, 0.3)
        hit, dphi = first_hit_and_turn(table, start)
        traj = simulate(table, start, max_reflections=1_000_000)
        lo = np.arange(_CHUNK, 1_000_000, _CHUNK)
        j = np.concatenate((lo - 1, lo))
        bound = 64 * np.finfo(float).eps * np.maximum(1.0, j * abs(dphi))
        assert (np.abs(traj.end[j] - turned_hits(hit, dphi, j)) <= bound[:, None]).all()

    def test_memory_peak_is_the_columns(self):
        table = BookTable(k=-1.0, sheets=3)
        tracemalloc.start()
        try:
            traj = simulate(table, PhaseState(2, 0.2, -0.4, 0.9, 0.3), max_reflections=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(getattr(traj, column).nbytes for column in Trajectory._COLUMNS)
        assert peak <= 1.1 * columns

    def test_every_sheet_comes_from_next_sheet(self, monkeypatch):
        # a gluing that skips a sheet reaches every row, past the first full arc too
        table, start = BookTable(k=K, sheets=5), PhaseState(1, 0.3, 0.1, 0.4, -0.7)
        assert simulate(table, start, max_reflections=8).sheet.tolist() == [1, 2, 3, 4, 5, 1, 2, 3]
        glue = BookTable.next_sheet

        def skipping(self, sheet, steps=1):
            return glue(self, sheet, 2 * steps)

        monkeypatch.setattr(BookTable, "next_sheet", skipping)
        assert simulate(table, start, max_reflections=8).sheet.tolist() == [1, 3, 5, 2, 4, 1, 3, 5]

    def test_memory_does_not_grow_with_the_sheet_count(self):
        n = 10**12
        tracemalloc.start()
        try:
            table, start = BookTable(k=K, sheets=n), PhaseState(n, 0.3, 0.1, 0.4, -0.7)
            traj = simulate(table, start, max_reflections=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.sheet.tolist() == [n, 1, 2]
        assert peak < 64_000

    def test_sequence_protocol(self):
        table = BookTable(k=K, sheets=3)
        start = PhaseState(1, 0.5, 0.0, 0.0, 1.0)
        # 1 reflection stops at the head arc, 7 come from the bounce map
        for reflections in (1, 7):
            traj = simulate(table, start, max_reflections=reflections)
            segments = list(traj)
            assert isinstance(traj, Sequence) and isinstance(traj, Trajectory)
            # equal runs are equal and hash as the tuple of their segments
            again = simulate(table, start, max_reflections=reflections)
            assert again == traj and hash(again) == hash(traj) == hash(tuple(segments))
            assert traj != simulate(table, start, max_reflections=reflections + 1)
            assert traj != simulate(table, time_reversed(start), max_reflections=reflections)
            assert len(traj) == len(segments) == reflections
            assert traj.start.shape == traj.end.shape == (reflections, 4)
            assert list(traj.sheet) == [seg.start.sheet for seg in segments]
            assert list(traj.duration) == [seg.duration for seg in segments]
            assert traj[-1] == segments[-1] == traj[reflections - 1]
            assert traj[-reflections] == segments[0]
            assert traj[1:] == segments[1:] and traj[::-2] == segments[::-2]
            assert traj[5:1] == []
            for index in (reflections, -reflections - 1):
                with pytest.raises(IndexError):
                    traj[index]
            for seg in segments:
                assert type(seg.start.sheet) is int and type(seg.duration) is float
                assert {type(v) for v in (seg.end.x, seg.end.y, seg.end.vx, seg.end.vy)} == {float}

    def test_iteration_matches_indexing(self):
        # iteration reuses a row's floats in the next row only where they are
        # bit for bit the same; here only rows 2 and 4 continue the row before
        rng = np.random.default_rng(3)
        start, end = rng.uniform(-1.0, 1.0, (5, 4)), rng.uniform(-1.0, 1.0, (5, 4))
        start[2, :2], start[4, :2] = end[1, :2], end[3, :2]
        duration = np.array([0.5, 1.5, 1.5, 2.5, 0.0])
        traj = Trajectory((start, end, np.array([1, 2, 3, 1, 2]), duration), 4, "time")
        assert list(traj) == traj[:]
        assert [seg.start.x for seg in traj] == start[:, 0].tolist()

    def test_one_reflection_is_the_head_arc(self):
        start = PhaseState(1, 0.3, 0.1, 0.5, 0.7)
        traj = simulate(BookTable(k=K, sheets=2), start, max_reflections=1)
        assert traj == event_driven(BookTable(k=K, sheets=2), start, max_reflections=1)
        assert traj.reflections == 1 and traj.stop_reason == "reflections"


GRAZE = PhaseState(1, 1.0, 0.0, -1e-12, 0.3)
# the first hit is the start itself, at v.n = GRAZING_TOL; the second comes out below it
GRAZE_SECOND = PhaseState(1, 1.0, 0.0, 1e-12, 0.7)
HEAD = PhaseState(1, 0.5, 0.0, 0.0, 1.0)  # head arc 0.713, full arcs 1.43
EARLY_STOPS = {
    # name: (table, start, stop, (reflections, stop_reason, boundary_orbit, segments))
    "boundary-orbit": (TABLE, PhaseState(1, 1.0, 0.0, 0.0, 0.5), {"max_time": 4.0},
                       (0, "time", True, 1)),
    "no-reflection": (TABLE, HEAD, {"max_reflections": 0}, (0, "reflections", False, 0)),
    "cut-head-arc": (TABLE, HEAD, {"max_time": 0.3}, (0, "time", False, 1)),
    "grazing-first-hit": (TABLE, GRAZE, {"max_reflections": 4}, (0, "grazing", False, 1)),
    "grazing-first-hit-slides": (TABLE, GRAZE, {"max_reflections": 4, "max_time": 5.0},
                                 (0, "grazing", True, 2)),
    "one-reflection": (BookTable(k=K, sheets=2), PhaseState(2, 0.3, 0.1, 0.5, 0.7),
                       {"max_reflections": 1}, (1, "reflections", False, 1)),
    "stable-manifold": (BookTable(k=-4.0, sheets=3),
                        PhaseState(1, 0.034623887808666015, -0.09591432775180372,
                                   -0.06924777561733216, 0.19182865550360778),
                        {"max_reflections": 3}, (1, "stable-manifold", False, 1)),
    "cut-first-arc": (BookTable(k=K, sheets=2), HEAD, {"max_time": 1.4}, (1, "time", False, 2)),
    "grazing-second-hit": (BookTable(k=K, sheets=2), GRAZE_SECOND, {"max_reflections": 4},
                           (1, "grazing", False, 2)),
    "grazing-second-hit-slides": (BookTable(k=K, sheets=2), GRAZE_SECOND, {"max_time": 5.0},
                                  (1, "grazing", True, 3)),
}


@pytest.mark.parametrize("name", EARLY_STOPS)
def test_early_stop_columns(name):
    """Every run that stops within its first full arc, built as columns."""
    table, start, stop, expected = EARLY_STOPS[name]
    traj = simulate(table, start, **stop)
    assert (traj.reflections, traj.stop_reason, traj.boundary_orbit, len(traj)) == expected
    assert traj.start.shape == traj.end.shape == (len(traj), 4)
    assert traj.start.dtype == traj.end.dtype == traj.duration.dtype == np.float64
    assert traj.sheet.dtype == np.dtype(int) and traj.duration.shape == traj.sheet.shape
    # the reflected arcs are the stepper's; so is the whole run, unless it
    # grazes or slides along the wall, which the stepper does not know
    assert first_rows(traj, traj.reflections) == event_driven(table, start, traj.reflections)
    if not (traj.stop_reason == "grazing" or traj.boundary_orbit):
        assert traj == event_driven(table, start, **stop)
    if traj.boundary_orbit:
        assert math.fsum(traj.duration) == pytest.approx(stop["max_time"], abs=1e-12)


@pytest.mark.parametrize("scale", [4.0**-40, 4.0**40])
@pytest.mark.parametrize("name", EARLY_STOPS)
def test_early_stop_is_the_same_run_at_every_k(name, scale):
    """k times a power of 4 scales v by a power of 2 and t by its inverse without rounding, so a
    run whose tests are made in the w = 1 frame is the same run, bit for bit: the grazing hits
    and the boundary critical orbit stop where they stop at k = -1 and -4."""
    table, start, stop, expected = EARLY_STOPS[name]
    w = math.sqrt(scale)
    reference = simulate(table, start, **stop)
    scaled = simulate(
        BookTable(k=table.k * scale, sheets=table.sheets),
        PhaseState(start.sheet, start.x, start.y, start.vx * w, start.vy * w),
        **{key: value / w if key == "max_time" else value for key, value in stop.items()},
    )
    assert (scaled.reflections, scaled.stop_reason, scaled.boundary_orbit, len(scaled)) == expected
    for got, want in ((scaled.start, reference.start), (scaled.end, reference.end)):
        assert np.array_equal(got[:, :2], want[:, :2]) and np.array_equal(got[:, 2:] / w, want[:, 2:])
    assert np.array_equal(scaled.duration * w, reference.duration)
    assert np.array_equal(scaled.sheet, reference.sheet)


def test_wall_tests_are_made_in_the_w_1_frame():
    # at k = -1e-20 (w = 1e-10) a wall speed of 2e-23 is the boundary critical orbit, 2e-21
    # is not, and reflect() takes an inward speed of 5e-23 for rounding but refuses 2e-22
    table = BookTable(k=-1e-20, sheets=2)
    with pytest.raises(ValidationError, match="boundary critical orbit never reflects"):
        simulate(table, PhaseState(1, 1.0, 0.0, -2e-23, 3e-11), max_reflections=3)
    traj = simulate(table, PhaseState(1, 1.0, 0.0, -2e-21, 3e-11), max_reflections=3)
    assert (traj.stop_reason, traj.reflections) == ("reflections", 3)
    assert reflect(table, PhaseState(1, 1.0, 0.0, -5e-23, 3e-11)).vx == 5e-23
    with pytest.raises(ValidationError, match="nonnegative outward velocity"):
        reflect(table, PhaseState(1, 1.0, 0.0, -2e-22, 3e-11))


@given(
    k=st.sampled_from(KS),
    sheets=st.sampled_from((1, 2, 3, 5)),
    r=st.floats(0.0, 0.97),
    ang=st.floats(0.0, 2.0 * math.pi),
    speed=st.floats(0.1, 2.0),
    heading=st.floats(0.0, 2.0 * math.pi),
    max_reflections=st.sampled_from((None, 0, 1, 2, 3)),
    cut=st.none() | st.floats(0.0, 0.999, exclude_min=True),
)
def test_head_stops_come_in_time_order(k, sheets, r, ang, speed, heading, max_reflections, cut):
    """simulate() against the stepper on runs stopped before the third wall hit: max_time
    falls anywhere in (0, t0 + 2 T_r), and it and max_reflections stop the run in time order.

    An orbit at (h, f) = (0, 0) to rounding, the separatrix of the equilibrium, has no bounded
    T_r: past the head, the stepper's arcs and the turned hits part, so such starts are left
    to the stable-manifold tests.
    """
    assume(max_reflections is not None or cut is not None)
    table = BookTable(k=k, sheets=sheets)
    x, y = r * math.cos(ang), r * math.sin(ang)
    start = PhaseState(sheets, x, y, speed * math.cos(heading), speed * math.sin(heading))
    mv = momentum_map(start, k)
    assume(max(abs(mv.h) / -k, abs(mv.f) / math.sqrt(-k)) > 1e-6)
    t0, t_r = event_driven(table, start, 2).duration
    max_time = None if cut is None else cut * (t0 + 2.0 * t_r)
    traj = simulate(table, start, max_reflections, max_time)
    ref = event_driven(table, start, max_reflections, max_time)
    assert (traj.reflections, traj.stop_reason, traj.boundary_orbit) == (
        ref.reflections, ref.stop_reason, ref.boundary_orbit
    )
    if traj.reflections < 2:
        # the run stopped in the head: every row is the stepper's arithmetic
        assert traj == ref
    else:
        # hit 1 on is the first hit turned by dphi, held to the stepper by TestBounceMap;
        # what the head solved, up to the second hit, and a cut's length are exact
        assert first_rows(traj, 1) == first_rows(ref, 1) and np.array_equal(traj.sheet, ref.sheet)
        assert np.array_equal(traj.start[1], ref.start[1]) and traj.duration[1] == ref.duration[1]
        assert traj.stop_reason != "time" or traj.duration[-1] == ref.duration[-1]


@given(
    p=st.integers(-10, 10),
    sheets=st.integers(1, 5),
    r=st.floats(1e-300, 1.0, exclude_max=True),
    ang=st.floats(0.0, 2.0 * math.pi),
    outbound=st.booleans(),
    max_reflections=st.sampled_from((None, 0, 1, 2, 3)),
    wt=st.none() | st.floats(1e-3, 10.0),
)
@example(p=0, sheets=3, r=0.5, ang=0.0, outbound=False, max_reflections=None, wt=3.0)
@example(p=0, sheets=3, r=0.0, ang=0.0, outbound=True, max_reflections=3, wt=None)
def test_exact_separatrix(p, sheets, r, ang, outbound, max_reflections, wt):
    """Starts with v = w x (outbound, b = 0) or v = -w x (inbound, a = 0) exactly: w = 2^p
    makes both exact in floats. An inbound start, the rest state among them, lies on the stable
    manifold and stops at once. An outbound start lies on the unstable ray, whose reflection lies
    on the stable ray: it stops there, after its head arc and 1 reflection. max_reflections and
    max_time stop either run first where they come first, and no run flows along the ray."""
    assume(max_reflections is not None or wt is not None)
    w = 2.0**p
    table = BookTable(k=-w * w, sheets=sheets)
    x, y = r * math.cos(ang), r * math.sin(ang)
    sign = 1.0 if outbound else -1.0
    start = PhaseState(sheets, x, y, sign * w * x, sign * w * y)
    # w x is exact unless it falls below the normal float range, where it is rounded
    assume(start.vx / w == sign * x and start.vy / w == sign * y)
    max_time = None if wt is None else wt / w
    traj = simulate(table, start, max_reflections, max_time)
    if max_reflections == 0:
        expected = (0, "reflections", 0)
    elif not outbound or x == y == 0.0:
        expected = (0, "stable-manifold", 0)
    elif max_time is not None and event_driven(table, start, 1).duration[0] >= max_time:
        expected = (0, "time", 1)
    elif max_reflections == 1:
        expected = (1, "reflections", 1)
    else:
        expected = (1, "stable-manifold", 1)
    assert (traj.reflections, traj.stop_reason, len(traj)) == expected
    assert not traj.boundary_orbit
    if expected[1] == "stable-manifold" and expected[0] == 1:
        # the stepper's reflection lies on the stable ray only to rounding, so it goes on
        assert first_rows(traj, 1) == event_driven(table, start, 1)
    else:
        assert traj == event_driven(table, start, max_reflections, max_time)


class TestStopReason:
    def test_reflections_and_time(self):
        start = PhaseState(1, 0.5, 0.0, 0.0, 1.0)
        head, arc = simulate(TABLE, start, max_reflections=2).duration
        assert simulate(TABLE, start, max_reflections=0) == event_driven(TABLE, start, 0)
        assert simulate(TABLE, start, max_reflections=40, max_time=1e6).stop_reason == "reflections"
        # cut inside the head arc, inside the first full arc, and later
        for max_time in (0.5 * head, head + 0.5 * arc, 50.0):
            traj = simulate(TABLE, start, max_time=max_time)
            assert traj.stop_reason == "time" and traj.reflections == len(traj) - 1
            assert math.fsum(traj.duration) == pytest.approx(max_time, abs=1e-12)
            if max_time < head + arc:
                assert traj == event_driven(TABLE, start, max_time=max_time)

    @pytest.mark.parametrize("t0,t_r,max_time,count", [
        # ceil((max_time - t0)/t_r) gives 242 and 138: one too many, one too few
        ("0x1.0c67fd3611240p-3", "0x1.1b01e0bc4e88ep-3", "0x1.0b792c8e7c000p+5", 241),
        ("0x1.347f8263d98bep-1", "0x1.84fc28969e65fp-3", "0x1.ad03d7d581925p+4", 139),
    ])
    def test_hit_count_is_exact_where_the_quotient_rounds_wrong(self, t0, t_r, max_time, count):
        t0, t_r, max_time = map(float.fromhex, (t0, t_r, max_time))
        hits, tail = _hit_count(t0, t_r, None, max_time)
        assert hits == count
        assert t0 + (hits - 1) * t_r < max_time <= t0 + hits * t_r
        assert tail == max_time - (t0 + (hits - 1) * t_r)

    def test_reflection_onto_the_stable_manifold(self):
        # (h, f) = (0, 0) to rounding: the first hit reflects v = w x exactly
        # onto v = -w x, which falls into the equilibrium and never hits again
        table = BookTable(k=-4.0, sheets=3)
        start = PhaseState(
            1, 0.034623887808666015, -0.09591432775180372,
            -0.06924777561733216, 0.19182865550360778,
        )
        traj = simulate(table, start, max_reflections=3)
        assert traj.stop_reason == "stable-manifold" and traj.reflections == len(traj) == 1
        assert traj == event_driven(table, start, max_reflections=3)
        reflected = reflect(table, PhaseState(1, *traj.end[0].tolist()))
        again = simulate(table, reflected, max_reflections=1)
        assert (again.reflections, again.stop_reason, len(again)) == (0, "stable-manifold", 0)

    def test_first_hit_off_the_wall_is_a_convergence_failure(self):
        # at |v|/w = 1e6 the wall-hit time loses digits, so the hit misses
        # the wall; that is the solver's failure, not bad input
        start = PhaseState(1, 0.3, 0.1, 6e5, -8e5)
        with pytest.raises(ConvergenceError, match=r"off the wall: \|r\^2 - 1\| = \d\.\d+e-\d+$"):
            simulate(TABLE, start, max_reflections=10)

    def test_tiny_light_cone_half_reflects(self):
        # |a| = 5e-171, whose square underflows: a is not 0, so the start is off the stable manifold
        traj = simulate(TABLE, PhaseState(1, 1e-170, 0.5, 0.0, -0.5), max_reflections=1)
        assert (traj.reflections, traj.stop_reason) == (1, "reflections")
        assert traj.duration[0] == pytest.approx(math.log(2e170), rel=1e-14)  # 392.1326

    def test_subnormal_light_cone_half_is_a_convergence_failure(self):
        # |a| = 5e-311: the wall hit comes at t = ln(2/x) = 714.49, past the float range of
        # exp(t); a max_time cut before the hit is made as long as exp(t) is a float
        start = PhaseState(1, 1e-310, 0.5, 0.0, -0.5)
        for stop in ({"max_reflections": 1}, {"max_time": 712.0}):
            with pytest.raises(ConvergenceError, match=r"x=1e-310, .* for t=7\d\d\.\d+ passes"):
                simulate(TABLE, start, **stop)
        traj = simulate(TABLE, start, max_time=709.0)
        assert (traj.reflections, traj.stop_reason, traj.duration.tolist()) == (0, "time", [709.0])

    def test_initial_state_on_the_stable_manifold_stops_at_once(self):
        # with or without max_time: the run does not flow along the ray
        stops = ({"max_reflections": 3}, {"max_time": 3.0}, {"max_reflections": 3, "max_time": 1e-3})
        for stop in stops:
            traj = simulate(TABLE, PhaseState(1, 0.5, 0.0, -0.5, 0.0), **stop)
            assert (traj.reflections, traj.stop_reason, len(traj)) == (0, "stable-manifold", 0)

    def test_critical_orbit_decided_by_the_wall_speed(self):
        # (h, f) 2e-10 above the parabola: the orbit meets the wall at
        # v.n = 2e-5, although the start's own v.n is 0
        table = BookTable(k=-1.0, sheets=1)
        traj = simulate(table, PhaseState(1, 1.0 - 1e-10, 0.0, 0.0, 1.0), max_reflections=5)
        assert traj.reflections == len(traj) == 5
        x, y, vx, vy = traj.end[1]
        assert x * vx + y * vy == pytest.approx(2e-5, rel=1e-4)
        on_wall = simulate(table, PhaseState(1, 1.0, 0.0, 0.0, 1.0), max_time=3.0)
        assert len(on_wall) == 1 and on_wall.boundary_orbit
        assert on_wall.stop_reason == "time"

    def test_grazing_hit_ends_the_reflections(self):
        # the wall speed is GRAZING_TOL itself, and the hit comes out a hair below it
        start = PhaseState(1, 1.0, 0.0, -1e-12, 0.3)
        traj = simulate(TABLE, start, max_reflections=4)
        assert traj.stop_reason == "grazing" and (traj.reflections, len(traj)) == (0, 1)
        timed = simulate(TABLE, start, max_reflections=4, max_time=5.0)
        assert timed.stop_reason == "grazing" and timed.boundary_orbit
        assert math.fsum(timed.duration) == pytest.approx(5.0, abs=1e-12)
