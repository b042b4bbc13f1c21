import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from billiardbook import (
    BookTable,
    PhaseState,
    Trajectory,
    TrajectorySegment,
    ValidationError,
    flow_free,
    inner_radius,
    momentum_map,
    reflect,
    sample_segment,
    simulate,
    time_to_boundary,
)
from billiardbook.dynamics import _CHUNK

K = -1.0
KS = (-0.25, -1.0, -4.0)
TABLE = BookTable(k=K, sheets=1)


def random_interior_state(rng, v_max=2.0):
    r = 0.97 * math.sqrt(rng.uniform())
    ang = rng.uniform(0.0, 2.0 * math.pi)
    vx, vy = rng.uniform(-v_max, v_max, size=2)
    return PhaseState(1, r * math.cos(ang), r * math.sin(ang), vx, vy)


def worst_wall_residual(segments):
    return max(abs(seg.end.r2 - 1.0) for seg in segments if seg.reflected)


def event_driven(table, state, max_reflections=None, max_time=None):
    """Reference stepper: time_to_boundary, flow_free and reflect, one hit at a time.

    Each arc starts from the reflection of the previous hit, so its rounding
    error builds on all earlier ones; it is the independent oracle of the
    closed-form bounce map in simulate().
    """
    segments, t = [], 0.0
    while max_reflections is None or len(segments) < max_reflections:
        dt = time_to_boundary(state, table.k)
        if max_time is not None and t + dt >= max_time:
            end = flow_free(state, max_time - t, table.k)
            segments.append(TrajectorySegment(state, max_time - t, end, reflected=False))
            break
        end = flow_free(state, dt, table.k)
        segments.append(TrajectorySegment(state, dt, end, reflected=True))
        state = reflect(table, end)
        t += dt
    return segments


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

    def test_rest_at_origin_rejected(self):
        with pytest.raises(ValidationError):
            time_to_boundary(PhaseState(1, 0.0, 0.0, 0.0, 0.0), K)

    def test_stable_manifold_detected(self):
        # v = -omega * r flows into the equilibrium, never reaching the wall
        with pytest.raises(ValidationError):
            time_to_boundary(PhaseState(1, 0.5, 0.0, -0.5, 0.0), K)

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
        segments = simulate(table, PhaseState(1, 0.5, 0.0, 0.0, 1.0), max_reflections=9)
        assert [s.start.sheet for s in segments] == [1, 2, 3, 1, 2, 3, 1, 2, 3]

    def test_conservation_drift_stays_small(self):
        start = PhaseState(1, 0.5, 0.0, 0.0, 1.0)
        segments = simulate(TABLE, start, max_reflections=2000)
        ref = momentum_map(start, K)
        for seg in segments:
            mv = momentum_map(seg.end, K)
            assert abs(mv.h - ref.h) < 1e-10
            assert abs(mv.f - ref.f) < 1e-10

    def test_orbit_confined_to_annulus(self):
        start = PhaseState(1, 0.5, 0.0, 0.0, 1.0)
        mv = momentum_map(start, K)
        r0 = inner_radius(mv.h, mv.f, K)
        segments = simulate(TABLE, start, max_reflections=500)
        min_r = segment_min_radii(segments, K).min()
        assert min_r >= r0 - 1e-9
        # the radial turning point is reached every radial period
        assert min_r == pytest.approx(r0, abs=1e-6)
        assert max(seg.end.r2 for seg in segments) <= 1.0 + 1e-12

    def test_angle_monotone_with_sign_of_f(self):
        for sign in (+1.0, -1.0):
            start = PhaseState(1, 0.5, 0.0, 0.0, sign * 1.0)
            segments = simulate(TABLE, start, max_reflections=50)
            for seg in segments:
                states = sample_segment(seg, K, 32)
                angles = np.unwrap([math.atan2(s.y, s.x) for s in states])
                diffs = np.diff(angles)
                assert np.all(sign * diffs >= -1e-12)

    def test_time_reversal_reverses_path_and_negates_f(self):
        start = PhaseState(1, 0.4, 0.1, 0.3, 1.1)
        fwd = simulate(TABLE, start, max_reflections=10)
        total = sum(seg.duration for seg in fwd)
        end = fwd[-1].end
        back = simulate(TABLE, time_reversed(end), max_time=total)
        assert momentum_map(time_reversed(end), K).f == pytest.approx(
            -momentum_map(start, K).f, abs=1e-12
        )
        final = back[-1].end
        assert final.x == pytest.approx(start.x, abs=1e-8)
        assert final.y == pytest.approx(start.y, abs=1e-8)
        assert final.vx == pytest.approx(-start.vx, abs=1e-8)
        assert final.vy == pytest.approx(-start.vy, abs=1e-8)

    def test_max_time_cuts_last_segment(self):
        segments = simulate(TABLE, PhaseState(1, 0.5, 0.0, 0.0, 1.0), max_time=2.5)
        assert sum(seg.duration for seg in segments) == pytest.approx(2.5, abs=1e-12)
        assert not segments[-1].reflected

    def test_boundary_tangential_state_is_critical_orbit(self):
        # (h, f) on the parabola: the region of motion is the wall circle
        segments = simulate(TABLE, PhaseState(1, 1.0, 0.0, 0.0, 0.5), max_time=4.0)
        assert len(segments) == 1
        assert segments[0].boundary_orbit
        for state in sample_segment(segments[0], K, 64):
            assert math.sqrt(state.r2) == pytest.approx(1.0, abs=1e-12)
        # angular speed on the wall equals f
        end = segments[0].end
        assert math.atan2(end.y, end.x) == pytest.approx(0.5 * 4.0, abs=1e-12)

    def test_sheet_off_the_book_rejected(self):
        table = BookTable(k=K, sheets=3)
        for sheet in (0, 4):
            with pytest.raises(ValidationError, match="sheet"):
                simulate(table, PhaseState(sheet, 0.5, 0.0, 0.0, 1.0), max_reflections=1)

    def test_rest_state_at_origin_reported_not_propagated(self):
        with pytest.raises(ValidationError, match="focus-focus"):
            simulate(TABLE, PhaseState(1, 0.0, 0.0, 0.0, 0.0), max_reflections=1)

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
            for seg in simulate(TABLE, start, max_reflections=20):
                a = momentum_map(seg.start, K)
                b = momentum_map(seg.end, K)
                assert abs(a.h - b.h) < 1e-12
                assert abs(a.f - b.f) < 1e-12


class TestSegmentMinRadius:
    def test_matches_dense_sampling(self):
        # oracle: the least r^2 over 2048 equal time steps of the segment;
        # the states cover both signs of a.b = (r^2 - |v/w|^2)/4
        rng = np.random.default_rng(5)
        for _ in range(100):
            start = random_interior_state(rng)
            traj = simulate(TABLE, start, max_reflections=1)
            sampled = min(s.r2 for s in sample_segment(traj[0], K, 2048))
            closed = segment_min_radii(traj, K)[0] ** 2
            assert sampled - 1e-6 <= closed <= sampled + 1e-12


class TestNearDegenerateStarts:
    """Wall hits stay on the wall near the stable manifold and near grazing."""

    def test_near_stable_manifold_reflects(self):
        table = BookTable(k=-1.0, sheets=3)
        segments = simulate(table, PhaseState(1, 0.5, 0.0, -0.5 + 1e-6, 0.0), max_reflections=3)
        assert [seg.reflected for seg in segments] == [True] * 3
        assert worst_wall_residual(segments) <= 1e-12

    @given(
        k=st.sampled_from(KS),
        sheets=st.sampled_from((1, 3)),
        log_vn=st.floats(-11.0, -6.0),
    )
    @example(k=-1.0, sheets=1, log_vn=-9.0)
    def test_near_grazing_family(self, k, sheets, log_vn):
        start = PhaseState(1, 1.0, 0.0, -(10.0**log_vn), 1.0)
        segments = simulate(BookTable(k=k, sheets=sheets), start, max_reflections=10)
        assert [seg.reflected for seg in segments] == [True] * 10
        assert worst_wall_residual(segments) <= 1e-12

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
        segments = simulate(BookTable(k=k, sheets=3), start, max_reflections=3)
        assert [seg.reflected for seg in segments] == [True] * 3
        assert worst_wall_residual(segments) <= 1e-12

    def test_long_orbit_hit_is_a_valid_start(self):
        table = BookTable(k=-4.0, sheets=3)
        start = PhaseState(3, -3.2e-4, 0.0504, -2.96e-3, 0.0377)
        segments = simulate(table, start, max_reflections=2000)
        assert worst_wall_residual(segments) <= 1e-12
        restart = simulate(table, reflect(table, segments[-1].end), max_reflections=1)
        assert restart[0].reflected


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
                t_r = simulate(table, start, max_reflections=2)[1].duration
                for stop, reason in (
                    ({"max_reflections": 1000}, "reflections"),
                    ({"max_time": rng.uniform(200.0, 400.0) * t_r}, "time"),
                ):
                    traj = simulate(table, start, **stop)
                    ref = event_driven(table, start, **stop)
                    assert traj.stop_reason == reason
                    assert [seg.reflected for seg in traj] == [seg.reflected for seg in ref]
                    assert list(traj.sheet) == [seg.start.sheet for seg in ref]
                    for column, side in ((traj.start, "start"), (traj.end, "end")):
                        expected = np.array([state_row(getattr(seg, side)) for seg in ref])
                        worst_state = max(worst_state, np.abs(column - expected).max())
                    # a max_time cut lasts max_time minus the last hit's time,
                    # which the stepper sums hit by hit: it is held like the states
                    arcs = traj.reflections
                    durations = np.array([seg.duration for seg in ref])
                    worst_duration = max(
                        worst_duration, np.abs(traj.duration[:arcs] - durations[:arcs]).max()
                    )
                    worst_state = max(
                        worst_state, np.abs(traj.duration[arcs:] - durations[arcs:]).max(initial=0.0)
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
            assert reflect(table, traj[j - 1].end) == traj[j].start

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
            for traj in runs:
                for column in Trajectory._COLUMNS:
                    assert np.array_equal(getattr(traj, column)[:m], getattr(short, column))
        for traj in runs:
            # each hit is the one before turned by the same angle, across the
            # block edges too
            hits = traj.end[: traj.reflections, 0] + 1j * traj.end[: traj.reflections, 1]
            turns = hits[1:] * hits[:-1].conj()
            assert np.abs(turns - turns[0]).max() <= 1e-12
            # every start after the first sits on the previous hit, bit for bit
            assert (traj.start[1:, :2].view(np.uint64) == traj.end[:-1, :2].view(np.uint64)).all()

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
        assert list(traj) == event_driven(BookTable(k=K, sheets=2), start, max_reflections=1)
        assert traj.reflections == 1 and traj.stop_reason == "reflections"


GRAZE = PhaseState(1, 1.0, 0.0, -1e-12, 0.3)
# the first hit is the start itself, at v.n = GRAZING_TOL; the second comes out below it
GRAZE_SECOND = PhaseState(1, 1.0, 0.0, 1e-12, 0.7)
HEAD = PhaseState(1, 0.5, 0.0, 0.0, 1.0)  # head arc 0.713, full arcs 1.43
EARLY_STOPS = {
    # name: (table, start, stop, (reflections, stop_reason, boundary_orbit, segments),
    #        the event-driven stepper's stop that gives the whole run, if one does)
    "boundary-orbit": (TABLE, PhaseState(1, 1.0, 0.0, 0.0, 0.5), {"max_time": 4.0},
                       (0, "time", True, 1), None),
    "no-reflection": (TABLE, HEAD, {"max_reflections": 0}, (0, "reflections", False, 0),
                      {"max_reflections": 0}),
    "cut-head-arc": (TABLE, HEAD, {"max_time": 0.3}, (0, "time", False, 1), {"max_time": 0.3}),
    "grazing-first-hit": (TABLE, GRAZE, {"max_reflections": 4}, (0, "grazing", False, 1), None),
    "grazing-first-hit-slides": (TABLE, GRAZE, {"max_reflections": 4, "max_time": 5.0},
                                 (0, "grazing", True, 2), None),
    "one-reflection": (BookTable(k=K, sheets=2), PhaseState(2, 0.3, 0.1, 0.5, 0.7),
                       {"max_reflections": 1}, (1, "reflections", False, 1),
                       {"max_reflections": 1}),
    "stable-manifold": (BookTable(k=-4.0, sheets=3),
                        PhaseState(1, 0.034623887808666015, -0.09591432775180372,
                                   -0.06924777561733216, 0.19182865550360778),
                        {"max_reflections": 3}, (1, "stable-manifold", False, 1),
                        {"max_reflections": 1}),
    "cut-first-arc": (BookTable(k=K, sheets=2), HEAD, {"max_time": 1.4},
                      (1, "time", False, 2), {"max_time": 1.4}),
    "grazing-second-hit": (BookTable(k=K, sheets=2), GRAZE_SECOND, {"max_reflections": 4},
                           (1, "grazing", False, 2), None),
    "grazing-second-hit-slides": (BookTable(k=K, sheets=2), GRAZE_SECOND, {"max_time": 5.0},
                                  (1, "grazing", True, 3), None),
}


@pytest.mark.parametrize("name", EARLY_STOPS)
def test_early_stop_columns(name):
    """Every run that stops within its first full arc, built as columns."""
    table, start, stop, expected, whole_run = EARLY_STOPS[name]
    traj = simulate(table, start, **stop)
    assert (traj.reflections, traj.stop_reason, traj.boundary_orbit, len(traj)) == expected
    assert traj.start.shape == traj.end.shape == (len(traj), 4)
    assert traj.start.dtype == traj.end.dtype == traj.duration.dtype == np.float64
    assert traj.sheet.dtype == np.dtype(int) and traj.duration.shape == traj.sheet.shape
    assert list(traj) == traj[:]
    # the reflected arcs are the stepper's; so is the whole run where it can make it
    assert traj[: traj.reflections] == event_driven(table, start, traj.reflections)
    if whole_run is not None:
        assert list(traj) == event_driven(table, start, **whole_run)
    if traj.boundary_orbit:
        assert math.fsum(traj.duration) == pytest.approx(stop["max_time"], abs=1e-12)


class TestStopReason:
    def test_reflections_and_time(self):
        start = PhaseState(1, 0.5, 0.0, 0.0, 1.0)
        head, arc = simulate(TABLE, start, max_reflections=2)
        assert simulate(TABLE, start, max_reflections=0).stop_reason == "reflections"
        assert simulate(TABLE, start, max_reflections=40, max_time=1e6).stop_reason == "reflections"
        # cut inside the head arc, inside the first full arc, and later
        for max_time in (0.5 * head.duration, head.duration + 0.5 * arc.duration, 50.0):
            traj = simulate(TABLE, start, max_time=max_time)
            assert traj.stop_reason == "time"
            assert not traj[-1].reflected and traj.reflections == len(traj) - 1
            assert math.fsum(traj.duration) == pytest.approx(max_time, abs=1e-12)

    def test_reflection_onto_the_stable_manifold(self):
        # (h, f) = (0, 0) to rounding: the first hit reflects v = w x exactly
        # onto v = -w x, which falls into the equilibrium and never hits again
        table = BookTable(k=-4.0, sheets=3)
        start = PhaseState(
            1, 0.034623887808666015, -0.09591432775180372,
            -0.06924777561733216, 0.19182865550360778,
        )
        traj = simulate(table, start, max_reflections=3)
        assert traj.stop_reason == "stable-manifold"
        assert [seg.reflected for seg in traj] == [True]
        with pytest.raises(ValidationError, match="stable manifold"):
            simulate(table, reflect(table, traj[0].end), max_reflections=1)

    def test_initial_state_on_the_stable_manifold_rejected(self):
        with pytest.raises(ValidationError, match="stable manifold"):
            simulate(TABLE, PhaseState(1, 0.5, 0.0, -0.5, 0.0), max_reflections=3)

    def test_critical_orbit_decided_by_the_wall_speed(self):
        # (h, f) 2e-10 above the parabola: the orbit meets the wall at
        # v.n = 2e-5, although the start's own v.n is 0
        table = BookTable(k=-1.0, sheets=1)
        traj = simulate(table, PhaseState(1, 1.0 - 1e-10, 0.0, 0.0, 1.0), max_reflections=5)
        assert [seg.reflected for seg in traj] == [True] * 5
        assert traj[1].end.x * traj[1].end.vx + traj[1].end.y * traj[1].end.vy == pytest.approx(
            2e-5, rel=1e-4
        )
        on_wall = simulate(table, PhaseState(1, 1.0, 0.0, 0.0, 1.0), max_time=3.0)
        assert len(on_wall) == 1 and on_wall[0].boundary_orbit
        assert on_wall.stop_reason == "time"

    def test_grazing_hit_ends_the_reflections(self):
        # the wall speed is GRAZING_TOL itself, and the hit comes out a hair below it
        start = PhaseState(1, 1.0, 0.0, -1e-12, 0.3)
        traj = simulate(TABLE, start, max_reflections=4)
        assert traj.stop_reason == "grazing"
        assert [seg.reflected for seg in traj] == [False]
        timed = simulate(TABLE, start, max_reflections=4, max_time=5.0)
        assert timed.stop_reason == "grazing" and timed[-1].boundary_orbit
        assert math.fsum(timed.duration) == pytest.approx(5.0, abs=1e-12)
