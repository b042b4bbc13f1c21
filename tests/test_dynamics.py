import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from billiardbook import (
    BookTable,
    PhaseState,
    ValidationError,
    flow_free,
    inner_radius,
    momentum_map,
    reflect,
    sample_segment,
    segment_min_radius,
    simulate,
    time_to_boundary,
)

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
            assert abs(end.r - 1.0) < 1e-10
            for j in range(1, 64):
                mid = flow_free(state, t * j / 64.0, K)
                assert mid.r < 1.0 + 1e-12


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
            state = state.reversed()
        once = reflect(table, state)
        # the reflected velocity points inward; flip it to re-reflect
        twice = reflect(table, once.reversed())
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
        min_r = min(segment_min_radius(seg, K) for seg in segments)
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
                angles = np.unwrap([s.phi for s in states])
                diffs = np.diff(angles)
                assert np.all(sign * diffs >= -1e-12)

    def test_time_reversal_reverses_path_and_negates_f(self):
        start = PhaseState(1, 0.4, 0.1, 0.3, 1.1)
        fwd = simulate(TABLE, start, max_reflections=10)
        total = sum(seg.duration for seg in fwd)
        end = fwd[-1].end
        back = simulate(TABLE, end.reversed(), max_time=total)
        assert momentum_map(end.reversed(), K).f == pytest.approx(
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
            assert state.r == pytest.approx(1.0, abs=1e-12)
        # angular speed on the wall equals f
        assert segments[0].end.phi == pytest.approx(0.5 * 4.0, abs=1e-12)

    def test_rest_state_at_origin_reported_not_propagated(self):
        with pytest.raises(ValidationError, match="focus-focus"):
            simulate(TABLE, PhaseState(1, 0.0, 0.0, 0.0, 0.0), max_reflections=1)

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
            seg = simulate(TABLE, start, max_reflections=1)[0]
            sampled = min(s.r2 for s in sample_segment(seg, K, 2048))
            closed = segment_min_radius(seg, K) ** 2
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
