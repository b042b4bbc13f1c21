"""Scale invariance as a metamorphic oracle: every layer answers alike at every k.

With w = sqrt(-k), the map (x, v, t, k) -> (x, v/w, w t, -1) takes the system at
any k < 0 to the system at k = -1, and a momentum value (h, f) to (h/|k|, f/w).
Each test draws a case at k = -1, clear of every tolerance edge and time cut,
and lam = -k log-uniform over [1e-100, 1e100] (no square overflows there). The
case carried to k = -lam must give the same stop reason, reflection count, fiber
tag, spectrum class, monodromy integer and kind of refusal, and its scaled
numbers (x, v/w, w t, dphi, w T_r) must agree to 1e-12 relative to each
quantity's norm.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from billiardbook import (
    BookTable,
    ConvergenceError,
    PhaseState,
    SpectrumClass,
    ValidationError,
    classify_fiber,
    continue_theta,
    loop_around_origin,
    pencil_eigenvalues,
    radial_period_quadrature,
    radial_period_simulated,
    simulate,
)
from billiardbook.model import SIGMA_TOL

RTOL = 1e-12
#: examples per layer; the family then adds about half a second to the test run
EXAMPLES = settings(deadline=None, max_examples=30)
#: lam = -k, log-uniform over [1e-100, 1e100]
LAMS = st.floats(-100.0, 100.0).map(lambda e: 10.0**e)
#: a velocity component that stays a normal float when scaled by w >= 1e-50
SPEEDS = st.floats(-1.5, 1.5).filter(lambda v: v == 0.0 or abs(v) > 1e-250)


def close(scaled, reference) -> bool:
    """Whether two arrays agree to RTOL relative to the reference's largest entry."""
    scaled, reference = np.asarray(scaled, dtype=float), np.asarray(reference, dtype=float)
    norm = np.abs(reference).max(initial=0.0)
    return bool(np.abs(scaled - reference).max(initial=0.0) <= RTOL * norm)


def outcome(call):
    """call()'s result, or the kind of its refusal: the error type and its message up to the
    first number, which differs between frames."""
    try:
        return call()
    except (ValidationError, ConvergenceError) as exc:
        return type(exc), re.split(r"[-(\d]", str(exc), maxsplit=1)[0]


def wall_speed2(state: PhaseState) -> float:
    """(v.n)^2 of the orbit at the wall at k = -1: (x.v)^2 + (1 - r^2)(|v|^2 + 1)."""
    xv = state.x * state.vx + state.y * state.vy
    return xv * xv + (1.0 - state.r2) * (state.speed2 + 1.0)


@EXAMPLES
@given(
    lam=LAMS,
    sheets=st.integers(1, 4),
    r=st.floats(0.0, 0.95),
    ang=st.floats(0.0, 2.0 * math.pi),
    vx=SPEEDS,
    vy=SPEEDS,
    reflections=st.integers(1, 20),
    cut=st.one_of(st.none(), st.floats(0.1, 0.9)),
)
def test_simulate(lam, sheets, r, ang, vx, vy, reflections, cut):
    start = PhaseState(1, r * math.cos(ang), r * math.sin(ang), vx, vy)
    # every hit far from grazing, and (h, f) far from (0, 0): near the singular fiber an arc
    # passes near the stable manifold, where rounding v/w moves the wall-hit time by eps/|a|
    assume(wall_speed2(start) > 1e-6)
    h, f = 0.5 * (start.speed2 - start.r2), start.x * vy - start.y * vx
    assume(max(abs(h), abs(f)) > 0.02)
    table, w = BookTable(-1.0, sheets), math.sqrt(lam)
    stop = {"max_reflections": reflections}
    if cut is not None:
        # a time cut inside the last arc, clear of both of its ends
        head, arc = simulate(table, start, max_reflections=2).duration
        stop = {"max_time": head + (reflections - 1 + cut) * arc}
    reference = simulate(table, start, **stop)
    scaled_start = PhaseState(1, start.x, start.y, vx * w, vy * w)
    scaled_stop = {key: value / w if key == "max_time" else value for key, value in stop.items()}
    scaled = simulate(BookTable(-lam, sheets), scaled_start, **scaled_stop)
    assert (scaled.stop_reason, scaled.reflections, scaled.boundary_orbit, len(scaled)) == (
        reference.stop_reason, reference.reflections, reference.boundary_orbit, len(reference)
    )
    assert np.array_equal(scaled.sheet, reference.sheet)
    got, want = np.vstack((scaled.start, scaled.end)), np.vstack((reference.start, reference.end))
    assert close(got[:, :2], want[:, :2]) and close(got[:, 2:] / w, want[:, 2:])
    assert close(scaled.duration * w, reference.duration)


def simulate_outcome(k, start, **stop):
    return outcome(lambda: simulate(BookTable(k), start, **stop))


@pytest.mark.parametrize("lam", [1e-100, 1e-26, 1e26, 1e100])
def test_simulate_tangential_starts(lam):
    # on the wall with v.n = 0: the boundary critical orbit, which only max_time ends
    w = math.sqrt(lam)
    for vy in (0.3, -1.2):
        refused = simulate_outcome(-1.0, PhaseState(1, 1.0, 0.0, 0.0, vy), max_reflections=3)
        scaled = simulate_outcome(-lam, PhaseState(1, 1.0, 0.0, 0.0, vy * w), max_reflections=3)
        assert scaled == refused and refused[0] is ValidationError
        reference = simulate(BookTable(-1.0), PhaseState(1, 0.0, 1.0, -vy, 0.0), max_time=4.0)
        scaled = simulate(BookTable(-lam), PhaseState(1, 0.0, 1.0, -vy * w, 0.0), max_time=4.0 / w)
        assert scaled.boundary_orbit and reference.boundary_orbit
        assert close(scaled.end[:, :2], reference.end[:, :2])
        assert close(scaled.duration * w, reference.duration)


#: offsets in units of SIGMA_TOL that stay clear of its edge
OFFSETS = st.sampled_from([0.0, -0.5, 0.5, -2.0, 2.0])


@EXAMPLES
@given(
    lam=LAMS,
    sheets=st.integers(1, 4),
    kind=st.sampled_from(["box", "parabola", "origin"]),
    h=st.floats(-1.5, 1.5),
    f=st.floats(-1.5, 1.5),
    offset=OFFSETS,
    other=OFFSETS,
)
@example(lam=1e-12, sheets=1, kind="box", h=100.0, f=1e-4, offset=0.0, other=0.0)
def test_classify(lam, sheets, kind, h, f, offset, other):
    if kind == "parabola":
        h = (f * f - 1.0) / 2.0 + offset * SIGMA_TOL
    elif kind == "origin":
        h, f = offset * SIGMA_TOL, other * SIGMA_TOL
    else:  # clear of the parabola and of (0, 0)
        assume(abs(h - (f * f - 1.0) / 2.0) > 1e-6 and max(abs(h), abs(f)) > 1e-6)
    reference = classify_fiber(BookTable(-1.0, sheets), h, f)
    assert classify_fiber(BookTable(-lam, sheets), h * lam, f * math.sqrt(lam)) == reference


@EXAMPLES
@given(
    lam=LAMS,
    pencil=st.one_of(
        st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0)),
        st.tuples(st.just(0.0), st.floats(0.01, 2.0)),
        st.tuples(st.floats(0.01, 2.0), st.just(0.0)),
    ),
    signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
)
def test_eigen(lam, pencil, signs):
    # the member lam_p*A_H + mu*A_F at k is the member (lam_p w) A_H + mu A_F at k = -1
    lam_p, mu = pencil[0] * signs[0], pencil[1] * signs[1]
    w = math.sqrt(lam)
    reference = pencil_eigenvalues(-1.0, lam_p, mu)
    scaled = pencil_eigenvalues(-lam, lam_p / w, mu)
    assert scaled.classification is reference.classification
    assert (reference.classification is SpectrumClass.FOCUS_FOCUS) == (lam_p != 0.0 and mu != 0.0)
    assert close([[e.real, e.imag] for e in scaled.eigenvalues],
                 [[e.real, e.imag] for e in reference.eigenvalues])


@EXAMPLES
@given(
    lam=LAMS,
    sheets=st.integers(1, 4),
    f=st.floats(-1.5, 1.5),
    above=st.floats(1e-3, 2.0),
)
def test_rotation(lam, sheets, f, above):
    # a regular value at least 1e-3 above the parabola and clear of (0, 0); f = 0 or not so
    # small that f w is subnormal, where dphi ~ f keeps fewer digits
    h = (f * f - 1.0) / 2.0 + above
    assume(max(abs(h), abs(f)) > 1e-3 and (f == 0.0 or abs(f) > 1e-6))
    table, scaled_table, w = BookTable(-1.0, sheets), BookTable(-lam, sheets), math.sqrt(lam)
    for period in (radial_period_quadrature, radial_period_simulated):
        reference = period(table, h, f)
        scaled = period(scaled_table, h * lam, f * w)
        assert close(scaled.T_r * w, reference.T_r)
        assert close(scaled.dphi, reference.dphi) and close(scaled.theta, reference.theta)


@settings(deadline=None, max_examples=20)
@given(
    lam=LAMS,
    sheets=st.integers(1, 4),
    c=st.floats(0.2, 0.8),
    factor=st.floats(1.2, 3.0),
    points_per_arc=st.sampled_from([3, 8, 64]),
)
@example(lam=1e-12, sheets=3, c=0.5, factor=2.0, points_per_arc=64)
def test_monodromy(lam, sheets, c, factor, points_per_arc):
    table, scaled_table, w = BookTable(-1.0, sheets), BookTable(-lam, sheets), math.sqrt(lam)

    def report(book, f_max):
        return continue_theta(book, loop_around_origin(book, c, f_max, points_per_arc))

    reference = outcome(lambda: report(table, factor * c))
    scaled = outcome(lambda: report(scaled_table, factor * c * w))
    if isinstance(reference, tuple):  # refused: the same kind of refusal
        assert scaled == reference
        return
    # every dphi step clear of the bisection limit
    steps = np.abs(np.diff(reference.theta_unwrapped)) / sheets / (math.pi / 2.0)
    assume(np.abs(steps - 1.0).min() > 1e-9)
    assert scaled.m == reference.m == sheets
    assert len(scaled.samples) == len(reference.samples)
    assert close(scaled.samples.T_r * w, reference.samples.T_r)
    assert close(scaled.theta_unwrapped, reference.theta_unwrapped)
    assert close(scaled.unwrap_margin, reference.unwrap_margin)


@pytest.mark.parametrize("lam", [1e-100, 1e-12, 1e100])
def test_monodromy_refusals(lam):
    # a corner on the parabola (c near 1), and a bisection midpoint at (0, 0): a hand-built
    # loop whose chord from (0, -0.5) to (0, 0.5) at k = -1 is carried to k = -lam
    c = 0.9999999999
    chord = [(2.0, -1.5), (0.0, -0.5), (0.0, 0.5), (2.0, 1.5), (2.0, 0.5), (2.0, -0.5)]
    loops = {
        ValidationError: lambda book, w: loop_around_origin(book, c, c * w, 64),
        ConvergenceError: lambda book, w: [(-book.k * h, w * f) for h, f in chord],
    }
    for error, loop in loops.items():
        def refusal(k):
            book = BookTable(k, 2)
            return outcome(lambda: continue_theta(book, loop(book, math.sqrt(-k))))
        reference = refusal(-1.0)
        assert reference[0] is error
        assert refusal(-lam) == reference
