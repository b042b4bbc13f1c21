"""Exact piecewise-analytic trajectory propagation.

Between wall hits the motion solves ``x'' = -k x`` with ``k < 0``. With
``w = sqrt(-k)`` and the light-cone halves ``a = (x + v/w)/2`` and
``b = (x - v/w)/2`` of a state the flow is

    x(t) = a e^{wt} + b e^{-wt},    v(t) = w (a e^{wt} - b e^{-wt}),

so ``r^2 = |a|^2 u + 2 a.b + |b|^2/u`` with ``u = e^{2wt}``: the wall-hit time
is the larger root of a quadratic in ``u`` and the closest approach to the
center sits at ``u = |b|/|a|``. The stable manifold of the equilibrium is
exactly ``a = 0``. No ODE integrator and no iteration is involved, which makes
conservation of ``H = -2 w^2 a.b`` and ``F = -2 w a x b`` a test oracle
instead of an error source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import BookTable, PhaseState, ValidationError

#: a state with |r^2 - 1| below this is on the wall: reflect() accepts it, and
#: time_to_boundary() and simulate() accept it as a start
BOUNDARY_TOL = 1e-9
#: |v . n| below this at a wall hit is treated as a tangential (grazing) hit
GRAZING_TOL = 1e-12


@dataclass(frozen=True)
class TrajectorySegment:
    """One smooth arc of the flow, from a start state to a wall hit (or stop).

    ``reflected`` marks segments that end on the boundary circle and are
    followed by a reflection; ``boundary_orbit`` marks the degenerate critical
    orbit that slides along the wall (one-dimensional region of motion).
    """

    start: PhaseState
    duration: float
    end: PhaseState
    reflected: bool
    boundary_orbit: bool = False


def _halves(state: PhaseState, w: float) -> tuple[float, float, float, float]:
    """Light-cone halves a = (x + v/w)/2 and b = (x - v/w)/2 as (ax, ay, bx, by)."""
    px, py = state.vx / w, state.vy / w
    return 0.5 * (state.x + px), 0.5 * (state.y + py), 0.5 * (state.x - px), 0.5 * (state.y - py)


def flow_free(state: PhaseState, t: float, k: float) -> PhaseState:
    """Propagate the in-disk Hooke flow for time t (no wall check)."""
    if t < 0:
        raise ValidationError("propagation time must be nonnegative")
    if not k < 0:
        raise ValidationError("k must be negative")
    w = math.sqrt(-k)
    ax, ay, bx, by = _halves(state, w)
    e = math.exp(w * t)
    ax, ay, bx, by = ax * e, ay * e, bx / e, by / e
    return PhaseState(state.sheet, ax + bx, ay + by, w * (ax - bx), w * (ay - by))


def time_to_boundary(state: PhaseState, k: float) -> float:
    """Smallest t >= 0 with r(t) = 1 under the free flow.

    u = exp(2wt) is the larger root of |a|^2 u^2 - (1 - 2a.b) u + |b|^2 = 0.
    On the closed disk 1 - 2a.b >= 1/2 and the discriminant
    (1 - r^2)(1 + |v/w|^2) + (x.v/w)^2 is a sum of non-negative terms, so the
    root has no cancellation. A start within BOUNDARY_TOL outside the wall
    counts as on it; a start on the wall moving outward returns 0.
    """
    if not k < 0:
        raise ValidationError("k must be negative")
    r2 = state.r2
    if r2 - 1.0 > BOUNDARY_TOL:
        raise ValidationError("state lies outside the closed unit disk")
    w = math.sqrt(-k)
    ax, ay, _, _ = _halves(state, w)
    a2 = ax * ax + ay * ay
    if a2 == 0.0:
        # v = -w*x: the inbound stable ray (or rest at the origin)
        raise ValidationError(
            "state lies on the stable manifold of the equilibrium and never "
            "reaches the boundary"
        )
    s = state.speed2 / -k
    xv = (state.x * state.vx + state.y * state.vy) / w
    disc = max(1.0 - r2, 0.0) * (1.0 + s) + xv * xv
    # u = (1 - 2a.b + sqrt(disc)) / (2|a|^2) with 2a.b = (r^2 - |v/w|^2)/2,
    # taken as a difference of logs since u overflows when |a|^2 is tiny
    log_u = math.log(1.0 - 0.5 * (r2 - s) + math.sqrt(disc)) - math.log(2.0 * a2)
    return max(log_u, 0.0) / (2.0 * w)


def reflect(table: BookTable, state: PhaseState) -> PhaseState:
    """Elastic reflection at the wall plus transition to the next sheet."""
    r2 = state.r2
    if abs(r2 - 1.0) >= BOUNDARY_TOL:
        raise ValidationError("reflect requires a state on the boundary circle")
    r = math.sqrt(r2)
    nx, ny = state.x / r, state.y / r
    vn = state.vx * nx + state.vy * ny
    if vn < -GRAZING_TOL:
        raise ValidationError("reflect requires a nonnegative outward velocity")
    return PhaseState(
        table.next_sheet(state.sheet),
        state.x,
        state.y,
        state.vx - 2.0 * vn * nx,
        state.vy - 2.0 * vn * ny,
    )


def _rotate(state: PhaseState, angle: float) -> PhaseState:
    c, s = math.cos(angle), math.sin(angle)
    return PhaseState(
        state.sheet,
        c * state.x - s * state.y,
        s * state.x + c * state.y,
        c * state.vx - s * state.vy,
        s * state.vx + c * state.vy,
    )


def _boundary_orbit_segment(state: PhaseState, duration: float) -> TrajectorySegment:
    # On r = 1 the angular speed equals f = x*vy - y*vx.
    f = state.x * state.vy - state.y * state.vx
    end = _rotate(state, f * duration)
    return TrajectorySegment(state, duration, end, reflected=False, boundary_orbit=True)


def segment_min_radius(segment: TrajectorySegment, k: float) -> float:
    """Exact minimum of r over a free-flow segment (closed form).

    r^2 = |a|^2 u + 2a.b + |b|^2/u is least at u = |b|/|a|, where it equals
    2(|a||b| + a.b) = (f/w)^2 / (2(|a||b| - a.b)); the second form avoids the
    cancellation when a.b < 0.
    """
    if segment.boundary_orbit:
        return 1.0
    w = math.sqrt(-k)
    start = segment.start
    ax, ay, bx, by = _halves(start, w)
    na, nb = math.hypot(ax, ay), math.hypot(bx, by)
    candidates = [start.r2, segment.end.r2]
    if 0.0 < na < nb and math.log(nb / na) < 2.0 * w * segment.duration:
        ab = ax * bx + ay * by
        if ab >= 0.0:
            candidates.append(2.0 * (na * nb + ab))
        else:
            f = start.x * start.vy - start.y * start.vx
            candidates.append((f / w) ** 2 / (2.0 * (na * nb - ab)))
    return math.sqrt(min(candidates))


def sample_segment(segment: TrajectorySegment, k: float, count: int) -> list[PhaseState]:
    """States at count+1 equally spaced times along the segment (ends included)."""
    if segment.boundary_orbit:
        f = segment.start.x * segment.start.vy - segment.start.y * segment.start.vx
        return [
            _rotate(segment.start, f * segment.duration * i / count)
            for i in range(count + 1)
        ]
    return [
        flow_free(segment.start, segment.duration * i / count, k)
        for i in range(count + 1)
    ]


def simulate(
    table: BookTable,
    initial: PhaseState,
    max_reflections: int | None = None,
    max_time: float | None = None,
) -> list[TrajectorySegment]:
    """Propagate until a stop condition, alternating free flow and reflection.

    Each segment ends at the wall (reflected=True) except possibly the last,
    which is cut by max_time. The end of a reflected segment, passed through
    reflect(), is the start of the next segment.
    """
    if max_reflections is None and max_time is None:
        raise ValidationError("a stop condition (max_reflections or max_time) is required")
    if max_reflections is not None and max_reflections < 0:
        raise ValidationError("max_reflections must be nonnegative")
    if max_time is not None and max_time <= 0:
        raise ValidationError("max_time must be positive")

    k = table.k
    if initial.r2 - 1.0 > BOUNDARY_TOL:
        raise ValidationError("initial state must lie in the closed unit disk")
    if initial.r2 == 0.0 and initial.speed2 == 0.0:
        raise ValidationError(
            "the rest state at the origin is the focus-focus equilibrium; "
            "it is reported, not propagated"
        )

    segments: list[TrajectorySegment] = []
    state = initial

    # Critical orbit: on the wall with tangential velocity. One-dimensional
    # region of motion, propagated as pure rotation along the boundary.
    if abs(initial.r2 - 1.0) < BOUNDARY_TOL:
        r = initial.r
        vn = (initial.x * initial.vx + initial.y * initial.vy) / r
        if abs(vn) < GRAZING_TOL:
            if max_time is None:
                raise ValidationError(
                    "the boundary critical orbit never reflects; use max_time"
                )
            return [_boundary_orbit_segment(initial, max_time)]

    t_total = 0.0
    count = 0
    while max_reflections is None or count < max_reflections:
        t_hit = time_to_boundary(state, k)
        if max_time is not None and t_total + t_hit >= max_time:
            dt = max_time - t_total
            end = flow_free(state, dt, k)
            segments.append(TrajectorySegment(state, dt, end, reflected=False))
            return segments
        end = flow_free(state, t_hit, k)
        vn = end.x * end.vx + end.y * end.vy
        if abs(vn) < GRAZING_TOL:
            # grazing hit: clamp to the tangential critical orbit and flag it
            segments.append(TrajectorySegment(state, t_hit, end, reflected=False))
            t_total += t_hit
            if max_time is not None and max_time > t_total:
                segments.append(_boundary_orbit_segment(end, max_time - t_total))
            return segments
        segments.append(TrajectorySegment(state, t_hit, end, reflected=True))
        state = reflect(table, end)
        t_total += t_hit
        count += 1
    return segments
