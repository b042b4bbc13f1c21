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

The flow and the wall are invariant under rotation, and (H, F) fixes a
wall-to-wall arc up to rotation, so after the first wall hit every arc is the
previous one turned by the same angle ``dphi`` and lasting the same ``T_r``.
``simulate`` solves two arcs and emits hit j as the first hit rotated by
``j * dphi``, in blocks of ``_CHUNK`` hits: no hit is computed from the one
before, so rounding error does not grow with the number of reflections.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .model import BookTable, PhaseState, ValidationError
from .momentum import momentum_map

#: a state with |r^2 - 1| below this is on the wall: reflect() accepts it, and
#: time_to_boundary() and simulate() accept it as a start
BOUNDARY_TOL = 1e-9
#: |v . n| below this at a wall hit is treated as a tangential (grazing) hit
GRAZING_TOL = 1e-12
#: rows per numpy pass of _bounce_map(), of _sample_trajectory() and of
#: iteration over a Trajectory, which bounds the temporaries a long run needs
_CHUNK = 2048
#: bytes of one row of a Trajectory's columns: start, end, sheet and duration
_ROW_BYTES = 4 * 8 + 4 * 8 + 8 + 8
#: physical memory, the most column bytes simulate() will allocate
_MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True, slots=True)
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


class Trajectory(Sequence):
    """The segments of one run, held as columns.

    Row i of ``start`` and ``end`` is (x, y, vx, vy) at the two ends of
    segment i, ``sheet[i]`` its sheet and ``duration[i]`` its length in time.
    The first ``reflections`` segments end at a wall hit followed by a
    reflection; if ``boundary_orbit`` is set, the last segment slides along
    the wall. ``stop_reason`` says why the run ended: ``"reflections"``
    (max_reflections reached), ``"time"`` (max_time reached), ``"grazing"``
    (a tangential wall hit) or ``"stable-manifold"`` (a reflection sent the
    ball onto the stable manifold of the equilibrium, which never reaches the
    wall again).

    As a sequence it yields TrajectorySegment values, built from the columns
    when they are asked for, and it hashes as the tuple of those values. That
    view and hash exist because the benchmark in bench/ reads them; they go
    once it reads the columns (ROADMAP item 1).
    """

    _COLUMNS = ("start", "end", "sheet", "duration")
    __slots__ = (*_COLUMNS, "reflections", "stop_reason", "boundary_orbit")

    def __init__(
        self,
        columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        reflections: int,
        stop_reason: str,
        boundary_orbit: bool = False,
    ) -> None:
        self.start, self.end, self.sheet, self.duration = columns
        self.reflections = reflections
        self.stop_reason = stop_reason
        self.boundary_orbit = boundary_orbit

    def __len__(self) -> int:
        return len(self.duration)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return [self._row(i) for i in rows]
        return self._row(rows)

    def __iter__(self) -> Iterator[TrajectorySegment]:
        start, end, sheet, duration = self.start, self.end, self.sheet, self.duration
        # A start sits where the previous segment ended and most arcs last
        # T_r: such a value is the previous row's float object again, bit for
        # bit, which makes a run held as segments nearly a fifth smaller.
        same_xy, same_t = np.zeros(len(duration), bool), np.zeros(len(duration), bool)
        same_xy[1:] = (start[1:, :2].view(np.uint64) == end[:-1, :2].view(np.uint64)).all(1)
        same_t[1:] = duration[1:].view(np.uint64) == duration[:-1].view(np.uint64)
        x = y = t = None
        for lo in range(0, len(duration), _CHUNK):
            hi = lo + _CHUNK
            rows = zip(sheet[lo:hi].tolist(), start[lo:hi].tolist(), end[lo:hi].tolist(),
                       duration[lo:hi].tolist(), same_xy[lo:hi].tolist(), same_t[lo:hi].tolist())
            for i, (n, s, e, d, shares_xy, shares_t) in enumerate(rows, lo):
                if shares_xy:
                    s[0], s[1] = x, y
                if shares_t:
                    d = t
                yield self._segment(i, n, s, e, d)
                x, y, t = e[0], e[1], d

    def _row(self, i: int) -> TrajectorySegment:
        return self._segment(
            i, int(self.sheet[i]), self.start[i].tolist(), self.end[i].tolist(),
            float(self.duration[i]),
        )

    def _segment(self, i, sheet, start, end, duration) -> TrajectorySegment:
        return TrajectorySegment(
            PhaseState(sheet, *start),
            duration,
            PhaseState(sheet, *end),
            reflected=i < self.reflections,
            boundary_orbit=self.boundary_orbit and i == len(self) - 1,
        )

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            (self.reflections, self.stop_reason, self.boundary_orbit)
            == (other.reflections, other.stop_reason, other.boundary_orbit)
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in self._COLUMNS)
        )

    def __hash__(self) -> int:
        # the hash of the tuple of segments, as the list simulate() used to
        # return gets once it is made a tuple
        return hash(tuple(self))


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


def sample_segment(segment: TrajectorySegment, k: float, count: int) -> list[PhaseState]:
    """States at count+1 equally spaced times along the segment (ends included)."""
    if segment.boundary_orbit:
        f = segment.start.x * segment.start.vy - segment.start.y * segment.start.vx
        return [_rotate(segment.start, f * segment.duration * i / count) for i in range(count + 1)]
    return [flow_free(segment.start, segment.duration * i / count, k) for i in range(count + 1)]


def _rotations(row, angles: np.ndarray) -> tuple[np.ndarray, ...]:
    """Columns x, y, vx, vy of one state rotated by each angle, as _rotate()."""
    x, y, vx, vy = row
    c, s = np.cos(angles), np.sin(angles)
    return c * x - s * y, s * x + c * y, c * vx - s * vy, s * vx + c * vy


def _sample_trajectory(
    trajectory: Trajectory, k: float, count: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """sample_segment() for every segment of a trajectory, a chunk at a time.

    Yields (first segment of the chunk, tau, states): ``tau[i, j]`` is the
    time since segment i's start of its j-th of count+1 equally spaced
    samples and ``states[i, j]`` the state (x, y, vx, vy) there. The formulas
    and their order of operations are those of flow_free() and of the
    boundary-orbit rotation, evaluated for all rows at once; each segment's
    first sample is its start state itself.
    """
    w = math.sqrt(-k)
    steps = np.arange(count + 1)
    for lo in range(0, len(trajectory), _CHUNK):
        hi = min(lo + _CHUNK, len(trajectory))
        start = trajectory.start[lo:hi]
        duration = trajectory.duration[lo:hi, None]
        tau = duration * steps / count
        x, y, vx, vy = (column[:, None] for column in start.T)
        px, py = vx / w, vy / w
        e = np.exp(w * tau)
        ax, ay = 0.5 * (x + px) * e, 0.5 * (y + py) * e
        bx, by = 0.5 * (x - px) / e, 0.5 * (y - py) / e
        states = np.stack((ax + bx, ay + by, w * (ax - bx), w * (ay - by)), axis=-1)
        if trajectory.boundary_orbit and hi == len(trajectory):
            # on r = 1 the angular speed equals f = x*vy - y*vx
            x0, y0, vx0, vy0 = start[-1].tolist()
            f = x0 * vy0 - y0 * vx0
            states[-1] = np.stack(_rotations(start[-1], f * duration[-1, 0] * steps / count), -1)
        # the flow at tau = 0 rebuilds v as w (a - b), which loses the
        # relative accuracy of a component much smaller than |x|
        states[:, 0] = start
        yield lo, tau, states


def _is_grazing(hit: PhaseState) -> bool:
    return abs(hit.x * hit.vx + hit.y * hit.vy) < GRAZING_TOL


def _slide(state: PhaseState, duration: float) -> tuple[PhaseState, float, PhaseState]:
    """The arc that slides along the wall from a state on it, as pure rotation."""
    # on r = 1 the angular speed equals f = x*vy - y*vx
    f = state.x * state.vy - state.y * state.vx
    return state, duration, _rotate(state, f * duration)


def _arcs(arcs: list, reflections: int, stop_reason: str, boundary_orbit=False) -> Trajectory:
    """Columns of a run that stops within its first full arc, from its
    (start, duration, end) arcs; each arc lies on its start's sheet."""
    return Trajectory(
        (
            np.array([(s.x, s.y, s.vx, s.vy) for s, _, _ in arcs], dtype=float).reshape(-1, 4),
            np.array([(e.x, e.y, e.vx, e.vy) for _, _, e in arcs], dtype=float).reshape(-1, 4),
            np.array([s.sheet for s, _, _ in arcs], dtype=int),
            np.array([d for _, d, _ in arcs], dtype=float),
        ),
        reflections, stop_reason, boundary_orbit,
    )


def _grazed(arcs: list, time_left: float | None) -> Trajectory:
    """A tangential hit ends the last arc; the rest of max_time slides along the wall."""
    _, t_hit, hit = arcs[-1]
    sliding = time_left is not None and time_left > t_hit
    tail = [_slide(hit, time_left - t_hit)] if sliding else []
    return _arcs(arcs + tail, len(arcs) - 1, "grazing", sliding)


def _hit_count(
    t0: float, t_r: float, max_reflections: int | None, max_time: float | None
) -> tuple[int, float | None]:
    """Wall hits before the stop, and the max_time tail (None if reflections stop first).

    Hit j comes at t0 + j*t_r; it counts when that is before max_time. A count
    whose columns exceed physical memory is refused before it is made exact,
    since at such sizes t0 + j*t_r cannot tell j from j + 1.
    """
    if max_time is None or (
        max_reflections is not None and t0 + (max_reflections - 1) * t_r < max_time
    ):
        _check_fits(max_reflections, max_reflections, max_time)
        return max_reflections, None
    hits = max(math.ceil((max_time - t0) / t_r), 1)
    _check_fits(hits, max_reflections, max_time)
    while t0 + (hits - 1) * t_r >= max_time:
        hits -= 1
    while t0 + hits * t_r < max_time:
        hits += 1
    return hits, max_time - (t0 + (hits - 1) * t_r)


def _check_fits(hits: int, max_reflections: int | None, max_time: float | None) -> None:
    """Refuse a run of ``hits`` wall hits whose columns exceed physical memory."""
    size = int(hits) * _ROW_BYTES
    if size > _MEMORY_BYTES:
        raise ValidationError(
            f"{hits} wall hits (max_reflections={max_reflections!r}, max_time={max_time!r}) "
            f"need {size} bytes of columns, more than the {_MEMORY_BYTES} bytes of physical memory"
        )


def _bounce_map(
    table: BookTable,
    initial: PhaseState,
    hit: PhaseState,
    t0: float,
    t_r: float,
    dphi: float,
    hits: int,
    tail: float | None,
) -> Trajectory:
    """Columns of ``hits`` wall hits, hit j being ``hit`` rotated by j*dphi,
    plus a max_time tail of duration ``tail`` (None for no tail)."""
    rows = hits + (tail is not None)
    start, end = np.empty((rows, 4)), np.empty((rows, 4))
    start[0] = (initial.x, initial.y, initial.vx, initial.vy)
    row = (hit.x, hit.y, hit.vx, hit.vy)
    # a block of hits at a time, so the temporaries stay small; each element
    # gets the bits it would get in one pass over all hits
    for lo in range(0, hits, _CHUNK):
        hi = min(lo + _CHUNK, hits)
        x, y, vx, vy = _rotations(row, np.arange(lo, hi, dtype=float) * dphi)
        block = end[lo:hi]
        block[:, 0], block[:, 1], block[:, 2], block[:, 3] = x, y, vx, vy
        # every start after the first is the reflection of the previous hit,
        # by reflect()'s formula, so it sits exactly where that hit is; the
        # last hit of a run stopped by max_reflections starts nothing
        m = min(hi, rows - 1) - lo
        x, y, vx, vy = x[:m], y[:m], vx[:m], vy[:m]
        r = np.sqrt(x * x + y * y)
        nx, ny = x / r, y / r
        vn2 = 2.0 * (vx * nx + vy * ny)
        block = start[lo + 1 : lo + 1 + m]
        block[:, 0], block[:, 1] = x, y
        block[:, 2], block[:, 3] = vx - vn2 * nx, vy - vn2 * ny
    cycle = (np.arange(table.sheets) + (initial.sheet - 1)) % table.sheets + 1
    sheet = np.tile(cycle, -(-rows // table.sheets))[:rows]
    duration = np.full(rows, t_r)
    duration[0] = t0
    if tail is not None:
        last = PhaseState(int(sheet[-1]), *start[-1].tolist())
        stop = flow_free(last, tail, table.k)
        end[-1] = (stop.x, stop.y, stop.vx, stop.vy)
        duration[-1] = tail
    stop_reason = "reflections" if tail is None else "time"
    return Trajectory((start, end, sheet, duration), hits, stop_reason)


def simulate(
    table: BookTable,
    initial: PhaseState,
    max_reflections: int | None = None,
    max_time: float | None = None,
) -> Trajectory:
    """Propagate until a stop condition by the closed-form bounce map.

    time_to_boundary() and flow_free() solve the head arc, from the initial
    state to the first wall hit, and the first full arc, from that hit
    through reflect() to the next one. The full arc gives T_r (its duration)
    and dphi (the signed angle between its ends). Every later arc starts at
    the reflection of the previous hit, lasts T_r and ends at the first hit
    rotated by a multiple of dphi, one sheet further on. Each segment ends at
    the wall (reflected) except possibly the last, which max_time cuts or
    which ends at a grazing hit; ``stop_reason`` says which stop came first.
    """
    if max_reflections is None and max_time is None:
        raise ValidationError("a stop condition (max_reflections or max_time) is required")
    if max_reflections is not None:
        if not isinstance(max_reflections, (int, np.integer)):
            raise ValidationError(f"max_reflections must be an integer, got {max_reflections!r}")
        if max_reflections < 0:
            raise ValidationError("max_reflections must be nonnegative")
    # 0 < nan is false, so this refuses a NaN max_time too
    if max_time is not None and not 0 < max_time < math.inf:
        raise ValidationError(f"max_time must be positive and finite, got {max_time!r}")
    if not all(map(math.isfinite, (initial.x, initial.y, initial.vx, initial.vy))):
        raise ValidationError(f"initial state must be finite, got {initial}")

    k, r2 = table.k, initial.r2
    table.next_sheet(initial.sheet)  # raises ValidationError for a sheet off the book
    if r2 - 1.0 > BOUNDARY_TOL:
        raise ValidationError("initial state must lie in the closed unit disk")
    mv = momentum_map(initial, k)
    if not (math.isfinite(mv.h) and math.isfinite(mv.f)):
        raise ValidationError(f"H and F of the initial state must be finite, got {mv}")
    if r2 == 0.0 and initial.speed2 == 0.0:
        raise ValidationError(
            "the rest state at the origin is the focus-focus equilibrium; "
            "it is reported, not propagated"
        )

    # Critical orbit: the normal speed the orbit has at the wall vanishes.
    # (v.n)^2 there is 2h - k - f^2 = (x.v)^2 + (1 - r^2)(|v|^2 - k), a sum
    # of non-negative terms inside the disk (time_to_boundary's discriminant
    # times w^2). The region of motion is then the wall circle, propagated as
    # pure rotation.
    xv = initial.x * initial.vx + initial.y * initial.vy
    if xv * xv + max(1.0 - r2, 0.0) * (initial.speed2 - k) < GRAZING_TOL**2:
        if max_time is None:
            raise ValidationError("the boundary critical orbit never reflects; use max_time")
        return _arcs([_slide(initial, max_time)], 0, "time", boundary_orbit=True)
    if max_reflections == 0:
        return _arcs([], 0, "reflections")

    t0 = time_to_boundary(initial, k)
    if max_time is not None and t0 >= max_time:
        return _arcs([(initial, max_time, flow_free(initial, max_time, k))], 0, "time")
    hit = flow_free(initial, t0, k)
    arcs = [(initial, t0, hit)]
    if _is_grazing(hit):
        return _grazed(arcs, max_time)
    if max_reflections == 1:
        return _arcs(arcs, 1, "reflections")

    start = reflect(table, hit)
    try:
        t_r = time_to_boundary(start, k)
    except ValidationError:
        # start lies on the wall, so the stable manifold is the only refusal left
        return _arcs(arcs, 1, "stable-manifold")
    if max_time is not None and t0 + t_r >= max_time:
        cut = max_time - t0
        return _arcs(arcs + [(start, cut, flow_free(start, cut, k))], 1, "time")
    end = flow_free(start, t_r, k)
    if _is_grazing(end):
        return _grazed(arcs + [(start, t_r, end)], None if max_time is None else max_time - t0)
    dphi = math.atan2(hit.x * end.y - hit.y * end.x, hit.x * end.x + hit.y * end.y)

    hits, tail = _hit_count(t0, t_r, max_reflections, max_time)
    return _bounce_map(table, initial, hit, t0, t_r, dphi, hits, tail)
