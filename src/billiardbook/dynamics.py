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
instead of an error source. Each formula is one function of plain arithmetic:
one state as floats (with math's exp, cos, sin and sqrt, as a numpy call costs
more than the work) and numpy columns of states get the same bits from it.
The bounce map's block kernel is apart, as floats take no ``out=``: it writes
the turn and the reflection into a run's columns in place, in the operations
and order of _rotated() and reflect(), which tests pin to it bit for bit.

The flow and the wall are invariant under rotation, and (H, F) fixes a
wall-to-wall arc up to rotation, so after the first wall hit every arc is the
previous one turned by the same angle ``dphi`` and lasting the same ``T_r``.
``simulate`` solves two arcs and emits hit j as the first hit rotated by
``j * dphi``, in blocks of ``_BLOCK`` hits. The cosines and sines of
``i * dphi``, ``i < _BLOCK``, are taken once per run, as one table: block
``lo`` turns the first hit by ``lo * dphi`` and then by that table, so a run
of at most ``_BLOCK`` hits turns the first hit once per row. Each hit is at
most two turns from the first, never computed from the one before, so
rounding error does not grow with the number of reflections.

Each test is made in the w = 1 frame of model.py: a wall hit grazes when |v.n|/w < GRAZING_TOL,
and a start is on the boundary critical orbit when its orbit's (v.n/w)^2 at the wall,
_wall_speed2(), is below GRAZING_TOL^2.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    BOUNDARY_TOL, GRAZING_TOL, BookTable, ConvergenceError, PhaseState, ValidationError,
    require_count, require_fits, require_repelling,
)
from .momentum import h_and_f, momentum_map

#: rows per numpy pass of _sample_trajectory() and of iteration over a
#: Trajectory, which bounds the temporaries a long run needs
_CHUNK = 2048
#: hits per block of _bounce_map(), the length of its one table of turns;
#: a block writes into the run's columns and needs two scratch columns
_BLOCK = 8192
#: bytes of one row of a Trajectory's columns: start, end, sheet and duration
_ROW_BYTES = 4 * 8 + 4 * 8 + 8 + 8
#: the least normal float, and the largest w t whose exp(w t) is a float
_MIN_NORMAL, _MAX_WT = sys.float_info.min, math.log(sys.float_info.max)


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
    Both are held column-major, so ``start.T[c]`` and ``end.T[c]`` are contiguous.
    The first ``reflections`` segments end at a wall hit followed by a
    reflection; if ``boundary_orbit`` is set, the last segment slides along
    the wall. ``stop_reason`` says why the run ended: ``"reflections"``
    (max_reflections reached), ``"time"`` (max_time reached), ``"grazing"``
    (a tangential wall hit) or ``"stable-manifold"`` (the start or a
    reflection lies on the stable manifold of the equilibrium, which never
    meets the wall: so do the rest state and the unstable ray's first reflection).

    As a sequence it yields TrajectorySegment values, built from the columns
    when asked for, and it hashes as the tuple of those values. bench/ is the
    only reader of that view and hash; ROADMAP item 2 deletes them.
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
        start, end, self.sheet, self.duration = columns
        self.start, self.end = np.asfortranarray(start), np.asfortranarray(end)
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


def _flow(x, y, vx, vy, w, e):
    """The state (x, y, vx, vy) after time t, with e = exp(w t): the half
    a = (x + v/w)/2 grows by e and b = (x - v/w)/2 shrinks by 1/e."""
    px, py = vx / w, vy / w
    ax, ay = 0.5 * (x + px) * e, 0.5 * (y + py) * e
    bx, by = 0.5 * (x - px) / e, 0.5 * (y - py) / e
    return ax + bx, ay + by, w * (ax - bx), w * (ay - by)


def _rotated(x, y, vx, vy, c, s):
    """The state (x, y, vx, vy) turned by the angle of cosine c and sine s."""
    return c * x - s * y, s * x + c * y, c * vx - s * vy, s * vx + c * vy


def flow_free(state: PhaseState, t: float, k: float) -> PhaseState:
    """Propagate the in-disk Hooke flow for time t (no wall check)."""
    if not t >= 0:  # NaN too
        raise ValidationError(f"propagation time t must be nonnegative, got {t!r}")
    require_repelling(k)
    w = math.sqrt(-k)
    if w * t > _MAX_WT:
        raise ValidationError(f"t={t!r} at k={k!r} puts exp(w t) past the float range")
    return PhaseState(state.sheet, *_flow(state.x, state.y, state.vx, state.vy, w, math.exp(w * t)))


def _wall_speed2(state: PhaseState, k: float) -> float:
    """(v.n/w)^2 where the orbit through state meets the wall.

    It is (2h - k - f^2)/|k| = (1 - r^2)(1 + |v/w|^2) + (x.v/w)^2, a sum of
    non-negative terms on the closed disk, and the discriminant of the
    wall-hit time's quadratic.
    """
    xv = (state.x * state.vx + state.y * state.vy) / math.sqrt(-k)
    return max(1.0 - state.r2, 0.0) * (1.0 + state.speed2 / -k) + xv * xv


def time_to_boundary(state: PhaseState, k: float) -> float:
    """Smallest t >= 0 with r(t) = 1 under the free flow.

    u = exp(2wt) is the larger root of |a|^2 u^2 - (1 - 2a.b) u + |b|^2 = 0.
    On the closed disk 1 - 2a.b >= 1/2 and the discriminant _wall_speed2()
    is a sum of non-negative terms, so the root has no cancellation. A start
    within BOUNDARY_TOL outside the wall counts as on it; a start on the wall
    moving outward returns 0, and one on the stable manifold (a = 0 exactly,
    by its components) inf. A tiny nonzero a reflects: where |a|^2 falls below
    the normal float range, log(2|a|^2) is taken from log|a| instead.
    """
    require_repelling(k)
    r2 = state.r2
    if r2 - 1.0 > BOUNDARY_TOL:
        raise ValidationError("state lies outside the closed unit disk")
    w = math.sqrt(-k)
    ax, ay = 0.5 * (state.x + state.vx / w), 0.5 * (state.y + state.vy / w)
    a2 = ax * ax + ay * ay
    if a2 >= _MIN_NORMAL:
        log_2a2 = math.log(2.0 * a2)
    elif ax == ay == 0.0:  # v = -w*x: the inbound stable ray, or rest at the origin
        return math.inf
    else:  # |a| below about 1.5e-162 squares to a subnormal or to 0
        log_2a2 = math.log(2.0) + 2.0 * math.log(math.hypot(ax, ay))
    # u = (1 - 2a.b + sqrt(disc)) / (2|a|^2) with 2a.b = (r^2 - |v/w|^2)/2,
    # taken as a difference of logs since u overflows when |a|^2 is tiny
    disc = _wall_speed2(state, k)
    log_u = math.log(1.0 - 0.5 * (r2 - state.speed2 / -k) + math.sqrt(disc)) - log_2a2
    return max(log_u, 0.0) / (2.0 * w)


def reflect(table: BookTable, state: PhaseState) -> PhaseState:
    """Elastic reflection at the wall plus transition to the next sheet."""
    r2 = state.r2
    if abs(r2 - 1.0) >= BOUNDARY_TOL:
        raise ValidationError("reflect requires a state on the boundary circle")
    r = math.sqrt(r2)
    nx, ny = state.x / r, state.y / r
    vn = state.vx * nx + state.vy * ny
    if vn < -GRAZING_TOL * math.sqrt(-table.k):
        raise ValidationError("reflect requires a nonnegative outward velocity")
    vn2 = 2.0 * vn
    return PhaseState(table.next_sheet(state.sheet), state.x, state.y,
                      state.vx - vn2 * nx, state.vy - vn2 * ny)


def sample_segment(segment: TrajectorySegment, k: float, count: int) -> list[PhaseState]:
    """States at count+1 equally spaced times along the segment (ends included), as the one-row
    run of _sample_trajectory(). bench/ is its only caller; ROADMAP item 2 deletes it."""
    start, end = segment.start, segment.end
    rows = np.array([(start.x, start.y, start.vx, start.vy), (end.x, end.y, end.vx, end.vy)])
    # _sample_trajectory() reads a run's start, duration and boundary_orbit
    one = Trajectory((rows[:1], rows[1:], np.array([start.sheet]), np.array([segment.duration])),
                     0, "time", segment.boundary_orbit)
    _, _, states = next(_sample_trajectory(one, k, count))
    return [PhaseState(start.sheet, *state) for state in states[0].tolist()]


def _sample_trajectory(
    trajectory: Trajectory, k: float, count: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """States at count+1 equally spaced times along each segment of a run, a chunk at a time.

    Yields (first segment of the chunk, tau, states): ``tau[i, j]`` is the
    time since segment i's start of its j-th of count+1 equally spaced
    samples and ``states[i, j]`` the state (x, y, vx, vy) there, from the
    kernels of flow_free() and _slide(); a segment's first sample is its start.
    """
    w = math.sqrt(-k)
    steps = np.arange(count + 1)
    for lo in range(0, len(trajectory), _CHUNK):
        hi = min(lo + _CHUNK, len(trajectory))
        start = trajectory.start[lo:hi]
        duration = trajectory.duration[lo:hi, None]
        tau = duration * steps / count
        x, y, vx, vy = (column[:, None] for column in start.T)
        states = np.stack(_flow(x, y, vx, vy, w, np.exp(w * tau)), axis=-1)
        if trajectory.boundary_orbit and hi == len(trajectory):
            # on r = 1 the angular speed equals f
            x, y, vx, vy = start[-1].tolist()
            angles = h_and_f(x, y, vx, vy, k)[1] * duration[-1, 0] * steps / count
            states[-1] = np.stack(_rotated(x, y, vx, vy, np.cos(angles), np.sin(angles)), -1)
        # the flow at tau = 0 rebuilds v as w (a - b), which loses the
        # relative accuracy of a component much smaller than |x|
        states[:, 0] = start
        yield lo, tau, states


def _slide(state: PhaseState, duration: float, k: float) -> tuple[PhaseState, float, PhaseState]:
    """The arc that slides along the wall from a state on it, as pure rotation."""
    # on r = 1 the angular speed equals f
    row = (state.x, state.y, state.vx, state.vy)
    angle = h_and_f(*row, k)[1] * duration
    end = _rotated(*row, math.cos(angle), math.sin(angle))
    return state, duration, PhaseState(state.sheet, *end)


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


def _hit_count(
    t0: float, t_r: float, max_reflections: int | None, max_time: float | None
) -> tuple[int, float | None]:
    """Wall hits before the stop, and the max_time tail (None if reflections stop first).

    Hit j comes at t0 + j*t_r; it counts when that is before max_time. A count
    whose columns exceed physical memory is refused before it is made exact,
    since at such sizes t0 + j*t_r cannot tell j from j + 1.
    """
    counted = max_time is None or (
        max_reflections is not None and t0 + (max_reflections - 1) * t_r < max_time
    )
    hits = int(max_reflections) if counted else max(math.ceil((max_time - t0) / t_r), 1)
    msg = "%d wall hits (max_reflections=%r, max_time=%r)"
    require_fits(hits * _ROW_BYTES, msg, hits, max_reflections, max_time)
    if counted:
        return max_reflections, None
    while t0 + (hits - 1) * t_r >= max_time:
        hits -= 1
    while t0 + hits * t_r < max_time:
        hits += 1
    return hits, max_time - (t0 + (hits - 1) * t_r)


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
    start, end = np.empty((rows, 4), order="F"), np.empty((rows, 4), order="F")
    start[0] = (initial.x, initial.y, initial.vx, initial.vy)
    row = (hit.x, hit.y, hit.vx, hit.vy)
    # a block at a time, so its table and scratch stay small: block lo turns
    # the hit by lo*dphi, then by the table of turns i*dphi every block shares
    turns = np.arange(min(hits, _BLOCK)) * dphi
    cos, sin = np.cos(turns), np.sin(turns)
    scratch = np.empty((2, len(turns)))
    for lo in range(0, hits, _BLOCK):
        hi = min(lo + _BLOCK, hits)
        first = _rotated(*row, math.cos(lo * dphi), math.sin(lo * dphi)) if lo else row
        c, s, (u, v) = cos[: hi - lo], sin[: hi - lo], scratch[:, : hi - lo]
        # _rotated() of (x, y) and of (vx, vy), written into the hit columns
        x, y, vx, vy = end[lo:hi].T
        for px, py, ox, oy in ((*first[:2], x, y), (*first[2:], vx, vy)):
            np.subtract(np.multiply(c, px, out=ox), np.multiply(s, py, out=u), out=ox)
            np.add(np.multiply(s, px, out=oy), np.multiply(c, py, out=u), out=oy)
        # every start after the first is the reflection of the previous hit,
        # by reflect()'s operations in its order, so it sits exactly where that
        # hit is; the last hit of a run stopped by max_reflections starts nothing.
        # The starts' velocity columns hold r, then vn2, before the reflected velocity.
        m = min(hi, rows - 1) - lo
        start[lo + 1 : lo + 1 + m, :2] = end[lo : lo + m, :2]
        x, y, vx, vy, u, v = x[:m], y[:m], vx[:m], vy[:m], u[:m], v[:m]
        sx, sy = start[lo + 1 : lo + 1 + m, 2:].T
        r = np.sqrt(np.add(np.multiply(x, x, out=sx), np.multiply(y, y, out=sy), out=sx), out=sx)
        nx, ny = np.divide(x, r, out=u), np.divide(y, r, out=v)
        vn2 = np.multiply(np.add(np.multiply(vx, nx, out=sx), np.multiply(vy, ny, out=sy), out=sx), 2.0, out=sx)
        np.subtract(vy, np.multiply(vn2, ny, out=sy), out=sy)
        np.subtract(vx, np.multiply(vn2, nx, out=u), out=sx)
    # row j lies on sheet next_sheet(initial.sheet, j), which repeats after n rows
    cycle = table.next_sheet(initial.sheet, np.arange(min(table.sheets, rows)))
    sheet = np.tile(cycle, -(-rows // len(cycle)))[:rows]
    duration = np.full(rows, t_r)
    duration[0] = t0
    if tail is not None:
        w = math.sqrt(-table.k)
        end[-1] = _flow(*start[-1].tolist(), w, math.exp(w * tail))
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

    One step of time_to_boundary() and flow_free() solves the head arc, from
    the initial state to the first wall hit, then the first full arc, from
    that hit through reflect() to the next one; it tests each stop once, in
    the order the stops come in time. The full arc gives T_r (its duration)
    and dphi (the signed angle between its ends). Every later arc starts at
    the reflection of the previous hit, lasts T_r and ends at the first hit
    rotated by a multiple of dphi, one sheet further on. Each segment ends at
    the wall (reflected) except possibly the last, which max_time cuts or
    which ends at a grazing hit; ``stop_reason`` says which stop came first.
    A first wall hit off the wall (|r^2 - 1| not below BOUNDARY_TOL, which
    the wall-hit time misses at large |v|/w) raises ConvergenceError, and so
    does an arc whose exp(w t) passes the float range.
    """
    if max_reflections is None and max_time is None:
        raise ValidationError("a stop condition (max_reflections or max_time) is required")
    if max_reflections is not None:
        require_count(max_reflections, "max_reflections", 0)
    # 0 < nan is false, and an int is compared exactly: float() overflows past the float range
    huge = isinstance(max_time, int) and max_time > sys.float_info.max
    if max_time is not None and (huge or not 0 < max_time < math.inf):
        raise ValidationError(f"max_time must be positive and finite, got {max_time!r}")
    max_time = None if max_time is None else float(max_time)  # a numpy float cuts as a float
    if not all(map(math.isfinite, (initial.x, initial.y, initial.vx, initial.vy))):
        raise ValidationError(f"initial state must be finite, got {initial}")

    k, r2, w = table.k, initial.r2, math.sqrt(-table.k)
    table.next_sheet(initial.sheet)  # raises ValidationError for a sheet off the book
    if r2 - 1.0 > BOUNDARY_TOL:
        raise ValidationError("initial state must lie in the closed unit disk")
    mv = momentum_map(initial, k)
    if not (math.isfinite(mv.h) and math.isfinite(mv.f)):
        raise ValidationError(f"H and F of the initial state must be finite, got {mv}")

    # The critical orbit meets the wall at v.n = 0: its region of motion is the wall circle.
    if _wall_speed2(initial, k) < GRAZING_TOL**2:
        if max_time is None:
            raise ValidationError("the boundary critical orbit never reflects; use max_time")
        return _arcs([_slide(initial, max_time, k)], 0, "time", boundary_orbit=True)

    unstable = initial.x == initial.vx / w and initial.y == initial.vy / w  # b = 0
    arcs, clock = [], 0.0
    for made in range(2):  # reflections made before the step: the head arc, then the full arc
        if made == max_reflections:
            return _arcs(arcs, made, "reflections")
        start = reflect(table, hit) if made else initial
        # a start on the unstable ray (b = 0) reflects onto the stable ray in exact arithmetic
        t = math.inf if made and unstable else time_to_boundary(start, k)
        if t == math.inf:
            return _arcs(arcs, made, "stable-manifold")
        cut = max_time is not None and clock + t >= max_time
        t = max_time - clock if cut else t
        if w * t > _MAX_WT:  # an |a| near the subnormal range: no input is at fault
            raise ConvergenceError(f"the flow from {start} for t={t!r} passes the float range")
        hit = flow_free(start, t, k)
        if cut:
            return _arcs(arcs + [(start, t, hit)], made, "time")
        residual = abs(hit.r2 - 1.0)
        if not (made or residual < BOUNDARY_TOL):  # the wall-hit solver failed: no input is at fault
            raise ConvergenceError(f"the first wall hit is off the wall: |r^2 - 1| = {residual:.3g}")
        arcs.append((start, t, hit))
        if abs(hit.x * hit.vx + hit.y * hit.vy) < GRAZING_TOL * w:
            # a tangential hit ends the run; the rest of max_time slides along the wall
            slides = max_time is not None and max_time - clock > t
            tail = [_slide(hit, (max_time - clock) - t, k)] if slides else []
            return _arcs(arcs + tail, made, "grazing", slides)
        clock += t

    (_, t0, first), (_, t_r, end) = arcs
    dphi = math.atan2(first.x * end.y - first.y * end.x, first.x * end.x + first.y * end.y)
    hits, tail = _hit_count(t0, t_r, max_reflections, max_time)
    return _bounce_map(table, initial, first, t0, t_r, dphi, hits, tail)
