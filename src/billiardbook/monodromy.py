"""Radial periods, angular advances, and the monodromy integer.

On a regular torus the radius oscillates between the inner radius r0 and the
wall. One radial period costs

    T_r  = 2 * int_{r0}^{1} dr / sqrt(2h - k r^2 - f^2/r^2)
    dphi = 2 * int_{r0}^{1} (f / r^2) dr / sqrt(2h - k r^2 - f^2/r^2)

Both integrals are elementary. With w = sqrt(-k), alpha = sqrt(h^2 - k f^2)/w^2
and gamma = -h/w^2, rho = r^2 follows rho(tau) = alpha*cosh(2*w*tau) + gamma
from the inner turning point rho0 = r0^2, so

    T_r  = arccosh((1 - gamma)/alpha) / w
    dphi = 2 * atan(f * tanh(w*T_r/2) / (w*rho0))

(the action-variable and rotation-function algebra of Bolsinov--Fomenko,
*Integrable Hamiltonian Systems*, 2004). The sheet-closing cycle of the
n-sheeted book sweeps theta = n * dphi. Continuing the unwrapped theta along
a loop around the singular value (0, 0) gains 2*pi*m per turn; m is the
monodromy integer and equals the sheet count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .dynamics import flow_free, time_to_boundary
from .model import BookTable, ConvergenceError, PhaseState, ValidationError, require_count, require_fits
from .momentum import _FLOATS, _fiber_tests, _require_number, _root_and_rho0, classify_fiber

#: unwrapping is unambiguous only if dphi steps stay below this
UNWRAP_STEP = math.pi / 2
#: maximum waypoint-bisection depth before giving up
MAX_REFINE_DEPTH = 48
#: theta_center_limit's largest f, halved CENTER_LEVELS - 1 times
CENTER_F_START = 0.4
CENTER_LEVELS = 7


@dataclass(frozen=True)
class PeriodSample:
    """Radial period and angular advance at one regular momentum value."""

    h: float
    f: float
    T_r: float
    dphi: float
    theta: float


class PeriodSamples(Sequence):
    """Continuation samples as a read-only block of rows h, f, T_r, dphi and theta, compared and
    hashed as one. Indexing builds PeriodSample values, a slice a tuple of them: bench/ is the only
    reader of that row view, and ROADMAP item 2 deletes it."""

    __slots__ = ("columns", "h", "f", "T_r", "dphi", "theta")

    def __init__(self, columns: np.ndarray) -> None:
        columns.flags.writeable = False
        self.h, self.f, self.T_r, self.dphi, self.theta = self.columns = columns

    def __len__(self) -> int:
        return self.columns.shape[1]

    def __getitem__(self, index):
        picked = self.columns[:, index].tolist()
        return tuple(map(PeriodSample, *picked)) if type(index) is slice else PeriodSample(*picked)

    def __eq__(self, other) -> bool:
        return isinstance(other, PeriodSamples) and np.array_equal(self.columns, other.columns)

    def __hash__(self) -> int:
        return hash((self.columns + 0.0).tobytes())  # + 0.0: -0.0 and 0.0, equal here, hash alike

    def __reduce__(self):
        return PeriodSamples, (self.columns,)


@dataclass(frozen=True)
class MoleculeLabels:
    """Fomenko-Zieschang marks of the A--A molecules, derived from measured m."""

    r_hneg: float  # always infinity for the h < 0 slice
    r_hpos: Fraction
    epsilon: int
    derived_from_m: int


@dataclass(frozen=True)
class MonodromyReport:
    loop: tuple[tuple[float, float], ...]
    samples: PeriodSamples
    theta_unwrapped: tuple[float, ...]
    delta_theta: float
    m: int
    unwrap_margin: float  # largest |dphi step| over UNWRAP_STEP, below 1
    bisections: int  # midpoints inserted between waypoints
    monodromy_matrix: tuple[tuple[int, int], tuple[int, int]]
    gluing_matrix_hpos: tuple[tuple[int, int], tuple[int, int]] | None
    labels: MoleculeLabels | None


def radial_period_quadrature(table: BookTable, h: float, f: float) -> PeriodSample:
    """T_r and dphi at a regular value; theta = n * dphi.

    The name is kept for API stability: the closed forms of the module docstring are evaluated,
    not a quadrature. For f = 0 with h > 0 (diameter orbits) dphi is the f -> 0+ limit pi; the
    f -> 0- limit -pi differs by 2*pi, which continue_theta's unwrapping absorbs.
    """
    t_r, dphi = _period(_FLOATS, table, h, f)
    return PeriodSample(h, f, t_r, dphi, table.sheets * dphi)


def _period_columns(table: BookTable, h, f, what="value", error=ValidationError) -> tuple[np.ndarray, ...]:
    """T_r and dphi of radial_period_quadrature() at arrays of values, refused by the same gate."""
    with np.errstate(all="ignore"):  # an overflow is what the gate looks for; (0, 0) gives c = inf
        return _period(np, table, h, f, what, error)


def _period(xp, table: BookTable, h, f, what="value", error=ValidationError):
    """T_r and dphi at one value (xp = _FLOATS) or at arrays (xp = numpy), refused by _gate().

    Both forms stay: numpy costs several times the work on one value, and a call per waypoint far
    more than one array pass. libm's acosh, tanh and atan2 may differ from numpy's in the last bit.
    """
    cosh_wt, rho0 = _gate(xp, table, h, f, what, error)
    w = math.sqrt(-table.k)
    t_r = xp.arccosh(cosh_wt) / w
    dphi = 2.0 * xp.arctan2(f * xp.tanh(w * t_r / 2.0), w * rho0)
    return t_r, xp.where((f == 0.0) & (h > 0.0), math.pi, dphi)


def _gate(xp, table: BookTable, h, f, what="value", error=ValidationError):
    """cosh(w T_r) and rho0 at values (h, f), or error naming what and the first without a period:
    a NaN h or f, then a value that is not regular (naming its fiber), then one whose cosh(w T_r)
    is not above 1, as the root overflowed (an infinite h, too) or c rounded to 1."""
    k = table.k
    root, rho0 = _root_and_rho0(xp, h, f, k)
    cosh_wt = xp.divide(1.0 - h / k, root / -k)  # (1 - gamma)/alpha, w^2 = -k
    if xp is np:  # arrays: the first value without a period (NaN fails c > 1) is refused below
        outside, singular, circle = _fiber_tests(h, f, k)
        usable = (cosh_wt > 1.0) & ~(outside | singular | circle)
        if usable.all():
            return cosh_wt, rho0
        h, f, cosh_wt = (v[np.argmin(usable)] for v in (h, f, cosh_wt))
    _require_number(h, f, what, error)
    if any(_fiber_tests(h, f, k)):
        tag = classify_fiber(table, h, f).tag.value
        raise error(f"{what} ({h}, {f}) is not a regular value (fiber: {tag})")
    if not cosh_wt > 1.0:
        raise error(
            f"{what} ({h}, {f}) overflows h^2 - k f^2 or rounds T_r to 0 (cosh(w T_r) = {cosh_wt})"
        )
    return cosh_wt, rho0


def boundary_state(table: BookTable, h: float, f: float) -> PhaseState:
    """A phase state at (1, 0) moving inward with momentum value (h, f), refused by _gate()."""
    _gate(_FLOATS, table, h, f)
    return PhaseState(1, 1.0, 0.0, -math.sqrt(2.0 * h - table.k - f * f), f)


def radial_period_simulated(table: BookTable, h: float, f: float) -> PeriodSample:
    """T_r and dphi measured on one wall-to-wall arc of the exact flow.

    Independent of the closed forms: the period is the first-return time to
    the wall from time_to_boundary(), the advance is the signed angle between
    the arc's endpoints. One arc advances by |dphi| <= pi with the sign of f, which
    makes that angle unambiguous. boundary_state() refuses a value as the closed forms do.
    """
    a = boundary_state(table, h, f)
    t_r = time_to_boundary(a, table.k)
    b = flow_free(a, t_r, table.k)
    dphi = math.atan2(b.y, b.x)  # a is (1, 0)
    return PeriodSample(h, f, t_r, dphi, table.sheets * dphi)


def loop_around_origin(
    table: BookTable, c: float = 0.5, f_max: float = 0.8, points_per_arc: int = 64
) -> list[tuple[float, float]]:
    """Closed counterclockwise polyline around (0, 0) in the (h, f) plane.

    The left part is the arc of the parabola h = (f^2 + c^2 k)/(2c) of
    constant inner radius r0 = c; the right part is the vertical segment
    h = const joining the arc endpoints. Each part has points_per_arc intervals, rounded up to
    even: a waypoint at f = 0 (to rounding) on each makes the polygon wind once around (0, 0).
    The corner, with the least cosh(w T_r) up to rounding and further inside the image than any
    arc waypoint, is gated here; continue_theta() gates all.
    """
    k = table.k
    if not 0.0 < c < 1.0:
        raise ValidationError("c must lie strictly between 0 and 1")
    if f_max <= 0.0:
        raise ValidationError("f_max must be positive")
    h_right = (f_max * f_max + c * c * k) / (2.0 * c)
    if h_right <= 0.0:
        raise ValidationError(
            f"loop does not enclose (0, 0): need f_max > c*sqrt(-k) = {c * math.sqrt(-k):g}"
        )
    _gate(_FLOATS, table, h_right, f_max, "loop corner")
    require_count(points_per_arc, "points_per_arc", 2)
    require_fits(32 * int(points_per_arc), "points_per_arc=%r", points_per_arc)  # h, f a waypoint

    # parabola arc traversed with f increasing: in the (f, h) plane the arc
    # passes below the origin, so this orientation winds counterclockwise;
    # then the closing segment at constant h right of the origin, f decreasing
    intervals = points_per_arc + points_per_arc % 2
    f_arc = np.linspace(-f_max, f_max, intervals + 1)
    f_segment = np.linspace(f_max, -f_max, intervals + 1)[1:-1]
    h = np.concatenate(((f_arc * f_arc + c * c * k) / (2.0 * c), np.full(f_segment.size, h_right)))
    f = np.concatenate((f_arc, f_segment))
    return list(zip(h.tolist(), f.tolist()))


def _unwrap(dphi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dphi moved by whole turns so that each step is the nearest to zero, and the steps' sizes."""
    turns = np.zeros(dphi.size)
    np.rint((dphi[1:] - dphi[:-1]) / (2.0 * math.pi)).cumsum(out=turns[1:])
    unwrapped = dphi - 2.0 * math.pi * turns
    return unwrapped, np.abs(unwrapped[1:] - unwrapped[:-1])


def _waypoints(loop) -> np.ndarray:
    """Rows h, f of the loop, read flat; the first waypoint not a pair of numbers is refused."""
    with suppress(TypeError, ValueError):
        if {*map(len, loop)} == {2}:
            return np.fromiter(chain.from_iterable(loop), float, 2 * len(loop)).reshape(-1, 2).T
    for i, point in enumerate(loop):
        with suppress(TypeError, ValueError):
            if len(point) == 2 and np.fromiter(point, float).shape == (2,):
                continue
        raise ValidationError(f"loop waypoint {i} {point!r} is not a pair of numbers")


def continue_theta(table: BookTable, loop: list[tuple[float, float]]) -> MonodromyReport:
    """Continue the unwrapped theta along the closed loop and read off m.

    The samples fill one block of rows h, f, T_r, dphi and theta in place. dphi jumps only by 2*pi,
    across the cut f = 0, h > 0, so dphi (not theta = n * dphi, whose steps alias near 2*pi) is
    unwrapped, each step nearest to zero, and theta_unwrapped = n * dphi_unwrapped. Gaps whose step
    is still >= pi/2 are bisected until none is; each round gates its new values once, in one array
    pass of the closed forms, and takes the unwrap's steps once. A refused waypoint raises
    ValidationError, a refused midpoint ConvergenceError. After a full turn theta gains 2*pi*m;
    unwrap_margin is the largest dphi step over pi/2.
    """
    if len(loop) < 3:
        raise ValidationError("loop needs at least 3 waypoints")
    # the loop is closed: its last sample is loop[0] again; theta's row is written last
    block = np.empty((5, len(loop) + 1))
    block[:2, :-1] = _waypoints(loop)
    block[2, :-1], block[3, :-1] = _period_columns(table, *block[:2, :-1], "loop waypoint")
    block[:4, -1] = block[:4, 0]

    for depth in range(MAX_REFINE_DEPTH + 1):
        unwrapped, steps = _unwrap(block[3])
        if (largest := steps.max()) < UNWRAP_STEP:
            break
        gaps = np.flatnonzero(steps >= UNWRAP_STEP)
        if depth == MAX_REFINE_DEPTH:
            (h0, f0), (h1, f1) = block[:2, gaps[0]], block[:2, gaps[0] + 1]
            raise ConvergenceError(
                f"dphi unwrapping did not stabilize between ({h0}, {f0}) and ({h1}, {f1})"
            )
        mids = (block[:2, gaps] + block[:2, gaps + 1]) / 2.0
        periods = _period_columns(table, *mids, "bisection midpoint", ConvergenceError)
        block = np.insert(block, gaps + 1, np.vstack((mids, *periods, periods[1])), axis=1)

    # the last sample is loop[0] again, so dphi gains whole turns, and m is n times their count,
    # in integers; m is as trustworthy as the largest step is clear of the unwrapping limit
    n = table.sheets
    np.multiply(n, block[3], out=block[4])
    m = int(n) * round((unwrapped[-1] - unwrapped[0]) / (2.0 * math.pi))
    unwrapped = (n * unwrapped).tolist()
    # h > 0 gluing matrix [[1, m], [0, -1]]: r = alpha/beta mod 1 = 1/m mod 1
    return MonodromyReport(
        loop=tuple(loop),
        samples=PeriodSamples(block),
        theta_unwrapped=tuple(unwrapped),
        delta_theta=unwrapped[-1] - unwrapped[0],
        m=m,
        unwrap_margin=float(largest) / UNWRAP_STEP,
        bisections=block.shape[1] - len(loop) - 1,
        monodromy_matrix=((1, 0), (m, 1)),
        gluing_matrix_hpos=((1, m), (0, -1)) if m != 0 else None,
        labels=MoleculeLabels(math.inf, Fraction(1, m) % 1, 1, m) if m >= 1 else None,
    )


def molecule_labels(table: BookTable, h_sign: int, report: MonodromyReport) -> MoleculeLabels:
    """Molecule labels of the report, for the isoenergy slice of the given sign of h.

    The h > 0 label r = 1/m mod 1 is read from the measured monodromy integer via the gluing
    matrix [[1, m], [0, -1]]. They are ``report.labels``: bench/ is the only caller of this
    function, and ROADMAP item 2 deletes it.
    """
    if h_sign == 0:
        raise ValidationError("h_sign must be negative or positive")
    if report.labels is None:
        raise ValidationError("report's loop does not enclose the singular value")
    return report.labels


def theta_center_limit(table: BookTable, h: float) -> float:
    """Extrapolated theta(h, f -> 0+) via Richardson over f = CENTER_F_START * 2^-j.

    Cross-checks the center-passage convention: the limit is n * pi. bench/ is its only caller
    (acceptance criterion 9 inlines its own), and ROADMAP item 2 deletes it.
    """
    row = [
        radial_period_quadrature(table, h, CENTER_F_START * 0.5**j).theta
        for j in range(CENTER_LEVELS)
    ]
    for j in range(1, CENTER_LEVELS):  # each row of the Richardson table from the last
        fac = 2.0**j
        row = [(fac * b - a) / (fac - 1.0) for a, b in zip(row, row[1:])]
    return row[0]
