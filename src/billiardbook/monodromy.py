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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import simulate
from .model import BookTable, ConvergenceError, PhaseState, ValidationError
from .momentum import FiberTag, classify_fiber, inner_radius_squared

#: unwrapping is unambiguous only if theta steps stay below this
UNWRAP_STEP = math.pi / 2
#: maximum waypoint-bisection depth before giving up
MAX_REFINE_DEPTH = 48


@dataclass(frozen=True)
class PeriodSample:
    """Radial period and angular advance at one regular momentum value."""

    h: float
    f: float
    T_r: float
    dphi: float
    theta: float


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
    samples: tuple[PeriodSample, ...]
    theta_unwrapped: tuple[float, ...]
    delta_theta: float
    m: int
    unwrap_margin: float  # largest kept |theta step| over UNWRAP_STEP, below 1
    monodromy_matrix: tuple[tuple[int, int], tuple[int, int]]
    gluing_matrix_hpos: tuple[tuple[int, int], tuple[int, int]] | None
    labels: MoleculeLabels | None


def radial_period_quadrature(table: BookTable, h: float, f: float) -> PeriodSample:
    """T_r and dphi at a regular value; theta = n * dphi.

    The name is kept for API stability: the function evaluates the closed
    forms of the module docstring, not a quadrature. For f = 0 with h > 0
    (diameter orbits) rho0 = 0 and the center passage contributes the
    f -> 0+ limit dphi = pi; the f -> 0- limit -pi gives a theta that differs
    by 2*pi*n, which continue_theta's unwrapping absorbs.
    """
    fiber = classify_fiber(table, h, f)
    if fiber.tag is not FiberTag.REGULAR_TORUS:
        raise ValidationError(
            f"({h}, {f}) is not a regular value (fiber: {fiber.tag.value})"
        )
    k = table.k
    w = math.sqrt(-k)
    alpha = math.sqrt(h * h - k * f * f) / -k  # w^2 = -k
    gamma = h / k
    t_r = math.acosh((1.0 - gamma) / alpha) / w
    if f == 0.0 and h > 0.0:
        dphi = math.pi
    else:
        rho0 = inner_radius_squared(h, f, k)
        dphi = 2.0 * math.atan2(f * math.tanh(w * t_r / 2.0), w * rho0)
    return PeriodSample(h, f, t_r, dphi, table.sheets * dphi)


def boundary_state(table: BookTable, h: float, f: float) -> PhaseState:
    """A phase state at (1, 0) moving inward with momentum value (h, f)."""
    vr2 = 2.0 * h - table.k - f * f
    if vr2 <= 0.0:
        raise ValidationError(f"({h}, {f}) admits no inward boundary state")
    return PhaseState(1, 1.0, 0.0, -math.sqrt(vr2), f)


def radial_period_simulated(table: BookTable, h: float, f: float) -> PeriodSample:
    """T_r and dphi measured on one simulated wall-to-wall segment.

    Independent of the closed forms: the period is the exact first-return
    time to the wall, the advance is the signed angle between the segment's
    endpoints. One arc advances by |dphi| <= pi with the sign of f, which
    makes that angle unambiguous.
    """
    fiber = classify_fiber(table, h, f)
    if fiber.tag is not FiberTag.REGULAR_TORUS:
        raise ValidationError(f"({h}, {f}) is not a regular value")
    start = boundary_state(table, h, f)
    segment = simulate(table, start, max_reflections=1)[0]
    a, b = segment.start, segment.end
    dphi = math.atan2(a.x * b.y - a.y * b.x, a.x * b.x + a.y * b.y)
    return PeriodSample(h, f, segment.duration, dphi, table.sheets * dphi)


def loop_around_origin(
    table: BookTable,
    c: float = 0.5,
    f_max: float = 0.8,
    points_per_arc: int = 64,
) -> list[tuple[float, float]]:
    """Closed counterclockwise polyline around (0, 0) in the (h, f) plane.

    The left part is the arc of the parabola h = (f^2 + c^2 k)/(2c) of
    constant inner radius r0 = c; the right part is the vertical segment
    h = const joining the arc endpoints. Every waypoint is a regular value.
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
    if points_per_arc < 2:
        raise ValidationError("points_per_arc must be >= 2")

    waypoints: list[tuple[float, float]] = []
    # parabola arc traversed with f increasing: in the (f, h) plane the arc
    # passes below the origin, so this orientation winds counterclockwise
    for f in np.linspace(-f_max, f_max, points_per_arc + 1):
        waypoints.append(((f * f + c * c * k) / (2.0 * c), float(f)))
    # closing segment at constant h right of the origin, f decreasing
    for f in np.linspace(f_max, -f_max, points_per_arc + 1)[1:-1]:
        waypoints.append((h_right, float(f)))

    for h, f in waypoints:
        if classify_fiber(table, h, f).tag is not FiberTag.REGULAR_TORUS:
            raise ValidationError(f"loop waypoint ({h}, {f}) is not a regular value")
    return waypoints


def _labels_from_m(m: int) -> MoleculeLabels:
    # h > 0 gluing matrix [[1, m], [0, -1]]: r = alpha/beta mod 1 = 1/m mod 1
    return MoleculeLabels(
        r_hneg=math.inf,
        r_hpos=Fraction(1, m) % 1,
        epsilon=1,
        derived_from_m=m,
    )


def continue_theta(table: BookTable, loop: list[tuple[float, float]]) -> MonodromyReport:
    """Continue the unwrapped theta along the closed loop and read off m.

    Each raw theta sample is adjusted by the nearest multiple of 2*pi to its
    predecessor; waypoint pairs whose adjusted step is still >= pi/2 are
    bisected adaptively. After a full turn theta gains 2*pi*m. The report's
    unwrap_margin is the largest kept step over pi/2.
    """
    if len(loop) < 3:
        raise ValidationError("loop needs at least 3 waypoints")

    samples: list[PeriodSample] = []
    unwrapped: list[float] = []

    first = radial_period_quadrature(table, *loop[0])
    samples.append(first)
    unwrapped.append(first.theta)

    def advance(prev_pt, prev_theta, point, depth):
        s = radial_period_quadrature(table, *point)
        theta = s.theta + 2.0 * math.pi * round((prev_theta - s.theta) / (2.0 * math.pi))
        if abs(theta - prev_theta) < UNWRAP_STEP:
            samples.append(s)
            unwrapped.append(theta)
            return theta
        if depth >= MAX_REFINE_DEPTH:
            raise ConvergenceError(
                f"theta unwrapping did not stabilize between {prev_pt} and {point}"
            )
        mid = ((prev_pt[0] + point[0]) / 2.0, (prev_pt[1] + point[1]) / 2.0)
        mid_theta = advance(prev_pt, prev_theta, mid, depth + 1)
        return advance(mid, mid_theta, point, depth + 1)

    prev_pt = loop[0]
    prev_theta = unwrapped[0]
    for point in list(loop[1:]) + [loop[0]]:
        prev_theta = advance(prev_pt, prev_theta, point, 0)
        prev_pt = point

    # the last sample is loop[0] again, so delta is a whole multiple of 2*pi;
    # m is as trustworthy as the largest step is clear of the unwrapping limit
    delta = unwrapped[-1] - unwrapped[0]
    m = round(delta / (2.0 * math.pi))
    largest_step = max(abs(b - a) for a, b in zip(unwrapped, unwrapped[1:]))
    gluing = ((1, m), (0, -1)) if m != 0 else None
    labels = _labels_from_m(m) if m >= 1 else None
    return MonodromyReport(
        loop=tuple(loop),
        samples=tuple(samples),
        theta_unwrapped=tuple(unwrapped),
        delta_theta=delta,
        m=m,
        unwrap_margin=largest_step / UNWRAP_STEP,
        monodromy_matrix=((1, 0), (m, 1)),
        gluing_matrix_hpos=gluing,
        labels=labels,
    )


def molecule_labels(
    table: BookTable,
    h_sign: int,
    report: MonodromyReport | None = None,
    **loop_kwargs,
) -> MoleculeLabels:
    """Molecule labels for the isoenergy slice of the given sign of h.

    The h > 0 label r = 1/m mod 1 is read from the measured monodromy integer
    via the gluing matrix [[1, m], [0, -1]]; no lookup table is involved. If
    no report is supplied, one is computed over the default loop.
    """
    if h_sign == 0:
        raise ValidationError("h_sign must be negative or positive")
    if report is None:
        loop = loop_around_origin(table, **loop_kwargs)
        report = continue_theta(table, loop)
    if report.labels is None:
        raise ValidationError("report's loop does not enclose the singular value")
    return report.labels


def theta_center_limit(
    table: BookTable, h: float, f_start: float = 0.4, levels: int = 7
) -> float:
    """Extrapolated theta(h, f -> 0+) via Richardson over f = f_start * 2^-j.

    Cross-checks the center-passage convention: the limit is n * pi.
    """
    thetas = [
        radial_period_quadrature(table, h, f_start * 0.5**j).theta
        for j in range(levels)
    ]
    table_r = [thetas]
    for j in range(1, levels):
        prev = table_r[-1]
        fac = 2.0**j
        table_r.append(
            [(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)]
        )
    return table_r[-1][0]
