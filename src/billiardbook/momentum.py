"""Momentum map, its image, the bifurcation diagram, and fiber classification.

The map sends a phase state to (h, f) = (H, F). Its image is the convex region
h >= (f^2 + k)/2; the critical values form the boundary parabola plus the
isolated point (0, 0), over which sits the n-pinched singular fiber.

A value is judged in the w = 1 frame of model.py: with d = (h - (f^2 + k)/2)/|k|
it lies outside the image when d < -SIGMA_TOL, on the parabola when |d| <= SIGMA_TOL,
and is (0, 0) when |h|/|k| and |f|/w are both within SIGMA_TOL. A NaN h or f is refused.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import (
    SIGMA_TOL, BookTable, MomentumValue, PhaseState, ValidationError, require_count, require_fits,
    require_repelling,
)


class FiberTag(enum.Enum):
    OUTSIDE_IMAGE = "outside-image"
    ATOM_A_CIRCLE = "atom-A-circle"
    REGULAR_TORUS = "regular-torus"
    PINCHED_TORUS = "pinched-torus"


#: the tags in their enum order; classify_grid() returns indices into it
FIBER_TAGS = tuple(FiberTag)

#: the numpy functions of the (h, f) formulas, from math for one value (with numpy's a / 0 = inf)
_FLOATS = SimpleNamespace(
    sqrt=math.sqrt, arccosh=math.acosh, tanh=math.tanh, arctan2=math.atan2,
    divide=lambda a, b: a / b if b else math.inf, where=lambda cond, yes, no: yes if cond else no,
)


@dataclass(frozen=True)
class FiberClass:
    """Classification of one momentum-map fiber.

    For the singular fiber over (0, 0) the pinch count equals the sheet count
    and the fiber carries the rank-0 equilibria; it is homotopy equivalent to
    a bouquet of that many 2-spheres. Only this combinatorial data is
    reported; no mesh of the fiber is built.
    """

    tag: FiberTag
    pinches: int | None = None
    contains_focus_focus: bool = False


def momentum_map(state: PhaseState, k: float) -> MomentumValue:
    """Evaluate (H, F) on a phase state."""
    return MomentumValue(*h_and_f(state.x, state.y, state.vx, state.vy, k))


def h_and_f(x, y, vx, vy, k):
    """H and F of the state (x, y, vx, vy), given as floats or as numpy columns."""
    return 0.5 * (vx * vx + vy * vy) + 0.5 * k * (x * x + y * y), x * vy - y * vx


def gradients(state: PhaseState, k: float) -> tuple[np.ndarray, np.ndarray]:
    """The covectors dH and dF at a state, in (x, y, vx, vy) components."""
    dh = np.array([k * state.x, k * state.y, state.vx, state.vy])
    df = np.array([state.vy, -state.vx, -state.y, state.x])
    return dh, df


def in_image(h: float, f: float, k: float) -> bool:
    """Whether (h, f) lies in the image of the momentum map, by classify_fiber()'s outside test."""
    return classify_fiber(BookTable(k), h, f).tag is not FiberTag.OUTSIDE_IMAGE


def inner_radius(h: float, f: float, k: float) -> float:
    """Inner radius r0 of the annulus of possible motion.

    r0 = sqrt((-h + sqrt(h^2 - k f^2)) / (-k)); zero exactly when h >= 0 and
    f = 0 (motion along a diameter through the center).
    """
    if not in_image(h, f, k):
        raise ValidationError(f"({h}, {f}) is outside the momentum-map image")
    return math.sqrt(max(_root_and_rho0(_FLOATS, h, f, k)[1], 0.0))


def _root_and_rho0(xp, h, f, k):
    """sqrt(h^2 - k f^2) and rho0 = r0^2 >= 0, the root of -k rho^2 + 2h rho - f^2 (no image check),
    at one value (xp = _FLOATS) or arrays (xp = numpy): f^2/(root + h) for h > 0, free of the
    cancellation in (root - h)/(-k). The selects pick operands, so (0, 0) divides by -k, not 0."""
    root = xp.sqrt(h * h - k * f * f)
    s = root + abs(h)  # root - h where h <= 0
    positive = h > 0.0
    return root, xp.where(positive, f * f, s) / xp.where(positive, s, -k)


def _require_number(h: float, f: float, what="value", error=ValidationError) -> None:
    """error naming what and (h, f) if h or f is NaN, which no state maps to."""
    if math.isnan(h) or math.isnan(f):
        raise error(f"{what} ({h}, {f}) is not finite")


def _fiber_tests(h, f, k):
    """classify_fiber's tests of (h, f) in the w = 1 frame, floats or arrays, in deciding order:
    outside the image, the singular value (0, 0), the parabola. Passing none (NaN too) is regular."""
    d = (h - (f * f + k) / 2.0) / -k
    singular = (abs(h) / -k <= SIGMA_TOL) & (abs(f) / math.sqrt(-k) <= SIGMA_TOL)
    return d < -SIGMA_TOL, singular, abs(d) <= SIGMA_TOL


def classify_fiber(table: BookTable, h: float, f: float) -> FiberClass:
    """Classify the fiber over (h, f); values within SIGMA_TOL of Sigma, scaled, are singular."""
    _require_number(h, f)
    outside, singular, circle = _fiber_tests(h, f, table.k)
    if outside:
        return FiberClass(FiberTag.OUTSIDE_IMAGE)
    if singular:
        return FiberClass(FiberTag.PINCHED_TORUS, pinches=table.sheets, contains_focus_focus=True)
    if circle:
        return FiberClass(FiberTag.ATOM_A_CIRCLE)
    return FiberClass(FiberTag.REGULAR_TORUS)


def classify_grid(table: BookTable, h, f) -> np.ndarray:
    """classify_fiber's rule on broadcast arrays: the FIBER_TAGS index of each value."""
    h, f = np.asarray(h, dtype=float), np.asarray(f, dtype=float)
    if np.isnan(h).any() or np.isnan(f).any():  # before broadcasting: a grid's axes, not its cells
        h_cells, f_cells = (v.ravel() for v in np.broadcast_arrays(h, f))
        for i in np.flatnonzero(np.isnan(h_cells) | np.isnan(f_cells))[:1]:  # the first NaN cell
            _require_number(h_cells[i], f_cells[i])
    singular = (FiberTag.OUTSIDE_IMAGE, FiberTag.PINCHED_TORUS, FiberTag.ATOM_A_CIRCLE)
    codes = [FIBER_TAGS.index(tag) for tag in singular]
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN, d/|k| may be inf
        tests = _fiber_tests(h, f, table.k)
    return np.select(tests, codes, FIBER_TAGS.index(FiberTag.REGULAR_TORUS))


@dataclass(frozen=True)
class BifurcationDiagram:
    """Sampled critical values: the parabola h = (f^2+k)/2 plus the point (0,0)."""

    k: float
    f: np.ndarray
    h: np.ndarray
    isolated_point: tuple[float, float] = (0.0, 0.0)


def bifurcation_diagram(
    k: float, f_min: float = -1.5, f_max: float = 1.5, resolution: int = 201
) -> BifurcationDiagram:
    """Sample the bifurcation diagram over an f-range."""
    require_repelling(k)
    require_count(resolution, "resolution", 2)
    if f_min == f_max:
        raise ValidationError(f"f_min and f_max must differ, both are {f_min!r}")
    require_fits(2 * 8 * int(resolution), "resolution=%r", resolution)  # the f and h columns
    f = np.linspace(f_min, f_max, resolution)
    h = (f * f + k) / 2.0
    return BifurcationDiagram(k=k, f=f, h=h)

