"""Momentum map, its image, the bifurcation diagram, and fiber classification.

The map sends a phase state to (h, f) = (H, F). Its image is the convex region
h >= (f^2 + k)/2; the critical values form the boundary parabola plus the
isolated point (0, 0), over which sits the n-pinched singular fiber.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import BookTable, MomentumValue, PhaseState, ValidationError

#: classification tolerance in (h, f) space
SIGMA_TOL = 1e-9


class FiberTag(enum.Enum):
    OUTSIDE_IMAGE = "outside-image"
    ATOM_A_CIRCLE = "atom-A-circle"
    REGULAR_TORUS = "regular-torus"
    PINCHED_TORUS = "pinched-torus"


#: the tags in their enum order; classify_grid() returns indices into it
FIBER_TAGS = tuple(FiberTag)


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
    h = 0.5 * state.speed2 + 0.5 * k * state.r2
    f = state.x * state.vy - state.y * state.vx
    return MomentumValue(h, f)


def gradients(state: PhaseState, k: float) -> tuple[np.ndarray, np.ndarray]:
    """The covectors dH and dF at a state, in (x, y, vx, vy) components."""
    dh = np.array([k * state.x, k * state.y, state.vx, state.vy])
    df = np.array([state.vy, -state.vx, -state.y, state.x])
    return dh, df


def in_image(h: float, f: float, k: float) -> bool:
    """Whether (h, f) lies in the image of the momentum map."""
    if not k < 0:
        raise ValidationError("k must be negative")
    return h >= (f * f + k) / 2.0


def inner_radius(h: float, f: float, k: float) -> float:
    """Inner radius r0 of the annulus of possible motion.

    r0 = sqrt((-h + sqrt(h^2 - k f^2)) / (-k)); zero exactly when h >= 0 and
    f = 0 (motion along a diameter through the center).
    """
    if not in_image(h, f, k):
        raise ValidationError(f"({h}, {f}) is outside the momentum-map image")
    return math.sqrt(max(inner_radius_squared(h, f, k), 0.0))


def inner_radius_squared(h: float, f: float, k: float) -> float:
    """rho0 = r0^2, the root >= 0 of -k rho^2 + 2h rho - f^2 (no image check)."""
    root = math.sqrt(h * h - k * f * f)
    if h > 0.0:
        # avoid cancellation of -h + root for small f
        return f * f / (root + h)
    return (-h + root) / (-k)


def classify_fiber(table: BookTable, h: float, f: float) -> FiberClass:
    """Classify the fiber over (h, f); values within SIGMA_TOL of Sigma are singular."""
    k = table.k
    d = h - (f * f + k) / 2.0
    if d < -SIGMA_TOL:
        return FiberClass(FiberTag.OUTSIDE_IMAGE)
    if max(abs(h), abs(f)) <= SIGMA_TOL:
        return FiberClass(FiberTag.PINCHED_TORUS, pinches=table.sheets, contains_focus_focus=True)
    if abs(d) <= SIGMA_TOL:
        return FiberClass(FiberTag.ATOM_A_CIRCLE)
    return FiberClass(FiberTag.REGULAR_TORUS)


def classify_grid(table: BookTable, h, f) -> np.ndarray:
    """classify_fiber's rule on broadcast arrays: the FIBER_TAGS index of each value.

    The same comparisons in the same order as classify_fiber, which stays the
    scalar form because numpy's per-call cost outweighs the work on one value.
    """
    h, f = np.asarray(h, dtype=float), np.asarray(f, dtype=float)
    d = h - (f * f + table.k) / 2.0
    return np.select(
        [d < -SIGMA_TOL, np.maximum(np.abs(h), np.abs(f)) <= SIGMA_TOL, np.abs(d) <= SIGMA_TOL],
        [FIBER_TAGS.index(tag) for tag in (
            FiberTag.OUTSIDE_IMAGE, FiberTag.PINCHED_TORUS, FiberTag.ATOM_A_CIRCLE
        )],
        FIBER_TAGS.index(FiberTag.REGULAR_TORUS),
    )


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
    if not k < 0:
        raise ValidationError("k must be negative")
    if resolution < 2:
        raise ValidationError("resolution must be >= 2")
    f = np.linspace(f_min, f_max, resolution)
    h = (f * f + k) / 2.0
    return BifurcationDiagram(k=k, f=f, h=h)

