"""Domain types for circular billiard books with a repelling Hooke potential.

A billiard book here is a stack of ``n`` unit disks glued along their common
boundary circle; a ball hitting the wall reflects elastically and moves to the
next sheet of the cyclic gluing. The central potential ``k*(x^2+y^2)/2`` with
``k < 0`` repels the ball from the center.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

#: physical memory, the most bytes of columns that any call allocates
MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

# Every tolerance lives in the w = 1 frame: (x, v, t, k) -> (x, v/w, w t, -1), w = sqrt(-k), takes
# the system at any k to the one at k = -1 and (h, f) to (h/|k|, f/w), so a test of the scaled
# quantity answers alike at every k. |r^2 - 1| < BOUNDARY_TOL is on the wall, |v.n|/w < GRAZING_TOL
# at a wall hit grazes, and SIGMA_TOL bounds how near (h/|k|, f/w) lies to the parabola and (0, 0).
BOUNDARY_TOL = 1e-9
GRAZING_TOL = 1e-12
SIGMA_TOL = 1e-9


class ValidationError(ValueError):
    """Input parameters or state violate a precondition."""


class ConvergenceError(RuntimeError):
    """A numerical procedure failed to reach its tolerance."""


def require_fits(size: int, what: str, *args) -> None:
    """Refuse ``size`` bytes of columns beyond physical memory, naming ``what % args``."""
    if size > MEMORY_BYTES:
        what %= args
        raise ValidationError(f"{what} would take {size} bytes; physical memory is {MEMORY_BYTES}")


def is_integer(value) -> bool:
    """The rule for every count and sheet: an int or a numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_count(count, name: str, least: int) -> None:
    """Refuse a ``count`` that is not an integer (is_integer) of at least ``least``, naming it."""
    if not (is_integer(count) and count >= least):
        raise ValidationError(f"{name} must be an integer >= {least}, got {count!r}")


def require_repelling(k: float) -> None:
    """Refuse a Hooke coefficient k that is not finite and negative."""
    if not -math.inf < k < 0:
        raise ValidationError(f"k must be negative and finite (repelling potential), got {k!r}")


@dataclass(frozen=True)
class BookTable:
    """An n-sheeted book of unit disks glued along the boundary circle.

    The gluing permutation is the single cycle (1 2 ... n). next_sheet() is the only code that
    applies it: reflect() takes one step, and a run's sheet column steps 0 .. min(n, rows) - 1.
    n is at most 2^62, so that sheet - 1 + steps, with steps below n, is exact in int64.
    """

    k: float
    sheets: int = 1

    def __post_init__(self) -> None:
        require_repelling(self.k)
        require_count(self.sheets, "n", 1)
        if self.sheets > 2**62:
            raise ValidationError(f"n must be at most 2**62, got {self.sheets!r}")

    def next_sheet(self, sheet: int, steps=1):
        """The sheet ``steps`` reflections on from ``sheet``; an int array of steps gives one each."""
        if not (is_integer(sheet) and 1 <= sheet <= self.sheets):
            raise ValidationError(f"sheet must be in 1..{self.sheets}, got {sheet!r}")
        return (sheet - 1 + steps) % self.sheets + 1


@dataclass(frozen=True, slots=True)
class PhaseState:
    """A point of phase space: sheet index plus position and velocity."""

    sheet: int
    x: float
    y: float
    vx: float
    vy: float

    @property
    def r2(self) -> float:
        return self.x * self.x + self.y * self.y

    @property
    def speed2(self) -> float:
        return self.vx * self.vx + self.vy * self.vy


@dataclass(frozen=True)
class MomentumValue:
    """A value (h, f) of the energy H and the angular momentum F."""

    h: float
    f: float
