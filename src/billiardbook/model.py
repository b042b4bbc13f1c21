"""Domain types for circular billiard books with a repelling Hooke potential.

A billiard book here is a stack of ``n`` unit disks glued along their common
boundary circle; a ball hitting the wall reflects elastically and moves to the
next sheet of the cyclic gluing. The central potential ``k*(x^2+y^2)/2`` with
``k < 0`` repels the ball from the center.
"""

from __future__ import annotations

from dataclasses import dataclass


class ValidationError(ValueError):
    """Input parameters or state violate a precondition."""


class ConvergenceError(RuntimeError):
    """A numerical procedure failed to reach its tolerance."""


@dataclass(frozen=True)
class BookTable:
    """An n-sheeted book of unit disks glued along the boundary circle.

    The gluing permutation is the single cycle (1 2 ... n), applied by
    next_sheet().
    """

    k: float
    sheets: int = 1

    def __post_init__(self) -> None:
        if not self.k < 0:
            raise ValidationError("k must be negative (repelling potential)")
        if not isinstance(self.sheets, int) or self.sheets < 1:
            raise ValidationError("n must be >= 1")

    def next_sheet(self, sheet: int) -> int:
        if not (isinstance(sheet, int) and 1 <= sheet <= self.sheets):
            raise ValidationError(
                f"sheet must be in 1..{self.sheets}, got {sheet!r}"
            )
        return sheet % self.sheets + 1


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
