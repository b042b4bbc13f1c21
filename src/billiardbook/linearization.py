"""Linearization at the equilibrium and focus-focus certification.

The rest state at the origin is the only rank-0 point. The linearized
Hamiltonian vector fields of H and F are constant 4x4 operators; eigenvalues
of any pencil member lam*A_H + mu*A_F come in the closed-form quadruple
+-lam*sqrt(-k) +- i*mu, which certifies the focus-focus type for k < 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import PhaseState, ValidationError
from .momentum import gradients

#: eigenvalue real/imaginary parts below this are treated as vanishing
SPECTRUM_TOL = 1e-10


class SpectrumClass(enum.Enum):
    FOCUS_FOCUS = "focus-focus"
    DEGENERATE = "degenerate"
    OTHER = "other"


@dataclass(frozen=True)
class PencilSpectrum:
    lam: float
    mu: float
    eigenvalues: tuple[complex, complex, complex, complex]
    classification: SpectrumClass


def linearization_operators(k: float) -> tuple[np.ndarray, np.ndarray]:
    """The operators A_H and A_F linearizing sgrad H and sgrad F at the origin.

    Each is J times the Hessian, with J = [[0, I], [-I, 0]] in (x, y, vx, vy)
    components; H and F are quadratic, so column j of the Hessian is the
    gradient at the j-th basis state.
    """
    if not k < 0:
        raise ValidationError("k must be negative")
    j = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    basis = [gradients(PhaseState(1, *row), k) for row in np.eye(4).tolist()]
    a_h, a_f = (j @ np.column_stack(columns) for columns in zip(*basis))
    return a_h, a_f


def _classify(eigs: tuple[complex, ...]) -> SpectrumClass:
    for i, a in enumerate(eigs):
        if abs(a) <= SPECTRUM_TOL:
            return SpectrumClass.DEGENERATE
        for b in eigs[i + 1 :]:
            if abs(a - b) <= SPECTRUM_TOL:
                return SpectrumClass.DEGENERATE
    if all(abs(e.real) > SPECTRUM_TOL and abs(e.imag) > SPECTRUM_TOL for e in eigs):
        return SpectrumClass.FOCUS_FOCUS
    return SpectrumClass.OTHER


def pencil_eigenvalues(k: float, lam: float = 1.0, mu: float = 1.0) -> PencilSpectrum:
    """Spectrum of lam*A_H + mu*A_F from the closed-form quadruple.

    In the complex coordinates u = x + i y, v = vx + i vy the pencil member is
    the 2x2 operator [[i mu, -lam k], [lam, i mu]], whose eigenvalues together
    with their conjugates give +-lam*sqrt(-k) +- i*mu.
    """
    if not k < 0:
        raise ValidationError("k must be negative")
    if lam == 0.0 and mu == 0.0:
        raise ValidationError("(lam, mu) = (0, 0) is not a pencil member")
    a = lam * math.sqrt(-k)
    eigs = (
        complex(a, mu),
        complex(a, -mu),
        complex(-a, mu),
        complex(-a, -mu),
    )
    return PencilSpectrum(lam, mu, eigs, _classify(eigs))


def certify_focus_focus(k: float) -> tuple[bool, PencilSpectrum]:
    """Nondegeneracy certificate at the pencil member lam = mu = 1."""
    spectrum = pencil_eigenvalues(k, 1.0, 1.0)
    return spectrum.classification is SpectrumClass.FOCUS_FOCUS, spectrum
