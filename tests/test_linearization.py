import math

import numpy as np
import pytest

from billiardbook import (
    PhaseState,
    SpectrumClass,
    ValidationError,
    certify_focus_focus,
    flow_free,
    linearization_operators,
    pencil_eigenvalues,
)


def sorted_eigs(eigs):
    return sorted(eigs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


class TestOperators:
    def test_printed_matrices_at_k_minus_one(self):
        a_h, a_f = linearization_operators(-1.0)
        assert np.array_equal(
            a_h,
            np.array(
                [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float
            ),
        )
        assert np.array_equal(
            a_f,
            np.array(
                [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float
            ),
        )

    def test_a_f_independent_of_k(self):
        _, a1 = linearization_operators(-1.0)
        _, a2 = linearization_operators(-7.3)
        assert np.array_equal(a1, a2)

    @pytest.mark.parametrize("k", [-4.0, -7.3])
    def test_operators_are_the_flow_derivative(self, k):
        # away from k = -1, where -k = 1 hides which side k multiplies
        z = np.array([0.3, 0.1, 0.4, -0.7])
        x, y, vx, vy = z
        a_h, a_f = linearization_operators(k)
        assert np.array_equal(a_h @ z, [vx, vy, -k * x, -k * y])
        assert np.array_equal(a_f @ z, [-y, x, -vy, vx])
        # a second-order one-sided difference of the flow at t = 0
        dt = 1e-5
        flow = [flow_free(PhaseState(1, *z), step * dt, k) for step in (0, 1, 2)]
        rows = np.array([[s.x, s.y, s.vx, s.vy] for s in flow])
        derivative = (-3.0 * rows[0] + 4.0 * rows[1] - rows[2]) / (2.0 * dt)
        assert np.abs(derivative - a_h @ z).max() <= 1e-6

    def test_linear_at_origin(self):
        a_h, _ = linearization_operators(-1.0)
        assert np.array_equal(a_h @ np.zeros(4), np.zeros(4))

    def test_nonnegative_k_rejected(self):
        with pytest.raises(ValidationError):
            linearization_operators(0.0)


class TestPencilEigenvalues:
    def test_unit_pencil_at_k_minus_one(self):
        spectrum = pencil_eigenvalues(-1.0, 1.0, 1.0)
        assert sorted_eigs(spectrum.eigenvalues) == sorted_eigs(
            [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]
        )
        assert spectrum.classification is SpectrumClass.FOCUS_FOCUS

    def test_unit_pencil_at_k_minus_four(self):
        spectrum = pencil_eigenvalues(-4.0, 1.0, 1.0)
        assert sorted_eigs(spectrum.eigenvalues) == sorted_eigs(
            [2 + 1j, 2 - 1j, -2 + 1j, -2 - 1j]
        )
        assert spectrum.classification is SpectrumClass.FOCUS_FOCUS

    def test_pure_h_member_is_degenerate(self):
        spectrum = pencil_eigenvalues(-1.0, 1.0, 0.0)
        assert sorted_eigs(spectrum.eigenvalues) == sorted_eigs([1, 1, -1, -1])
        assert spectrum.classification is SpectrumClass.DEGENERATE

    def test_zero_pencil_rejected(self):
        with pytest.raises(ValidationError):
            pencil_eigenvalues(-1.0, 0.0, 0.0)

    def test_matches_generic_eigensolver(self):
        # independent oracle: QR eigensolver on the assembled 4x4 pencil member
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = -rng.uniform(0.05, 5.0)
            lam = rng.uniform(-2.0, 2.0)
            mu = rng.uniform(-2.0, 2.0)
            if abs(lam) < 1e-3 and abs(mu) < 1e-3:
                continue
            a_h, a_f = linearization_operators(k)
            numeric = np.linalg.eigvals(lam * a_h + mu * a_f)
            closed = pencil_eigenvalues(k, lam, mu).eigenvalues
            numeric = np.sort_complex(numeric)
            closed = np.sort_complex(np.array(closed))
            assert np.allclose(numeric, closed, atol=1e-12)

    def test_spectrum_symmetry_under_negation_and_conjugation(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            k = -rng.uniform(0.05, 5.0)
            lam, mu = rng.uniform(-2.0, 2.0, size=2)
            if lam == 0.0 and mu == 0.0:
                continue
            eigs = np.sort_complex(
                np.array(pencil_eigenvalues(k, lam, mu).eigenvalues)
            )
            assert np.allclose(eigs, np.sort_complex(-eigs), atol=0)
            assert np.allclose(eigs, np.sort_complex(np.conj(eigs)), atol=0)


class TestCertifyFocusFocus:
    def test_k_minus_one(self):
        ok, spectrum = certify_focus_focus(-1.0)
        assert ok
        assert spectrum.lam == spectrum.mu == 1.0

    def test_weak_repulsion(self):
        ok, spectrum = certify_focus_focus(-0.01)
        assert ok
        assert sorted_eigs(spectrum.eigenvalues) == sorted_eigs(
            [0.1 + 1j, 0.1 - 1j, -0.1 + 1j, -0.1 - 1j]
        )

    def test_k_zero_rejected_upstream(self):
        with pytest.raises(ValidationError):
            certify_focus_focus(0.0)
