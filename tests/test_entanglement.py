import math

import numpy as np
import pytest

from pseudoprob import (
    InvalidState,
    TwoQubitPureState,
    apply_local_unitaries,
    monotone,
    random_single_qubit_unitary,
    reduced_bloch_norm,
    reduced_density,
)


def random_state(rng):
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoQubitPureState(z / np.linalg.norm(z))


class TestStateConstruction:
    def test_rejects_bad_norm(self):
        with pytest.raises(InvalidState):
            TwoQubitPureState([1.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("amps", [[math.nan, 0, 0, 0], [1.0, 0, 0, math.nan]])
    def test_rejects_nan_amplitudes(self, amps):
        # pytest turns warnings into errors, so this also checks that the
        # NaN fails before the normalising division can warn
        with pytest.raises(InvalidState, match="norm nan"):
            TwoQubitPureState(amps)

    def test_rejects_nan_schmidt_angle(self):
        with pytest.raises(InvalidState):
            TwoQubitPureState.from_schmidt(math.nan)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="10**400"),
                                       pytest.param(-10**400, id="-10**400")])
    def test_rejects_non_finite_schmidt_angle(self, alpha):
        with pytest.raises(InvalidState, match="Schmidt angle .* is not a finite number"):
            TwoQubitPureState.from_schmidt(alpha)

    def test_renormalises_small_drift(self):
        psi = TwoQubitPureState([1.0 + 5e-9, 0.0, 0.0, 0.0])
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-15

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidState):
            TwoQubitPureState([1.0, 0.0])

    def test_schmidt_form(self):
        psi = TwoQubitPureState.from_schmidt(math.pi / 4)
        s = 1 / math.sqrt(2)
        assert np.allclose(psi.amplitudes, [s, 0, 0, s], atol=1e-12)

    def test_is_immutable_and_shows_its_amplitudes(self):
        psi = TwoQubitPureState([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(AttributeError, match="^TwoQubitPureState is immutable$"):
            psi.amplitudes = None
        assert repr(psi) == "TwoQubitPureState([0j, (1+0j), 0j, 0j])"


class TestReducedDensity:
    def test_product_state(self):
        psi = TwoQubitPureState([1, 0, 0, 0])
        assert np.allclose(reduced_density(psi, 0).matrix, np.diag([1.0, 0.0]))

    def test_bell_state(self):
        psi = TwoQubitPureState.from_schmidt(math.pi / 4)
        for sub in (0, 1):
            assert np.allclose(reduced_density(psi, sub).matrix, 0.5 * np.eye(2), atol=1e-12)

    def test_schmidt_eighth_turn(self):
        alpha = math.pi / 8
        psi = TwoQubitPureState.from_schmidt(alpha)
        expected = np.diag([math.cos(alpha) ** 2, math.sin(alpha) ** 2])
        assert np.abs(reduced_density(psi, 0).matrix - expected).max() <= 1e-12

    def test_partial_trace_oracle(self):
        # independent index-contraction route
        rng = np.random.default_rng(301)
        for _ in range(50):
            psi = random_state(rng)
            amps = psi.amplitudes
            expected = np.zeros((2, 2), dtype=complex)
            for i in range(2):
                for k in range(2):
                    expected[i, k] = sum(
                        amps[2 * i + j] * np.conj(amps[2 * k + j]) for j in range(2)
                    )
            assert np.abs(reduced_density(psi, 0).matrix - expected).max() <= 1e-12

    def test_invalid_subsystem(self):
        with pytest.raises(ValueError):
            reduced_density(TwoQubitPureState([1, 0, 0, 0]), 2)


class TestMonotone:
    def test_product_state_zero(self):
        assert monotone(TwoQubitPureState([0, 1, 0, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_unity(self):
        psi = TwoQubitPureState.from_schmidt(math.pi / 4)
        assert monotone(psi) == pytest.approx(1.0, abs=1e-12)

    def test_schmidt_eighth_turn_half(self):
        psi = TwoQubitPureState.from_schmidt(math.pi / 8)
        assert monotone(psi) == pytest.approx(0.5, abs=1e-12)

    def test_schmidt_family_curve(self):
        for alpha in np.linspace(0.0, 0.5 * math.pi, 60):
            psi = TwoQubitPureState.from_schmidt(float(alpha))
            assert monotone(psi) == pytest.approx(math.sin(2 * alpha) ** 2, abs=1e-10)

    def test_subsystem_symmetry(self):
        rng = np.random.default_rng(307)
        for _ in range(100):
            psi = random_state(rng)
            a = reduced_bloch_norm(psi, 0)
            b = reduced_bloch_norm(psi, 1)
            assert abs(a - b) <= 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(311)
        for _ in range(100):
            psi = random_state(rng)
            u = random_single_qubit_unitary(rng)
            v = random_single_qubit_unitary(rng)
            rotated = apply_local_unitaries(psi, u, v)
            assert abs(monotone(rotated) - monotone(psi)) <= 1e-10

    def test_range_and_zero_condition(self):
        rng = np.random.default_rng(313)
        for _ in range(200):
            psi = random_state(rng)
            m = monotone(psi)
            assert 0.0 <= m <= 1.0
            if m == 0.0:
                assert abs(reduced_bloch_norm(psi, 0) - 1.0) <= 1e-10


class TestHelpers:
    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(317)
        for _ in range(50):
            u = random_single_qubit_unitary(rng)
            assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12
