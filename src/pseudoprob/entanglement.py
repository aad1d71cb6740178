"""Pure two-qubit states and the reduced-purity entanglement monotone."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidState
from .operators import HermitianOperator, _array, _scalar, eigenvalues_hermitian
from .qubit import negativity_max
from .states import DensityMatrix
from .tolerances import NORM_ATOL, ROUNDING_ATOL


class TwoQubitPureState:
    """Normalised amplitude vector over |00>, |01>, |10>, |11>.

    Input whose norm deviates from 1 by more than NORM_ATOL is rejected;
    accepted input is renormalised to machine precision.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = _array(amplitudes, InvalidState, "amplitudes must be numbers, got {!r}", complex).reshape(-1)
        if amps.shape != (4,):
            raise InvalidState(f"need 4 amplitudes, got {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_ATOL:  # NaN fails too, before the division
            raise InvalidState(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("TwoQubitPureState is immutable")

    @classmethod
    def from_schmidt(cls, alpha: float) -> "TwoQubitPureState":
        """cos(alpha)|00> + sin(alpha)|11>, for a finite angle alpha."""
        angle = _scalar(alpha, InvalidState, "Schmidt angle {!r} is not a finite number", math.isfinite)
        return cls([math.cos(angle), 0.0, 0.0, math.sin(angle)])

    def __repr__(self) -> str:
        return f"TwoQubitPureState({self.amplitudes.tolist()})"


def reduced_density(psi: TwoQubitPureState, subsystem: int) -> DensityMatrix:
    """Partial trace over the complementary qubit (subsystem 0 or 1)."""
    m = psi.amplitudes.reshape(2, 2)
    index = _scalar(subsystem, ValueError, "subsystem must be 0 or 1, got {!r}", lambda s: s in (0.0, 1.0))
    red = m @ m.conj().T if index == 0 else m.T @ m.conj()
    return DensityMatrix(HermitianOperator(red))


def reduced_bloch_norm(psi: TwoQubitPureState, subsystem: int = 0) -> float:
    """|P| of the reduced state, from its eigenvalue gap |l1 - l2|."""
    vals = eigenvalues_hermitian(reduced_density(psi, subsystem).op)
    return float(abs(vals[1] - vals[0]))


def monotone(psi: TwoQubitPureState) -> float:
    """Entanglement monotone 1 - N_max(reduced)/N_max(pure) = 1 - |P_r|^2.

    Zero for product states, one for maximally entangled states. The pure
    reference has |P| = 1 regardless of which pure state is chosen, so its
    maximal negativity is the constant 1/8.
    """
    p_r = reduced_bloch_norm(psi, 0)
    m = 1.0 - negativity_max(p_r).value / negativity_max(1.0).value
    if not -ROUNDING_ATOL <= m <= 1.0 + ROUNDING_ATOL:
        raise InvalidState(f"monotone {m!r} escaped [0, 1]")
    return min(max(m, 0.0), 1.0)


def apply_local_unitaries(psi: TwoQubitPureState, u, v) -> TwoQubitPureState:
    """(u x v) |psi> for single-qubit unitaries u, v."""
    u, v = (_array(a, ValueError, "unitary entries must be numbers, got {!r}", complex) for a in (u, v))
    w = np.kron(u, v)
    return TwoQubitPureState(w @ psi.amplitudes)


def random_single_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish 2x2 unitary via Gram-Schmidt on a complex Gaussian matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q1 = z[:, 0] / np.linalg.norm(z[:, 0])
    q2 = z[:, 1] - q1 * (q1.conj() @ z[:, 1])
    q2 = q2 / np.linalg.norm(q2)
    return np.column_stack([q1, q2])
