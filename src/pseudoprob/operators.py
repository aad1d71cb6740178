"""Dense complex Hermitian-operator kernel.

Operators here are small (dim <= ~64) dense matrices. All values are
immutable after construction and every operation is a pure function, so
everything is safe to use concurrently without coordination.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenConvergenceError,
    NonHermitianInput,
    NonHermitianTrace,
)
from .tolerances import ATOL_LOOSE


def _hermitian_parts(m: np.ndarray):
    """Hermitian parts of a (k, d, d) stack and each matrix's residual.

    Returns the new read-only stack (M + M^dag)/2 and the list of the k
    max-norms |M - (M + M^dag)/2|. Matrices are checked in stack order, each
    for finiteness and then its residual, so the first failing matrix
    raises just as it would on its own.
    """
    shape = m.shape
    if len(shape) != 3 or shape[1] != shape[2] or shape[1] < 1:
        raise ValueError(f"expected a square matrix, got shape {shape[1:]}")
    # sum |m_ij|^2 is finite unless an entry is not (or is huge), so one
    # product screens the stack and entries are tested only when it fails;
    # the matrices before the first non-finite one are checked first
    if not math.isfinite(np.vdot(m, m).real) and not np.isfinite(m).all():
        _hermitian_parts(m[:int(np.isfinite(m).all(axis=(1, 2)).argmin())])
        raise ValueError("matrix entries must be finite")
    herm = m + m.conj().swapaxes(1, 2)
    herm *= 0.5
    residuals = np.abs(m - herm).max(axis=(1, 2)).tolist()
    for residual in residuals:
        if residual > ATOL_LOOSE:
            raise NonHermitianInput(
                f"anti-Hermitian residual {residual:.3e} exceeds {ATOL_LOOSE:.1e}"
            )
    herm.setflags(write=False)
    return herm, residuals


class HermitianOperator:
    """Immutable Hermitian matrix value.

    The stored matrix is the Hermitian part (M + M^dag)/2 of the input.
    The discarded anti-Hermitian residual is recorded; a residual above
    ATOL_LOOSE signals a real bug in the caller and raises instead.

    Validation is one pass of `_hermitian_parts` over a (k, d, d) stack,
    whatever k: a finiteness screen, the hermitization, and every matrix's
    residual in one reduction. The constructor is that pass with k = 1;
    `from_stack` validates k matrices in it at once and raises what the
    first failing one would raise on its own.
    """

    __slots__ = ("matrix", "hermiticity_residual")

    def __init__(self, matrix):
        herm, residuals = _hermitian_parts(np.asarray(matrix, dtype=complex)[None])
        _set_matrix(self, herm[0])
        _set_residual(self, residuals[0])

    @classmethod
    def from_stack(cls, matrices) -> tuple:
        """One validated operator per matrix of a (k, d, d) stack."""
        herm, residuals = _hermitian_parts(np.asarray(matrices, dtype=complex))
        ops = []
        for h, residual in zip(herm, residuals):
            op = object.__new__(cls)
            _set_matrix(op, h)
            _set_residual(op, residual)
            ops.append(op)
        return tuple(ops)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        _check_same_dim(self, other)
        return HermitianOperator(self.matrix + other.matrix)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        _check_same_dim(self, other)
        return HermitianOperator(self.matrix - other.matrix)

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integral(value) -> bool:
    """A real number with an integral value, not a bool."""
    return _is_number(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())


# the slots' own setters, bypassing the __setattr__ that keeps values immutable
_set_matrix = HermitianOperator.matrix.__set__
_set_residual = HermitianOperator.hermiticity_residual.__set__


def identity(dim: int) -> HermitianOperator:
    return HermitianOperator(np.eye(dim, dtype=complex))


SIGMA_X = HermitianOperator([[0, 1], [1, 0]])
SIGMA_Y = HermitianOperator([[0, -1j], [1j, 0]])
SIGMA_Z = HermitianOperator([[1, 0], [0, -1]])
IDENTITY_2 = identity(2)


def _check_same_dim(a: HermitianOperator, b: HermitianOperator) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim} vs {b.dim}")


def symmetrized_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Anticommutator half (a b + b a)/2, Hermitian by construction.

    Exactly symmetric in its arguments, entry for entry.
    """
    _check_same_dim(a, b)
    return HermitianOperator(0.5 * (a.matrix @ b.matrix + b.matrix @ a.matrix))


def eigenvalues_hermitian(a: HermitianOperator, vectors: bool = False):
    """Real spectrum of a Hermitian operator, sorted ascending.

    With `vectors=True` also returns the unitary eigenvector matrix V
    (columns are eigenvectors, M = V diag(w) V^dag).
    """
    return _spectra(a.matrix, vectors)


def _spectra(m: np.ndarray, vectors: bool = False):
    """`eigenvalues_hermitian` on a (..., d, d) array of Hermitian matrices:
    the one place where LAPACK's LinAlgError becomes EigenConvergenceError."""
    try:
        return tuple(np.linalg.eigh(m)) if vectors else np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc


def trace_with(a: HermitianOperator, rho: HermitianOperator) -> float:
    """Re Tr(rho a). The imaginary part must be numerical noise (<= ATOL_LOOSE)."""
    _check_same_dim(a, rho)
    t = complex(np.trace(rho.matrix @ a.matrix))
    if abs(t.imag) > ATOL_LOOSE:
        raise NonHermitianTrace(f"imaginary trace residue {t.imag:.3e}")
    return t.real


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; dim of the result is a.dim * b.dim."""
    return HermitianOperator(np.kron(a.matrix, b.matrix))


def idempotency_residual(a: HermitianOperator) -> float:
    """max-norm of a^2 - a; zero for a true projection."""
    m = a.matrix
    return float(np.abs(m @ m - m).max())


def commutator_norm(a: HermitianOperator, b: HermitianOperator) -> float:
    """Entrywise max-norm of the commutator [a, b]."""
    _check_same_dim(a, b)
    return float(_commutator_norms(a.matrix @ b.matrix, b.matrix @ a.matrix))


def _commutator_norms(ab: np.ndarray, ba: np.ndarray) -> np.ndarray:
    """Entrywise max-norm of each commutator ab - ba of a (..., d, d) stack,
    given both products."""
    return np.abs(ab - ba).max(axis=(-2, -1))
