"""Dense complex Hermitian-operator kernel.

Operators here are small (dim <= ~64) dense matrices. All values are
immutable after construction and every operation is a pure function, so
everything is safe to use concurrently without coordination.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenConvergenceError,
    NonHermitianInput,
    NonHermitianTrace,
)
from .tolerances import ATOL_LOOSE


class HermitianOperator:
    """Immutable Hermitian matrix value.

    The stored matrix is the Hermitian part (M + M^dag)/2 of the input.
    The discarded anti-Hermitian residual is recorded; a residual above
    ATOL_LOOSE signals a real bug in the caller and raises instead.
    """

    __slots__ = ("matrix", "hermiticity_residual")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError("matrix entries must be finite")
        herm = 0.5 * (m + m.conj().T)
        residual = float(np.abs(m - herm).max())
        if residual > ATOL_LOOSE:
            raise NonHermitianInput(
                f"anti-Hermitian residual {residual:.3e} exceeds {ATOL_LOOSE:.1e}"
            )
        herm.setflags(write=False)
        object.__setattr__(self, "matrix", herm)
        object.__setattr__(self, "hermiticity_residual", residual)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        _check_same_dim(self, other)
        return HermitianOperator(self.matrix + other.matrix)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        _check_same_dim(self, other)
        return HermitianOperator(self.matrix - other.matrix)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return HermitianOperator(float(scalar) * self.matrix)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HermitianOperator":
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        if re.shape != (dim, dim) or im.shape != (dim, dim):
            raise ValueError("matrix JSON shape does not match dim")
        return cls(re + 1j * im)


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
    try:
        if vectors:
            vals, vecs = np.linalg.eigh(a.matrix)
            return vals, vecs
        return np.linalg.eigvalsh(a.matrix)
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
    return float(np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix).max())
