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
    if math.isfinite(np.vdot(m, m).real):
        return _checked_parts(m)
    if not np.isfinite(m).all():
        _hermitian_parts(m[:int(np.isfinite(m).all(axis=(1, 2)).argmin())])
        raise ValueError("matrix entries must be finite")
    # huge entries may overflow M + M^dag, silently here: the NaN residuals
    # that leaves fail the check
    with np.errstate(over="ignore", invalid="ignore"):
        return _checked_parts(m)


def _checked_parts(m: np.ndarray):
    """`_hermitian_parts` of a stack of finite entries: the hermitization and
    each matrix's residual check, in stack order; a NaN residual fails."""
    herm = m + m.conj().swapaxes(1, 2)
    herm *= 0.5
    residuals = np.abs(m - herm).max(axis=(1, 2)).tolist()
    for residual in residuals:
        if not residual <= ATOL_LOOSE:
            raise _non_hermitian(residual)
    herm.setflags(write=False)
    return herm, residuals


def _non_hermitian(residual: float) -> NonHermitianInput:
    """The error for an anti-Hermitian residual above ATOL_LOOSE."""
    return NonHermitianInput(f"anti-Hermitian residual {residual:.3e} exceeds {ATOL_LOOSE:.1e}")


class HermitianOperator:
    """Immutable Hermitian matrix value.

    The stored matrix is the Hermitian part (M + M^dag)/2 of the input,
    which `_array` takes as complex numbers: bools, strings, None and ragged
    lists raise ValueError. The discarded anti-Hermitian residual is
    recorded; a residual above ATOL_LOOSE, or a NaN one, signals a real bug
    in the caller and raises instead.

    Validation is one pass of `_hermitian_parts` over a (k, d, d) stack,
    whatever k: a finiteness screen, the hermitization, and every matrix's
    residual in one reduction. The constructor is that pass with k = 1;
    `from_stack` validates k matrices in it at once and raises what the
    first failing one would raise on its own. The qubit constructors of
    `states` validate their matrices on scalars instead: `_pauli_parts`
    forms the same Hermitian parts and residuals from a 3-vector's three
    floats and makes the same checks, whatever k.
    """

    __slots__ = ("matrix", "hermiticity_residual")

    def __init__(self, matrix):
        m = _array(matrix, ValueError, "matrix entries must be numbers", complex)
        herm, residuals = _hermitian_parts(m[None])
        _set_matrix(self, herm[0])
        _set_residual(self, residuals[0])

    @classmethod
    def from_stack(cls, matrices) -> tuple:
        """One validated operator per matrix of a (k, d, d) stack."""
        m = _array(matrices, ValueError, "matrix entries must be numbers", complex)
        return _operators(*_hermitian_parts(m))

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


# per dtype: the array dtype taken as it is, the array kinds cast to it, and
# the scalars converted to it
_KINDS = {
    float: (np.dtype(float), "iuf", numbers.Real),
    complex: (np.dtype(complex), "iufc", numbers.Complex),
}


def _scalar(value, error, message: str, ok=None, dtype=float):
    """`value` as a Python float (complex if `dtype` is complex), or
    `error(message.format(value))` if it is no number of that kind: bools
    (`np.bool_` too), strings, None, and complex values where a real is
    wanted are refused. A number past float range, such as the int 10**400,
    reads as the infinity of its sign. A number for which the predicate `ok`
    (the caller's range check) is false raises too, named as the float it
    reads as; without `ok`, NaN and infinities pass."""
    if type(value) is not dtype:
        # an exact int skips the much slower abstract-class checks
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, _KINDS[dtype][2])):
            raise error(message.format(value))
        try:
            value = dtype(value)
        except OverflowError:
            value = dtype(-math.inf if value < 0 else math.inf)
    if ok is not None and not ok(value):
        raise error(message.format(value))
    return value


def _array(values, error, message: str, dtype=float) -> np.ndarray:
    """`values` (a number, an array, or nested lists and tuples of them) as
    an array of `dtype`, each entry taken as `_scalar` takes it, or
    `error(message.format(values))`; a ragged list is refused too. An array
    of numeric dtype (a subclass too) is cast to a plain array in one step,
    without a walk over its entries, and a plain one of `dtype` is returned
    as it is; arrays nested in lists are walked."""
    exact, kinds, _ = _KINDS[dtype]
    if type(values) is np.ndarray and values.dtype is exact:
        return values
    if isinstance(values, np.ndarray) and values.dtype.kind in kinds:
        return np.asarray(values, dtype=dtype)
    try:
        return np.array(_entries(values, dtype), dtype=dtype)
    except (TypeError, ValueError):  # an entry that is no number, a ragged list
        raise error(message.format(values)) from None


# ints below this in magnitude convert to a float without overflow
_INT_RANGE = 1 << 1023


def _entries(values, dtype):
    """`values` as nested lists of `dtype` scalars; an entry that is no
    number raises TypeError. A list or tuple of exact floats, and ints within
    float range, is passed on as it is, for numpy to convert in one step."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if isinstance(values, (list, tuple)):
        for v in values:
            if type(v) is not float and (type(v) is not int or not -_INT_RANGE < v < _INT_RANGE):
                return [_entries(v, dtype) for v in values]
        return values
    return _scalar(values, TypeError, "", dtype=dtype)


# the slots' own setters, bypassing the __setattr__ that keeps values immutable
_set_matrix = HermitianOperator.matrix.__set__
_set_residual = HermitianOperator.hermiticity_residual.__set__


def _operators(herm: np.ndarray, residuals) -> tuple:
    """One operator per row of a read-only stack that `_hermitian_parts`
    made, with its residual; each operator's matrix is a view of that row."""
    ops = []
    for h, residual in zip(herm, residuals):
        op = object.__new__(HermitianOperator)
        _set_matrix(op, h)
        _set_residual(op, residual)
        ops.append(op)
    return tuple(ops)


def _dimension(dim) -> int:
    """`dim` as an int, once `_scalar` takes it as an integer >= 1, else
    ValueError."""
    message = "dimension must be an integer >= 1, got {!r}"
    return int(_scalar(dim, ValueError, message, lambda x: x.is_integer() and x >= 1))


def identity(dim: int) -> HermitianOperator:
    return HermitianOperator(np.eye(_dimension(dim), dtype=complex))


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
