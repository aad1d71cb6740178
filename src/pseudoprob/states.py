"""Quantum states and observables: Bloch parametrisation, projectors, resolutions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidState, NotAProjector, UnphysicalBloch
from .operators import (
    HermitianOperator, _array, _dimension, _non_hermitian, _operators, _scalar, eigenvalues_hermitian,
    idempotency_residual,
)
from .tolerances import ATOL_LOOSE, RESIDUAL_ATOL, ROUNDING_ATOL

# Directions must be normalisable without drama; anything outside this norm
# window is a caller bug, not a unit vector with rounding noise.
_NORM_MIN = 1e-6
_NORM_MAX = 1e6

# 1/2 as numpy casts it to multiply or add a complex array: a product by it
# is the full complex product, whose signed zeros the results' bytes keep
_HALF = 0.5 + 0j


def _vector3(v, what: str):
    """`v` as a real 3-vector, and its norm sqrt(v . v) as a Python float.
    `_array` takes the components: a bool, string, None or complex one
    raises ValueError, and one past float range reads as infinite, so the
    norm is."""
    v = _array(v, ValueError, what + " needs a 3-vector of real numbers, got {!r}")
    if v.shape != (3,):
        raise ValueError(f"{what} needs a 3-vector, got shape {v.shape}")
    return v, math.sqrt(v.dot(v))


def direction(v) -> np.ndarray:
    """Unit 3-vector from any nonzero 3-vector (normalised here)."""
    v, n = _vector3(v, "direction")
    if not (_NORM_MIN <= n <= _NORM_MAX):
        raise ValueError(f"direction norm {n:.3e} outside [{_NORM_MIN}, {_NORM_MAX}]")
    u = v / n
    u.setflags(write=False)
    return u


def bloch_vector(p) -> np.ndarray:
    """Validated polarisation vector, |p| <= 1 (plus rounding slack)."""
    p, n = _vector3(p, "Bloch vector")
    if not n <= 1.0 + ROUNDING_ATOL:  # NaN fails too
        raise UnphysicalBloch(f"|P| = {n} exceeds 1")
    p = p.copy()
    p.setflags(write=False)
    return p


def pauli_matrix(v) -> np.ndarray:
    """sigma . v as a 2x2 complex array (v need not be normalised)."""
    x, y, z = _vector3(v, "Pauli vector")[0].tolist()
    return np.array([[z, x - 1j * y], [x + 1j * y, -z]], dtype=complex)


def _pauli_parts(v, signs) -> tuple:
    """The read-only (k, 2, 2) stack of Hermitian parts and the k residuals
    that `_hermitian_parts` returns for M_s, s in `signs`, where M_0 is
    sigma . v and M_s, s = +-1, is (1 + s sigma . v)/2; byte for byte.

    Each entry is formed in Python complex arithmetic by the operations
    numpy applies to `pauli_matrix(v)`, the identity's half and the stack,
    in the same order, and checked as that pass checks it: a non-finite
    entry first, then each matrix's residual max|M - H| against
    ATOL_LOOSE, in stack order; a NaN fails both checks.
    """
    x, y, z = v.tolist()
    # every M_s has a non-finite entry exactly when v has one
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("matrix entries must be finite")
    sigma = (complex(z), x - 1j * y, x + 1j * y, complex(-z))
    half = [_HALF * e for e in sigma]
    herm, residuals = [], []
    for s in signs:
        if s == 0:
            a, b, c, d = sigma
        elif s > 0:
            a, b, c, d = _HALF + half[0], 0j + half[1], 0j + half[2], _HALF + half[3]
        else:
            a, b, c, d = _HALF - half[0], 0j - half[1], 0j - half[2], _HALF - half[3]
        h = ((a + a.conjugate()) * _HALF, (b + c.conjugate()) * _HALF,
             (c + b.conjugate()) * _HALF, (d + d.conjugate()) * _HALF)
        # max() keeps a NaN only as its first argument; an overflowing sum
        # makes NaN residuals in the two off-diagonal entries only, together
        residual = max(abs(b - h[1]), abs(a - h[0]), abs(c - h[2]), abs(d - h[3]))
        if not residual <= ATOL_LOOSE:
            raise _non_hermitian(residual)
        herm += h
        residuals.append(residual)
    herm = np.array(herm, dtype=complex)
    herm.setflags(write=False)
    return herm.reshape(len(residuals), 2, 2), residuals


@dataclass(frozen=True)
class DensityDiagnostics:
    """Residuals reported by `validate_density`."""

    trace_residual: float
    min_eigenvalue: float
    hermiticity_residual: float

    @property
    def ok(self) -> bool:
        return (
            self.trace_residual <= RESIDUAL_ATOL
            and self.min_eigenvalue >= -RESIDUAL_ATOL
            and self.hermiticity_residual <= ATOL_LOOSE
        )


def validate_density(op) -> DensityDiagnostics:
    """Diagnose whether an operator is a valid density matrix.

    Accepts a HermitianOperator or raw matrix; never raises on physics
    violations, only reports them.
    """
    if not isinstance(op, HermitianOperator):
        op = HermitianOperator(op)
    vals = eigenvalues_hermitian(op)
    return DensityDiagnostics(
        trace_residual=abs(op.trace - 1.0),
        min_eigenvalue=float(vals[0]),
        hermiticity_residual=op.hermiticity_residual,
    )


class DensityMatrix:
    """Positive semidefinite unit-trace Hermitian operator.

    The constructor takes a HermitianOperator, or a matrix that it makes
    one of with that class's checks, and runs every check of
    `validate_density` (the trace, and the minimum eigenvalue by
    `eigvalsh`); a failure raises InvalidState. `density_from_bloch` makes
    a qubit state without them, as its matrix is valid by construction;
    see there.
    """

    __slots__ = ("op",)

    def __init__(self, op):
        if not isinstance(op, HermitianOperator):
            op = HermitianOperator(op)
        diag = validate_density(op)
        if not diag.ok:
            raise InvalidState(
                f"not a density matrix (trace residual {diag.trace_residual:.3e}, "
                f"min eigenvalue {diag.min_eigenvalue:.3e})"
            )
        object.__setattr__(self, "op", op)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dim(self) -> int:
        return self.op.dim

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        d = _dimension(dim)
        return cls(np.eye(d, dtype=complex) / d)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def density_from_bloch(p) -> DensityMatrix:
    """Qubit state (1 + sigma . P)/2 for polarisation P, |P| <= 1.

    `bloch_vector` checks P, and `_pauli_parts` forms the matrix and runs
    `HermitianOperator`'s checks on it from P's three floats. `DensityMatrix`'s
    trace and eigenvalue checks are not run, as they hold by construction:
    the trace is 1 up to rounding and the eigenvalues are (1 +- |P|)/2.
    Only the minimum eigenvalue's closed form is checked, against the same
    threshold; should it fail, the full checks run and raise what they
    raise. `tests/test_states.py` runs the full checks on fuzzed inputs and
    pins their margins, and pins the matrix's bytes to the dense formula.
    """
    p = bloch_vector(p)
    (op,) = _operators(*_pauli_parts(p, (1,)))
    if (1.0 - math.sqrt(p.dot(p))) / 2 < -RESIDUAL_ATOL:
        return DensityMatrix(op)
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "op", op)
    return rho


def bloch_from_density(rho) -> np.ndarray:
    """Polarisation vector (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z)."""
    m = rho.matrix if isinstance(rho, (DensityMatrix, HermitianOperator)) else np.asarray(rho)
    if m.shape != (2, 2):
        raise ValueError("Bloch extraction is defined for 2x2 states only")
    return np.array([2.0 * m[1, 0].real, 2.0 * m[1, 0].imag, (m[0, 0] - m[1, 1]).real])


def projector_from_direction(m, outcome: int) -> HermitianOperator:
    """Rank-1 qubit projector (1 + a sigma . m)/2 for outcome a = +-1.

    Constructed so that the two outcomes sum to the identity exactly and
    flipping the direction equals flipping the outcome, entry for entry.
    `direction` checks m, and `_pauli_parts` forms the matrix and runs
    `HermitianOperator`'s checks on it from m's three floats.
    """
    sign = _scalar(outcome, ValueError, "outcome must be +1 or -1, got {!r}", lambda a: a in (1.0, -1.0))
    return _operators(*_pauli_parts(sign * direction(m), (1,)))[0]


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with its eigen-resolution sum_i a_i pi_i.

    The resolution is a sequence of (outcome, projector) pairs whose
    projectors are idempotent, mutually orthogonal and sum to the identity,
    and whose outcome labels are distinct finite real numbers that recompose
    the operator. `projectors` holds those projectors' matrices as one
    read-only (k, d, d) stack in resolution order: the form that
    `build_scheme` and every check after the per-projector ones read.
    `outcomes` holds the labels in the same order. `axis` carries the
    generating unit vector for qubit observables built from a direction
    (used for JSON output); it is None otherwise.

    The constructor checks the resolution in one walk and raises at the
    first check that fails:
    1. each projector in resolution order, its dimension and then its
       idempotency residual;
    2. orthogonality, P_i P_j for j > i, one row i at a time;
    3. the sum to the identity;
    4. each label, which `_scalar` must take as a finite real number, so
       strings and bools are refused, and so is an int past float range,
       which reads as infinite; labels keep their own type;
    5. the recomposition sum_i a_i pi_i, computed once the labels pass;
    6. repeated labels.
    `observable_from_direction` makes a qubit observable without these
    checks, as its resolution is valid by construction; see there.
    """

    op: HermitianOperator
    resolution: tuple
    axis: np.ndarray | None = field(default=None)
    projectors: np.ndarray = field(init=False, repr=False)
    outcomes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        res = tuple((a, p) for a, p in self.resolution)
        dim, k = self.op.dim, len(res)
        for a, p in res:
            if p.dim != dim:
                raise InvalidState("projector dimension differs from observable")
            if idempotency_residual(p) > RESIDUAL_ATOL:
                raise NotAProjector(f"resolution entry for outcome {a} is not idempotent")
        stack = np.array([p.matrix for _, p in res], dtype=complex).reshape(k, dim, dim)
        stack.setflags(write=False)
        for i in range(k - 1):
            if np.abs(stack[i] @ stack[i + 1:]).max() > RESIDUAL_ATOL:
                raise InvalidState("resolution projectors are not orthogonal")
        if np.abs(stack.sum(axis=0) - np.eye(dim)).max() > RESIDUAL_ATOL:
            raise InvalidState("resolution projectors do not sum to identity")
        outcomes = tuple([a for a, _ in res])
        labels = [_scalar(a, InvalidState, "outcome label {!r} is not a finite real number", math.isfinite)
                  for a in outcomes]
        recomposed = np.tensordot(np.array(labels), stack, 1)
        if np.abs(recomposed - self.op.matrix).max() > RESIDUAL_ATOL:
            raise InvalidState("resolution does not recompose the observable")
        # outcome tuples name projectors by label, so labels must differ
        repeated = [a for a in outcomes if outcomes.count(a) > 1]
        if repeated:
            raise InvalidState(f"outcome {repeated[0]!r} repeated in resolution")
        vars(self).update(resolution=res, projectors=stack, outcomes=outcomes)

    @property
    def dim(self) -> int:
        return self.op.dim

    def projector(self, outcome) -> HermitianOperator:
        for a, p in self.resolution:
            if a == outcome:
                return p
        raise KeyError(f"no outcome {outcome!r} in resolution")


def observable_from_direction(m) -> Observable:
    """Dichotomic qubit observable sigma . m with outcomes +1, -1.

    Both projectors (1 +- sigma . m)/2 come from the same unit vector as
    the operator and `axis`. `direction` checks m, and `_pauli_parts` forms
    the three matrices and runs `HermitianOperator`'s checks on them from
    m's three floats. `Observable`'s resolution checks are not run,
    as they hold by construction: the projectors sum to the identity and
    recompose sigma . m up to rounding, P^2 - P and P_+ P_- are
    (m . m - 1)/4 times the identity, and the labels are distinct numbers.
    Only |m . m - 1| <= RESIDUAL_ATOL is checked; should it fail, the full
    checks run and raise what they raise. `tests/test_states.py` runs the
    full checks on fuzzed directions and pins their margins, and pins the
    matrices' bytes to the dense formula.
    """
    mhat = direction(m)
    herm, residuals = _pauli_parts(mhat, (0, 1, -1))
    op, up, down = _operators(herm, residuals)
    res = ((1, up), (-1, down))
    if abs(mhat.dot(mhat) - 1.0) > RESIDUAL_ATOL:
        return Observable(op=op, resolution=res, axis=mhat)
    obs = object.__new__(Observable)
    vars(obs).update(op=op, resolution=res, axis=mhat, projectors=herm[1:], outcomes=(1, -1))
    return obs
