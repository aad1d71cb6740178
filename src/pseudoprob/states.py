"""Quantum states and observables: Bloch parametrisation, projectors, resolutions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidState, NotAProjector, UnphysicalBloch
from .operators import HermitianOperator, eigenvalues_hermitian, idempotency_residual
from .tolerances import ATOL_LOOSE, RESIDUAL_ATOL, ROUNDING_ATOL

# Directions must be normalisable without drama; anything outside this norm
# window is a caller bug, not a unit vector with rounding noise.
_NORM_MIN = 1e-6
_NORM_MAX = 1e6


def direction(v) -> np.ndarray:
    """Unit 3-vector from any nonzero 3-vector (normalised here)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"direction needs a 3-vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if not (_NORM_MIN <= n <= _NORM_MAX):
        raise ValueError(f"direction norm {n:.3e} outside [{_NORM_MIN}, {_NORM_MAX}]")
    u = v / n
    u.setflags(write=False)
    return u


def bloch_vector(p) -> np.ndarray:
    """Validated polarisation vector, |p| <= 1 (plus rounding slack)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"Bloch vector needs a 3-vector, got shape {p.shape}")
    n = float(np.linalg.norm(p))
    if n > 1.0 + ROUNDING_ATOL:
        raise UnphysicalBloch(f"|P| = {n} exceeds 1")
    p = p.copy()
    p.setflags(write=False)
    return p


def pauli_matrix(v) -> np.ndarray:
    """sigma . v as a 2x2 complex array (v need not be normalised)."""
    v = np.asarray(v, dtype=float)
    return np.array(
        [[v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], -v[2]]], dtype=complex
    )


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
    """Positive semidefinite unit-trace Hermitian operator."""

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
        return cls(np.eye(dim, dtype=complex) / dim)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def density_from_bloch(p) -> DensityMatrix:
    """Qubit state (1 + sigma . P)/2 for polarisation P, |P| <= 1."""
    p = bloch_vector(p)
    return DensityMatrix(HermitianOperator(0.5 * np.eye(2) + 0.5 * pauli_matrix(p)))


def bloch_from_density(rho) -> np.ndarray:
    """Polarisation vector (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z)."""
    m = rho.matrix if isinstance(rho, (DensityMatrix, HermitianOperator)) else np.asarray(rho)
    if m.shape != (2, 2):
        raise ValueError("Bloch extraction is defined for 2x2 states only")
    return np.array(
        [2.0 * m[1, 0].real, 2.0 * m[1, 0].imag, (m[0, 0] - m[1, 1]).real]
    )


def projector_from_direction(m, outcome: int) -> HermitianOperator:
    """Rank-1 qubit projector (1 + a sigma . m)/2 for outcome a = +-1.

    Constructed so that the two outcomes sum to the identity exactly and
    flipping the direction equals flipping the outcome, entry for entry.
    """
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    mhat = direction(m)
    return HermitianOperator(0.5 * np.eye(2) + 0.5 * pauli_matrix(outcome * mhat))


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with its eigen-resolution sum_i a_i pi_i.

    The resolution is a sequence of (outcome, projector) pairs whose
    projectors are idempotent, mutually orthogonal and sum to the identity.
    `axis` carries the generating unit vector for qubit observables built
    from a direction (used for JSON output); it is None otherwise.
    """

    op: HermitianOperator
    resolution: tuple
    axis: np.ndarray | None = field(default=None)

    def __post_init__(self):
        res = tuple((a, p) for a, p in self.resolution)
        object.__setattr__(self, "resolution", res)
        dim = self.op.dim
        acc = np.zeros((dim, dim), dtype=complex)
        recomposed = np.zeros((dim, dim), dtype=complex)
        projs = [p for _, p in res]
        for (a, p) in res:
            if p.dim != dim:
                raise InvalidState("projector dimension differs from observable")
            if idempotency_residual(p) > RESIDUAL_ATOL:
                raise NotAProjector(f"resolution entry for outcome {a} is not idempotent")
            acc += p.matrix
            recomposed += float(a) * p.matrix
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if np.abs(projs[i].matrix @ projs[j].matrix).max() > RESIDUAL_ATOL:
                    raise InvalidState("resolution projectors are not orthogonal")
        if np.abs(acc - np.eye(dim)).max() > RESIDUAL_ATOL:
            raise InvalidState("resolution projectors do not sum to identity")
        if np.abs(recomposed - self.op.matrix).max() > RESIDUAL_ATOL:
            raise InvalidState("resolution does not recompose the observable")

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def outcomes(self) -> tuple:
        return tuple(a for a, _ in self.resolution)

    def projector(self, outcome) -> HermitianOperator:
        for a, p in self.resolution:
            if a == outcome:
                return p
        raise KeyError(f"no outcome {outcome!r} in resolution")


def observable_from_direction(m) -> Observable:
    """Dichotomic qubit observable sigma . m with outcomes +1, -1."""
    mhat = direction(m)
    plus = projector_from_direction(mhat, +1)
    minus = projector_from_direction(mhat, -1)
    return Observable(
        op=HermitianOperator(pauli_matrix(mhat)),
        resolution=((1, plus), (-1, minus)),
        axis=mhat,
    )


def state_from_json(obj: dict) -> DensityMatrix:
    """Load a state from {"bloch": [x,y,z]} or {"rho": {dim,re,im}}."""
    if "bloch" in obj:
        return density_from_bloch(obj["bloch"])
    if "rho" in obj:
        return DensityMatrix(HermitianOperator.from_json(obj["rho"]))
    raise ValueError('state JSON needs a "bloch" or "rho" key')


def direction_from_json(obj: dict) -> np.ndarray:
    """Load a direction from {"m": [x,y,z]} (normalised on load)."""
    if "m" not in obj:
        raise ValueError('direction JSON needs an "m" key')
    return direction(obj["m"])
