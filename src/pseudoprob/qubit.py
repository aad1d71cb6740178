"""Closed-form qubit schemes, classicality thresholds, and negativity geometry.

For qubit observables sigma . m_i and a state with polarisation P the
scheme entries have closed forms:

  pair:    p(a1,a2)    = (1 + a1 a2 m1.m2 + P.(a1 m1 + a2 m2)) / 4
  triple (Weyl order):
           p(a1,a2,a3) = (1 + P.sum_i a_i m_i + sum_{i<j} a_i a_j m_i.m_j
                          + (a1 a2 a3 / 3) sum_cyc (P.m_i)(m_j.m_k)) / 8

Both agree with the matrix pipeline (`build_scheme`) to machine precision;
the tests enforce that equivalence.

For the aligned geometry P parallel to m1 + m2 with m1.m2 = cos(theta),
exactly one entry can go negative and the negativity reduces to
(|P| c - c^2)/2 with c = cos(theta/2), clamped at zero. Its maximum over
theta is |P|^2 / 8, attained at theta* = 2 arccos(|P|/2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operators import _array, _scalar
from .pseudoprojection import Recipe
from .schemes import Scheme
from .states import (
    bloch_vector,
    density_from_bloch,
    direction,
    observable_from_direction,
)
from .tolerances import ROUNDING_ATOL

PAIR_OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
TRIPLE_OUTCOMES = tuple(itertools.product((1, -1), repeat=3))

ORTHOGONAL_PAIR = "orthogonal-pair"
ORTHOGONAL_TRIPLE = "orthogonal-triple"


def _check_pnorm(pnorm) -> float:
    """`pnorm` as a float, once `_scalar` takes it and it lies in [0, 1]."""
    return _scalar(pnorm, ValueError, "pnorm must lie in [0, 1], got {!r}",
                   lambda p: -ROUNDING_ATOL <= p <= 1.0 + ROUNDING_ATOL)


def _check_theta(theta) -> np.ndarray:
    """`theta` (a number or an array) as a float array, once `_array` takes
    it and every angle lies in (0, pi); the first one that does not, NaN
    included, is named."""
    message = "theta must lie in (0, pi), got {!r}"
    theta = _array(theta, ValueError, message)
    outside = ~((0.0 < theta) & (theta < math.pi))
    if outside.any():
        raise ValueError(message.format(float(theta[outside][0])))
    return theta


def _aligned_directions(theta: np.ndarray) -> tuple:
    """The aligned pair's directions (sin h, 0, cos h) and (-sin h, 0, cos h),
    h = theta/2, each of shape theta.shape + (3,), for a float array theta:
    unit vectors at angle theta in the x-z plane with m1 + m2 along z."""
    half = 0.5 * theta
    s, c = np.sin(half), np.cos(half)
    zero = np.zeros_like(half)
    return np.stack([s, zero, c], axis=-1), np.stack([-s, zero, c], axis=-1)


def pair_entries(p, m1, m2) -> np.ndarray:
    """Closed-form pair scheme entries, canonical outcome order.

    Broadcasts over leading axes: p, m1, m2 are (..., 3) arrays and the
    result is (..., 4).
    """
    p, m1, m2 = (_array(a, ValueError, "pair_entries needs real numbers, got {!r}") for a in (p, m1, m2))
    c = np.sum(m1 * m2, axis=-1)
    u = np.sum(p * m1, axis=-1)
    v = np.sum(p * m2, axis=-1)
    rows = [0.25 * (1.0 + a1 * a2 * c + a1 * u + a2 * v) for a1, a2 in PAIR_OUTCOMES]
    return np.stack(rows, axis=-1)


def triple_entries(p, m1, m2, m3) -> np.ndarray:
    """Closed-form Weyl-ordered triple scheme entries, canonical order.

    Broadcasts like `pair_entries`; the result is (..., 8).
    """
    p, *ms = (_array(a, ValueError, "triple_entries needs real numbers, got {!r}") for a in (p, m1, m2, m3))
    pm = [np.sum(p * m, axis=-1) for m in ms]
    mm = {
        (i, j): np.sum(ms[i] * ms[j], axis=-1)
        for i in range(3)
        for j in range(i + 1, 3)
    }
    cyc = (
        pm[0] * mm[(1, 2)] + pm[1] * mm[(0, 2)] + pm[2] * mm[(0, 1)]
    )
    rows = []
    for a1, a2, a3 in TRIPLE_OUTCOMES:
        rows.append(
            0.125
            * (
                1.0
                + a1 * pm[0] + a2 * pm[1] + a3 * pm[2]
                + a1 * a2 * mm[(0, 1)] + a1 * a3 * mm[(0, 2)] + a2 * a3 * mm[(1, 2)]
                + (a1 * a2 * a3 / 3.0) * cyc
            )
        )
    return np.stack(rows, axis=-1)


@dataclass(frozen=True, eq=False)
class PairGeometry:
    """A state polarisation and two measurement directions."""

    p: np.ndarray
    m1: np.ndarray
    m2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", bloch_vector(self.p))
        object.__setattr__(self, "m1", direction(self.m1))
        object.__setattr__(self, "m2", direction(self.m2))

    @property
    def theta(self) -> float:
        return float(np.arccos(np.clip(np.dot(self.m1, self.m2), -1.0, 1.0)))

    @classmethod
    def aligned(cls, pnorm: float, theta: float) -> "PairGeometry":
        """Directions at angle theta in the x-z plane, P along m1 + m2."""
        theta = _check_theta(theta)
        return cls(np.array([0.0, 0.0, _check_pnorm(pnorm)]), *_aligned_directions(theta))


@dataclass(frozen=True, eq=False)
class TripleGeometry:
    """A state polarisation and three measurement directions."""

    p: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", bloch_vector(self.p))
        object.__setattr__(self, "m1", direction(self.m1))
        object.__setattr__(self, "m2", direction(self.m2))
        object.__setattr__(self, "m3", direction(self.m3))

    @property
    def directions(self) -> tuple:
        return (self.m1, self.m2, self.m3)

    @classmethod
    def coplanar120(cls, p=(0.0, 0.0, 0.0)) -> "TripleGeometry":
        m1, m2, m3 = coplanar_triple_directions()
        return cls(p=p, m1=m1, m2=m2, m3=m3)

    @classmethod
    def orthogonal_diagonal(cls, pnorm: float) -> "TripleGeometry":
        """Coordinate axes with P along their diagonal (worst case)."""
        p = _scalar(pnorm, ValueError, "pnorm must be a real number, got {!r}") * np.ones(3) / math.sqrt(3.0)
        return cls(p=p, m1=np.eye(3)[0], m2=np.eye(3)[1], m3=np.eye(3)[2])


def coplanar_triple_directions() -> tuple:
    """Unit vectors at mutual 120 degrees in the x-z plane (m_i.m_j = -1/2):
    z-axis plus its rotations by +-120 degrees."""
    s, c = math.sin(2.0 * math.pi / 3.0), math.cos(2.0 * math.pi / 3.0)
    return (
        np.array([0.0, 0.0, 1.0]),
        np.array([s, 0.0, c]),
        np.array([-s, 0.0, c]),
    )


def pair_scheme_closed(g: PairGeometry) -> Scheme:
    """Pair scheme from the closed form (equals the Weyl matrix pipeline)."""
    values = pair_entries(g.p, g.m1, g.m2)
    observables = (observable_from_direction(g.m1), observable_from_direction(g.m2))
    return Scheme(observables, Recipe.weyl(), density_from_bloch(g.p), values)


def triple_scheme_weyl_closed(g: TripleGeometry) -> Scheme:
    """Weyl triple scheme from the closed form (equals the matrix pipeline)."""
    values = triple_entries(g.p, g.m1, g.m2, g.m3)
    observables = tuple(observable_from_direction(m) for m in g.directions)
    return Scheme(observables, Recipe.weyl(), density_from_bloch(g.p), values)


def negativity_special(pnorm: float, theta):
    """Negativity of the aligned pair geometry: max(0, (|P| c - c^2)/2),
    c = cos(theta/2). Positive exactly when |P| > cos(theta/2).

    Broadcasts over theta like `pair_entries`: a float for a number, an
    array of theta's shape for an array.
    """
    pnorm = _check_pnorm(pnorm)
    c = np.cos(0.5 * _check_theta(theta))
    value = np.maximum(0.0, 0.5 * (pnorm * c - c * c))
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class NegativityMax:
    value: float
    theta_star: float


def negativity_max(pnorm: float) -> NegativityMax:
    """Maximum aligned-pair negativity over theta: |P|^2/8 at
    theta* = 2 arccos(|P|/2)."""
    pnorm = _check_pnorm(pnorm)
    return NegativityMax(value=pnorm * pnorm / 8.0, theta_star=2.0 * math.acos(0.5 * pnorm))


def pair_classical_radius() -> float:
    """Classicality threshold for orthogonal direction pairs: 1/sqrt(2).

    States with |P| below this radius have non-negative pair schemes for
    every orthogonal geometry; the worst case is P parallel to m1 + m2,
    where the smallest entry is (1 - sqrt(2) |P|)/4.
    """
    return math.sqrt(0.5)


def triple_classical_radius() -> float:
    """Classicality threshold for orthogonal direction triples: 1/sqrt(3)."""
    return math.sqrt(1.0 / 3.0)


def worst_case_min_entry(family: str, pnorm: float) -> float:
    """Smallest scheme entry at the family's worst-case geometry."""
    if family == ORTHOGONAL_PAIR:
        g = PairGeometry.aligned(pnorm, 0.5 * math.pi)
        return float(pair_entries(g.p, g.m1, g.m2).min())
    if family == ORTHOGONAL_TRIPLE:
        g = TripleGeometry.orthogonal_diagonal(pnorm)
        return float(triple_entries(g.p, g.m1, g.m2, g.m3).min())
    raise ValueError(f"unknown family {family!r}")


def critical_radius_bisection(family: str) -> float:
    """Deterministic bisection for the classical radius of a family.

    Splits on the sign of the worst-case minimum entry, independent of the
    analytic thresholds above.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > ROUNDING_ATOL:
        mid = 0.5 * (lo + hi)
        if worst_case_min_entry(family, mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
