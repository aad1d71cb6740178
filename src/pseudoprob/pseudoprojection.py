"""Pseudo-projections: hermitized ordered products of projectors.

The product of noncommuting projectors is not itself a projector. Each
ordering of the product, hermitized as (prod + prod^dag)/2, gives a "unit"
pseudo-projection; an ordering and its reversal coincide, so N projectors
yield N!/2 units, one per reversal class. Their convex combinations, and
in particular the equal-weight average over all orderings (the fully
symmetric, Weyl-ordered form), represent the indicator function of the
joint outcome. Whenever the generators fail to commute, every such
operator acquires at least one negative eigenvalue; when they all
commute, the manifold collapses to the single true projection.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidConvexWeights,
    InvalidRecipe,
    NotAProjector,
    OrderingExplosion,
)
from .operators import (
    HermitianOperator,
    commutator_norm,
    eigenvalues_hermitian,
    idempotency_residual,
    identity,
)
from .tolerances import RESIDUAL_ATOL, ROUNDING_ATOL

# Weyl costs 2^N N products per outcome tuple (a qubit N = 8 build_scheme took
# ~1 s on a 2-vCPU Xeon VM), unit/weights N - 1 per weighted class; only
# unit_pseudo_projections enumerates all N!/2 = 20160 classes at N = 8.
MAX_GENERATORS = 8


@dataclass(frozen=True)
class Recipe:
    """Ordering recipe for building a pseudo-projection from projectors.

    kind is one of "weyl" (equal-weight average over all orderings),
    "unit" (the hermitized ordering of class `index` in `ordering_classes`),
    or "weights" (one weight per class); a recipe thus means the same
    orderings in every outcome tuple, whatever the projectors.
    """

    kind: str
    index: int | None = None
    weights: tuple | None = None

    @classmethod
    def weyl(cls) -> "Recipe":
        return cls(kind="weyl")

    @classmethod
    def unit(cls, index: int) -> "Recipe":
        if index < 0:
            raise InvalidRecipe(f"unit index must be non-negative, got {index}")
        return cls(kind="unit", index=int(index))

    @classmethod
    def convex(cls, weights) -> "Recipe":
        ws = tuple(float(w) for w in weights)
        _check_weights(ws, len(ws))
        return cls(kind="weights", weights=ws)

    def terms(self, classes) -> list:
        """(weight, ordering) pairs of the recipe over `classes`, zero weights dropped."""
        if self.kind == "unit":
            if not 0 <= self.index < len(classes):
                raise InvalidRecipe(
                    f"unit index {self.index} out of range for {len(classes)} ordering classes"
                )
            return [(1.0, classes[self.index])]
        if self.kind == "weights":
            _check_weights(self.weights, len(classes))
            return [(w, c) for w, c in zip(self.weights, classes) if w]
        raise InvalidRecipe(f"unknown recipe kind {self.kind!r}")

    def to_json(self):
        if self.kind == "weyl":
            return "weyl"
        if self.kind == "unit":
            return {"unit": self.index}
        return {"weights": list(self.weights)}

    @classmethod
    def from_json(cls, obj) -> "Recipe":
        if obj == "weyl":
            return cls.weyl()
        if isinstance(obj, dict) and "unit" in obj:
            return cls.unit(int(obj["unit"]))
        if isinstance(obj, dict) and "weights" in obj:
            return cls.convex(obj["weights"])
        raise InvalidRecipe(f"unrecognised recipe JSON {obj!r}")


def _check_weights(ws, expected_len: int) -> None:
    if len(ws) != expected_len:
        raise InvalidConvexWeights(f"expected {expected_len} weights, got {len(ws)}")
    if any(w < 0 for w in ws):
        raise InvalidConvexWeights("weights must be non-negative")
    if abs(sum(ws) - 1.0) > ROUNDING_ATOL:
        raise InvalidConvexWeights(f"weights sum to {sum(ws)!r}, not 1")


@dataclass(frozen=True, eq=False)
class PseudoProjection:
    """Hermitian operator tagged with its generating projectors and recipe."""

    op: HermitianOperator
    generators: tuple
    recipe: Recipe

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True)
class SpectralAudit:
    """Spectral fingerprint of a pseudo-projection.

    min_eig < 0 exactly when the generators fail to commute;
    is_true_projection flags the commuting collapse.
    """

    min_eig: float
    commutator_norm: float
    is_true_projection: bool


def _check_generators(projs) -> list:
    projs = list(projs)
    if len(projs) < 2:
        raise ValueError("need at least two projectors")
    if len(projs) > MAX_GENERATORS:
        raise OrderingExplosion(
            f"{len(projs)} projectors would need {math.factorial(len(projs))} orderings"
        )
    dim = projs[0].dim
    for p in projs:
        if p.dim != dim:
            raise DimensionMismatch("projectors of mixed dimension")
        if idempotency_residual(p) > RESIDUAL_ATOL:
            raise NotAProjector(f"idempotency residual {idempotency_residual(p):.3e}")
    return projs


@functools.lru_cache(maxsize=None)
def ordering_classes(n: int) -> tuple:
    """Reversal classes of the orderings of n generators (N!/2 for N >= 2),
    each the lexicographically smaller of an ordering and its reversal, in
    lexicographic order. Recipe index K names the K-th class."""
    return tuple(p for p in itertools.permutations(range(n)) if p <= p[::-1])


def hermitized_product(mats, order) -> np.ndarray:
    """(A_sigma + A_sigma^dag)/2 for the ordered product A_sigma of `mats`."""
    prod = mats[order[0]]
    for k in order[1:]:
        prod = prod @ mats[k]
    return 0.5 * (prod + prod.conj().T)


def distinct_unit_matrices(mats):
    """(units, class_indices) of the `ordering_classes`, leaving out each
    unit equal to an earlier kept one within RESIDUAL_ATOL in max-norm.

    A new unit is compared only with the kept units whose key, a fixed
    weighted sum of the real entries with absolute weights summing to 1,
    lies within 2 RESIDUAL_ATOL of its own: a unit within RESIDUAL_ATOL in
    max-norm moves the key by at most that (plus rounding), so no duplicate
    is missed.
    """
    d = mats[0].shape[0]
    weights = np.cos(np.arange(d * d)).reshape(d, d)
    weights /= np.abs(weights).sum()
    units: list[np.ndarray] = []
    indices: list[int] = []
    window: list[tuple] = []  # (key, position in units), sorted
    for k, order in enumerate(ordering_classes(len(mats))):
        h = hermitized_product(mats, order)
        key = float((weights * h.real).sum())
        lo = bisect.bisect_left(window, (key - 2 * RESIDUAL_ATOL,))
        hi = bisect.bisect_right(window, (key + 2 * RESIDUAL_ATOL, math.inf))
        if all(np.abs(units[j] - h).max() > RESIDUAL_ATOL for _, j in window[lo:hi]):
            bisect.insort(window, (key, len(units)))
            units.append(h)
            indices.append(k)
    return units, indices


def weyl_matrix(mats) -> np.ndarray:
    """Equal-weight average of all N! ordering products, hermitized, by the
    subset recursion W(S) = sum_{i in S} A_i W(S - {i}): 2^N N products."""
    n = len(mats)
    w = {1 << i: m for i, m in enumerate(mats)}
    for s in range(1, 1 << n):
        if s not in w:
            w[s] = sum(mats[i] @ w[s ^ (1 << i)] for i in range(n) if s >> i & 1)
    acc = w[(1 << n) - 1] / math.factorial(n)
    return 0.5 * (acc + acc.conj().T)


def unit_pseudo_projections(projectors) -> list[PseudoProjection]:
    """The distinct unit pseudo-projections of the given projectors.

    One per reversal class, less units equal to an earlier one within
    RESIDUAL_ATOL (commuting generators collapse the list, down to the true
    projection when all commute). Each is tagged Recipe.unit(k) with its
    class index k, so `build_scheme` with that recipe reproduces it.
    """
    projs = _check_generators(projectors)
    units, indices = distinct_unit_matrices([p.matrix for p in projs])
    gens = tuple(projs)
    return [
        PseudoProjection(op=HermitianOperator(u), generators=gens, recipe=Recipe.unit(k))
        for k, u in zip(indices, units)
    ]


def weyl_pseudo_projection(projectors) -> PseudoProjection:
    """Fully symmetric pseudo-projection: average over all N! orderings.

    Equivalently the mean of the N!/2 class units, and exactly invariant
    under permutations of the input list. For two projectors this is just
    their symmetrized product; for a complementary pair (pi, 1 - pi) it
    vanishes identically.
    """
    projs = _check_generators(projectors)
    op = HermitianOperator(weyl_matrix([p.matrix for p in projs]))
    return PseudoProjection(op=op, generators=tuple(projs), recipe=Recipe.weyl())


def combine(units, weights) -> PseudoProjection:
    """Convex combination of unit pseudo-projections.

    Tagged with one weight per ordering class, each unit's weight at its
    Recipe.unit class index, so `build_scheme` replays the tag also when
    units collapsed or only some of them were passed.
    """
    units = list(units)
    ws = tuple(float(w) for w in weights)
    _check_weights(ws, len(units))
    if not units:
        raise ValueError("need at least one unit pseudo-projection")
    class_weights = [0.0] * len(ordering_classes(len(units[0].generators)))
    acc = np.zeros_like(units[0].op.matrix)
    for w, u in zip(ws, units):
        if u.recipe.kind != "unit" or u.recipe.index >= len(class_weights):
            raise InvalidRecipe(f"combine needs unit pseudo-projections, got recipe {u.recipe!r}")
        class_weights[u.recipe.index] += w
        acc = acc + w * u.op.matrix
    return PseudoProjection(
        op=HermitianOperator(acc),
        generators=units[0].generators,
        recipe=Recipe.convex(class_weights),
    )


def disjunction_operator(pa: HermitianOperator, pb: HermitianOperator) -> HermitianOperator:
    """OR-operator pi_a + pi_b - (pi_a pi_b + pi_b pi_a)/2.

    Eigenvalues may exceed 1: a joint description of noncommuting events
    is not constrained to the classical probability range.
    """
    for p in (pa, pb):
        if idempotency_residual(p) > RESIDUAL_ATOL:
            raise NotAProjector("disjunction needs true projectors")
    if pa.dim != pb.dim:
        raise DimensionMismatch(f"{pa.dim} vs {pb.dim}")
    sym = 0.5 * (pa.matrix @ pb.matrix + pb.matrix @ pa.matrix)
    return HermitianOperator(pa.matrix + pb.matrix - sym)


def negation_operator(pp) -> HermitianOperator:
    """NOT-operator: identity minus the pseudo-projection.

    Note this formal complement does not annihilate its argument: the
    product (1 - P) P vanishes only for true projections. Use
    `negation_product_residual` to inspect the deviation.
    """
    op = pp.op if isinstance(pp, PseudoProjection) else pp
    return identity(op.dim) - op


def negation_product_residual(pp) -> float:
    """max-norm of (1 - P) P, the failure of the NOT-operator to exclude P."""
    op = pp.op if isinstance(pp, PseudoProjection) else pp
    m = op.matrix
    return float(np.abs((np.eye(op.dim) - m) @ m).max())


def spectral_audit(pp: PseudoProjection) -> SpectralAudit:
    """Minimum eigenvalue, worst generator commutator, and projection check."""
    vals = eigenvalues_hermitian(pp.op)
    gens = pp.generators
    comm = 0.0
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            comm = max(comm, commutator_norm(gens[i], gens[j]))
    return SpectralAudit(
        min_eig=float(vals[0]),
        commutator_norm=comm,
        is_true_projection=idempotency_residual(pp.op) <= RESIDUAL_ATOL,
    )
