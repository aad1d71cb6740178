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
    _commutator_norms,
    _is_integral,
    _is_number,
    eigenvalues_hermitian,
    idempotency_residual,
    identity,
)
from .tolerances import RESIDUAL_ATOL, ROUNDING_ATOL

# A Weyl average takes 2^N N products; build_scheme makes each partial
# product once per outcome of the observables it involves, within
# MAX_LATTICE_ENTRIES: an N = 8 Weyl scheme takes ~6-8 ms over qubits (256
# tuples) and ~40-46 ms over qutrits (6561 tuples), and a weights recipe over
# all 20160 classes of 8 qubit observables ~0.33-0.37 s, on a 2-vCPU Xeon VM,
# min of 3 (the VM's speed varies by run). Only unit_pseudo_projections
# enumerates all N!/2 = 20160 classes at N = 8: ~0.3-0.4 s at d = 2 and
# ~0.7-0.9 s at d = 14, the largest d within MAX_LATTICE_ENTRIES (at N = 7,
# d = 40: ~0.5-0.6 s), medians and mins of 5-7 runs on the same VM.
# weyl_pseudo_projection at N = 8 takes ~0.33 s at its largest d, 128.
MAX_GENERATORS = 8
# The most d x d complex matrix entries one call builds, counted before
# anything is built: build_scheme's outcome lattice (see schemes), 2^N d^2 for
# weyl_pseudo_projection (its W(S) for every subset S, build_scheme's count for
# single-outcome axes) and (N!/2 + N) d^2 for unit_pseudo_projections (one
# unit per reversal class, and the stack of N generators they are made
# from). At each N the largest accepted d then takes ~0.55-0.95 s: ~0.6 s at
# N = 2, d = 1182, and the slowest, ~0.9 s, at N = 4, d = 512 and N = 8,
# d = 14 (min and max of 3 on the same VM).
MAX_LATTICE_ENTRIES = 1 << 22


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
        if not _is_integral(index):
            raise InvalidRecipe(f"unit index must be an integer, got {index!r}")
        if index < 0:
            raise InvalidRecipe(f"unit index must be non-negative, got {index}")
        return cls(kind="unit", index=int(index))

    @classmethod
    def convex(cls, weights) -> "Recipe":
        ws = _real_weights(weights)
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


def _real_weights(weights) -> tuple:
    """The weights as floats, once each is a real number (not a bool or a
    string)."""
    ws = tuple(weights)
    if not all(_is_number(w) for w in ws):
        raise InvalidConvexWeights(f"weights must be real numbers, got {ws!r}")
    return tuple(float(w) for w in ws)


def _check_weights(ws, expected_len: int) -> None:
    if len(ws) != expected_len:
        raise InvalidConvexWeights(f"expected {expected_len} weights, got {len(ws)}")
    # written so that NaN fails both checks, and ±inf one of them
    if not all(w >= 0.0 for w in ws):
        raise InvalidConvexWeights("weights must be non-negative")
    if not abs(sum(ws) - 1.0) <= ROUNDING_ATOL:
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


def _check_generators(projs, matrices) -> list:
    """The N projectors as a list, checked in this order: 2 <= N <=
    MAX_GENERATORS; the `matrices(N)` d x d matrices to be built from them,
    d the first one's dimension, within MAX_LATTICE_ENTRIES entries; each
    projector of dimension d and idempotent."""
    projs = list(projs)
    if len(projs) < 2:
        raise ValueError("need at least two projectors")
    if len(projs) > MAX_GENERATORS:
        raise OrderingExplosion(
            f"{len(projs)} projectors exceed the generator cap {MAX_GENERATORS}"
        )
    dim = projs[0].dim
    entries = matrices(len(projs)) * dim * dim
    if entries > MAX_LATTICE_ENTRIES:
        raise OrderingExplosion(f"{entries} matrix entries exceed the cap {MAX_LATTICE_ENTRIES}")
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


def distinct_unit_matrices(mats):
    """(units, class_indices) of the `ordering_classes` of the (d, d)
    matrices `mats`: a (k, d, d) stack of the hermitized class products and
    the list of their k class indices, leaving out each unit equal to an
    earlier kept one within RESIDUAL_ATOL in max-norm.

    The products are made one prefix length at a time, each length one
    stacked matmul: the classes are in lexicographic order, so those that
    share a prefix are adjacent, and each distinct prefix of length j + 1 is
    its prefix of length j times the generator at position j. Each unit is
    thus the left to right chain product of its class, as in
    `weighted_matrix`, and the whole stack is hermitized once, in place.

    A unit is compared only with the kept units whose key, a fixed weighted
    sum of the real entries with absolute weights summing to 1, lies within
    2 RESIDUAL_ATOL of its own: a unit within RESIDUAL_ATOL in max-norm
    moves the key by at most that (plus rounding), so no duplicate is
    missed.
    """
    d = mats[0].shape[0]
    classes = np.array(ordering_classes(len(mats)))
    units = gens = np.stack(mats)
    parents = classes[:, 0]  # each class's row of `units`
    for j in range(1, len(mats)):
        first = np.ones(len(classes), dtype=bool)  # first class of each prefix
        first[1:] = (classes[1:, :j + 1] != classes[:-1, :j + 1]).any(axis=1)
        units = units[parents[first]] @ gens[classes[first, j]]
        parents = np.cumsum(first) - 1
    units += units.conj().swapaxes(-1, -2)
    units *= 0.5
    weights = np.cos(np.arange(d * d)).reshape(d, d)
    weights /= np.abs(weights).sum()
    keys = (weights * units.real).sum(axis=(1, 2)).tolist()
    kept: list[int] = []
    window: list[tuple] = []  # (key, class index), sorted
    for k, key in enumerate(keys):
        lo = bisect.bisect_left(window, (key - 2 * RESIDUAL_ATOL,))
        hi = bisect.bisect_right(window, (key + 2 * RESIDUAL_ATOL, math.inf))
        if all(np.abs(units[j] - units[k]).max() > RESIDUAL_ATOL for _, j in window[lo:hi]):
            bisect.insort(window, (key, k))
            kept.append(k)
    return units[kept], kept


@functools.lru_cache(maxsize=None)
def _subset_plan(n: int) -> tuple:
    """Steps of the subset recursion, one tuple per subset size k = 2..n:
    each k-subset S in `itertools.combinations` order, with the pairs
    (i, S - {i}) for every i in S ascending."""
    return tuple(
        tuple(
            (s, tuple((i, s[:j] + s[j + 1:]) for j, i in enumerate(s)))
            for s in itertools.combinations(range(n), k)
        )
        for k in range(2, n + 1)
    )


# [1, i] down a new second-to-last axis: a[..., None, :] * _ONE_I puts each
# row of a above the same row of i a
_ONE_I = np.array([[1.0], [1.0j]])
_ONE_I.setflags(write=False)


def right_factors(a) -> np.ndarray:
    """The real (..., 2d, 2d) stack E = Re a (x) I_2 + Im a (x) [[0, 1], [-1, 0]]
    of a complex (..., d, d) stack, so that for any complex (..., d, d) w
    with a contiguous last axis, w.view(float64) @ E is (w @ a).view(float64)
    up to rounding, broadcasting as w @ a does.

    Row 2k of E is row k of a viewed as interleaved (re, im) floats, and row
    2k + 1 is row k of i a: one multiplication builds it, whatever a's
    layout."""
    a = np.asarray(a)
    *lead, d, _ = a.shape
    return (a[..., None, :] * _ONE_I).view(np.float64).reshape(*lead, 2 * d, 2 * d)


# stacked matmul calls per generator from which the real route pays
_REAL_FROM_CALLS = 4


def _operands(mats, calls: int) -> tuple:
    """(left, right, real): each generator as a left operand and as a right
    factor of a recursion that makes `calls` stacked matmul calls.

    A real stacked matmul costs about half a complex one per call and an
    eighth per small product, but a generator's `right_factors` cost about
    what three calls save, and whole builds gain only from about four calls
    per generator on (qubit Weyl at N = 4, not N = 3). From there on the
    operands are real: the generator viewed as (..., d, 2d) interleaved
    floats, and its factors. Below that they are the generators themselves.
    """
    if calls < _REAL_FROM_CALLS * len(mats):
        return mats, mats, False
    left = [np.ascontiguousarray(m, dtype=np.complex128).view(np.float64) for m in mats]
    return left, [right_factors(m) for m in mats], True


def weyl_matrix(mats) -> np.ndarray:
    """Equal-weight average of all N! ordering products, hermitized.

    `mats` holds N generators, each a (d, d) matrix or a (..., d, d) stack,
    and the stacks broadcast: a stack of outcome tuples gives one result
    per tuple, and generator i's (k_i, d, d) projectors on their own grid
    axis give the whole (k_1, ..., k_N, d, d) outcome grid. The subset
    recursion right-multiplies, W(S) = sum_{i in S} W(S - {i}) A_i, one
    subset size at a time, each sum taken over i ascending; on a grid, W(S)
    spans only the axes in S, so it is made once for all the tuples that
    share the outcomes of S. From N = 4 on (`_operands`), every W(S) is kept
    as a float64 view and each product is a real matmul with A_i's
    `right_factors`.

    Sums and the hermitization run in place on arrays made here, so the
    peak holds about two copies of the result beside the level below it.
    """
    n = len(mats)
    left, right, real = _operands(mats, n * 2 ** (n - 1) - n)
    w = {(i,): left[i] for i in range(n)}
    for level in _subset_plan(n):
        below, w = w, {}
        for s, steps in level:
            (i, rest), *more = steps
            acc = below[rest] @ right[i]
            for i, rest in more:
                acc += below[rest] @ right[i]
            w[s] = acc
    acc = w.pop(tuple(range(n)))
    # a new array, also for N = 1, where w holds the caller's matrix; halving
    # is exact, so A + A^dag for A = W/(2 N!) is (W/N! + (W/N!)^dag)/2 bit for
    # bit
    acc = (acc.view(np.complex128) if real else acc) / (2 * math.factorial(n))
    acc += acc.conj().swapaxes(-1, -2)
    return acc


def weighted_matrix(mats, terms) -> np.ndarray:
    """sum_c w_c (A_c + A_c^dag)/2 over the (weight, ordering) `terms`, each
    ordering a permutation of the N generators in `mats`, which broadcast as
    in `weyl_matrix`.

    Hermitization is linear, so the weighted sum of the products is formed
    first and hermitized once. It is summed before the products grow: B(s),
    the weighted sum over the orderings that end in the suffix s of the
    product of the rest, starts at B(c[1:]) = w_c A_c[0], and
    B(s) = sum_{i not in s} B((i,) + s) A_i, down to B(()). On a grid B(s)
    spans only the axes outside s, so at most N products cover the whole
    grid. Products are formed left to right, so a single ordering (a unit
    recipe) is the plain chain product, and once the orderings make 4
    calls per generator (`_operands`) they are real matmuls on float64
    views, as in `weyl_matrix`.
    """
    n = len(mats)
    # N - 1 calls per ordering, before orderings share suffixes
    left, right, real = _operands(mats, len(terms) * (n - 1))
    # each ordering starts at a new array w_c/2 A_c[0]; halving is exact, so
    # A + A^dag for A = B(())/2 is the hermitized sum bit for bit
    level = {}
    for w, c in terms:
        level[c[1:]] = 0.5 * w * left[c[0]]
    for _ in range(n - 1):
        below, level = level, {}
        for s, b in below.items():
            prod = b @ right[s[0]]
            acc = level.setdefault(s[1:], prod)
            if acc is not prod:
                acc += prod
    acc = level.pop(())
    if real:
        acc = acc.view(np.complex128)
    acc += acc.conj().swapaxes(-1, -2)
    return acc


def unit_pseudo_projections(projectors) -> list[PseudoProjection]:
    """The distinct unit pseudo-projections of the given projectors.

    One per reversal class, less units equal to an earlier one within
    RESIDUAL_ATOL (commuting generators collapse the list, down to the true
    projection when all commute). Each is tagged Recipe.unit(k) with its
    class index k, so `build_scheme` with that recipe reproduces it.
    """
    projs = _check_generators(projectors, lambda n: math.factorial(n) // 2 + n)
    units, indices = distinct_unit_matrices([p.matrix for p in projs])
    gens = tuple(projs)
    return [
        PseudoProjection(op=op, generators=gens, recipe=Recipe(kind="unit", index=k))
        for k, op in zip(indices, HermitianOperator.from_stack(units))
    ]


def weyl_pseudo_projection(projectors) -> PseudoProjection:
    """Fully symmetric pseudo-projection: average over all N! orderings.

    Equivalently the mean of the N!/2 class units, and exactly invariant
    under permutations of the input list. For two projectors this is just
    their symmetrized product; for a complementary pair (pi, 1 - pi) it
    vanishes identically.
    """
    projs = _check_generators(projectors, lambda n: 2 ** n)
    op = HermitianOperator(weyl_matrix([p.matrix for p in projs]))
    return PseudoProjection(op=op, generators=tuple(projs), recipe=Recipe.weyl())


def combine(units, weights) -> PseudoProjection:
    """Convex combination of unit pseudo-projections of the same generators.

    Tagged with one weight per ordering class, each unit's weight at its
    Recipe.unit class index, so `build_scheme` replays the tag also when
    units collapsed or only some of them were passed. The tag names the first
    unit's generators, so every unit's generator matrices must equal them, in
    the same order.
    """
    units = list(units)
    ws = _real_weights(weights)
    _check_weights(ws, len(units))
    gens = units[0].generators
    class_weights = [0.0] * len(ordering_classes(len(gens)))
    acc = np.zeros_like(units[0].op.matrix)
    for w, u in zip(ws, units):
        if u.recipe.kind != "unit" or u.recipe.index >= len(class_weights):
            raise InvalidRecipe(f"combine needs unit pseudo-projections, got recipe {u.recipe!r}")
        if len(u.generators) != len(gens) or not all(
            np.array_equal(g.matrix, h.matrix) for g, h in zip(u.generators, gens)
        ):
            raise InvalidRecipe("combine needs units of the same generators")
        class_weights[u.recipe.index] += w
        acc = acc + w * u.op.matrix
    return PseudoProjection(
        op=HermitianOperator(acc),
        generators=gens,
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
    if len({g.dim for g in pp.generators}) > 1:
        raise DimensionMismatch("projectors of mixed dimension")
    m = np.stack([g.matrix for g in pp.generators])
    i, j = np.triu_indices(len(m), 1)  # every pair i < j, in one call
    return SpectralAudit(
        min_eig=float(vals[0]),
        commutator_norm=float(_commutator_norms(m[i] @ m[j], m[j] @ m[i]).max(initial=0.0)),
        is_true_projection=idempotency_residual(pp.op) <= RESIDUAL_ATOL,
    )
