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
    _scalar,
    eigenvalues_hermitian,
    idempotency_residual,
    identity,
)
from .tolerances import RESIDUAL_ATOL, ROUNDING_ATOL

# A Weyl average takes 2^N N products; build_scheme makes each partial
# product once per outcome of the observables it involves, within
# MAX_LATTICE_ENTRIES: an N = 8 Weyl scheme takes ~0.50-0.55 ms over qubits
# (256 tuples) and ~6.4-6.7 ms over qutrits (6561 tuples), and a weights recipe over
# all 20160 classes of 8 qubit observables ~0.20-0.22 s, on a 2-vCPU Xeon VM,
# min of 3 in each of 2-3 runs (the VM's speed varies by run, up to 2x). Only
# unit_pseudo_projections enumerates all N!/2 = 20160 classes at N = 8:
# ~0.23 s at d = 2 and ~0.63 s at d = 14, the largest d within
# MAX_LATTICE_ENTRIES (at N = 7, d = 40: ~0.49 s), min of 3 on the same VM.
# weyl_pseudo_projection at N = 8 takes ~0.26-0.27 s at its largest d, 128.
MAX_GENERATORS = 8
# The most d x d complex matrix entries one call builds, counted before
# anything is built: build_scheme's outcome lattice (see schemes), 2^N d^2 for
# weyl_pseudo_projection (its W(S) for every subset S, build_scheme's count for
# single-outcome axes) and (N!/2 + N) d^2 for unit_pseudo_projections (one
# unit per reversal class, and the stack of N generators they are made
# from). At each N the largest accepted d then takes ~0.26-0.6 s for
# weyl_pseudo_projection (~0.26-0.28 s at N = 2, d = 1024, ~0.36-0.38 s at
# N = 3, d = 724, ~0.26-0.27 s at N = 8, d = 128) and ~0.5-0.8 s for
# unit_pseudo_projections (~0.62 s at N = 2, d = 1182, the slowest ~0.8 s at
# N = 4, d = 512), min of 3-5 on the same VM.
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

    def __post_init__(self):
        """The unit index as an int >= 0 and the weights as a tuple of floats
        >= 0 summing to 1, each taken by `_scalar`; any other kind than the
        three raises InvalidRecipe."""
        if self.kind == "unit":
            index = _scalar(self.index, InvalidRecipe, "unit index must be an integer, got {!r}", float.is_integer)
            if index < 0:
                raise InvalidRecipe(f"unit index must be non-negative, got {self.index}")
            object.__setattr__(self, "index", int(index))
        elif self.kind == "weights":
            message = "weights must be real numbers, got {!r}"
            try:
                ws = tuple(_scalar(w, InvalidConvexWeights, message) for w in self.weights)
            except TypeError:  # not iterable
                raise InvalidConvexWeights(message.format(self.weights)) from None
            _check_weights(ws, len(ws))
            object.__setattr__(self, "weights", ws)
        elif self.kind != "weyl":
            raise InvalidRecipe(f"unknown recipe kind {self.kind!r}")

    @classmethod
    def weyl(cls) -> "Recipe":
        return cls(kind="weyl")

    @classmethod
    def unit(cls, index: int) -> "Recipe":
        return cls(kind="unit", index=index)

    @classmethod
    def convex(cls, weights) -> "Recipe":
        """One weight per ordering class: real numbers, each taken by
        `_scalar`, that are >= 0 and sum to 1."""
        return cls(kind="weights", weights=weights)

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


def _operands(mats) -> tuple:
    """(left, right): each generator as a real left operand, viewed as
    (..., d, 2d) interleaved floats, and as its `right_factors`.

    One rule picks the arithmetic of both recursions: one ordering class
    runs the complex chain, two or more run real. A single class (a unit
    recipe, a weights recipe with one nonzero weight, and every product of
    N <= 2 generators, which have one class) is the plain left to right
    chain product: its few products would not pay for the factors. A sum
    over two or more classes (every Weyl average from N = 3 on, a weights
    recipe of several) makes each product a float64 view times a right
    factor, at about half the time of a complex matmul call and an eighth
    per small product.
    """
    left = [np.ascontiguousarray(m, dtype=np.complex128).view(np.float64) for m in mats]
    return left, [right_factors(m) for m in mats]


# The most bytes one gathered step of `weyl_matrix` holds. A gathered
# product holds its left row, right factor and result, (16 + 32 + 16) d^2
# bytes. A subset size of n rows of k-subsets is one step when its k n
# products fit and so does its product table: every one of the R rows of the
# size below times the right factors of each of the G generator rows, one
# matmul, and the k n products picked from it, (G R + k n) 16 d^2 bytes. A
# table product costs about a ninth of one made in a stacked matmul of tiny
# ones, which pays for the products not picked. Other sizes are gathered in
# steps of whole subsets, each as long as this lets it be, when those of
# their largest subset fit half a step, so every step but a size's last
# holds two subsets or more; the rest are made pair by pair. Copying few,
# large subsets into steps costs more than the calls it saves (steps sized
# by this budget alone made qutrit Weyl at N = 6 0.7x as fast, d = 4 at
# N = 5 0.55x and d = 128 at N = 8 0.65x), and a table for a size that is
# cut into steps slowed the sizes after it (qubit Weyl at N = 8 ~2%). Every
# size of qubit Weyl up to N = 6 and of qutrit Weyl up to N = 4 is one
# step; qubit sizes 4-6 at N = 7 and 3-6 at N = 8 take 2-14 steps, which
# made qubit Weyl at N = 7 ~1.9x and at N = 8 ~1.6-1.8x faster than pair
# by pair. `weyl_traces` makes sizes only up to ceil(N/2) (qubit size 4 at
# N = 7 in 3 steps, sizes 3 and 4 at N = 8 in 2 and 5), and cuts its
# blocks into runs of whole subsets under the same budget.
GATHER_BYTES = 1 << 18


def _rows(first: int, end: int, shape: tuple, target: tuple) -> np.ndarray:
    """Row numbers first..end - 1 laid out in `shape`, broadcast to `target`
    and flattened."""
    return np.broadcast_to(np.arange(first, end).reshape(shape), target).ravel()


def _places(shapes: tuple, k: int) -> dict:
    """{S: (first, end, shape)} for the k-subsets S of generators whose
    stacks have leading shapes `shapes`, in `itertools.combinations` order:
    the rows first..end - 1 of W(S), laid out in its members' shapes
    broadcast."""
    place, size = {}, 0
    for s in itertools.combinations(range(len(shapes)), k):
        shape = np.broadcast_shapes(*(shapes[i] for i in s))
        place[s] = (size, size + math.prod(shape), shape)
        size += math.prod(shape)
    return place


@functools.lru_cache(maxsize=64)
def _weyl_plan(shapes: tuple, d: int, top: int) -> tuple:
    """(levels, shape): `weyl_matrix`'s plan of the subset sizes 2..top of
    N generators of d x d matrices whose stacks have leading shapes
    `shapes`, and the shape of size N's rows as the result's (..., d, 2d)
    floats.

    Each subset size is one array of float64 (d, 2d) rows, its W(S) as
    `_places` lays them out. The generators are size 1,
    and their right factors have the same row numbers. A run of whole
    subsets has (k, rows) row numbers (below, factor): its row r is the sum
    over j of row below[j, r] of the size below times row factor[j, r] of
    the right factors, j the place of i in S. The entry of size k is (rows,
    index, gathers, pairs), one of the last three set:
    - index, factor R + below over the whole size for the R rows of the
      size below, picks its products from the table of every row below
      times every generator, made in one step.
    - a gather (first, end, below, factor) makes the rows of a run of
      whole subsets. Runs are as long as GATHER_BYTES lets them be.
    - a pair step (first, end, shape, pairs) makes one W(S), its rows
      viewed as `shape`, as the sum over its (S, i) pairs, i ascending, of
      W(S - {i}) times A_i's right factors, each a (first, end, shape) view
      of its rows.
    """
    gens = list(_places(shapes, 1).values())
    place, levels, size = {(i,): g for i, g in enumerate(gens)}, [], gens[-1][1]

    def numbers(run):  # (below, factor) of a run of (S, steps), read-only
        out = np.concatenate([[[_rows(*below[rest], place[s][2]) for _, rest in steps],
                               [_rows(*gens[i], place[s][2]) for i, _ in steps]]
                              for s, steps in run], axis=2)
        out.setflags(write=False)
        return out

    for k in range(2, top + 1):
        below, place, rows_below = place, _places(shapes, k), size
        # each k-subset S with its pairs (i, S - {i}), i ascending
        level = [(s, [(i, s[:j] + s[j + 1:]) for j, i in enumerate(s)]) for s in place]
        size = sum(e - a for a, e, _ in place.values())
        cost = k * 64 * d * d  # bytes of one row's products and their operands
        table = 16 * d * d * (gens[-1][1] * rows_below + k * size)  # and of a product table
        index, gathers, pairs = None, [], []
        if max(table, size * cost) <= GATHER_BYTES:
            lower, factor = numbers(level)
            index = factor * rows_below + lower
            index.setflags(write=False)
        elif min(size, 2 * max(b - a for a, b, _ in place.values())) * cost <= GATHER_BYTES:
            runs = []
            for s, steps in level:
                if not runs or (place[s][1] - place[runs[-1][0][0]][0]) * cost > GATHER_BYTES:
                    runs.append([])
                runs[-1].append((s, steps))
            gathers = [(place[run[0][0]][0], place[run[-1][0]][1], *numbers(run)) for run in runs]
        else:
            pairs = [(*place[s][:2], (*place[s][2], d, 2 * d), tuple(
                (*below[rest][:2], (*below[rest][2], d, 2 * d), *gens[i][:2], (*shapes[i], 2 * d, 2 * d))
                for i, rest in steps)) for s, steps in level]
        levels.append((size, index, tuple(gathers), tuple(pairs)))
    return tuple(levels), (*np.broadcast_shapes(*shapes), d, 2 * d)


@functools.lru_cache(maxsize=64)
def _weyl_split(shapes: tuple) -> tuple:
    """`weyl_traces`' steps of the split at m = ceil(N/2) for N generators
    whose stacks have leading shapes `shapes`.

    The j-th m-subset S pairs with F - S, the j-th subset of size N - m
    from the end. Its block is S's rows times F - S's rows: the leading
    axes where both have the same extent are a batch axis b, the rest r
    rows by c columns, so on a grid the r c entries are exactly S's
    outcomes times those of F - S. A step (first, end, first', end',
    (J, b, r, c), index) is a run of J consecutive S of one block shape, as
    long as GATHER_BYTES lets its blocks and their gathered entries, 16
    bytes an entry, be: its rows first..end - 1, those of the F - S
    first'..end' - 1 in reverse order, and index[j, t] the place of tuple
    t's entry in the run's flat (J, b, r, c) blocks.
    """
    full = np.broadcast_shapes(*shapes)
    shapes = tuple((1,) * (len(full) - len(s)) + s for s in shapes)
    n, runs = len(shapes), []
    left, right = _places(shapes, (n + 1) // 2), _places(shapes, n // 2)
    for (a, e, left_shape), (f, g, right_shape) in zip(left.values(), reversed(right.values())):
        b = math.prod(x for x, _ in itertools.takewhile(lambda p: p[0] == p[1], zip(left_shape, right_shape)))
        r, c = (e - a) // b, (g - f) // b
        entries = _rows(0, e - a, left_shape, full) * c + _rows(0, g - f, right_shape, full) % c
        # every entry is below max(GATHER_BYTES / 16, b r c), so int32 holds it
        entries = entries.astype(np.int32)
        if runs and runs[-1][4][1:] == (b, r, c) and 16 * (runs[-1][4][0] + 1) * b * r * c <= GATHER_BYTES:
            a, _, _, g, (j, *_), index = runs.pop()
            runs.append((a, e, f, g, (j + 1, b, r, c), [*index, entries + j * b * r * c]))
        else:
            runs.append((a, e, f, g, (1, b, r, c), [entries]))
    split = tuple((*run, np.stack(index)) for *run, index in runs)
    for *_, index in split:
        index.setflags(write=False)
    return split


def _weyl_level(rows, factors, size, index, gathers, pairs) -> np.ndarray:
    """One subset size of `weyl_matrix` as one array of rows, from `rows`,
    the size below, and the generators' right `factors`, by its
    `_weyl_plan` entry. The views made here end with the call, so none of
    them keeps a size alive while the next one is allocated."""
    level = np.empty((size, *rows.shape[1:]))
    if index is not None:
        r, d, _ = rows.shape
        products = (rows.reshape(1, r * d, 2 * d) @ factors).reshape(-1, d, 2 * d)
        np.add.reduce(products[index], axis=0, out=level)
    for first, end, below, factor in gathers:
        np.add.reduce(rows[below] @ factors[factor], axis=0, out=level[first:end])
    for first, end, shape, ((a, b, left, c, e, right), *more) in pairs:
        out = level[first:end].reshape(shape)
        np.matmul(rows[a:b].reshape(left), factors[c:e].reshape(right), out=out)
        for a, b, left, c, e, right in more:
            out += rows[a:b].reshape(left) @ factors[c:e].reshape(right)
    return level


def _weyl_rows(mats, levels) -> tuple:
    """(below, rows): the rows of the last two of the subset sizes
    `levels` of the generators `mats`, made size by size from the
    generators' rows, which are size 1."""
    d = mats[0].shape[-1]
    gens = np.concatenate([m.reshape(-1, d, d) for m in mats], dtype=np.complex128)
    factors, rows = right_factors(gens), gens.view(np.float64)
    # the generators are freed once the level that reads their rows is done
    del gens
    for level in levels:
        below = rows  # the size two below is let go before the next is made
        rows = _weyl_level(below, factors, *level)
    return below, rows


def weyl_matrix(mats) -> np.ndarray:
    """Equal-weight average of all N! ordering products, hermitized.

    `mats` holds N generators, each a (d, d) matrix or a (..., d, d) stack,
    and the stacks broadcast: a stack of outcome tuples gives one result
    per tuple, and generator i's (k_i, d, d) projectors on their own grid
    axis give the whole (k_1, ..., k_N, d, d) outcome grid. The subset
    recursion right-multiplies, W(S) = sum_{i in S} W(S - {i}) A_i, one
    subset size at a time, each sum taken over i ascending; on a grid, W(S)
    spans only the axes in S, so it is made once for all the tuples that
    share the outcomes of S.

    N <= 2 Hermitian generators have one ordering class, so their Weyl
    average is its unit: `weighted_matrix`'s chain of class 0, complex by
    the rule in `_operands`. From N = 3 on the sum runs real by that rule:
    every subset size is one array of float64 rows, the W(S) of its
    subsets in turn, and each product is a real matmul with A_i's
    `right_factors`, made once for all the generators. `_weyl_plan` makes
    each size in one of three ways. In one step: one matmul makes the
    products of every row of the size below with every generator, and each
    W(S) gathers its (S, i) products from them. In gathered steps, each a
    run of whole subsets whose products fit GATHER_BYTES: the rows of
    W(S - {i}) and of A_i's right factors for every (S, i) pair of the run
    are gathered into two stacks and one matmul makes every product. A
    gathered size is summed by `np.add.reduce` over the place of i in S,
    which adds in that order. Or pair by pair: each (S, i) product by
    broadcasting, one stacked matmul into the size's rows, then one
    in-place add each. All three are bit for bit the same sums.

    Sums, the division by 2 N! and the hermitization run in place on
    arrays made here, and no view of a size outlives the next, so the peak
    holds about two copies of the result beside the level below it, and a
    gathered step at most GATHER_BYTES more.
    """
    n = len(mats)
    if n < 3:
        return weighted_matrix(mats, [(1.0, ordering_classes(n)[0])])
    levels, shape = _weyl_plan(tuple([m.shape[:-2] for m in mats]), mats[0].shape[-1], n)
    acc = _weyl_rows(mats, levels)[1].reshape(shape).view(np.complex128)
    # halving is exact, so A + A^dag for A = W/(2 N!) is (W/N! + (W/N!)^dag)/2
    # bit for bit
    acc /= 2 * math.factorial(n)
    acc += acc.conj().swapaxes(-1, -2)
    return acc


def weyl_traces(mats, rho) -> np.ndarray:
    """Tr(rho P) for the `weyl_matrix` P of each outcome tuple of N >= 3
    Hermitian generators `mats`, flattened, without making P.

    For a Hermitian d x d `rho`, Tr(rho (W + W^dag)/2) = Re Tr(rho W) for
    W = W(F) over the whole set F. Every ordering of F is an ordering of
    some m-subset S followed by one of F - S, so W(F) = sum over the
    m-subsets S of W(S) W(F - S). With m = ceil(N/2) the sizes are made only
    up to m, as `weyl_matrix` makes them, keeping size N - m (size m - 1 at
    odd N, the generators at N = 3). One stacked complex matmul of those
    rows with rho, then a conjugate transpose, gives Y = (W(F - S) rho)^dag,
    so Re Tr(rho W(S) W(F - S)) is the dot product of W(S)'s and Y's float
    rows of 2 d^2. `_weyl_plan` plans the sizes up to m only, and
    `_weyl_split` the blocks: runs of S of one block shape, each one
    batched matmul on views of both sizes' rows, whose tuples' C(N, m)
    entries are gathered and summed run by run, then divided by N!: real
    by construction.
    """
    d, n, shapes = rho.shape[0], len(mats), tuple([m.shape[:-2] for m in mats])
    below, rows = _weyl_rows(mats, _weyl_plan(shapes, d, (n + 1) // 2)[0])
    x = ((below if n % 2 else rows).view(np.complex128).reshape(-1, d) @ rho).reshape(-1, d, d)
    del below
    y = np.conjugate(x.swapaxes(1, 2), out=np.empty_like(x)).view(np.float64)
    del x
    values = 0
    for a, e, f, g, (j, b, r, c), index in _weyl_split(shapes):
        block = rows[a:e].reshape(j, b, r, -1) @ y[f:g].reshape(j, b, c, -1)[::-1].swapaxes(-1, -2)
        values = values + np.add.reduce(block.reshape(-1).take(index), axis=0)
    return values / math.factorial(n)


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
    recipe) is the plain complex chain product, and two or more orderings
    are real matmuls on float64 views (`_operands`), as in `weyl_matrix`.
    """
    n = len(mats)
    real = len(terms) > 1
    left, right = _operands(mats) if real else (mats, mats)
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
        del below, b, prod  # free this level's inputs before what comes next
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
    ws = Recipe.convex(weights).weights
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
