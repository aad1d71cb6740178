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
import threading
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

# The most generators of one call. A Weyl average takes 2^N N products, and
# build_scheme makes each partial product once per outcome of the
# observables it involves, within MAX_LATTICE_ENTRIES; only
# unit_pseudo_projections enumerates all N!/2 ordering classes. The cap is
# the largest N at which every route's slowest accepted input was found to
# run in about a second or less. Timings: BENCH_whole_tables.json,
# "constants", and for unit_pseudo_projections BENCH_unit_dedup.json.
MAX_GENERATORS = 8
# The most d x d complex matrix entries one call builds, counted before
# anything is built: build_scheme's outcome lattice (see schemes), 2^N d^2 for
# weyl_pseudo_projection (its W(S) for every subset S, build_scheme's count for
# single-outcome axes) and (N!/2 + N) d^2 for unit_pseudo_projections (one
# unit per reversal class, and the stack of N generators they are made
# from). It is sized so that at each N the largest accepted d runs in about
# a second or less. Timings: BENCH_whole_tables.json, "constants", and for
# unit_pseudo_projections BENCH_unit_dedup.json.
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
            # written so that NaN fails both checks, and ±inf one of them
            if not all(w >= 0.0 for w in ws):
                raise InvalidConvexWeights("weights must be non-negative")
            if not abs(sum(ws) - 1.0) <= ROUNDING_ATOL:
                raise InvalidConvexWeights(f"weights sum to {sum(ws)!r}, not 1")
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
        """(weight, ordering) pairs of the recipe over `classes`, zero weights
        dropped; the Weyl average is the equal-weight mean of the classes."""
        if self.kind == "unit":
            if not 0 <= self.index < len(classes):
                raise InvalidRecipe(
                    f"unit index {self.index} out of range for {len(classes)} ordering classes"
                )
            return [(1.0, classes[self.index])]
        if self.kind == "weights":
            _check_count(self.weights, len(classes))
            return [(w, c) for w, c in zip(self.weights, classes) if w]
        return [(1 / len(classes), c) for c in classes]


def _check_count(ws, expected_len: int) -> None:
    """InvalidConvexWeights unless there are `expected_len` weights `ws`,
    which `Recipe` has checked for the rest."""
    if len(ws) != expected_len:
        raise InvalidConvexWeights(f"expected {expected_len} weights, got {len(ws)}")


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

    A unit is compared only with the kept units whose key lies within
    2 RESIDUAL_ATOL of its own. The key is one float64 coordinate, the real
    or imaginary part of one entry: the one whose values spread widest over
    the units. |Re z| and |Im z| are at most |z|, so a unit within
    RESIDUAL_ATOL in max-norm moves the key by at most that, and no
    duplicate is missed.
    """
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
    floats = units.reshape(len(units), -1).view(np.float64)
    keys = floats[:, np.ptp(floats, axis=0).argmax()].tolist()
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


# The most bytes one step of `_weyl_level` holds. A gathered product holds
# its left row, right factor and result, (16 + 32 + 16) d^2 bytes. A level
# whose keys (the W(S) of `weyl_matrix`, the B(s) of `weighted_matrix`) sum
# P products in all is one step when its P products fit and so does its
# product table: every one of the R rows of the level below times the right
# factors of each of the G generator rows, one matmul, and the P products
# picked from it, (G R + P) 16 d^2 bytes. Other levels are gathered in steps
# of whole keys, each as long as this lets it be, when those of their
# largest key fit half a step, so every step but a run's last holds two keys
# or more; the rest are made pair by pair. `weyl_traces` cuts its blocks
# into runs of whole subsets under the same budget. Why a table pays for the
# products it does not pick, and steps for few large keys do not, with the
# timings of each rule: BENCH_whole_tables.json, "constants".
GATHER_BYTES = 1 << 18
# The most bytes of index arrays that the plans of `_weyl_plan`,
# `_weyl_split` and `_weighted_plan` hold together while cached; the oldest
# are let go first, and a larger plan is not kept. The bound holds several
# of the largest plans found. Their sizes: BENCH_whole_tables.json,
# "constants".
PLAN_CACHE_BYTES = 64 << 20
_PLANS: dict = {}  # (build, *key) -> (plan, bytes), oldest first
_plan_bytes = 0  # of the plans in _PLANS
_index_bytes = 0  # of every index array that `_numbers` has made
_PLAN_LOCK = threading.Lock()  # one thread at a time builds and counts


def _cached_plan(build):
    """`build` with its plans kept in `_PLANS` within PLAN_CACHE_BYTES, each
    counted by the bytes of the index arrays `_numbers` made for it."""
    @functools.wraps(build)
    def plan(*key):
        global _plan_bytes
        key = (build, *key)
        entry = _PLANS.get(key)  # a plan found is read without the lock
        if entry is None:
            with _PLAN_LOCK:
                entry = _PLANS.get(key)
                if entry is None:
                    made = _index_bytes
                    entry = build(*key[1:]), _index_bytes - made
                    if entry[1] <= PLAN_CACHE_BYTES:
                        _PLANS[key] = entry
                        _plan_bytes += entry[1]
                    while _plan_bytes > PLAN_CACHE_BYTES:
                        _plan_bytes -= _PLANS.pop(next(iter(_PLANS)))[1]
        return entry[0]
    return plan


def _numbers(array) -> np.ndarray:
    """`array` as read-only int32 row numbers, counted in `_index_bytes`:
    every index array a plan keeps is made here, whole, and no number of a
    plan reaches past the products of one level."""
    global _index_bytes
    out = np.asarray(array, dtype=np.int32)
    out.setflags(write=False)
    _index_bytes += out.nbytes
    return out


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


def _level(d: int, generators: int, rows_below: int, runs: list) -> tuple:
    """The plan entry (size, table, gathers, pairs) of one level, by the
    rule of GATHER_BYTES, for `_weyl_level`.

    The level's keys lie in `runs`, each (first, k, ends, numbers, pairs)
    for keys of k terms each: its rows first..ends[-1] - 1 and the row ends
    of its keys. numbers() gives its (k, rows) row numbers (below, factor):
    its row r is the sum over j of row below[j, r] of the level below,
    `rows_below` rows, times row factor[j, r] of the `generators` right
    factors, j ascending. pairs() gives its pair steps. Every index is
    factor R + below for the R rows below, int32. The entry has one of:
    - table, one (first, end, index) per run, picking its products from a
      table made in one step: every row below times every generator row;
    - gathers (first, end, index), each making a stretch of whole keys of
      one run in one step;
    - pairs (first, end, shape, pairs), each making one key, its rows
      viewed as `shape`, as the sum over its terms of a (first, end, shape)
      view of its rows below times one generator's right factors.
    Gathers and pairs are chosen run by run, so a level may have both. A
    level whose G R passes int32 (only stacks far beyond the lattice cap
    reach it) is made pair by pair.
    """
    def index(numbers):  # factor R + below of each product of a run
        below, factor = numbers()
        return _numbers(factor * rows_below + below)

    size = int(runs[-1][2][-1])
    products = sum(k * (int(ends[-1]) - first) for first, k, ends, _, _ in runs)
    if max(16 * d * d * (generators * rows_below + products), 64 * d * d * products) <= GATHER_BYTES:
        return size, tuple((first, int(ends[-1]), index(numbers)) for first, _, ends, numbers, _ in runs), (), ()
    gathers, pairs = [], []
    for first, k, ends, numbers, run_pairs in runs:
        row_bytes = k * 64 * d * d  # of one row's products and their operands
        ends = np.asarray(ends)
        if (min(ends[-1] - first, 2 * np.diff(ends, prepend=first).max()) * row_bytes > GATHER_BYTES
                or generators * rows_below > np.iinfo(np.int32).max):
            pairs += run_pairs()
            continue
        run, start = index(numbers), first
        while start < ends[-1]:
            end = int(ends[np.searchsorted(ends, start + GATHER_BYTES // row_bytes, "right") - 1])
            gathers.append((start, end, run[:, start - first:end - first]))
            start = end
    return size, (), tuple(gathers), tuple(pairs)


@_cached_plan
def _weyl_plan(shapes: tuple, d: int, top: int) -> tuple:
    """(levels, shape): `weyl_matrix`'s plan of the subset sizes 2..top of
    N generators of d x d matrices whose stacks have leading shapes
    `shapes`, and the shape of size N's rows as the result's (..., d, 2d)
    floats.

    Each subset size is one array of float64 (d, 2d) rows, its W(S) as
    `_places` lays them out, and one `_level` entry of one run, the subsets
    in turn. The generators are size 1, and their right factors have the
    same row numbers. The terms of W(S) are W(S - {i}) A_i over i in S,
    ascending.
    """
    gens = list(_places(shapes, 1).values())

    def numbers(below, place, level):  # a size's (k, rows) row numbers (below, factor)
        return np.concatenate([[[_rows(*below[rest], place[s][2]) for _, rest in steps],
                                [_rows(*gens[i], place[s][2]) for i, _ in steps]]
                               for s, steps in level], axis=2)

    def pairs(below, place, level):  # a size's pair steps, subset by subset
        return [(*place[s][:2], (*place[s][2], d, 2 * d), tuple(
            (*below[rest][:2], (*below[rest][2], d, 2 * d), *gens[i][:2], (*shapes[i], 2 * d, 2 * d))
            for i, rest in steps)) for s, steps in level]

    place, levels, size = {(i,): g for i, g in enumerate(gens)}, [], gens[-1][1]
    for k in range(2, top + 1):
        below, place, rows_below = place, _places(shapes, k), size
        # each k-subset S with its pairs (i, S - {i}), i ascending
        level = [(s, [(i, s[:j] + s[j + 1:]) for j, i in enumerate(s)]) for s in place]
        size = sum(e - a for a, e, _ in place.values())
        run = (0, k, [e for _, e, _ in place.values()], functools.partial(numbers, below, place, level),
               functools.partial(pairs, below, place, level))
        levels.append(_level(d, gens[-1][1], rows_below, [run]))
    return tuple(levels), (*np.broadcast_shapes(*shapes), d, 2 * d)


def _strides(shape: tuple, target: tuple) -> list:
    """The step of rows laid out in `shape` along each axis of `target`,
    which `shape` broadcasts to: 0 along the axes it is broadcast over."""
    shape, out, step = (1,) * (len(target) - len(shape)) + tuple(shape), [], 1
    for extent in reversed(shape):
        out.append(step if extent > 1 else 0)
        step *= extent
    return out[::-1]


@_cached_plan
def _weighted_plan(orderings: tuple, shapes: tuple, d: int) -> tuple:
    """(start, levels, shape): `weighted_matrix`'s plan of the suffix levels
    of two or more `orderings` of N generators of d x d matrices whose
    stacks have leading shapes `shapes`, and the shape of the result's
    (..., d, 2d) floats.

    Level j holds B(s) for the distinct suffixes s of length N - j, each
    laid out as `_weyl_plan` lays out W(S) for the set S of the generators
    outside s. start = (rows, term) makes level 1, B(c[1:]) = w_c/2 A_c[0]:
    the generator rows `rows`, each times half the weight of ordering
    term, in the orderings' order. Each later level is one `_level` entry
    whose B(s) sums its terms B((i,) + s) A_i in a fixed order: the terms
    of s in the order of the keys below, each level's keys in the order in
    which their first term comes, as a suffix recursion over dicts in
    insertion order adds them. Its rows lie in runs of the keys with the
    same number of terms, fewest first, in a run by the set outside s,
    then in that order. Each key below is a term of one key only, times the
    generator at its head. The plan is made by a few numpy calls per run
    and per set, not per key, but for the keys made pair by pair.
    """
    n, gens = len(shapes), list(_places(shapes, 1).values())
    gen_first, gen_rows = np.array([[a, e - a] for a, e, _ in gens]).T

    @functools.cache
    def place(mask: int) -> tuple:  # (rows, shape) of B(s), mask the set outside s
        shape = np.broadcast_shapes(*(shapes[i] for i in range(n) if mask >> i & 1))
        return math.prod(shape), shape

    @functools.cache
    def numbers(mask: int) -> np.ndarray:  # [:, i]: term i's (below, factor) rows, B(s + i)'s from 0
        shape = place(mask)[1]
        steps = [[_strides(place(mask & ~(1 << i))[1], shape), _strides(shapes[i], shape)]
                 if mask >> i & 1 else [[0] * len(shape)] * 2 for i in range(n)]
        out = np.array(steps, dtype=np.int64) @ np.indices(shape).reshape(len(shape), -1)
        out[:, 1] += gen_first[:, None]
        return out.swapaxes(0, 1)

    def run_numbers(groups):  # a run's (k, rows) row numbers (below, factor)
        below, factor = [], []
        for mask, _, starts, heads in groups:
            local = numbers(mask)[:, heads]
            below.append((starts[..., None] + local[0]).reshape(len(heads), -1))
            factor.append(local[1].reshape(len(heads), -1))
        return np.concatenate(below, axis=1), np.concatenate(factor, axis=1)

    @functools.cache
    def pair_step(mask: int, i: int) -> tuple:  # term i's pair step, less its first row below
        rows, shape = place(mask & ~(1 << i))
        return rows, (*shape, d, 2 * d), *gens[i][:2], (*shapes[i], 2 * d, 2 * d)

    def run_pairs(groups):  # a run's pair steps, key by key
        out = []
        for mask, key_firsts, starts, heads in groups:
            rows, shape = place(mask)
            for first, ts, hs in zip(key_firsts.tolist(), starts.T.tolist(), heads.T.tolist()):
                steps = tuple((t, t + step[0], *step[1:]) for t, step in zip(ts, (pair_step(mask, i) for i in hs)))
                out.append((first, first + rows, (*shape, d, 2 * d), steps))
        return out

    orders = np.fromiter(itertools.chain.from_iterable(orderings), dtype=np.int64).reshape(-1, n)
    lengths = gen_rows[orders[:, 0]]
    firsts = np.cumsum(lengths) - lengths  # the first row of each key below, in key order
    term = np.repeat(np.arange(len(orders)), lengths)
    start = (_numbers(np.arange(len(term)) + np.repeat(gen_first[orders[:, 0]] - firsts, lengths)),
             _numbers(term.reshape(-1, 1, 1)))
    # each key as its digits in base N, and the set outside it as bits
    codes, masks = orders[:, 1:] @ n ** np.arange(n - 2, -1, -1), 1 << orders[:, 0]
    rows_below, levels = len(term), []
    for length in range(n - 1, 0, -1):
        # key j below is B((head,) + rest), a term of key `key[j]`, whose
        # number is its rest's place among them in order of first sight
        heads, rests = np.divmod(codes, n ** (length - 1))
        codes, seen, key = np.unique(rests, return_index=True, return_inverse=True)
        order = np.argsort(seen)
        codes, key = codes[order], np.argsort(order)[key.reshape(-1)]
        terms = np.argsort(key, kind="stable")  # the keys below, by the key they add to
        counts = np.bincount(key)
        outside = np.zeros(len(codes), dtype=np.int64)
        outside[key] = masks | 1 << heads
        # the layout: by number of terms, then by the set outside, then in order
        lay = np.lexsort((outside, counts))
        sets, which = np.unique(outside, return_inverse=True)
        rows = np.array([place(m)[0] for m in sets.tolist()])[which.reshape(-1)[lay]]
        ends = np.cumsum(rows)
        new_firsts = np.empty_like(ends)
        new_firsts[lay] = ends - rows
        # taken[j, g]: the j-th term of the g-th key laid out (any, past its last)
        taken = terms[(np.cumsum(counts) - counts)[lay] + np.arange(counts.max())[:, None] % counts[lay]]
        # groups of keys with one number of terms and one set outside, in runs of one number
        cuts = np.flatnonzero(np.diff(counts[lay]) | np.diff(outside[lay])) + 1
        spans = zip([0, *cuts.tolist()], [*cuts.tolist(), len(lay)])
        runs = []
        for k, run in itertools.groupby(spans, lambda span: int(counts[lay[span[0]]])):
            run = list(run)
            groups = [(int(outside[lay[a]]), new_firsts[lay[a:b]], firsts[taken[:k, a:b]], heads[taken[:k, a:b]])
                      for a, b in run]
            first, end = run[0][0], run[-1][1]
            runs.append((int(ends[first] - rows[first]), k, ends[first:end],
                         functools.partial(run_numbers, groups), functools.partial(run_pairs, groups)))
        levels.append(_level(d, gens[-1][1], rows_below, runs))
        firsts, masks, rows_below = new_firsts, outside, int(ends[-1])
    return start, tuple(levels), (*np.broadcast_shapes(*shapes), d, 2 * d)


@_cached_plan
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
    return tuple((*run, _numbers(np.stack(index))) for *run, index in runs)


def _weyl_level(rows, factors, size, table, gathers, pairs) -> np.ndarray:
    """One level of `weyl_matrix` or `weighted_matrix` as one array of rows,
    from `rows`, the level below, and the generators' right `factors`, by
    its `_level` entry. The views made here end with the call, so none of
    them keeps a level alive while the next one is allocated."""
    if table:
        d = rows.shape[1]
        # every row below times every generator row, at factor R + below
        products = (rows.reshape(1, -1, 2 * d) @ factors).reshape(-1, d, 2 * d)
        # one run is the whole level, and a run of one term a copy: each
        # saves a call, a few percent of a small recipe
        if len(table) == 1:
            (_, _, index), = table
            if len(index) == 1:
                return products.take(index[0], axis=0)
            return np.add.reduce(products.take(index, axis=0), axis=0)
    level = np.empty((size, *rows.shape[1:]))
    for first, end, index in table:
        if len(index) == 1:
            products.take(index[0], axis=0, out=level[first:end])
        else:
            np.add.reduce(products.take(index, axis=0), axis=0, out=level[first:end])
    for first, end, index in gathers:
        factor, below = np.divmod(index, len(rows))
        np.add.reduce(rows.take(below, axis=0) @ factors.take(factor, axis=0), axis=0, out=level[first:end])
    for first, end, shape, ((a, b, left, c, e, right), *more) in pairs:
        out = level[first:end].reshape(shape)
        np.matmul(rows[a:b].reshape(left), factors[c:e].reshape(right), out=out)
        for a, b, left, c, e, right in more:
            out += rows[a:b].reshape(left) @ factors[c:e].reshape(right)
    return level


def _weyl_rows(mats, levels, start=None) -> tuple:
    """(below, rows): the rows of the last two of the `levels` of the
    generators `mats`, made level by level from the generators' rows, or
    from those rows gathered and scaled by start = (rows, scales)."""
    d = mats[0].shape[-1]
    gens = np.concatenate([m.reshape(-1, d, d) for m in mats], dtype=np.complex128)
    factors, rows = right_factors(gens), gens.view(np.float64)
    # the generators are freed once the level that reads their rows is done
    del gens
    if start is not None:
        rows = rows.take(start[0], axis=0) * start[1]
    for level in levels:
        below = rows  # the level two below is let go before the next is made
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
    the rule stated there. From N = 3 on the sum runs real by that rule:
    every subset size is one array of float64 rows, the W(S) of its
    subsets in turn, and each product is a real matmul with A_i's
    `right_factors`, made once for all the generators. `_weyl_plan` plans
    each size by the rule of `_level`, and `_weyl_level` makes it, as it
    makes `weighted_matrix`'s levels, in one of three ways. In one step:
    one matmul makes the products of every row of the size below with every
    generator, and each W(S) gathers its (S, i) products from them. In
    gathered steps, each a
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
    grid.

    One rule picks the arithmetic, here and in `weyl_matrix`: one ordering
    class runs complex, two or more real. A single ordering (a unit recipe,
    a weights recipe with one nonzero weight, and every product of N <= 2
    generators, which have one class) is the plain left to right complex
    chain product: its few products would not pay for the right factors.
    Two or more make each product a float64 view times a right factor
    (`right_factors`), at about half the time of a complex matmul call and
    an eighth per small product, on `_weighted_plan`'s levels, each made by
    `_weyl_level` as `weyl_matrix` makes a subset size: in one step from a
    product table of every row below times every generator, in gathered
    steps or pair by pair. Each B(s) adds its terms in one fixed order,
    that of a recursion over dicts in insertion order (see
    `_weighted_plan`), whatever the rows' layout and the way the level is
    made, so its bytes do not depend on either.
    """
    if len(terms) == 1:
        (w, c), = terms
        # halving is exact, so A + A^dag for A = w/2 A_c is the hermitized
        # product bit for bit
        acc = 0.5 * w * mats[c[0]]
        for i in c[1:]:
            acc = acc @ mats[i]
    else:
        (rows, term), levels, shape = _weighted_plan(
            tuple([c for _, c in terms]), tuple([m.shape[:-2] for m in mats]), mats[0].shape[-1])
        halves = np.array([0.5 * w for w, _ in terms])
        acc = _weyl_rows(mats, levels, (rows, halves.take(term)))[1].reshape(shape).view(np.complex128)
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
    _check_count(ws, len(units))
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
