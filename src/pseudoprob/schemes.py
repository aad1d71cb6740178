"""Joint pseudo-probability schemes over the outcomes of several observables.

A scheme is the full table of expectations Tr(rho P) where P runs over the
pseudo-projections of every joint outcome tuple. Entries always sum to one
and marginals are ordinary Born probabilities, but individual entries may
be negative; that negativity is the non-classicality witness.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidRecipe,
    InvalidState,
    NonHermitianTrace,
    OrderingExplosion,
    PartitionSearchTooLarge,
)
from .operators import _array, _scalar
from .pseudoprojection import (
    MAX_GENERATORS, MAX_LATTICE_ENTRIES, Recipe, ordering_classes, weighted_matrix, weyl_matrix,
    weyl_traces,
)
from .states import DensityMatrix
from .tolerances import ATOL_LOOSE, CLASSICALITY_EPS, RESIDUAL_ATOL

# Entries live in a narrow band around [0, 1]; anything outside this sanity
# bound means the inputs were not a state and projectors.
ENTRY_MIN, ENTRY_MAX = -1.0, 2.0
# Coarse-graining lists its candidate blocks (sets of negative and positive
# entries that reach -eps only with their highest positive entry; with the
# non-negative singletons at most 2^16) in one vectorised pass over all 2^n
# event masks, 1.5-6 ms at n = 16. Past that its cost grows with the blocks
# and the sets of unplaced events the search visits, not with the Bell number
# of the events; more than MAX_PARTITION_EVENTS events raise
# PartitionSearchTooLarge. A visited set of k events tests at most max(16,
# 2^k + 16 (k - 1)) listed blocks, or walks its 2^(k - 1) subsets that hold
# its lowest event, two steps each, and looks up one child per block it
# keeps, so no search takes more than 3^16 + 16^2 * 2^15 ~ 5.1e7 tests or
# walk steps. No table found takes more than 1.1e7, and how long one near the
# bound would take is not known. On a 2-vCPU Xeon VM (Python 3.11.7, numpy
# 2.4.6, min of 3) the slowest found take 0.5-0.8 s: 14 random negatives and
# 2 positives, the most steps (24,576 states; of 60 tables of 10-15 random
# negatives); 13 equal negative and 3 equal positive entries, any positive
# covering all the negatives (19,456 states; the slowest of 170 equal-value
# tables of n negatives and 16 - n positives whose negatives together need 1
# to (16 - n)/2 positives); 8 random negatives and 8 positives (20,747
# states; of 292 tables of 4-9 random negatives, then a climb towards more
# steps). 400 seeded random 16-event Weyl schemes (4 qubit observables, up to
# 10 negative entries) take at most 0.6 s.
MAX_PARTITION_EVENTS = 16
# build_scheme's outcome lattice holds W(S) for every subset S of the
# observables and every outcome of those in S: prod_i (1 + k_i) complex d x d
# matrices for k_i outcomes each; a fused Weyl scheme (see build_scheme)
# makes the subsets of up to ceil(N/2) observables and contracts each with
# its complement and rho, but is counted the same. A unit/weights recipe instead makes B(s) for every distinct
# proper suffix s of its nonzero orderings, over the outcomes of the
# observables outside s (_suffix_matrices). Inputs above MAX_LATTICE_ENTRIES
# entries are rejected before anything is built. On a 2-vCPU Xeon VM, min of
# 3 in each of 2-3 runs: the slowest accepted inputs found take ~0.2-0.24 s
# (weights over 11383 classes of 8 qutrit observables, or over all 20160
# classes of 8 two-outcome observables at d = 4) and ~27-28 ms (Weyl,
# d = 4, outcome counts 4,4,4,4,4,4,3,3; 4.0M entries), and the largest
# tracemalloc peak found is ~114.5 MiB (Weyl, d = 44, N = 2; 3.9M). From N = 3
# on Weyl runs real, against right factors of twice the generators' bytes:
# single-outcome observables at d = 724, N = 3 (4.19M) take ~0.29-0.38 s at
# a peak of ~104 MiB, 48 MiB of it the factors, and a full-rank d = 20,
# N = 3 Weyl scheme (3.7M) ~6.5-8.5 ms at ~11 MiB. Large d with few outcomes stays
# cheap: single-outcome observables at d = 1024, N = 2 take ~0.10 s and at
# d = 128, N = 8 ~0.15-0.17 s, and a qutrit N = 8 Weyl scheme (0.59M)
# ~6.4-6.7 ms.

# the recipe of every build_scheme call that passes none
_WEYL = Recipe.weyl()


def check_eps(eps) -> float:
    """`eps` as a float if `_scalar` takes it and it is finite and >= 0,
    else ValueError: a NaN classicality tolerance would call every scheme
    classical."""
    message = "eps must be a finite number >= 0, got {!r}"
    return _scalar(eps, ValueError, message, lambda e: 0.0 <= e < math.inf)


class Scheme:
    """Complete pseudo-probability table for a state and observable set.

    `outcome_tuples` is the product of the observables' `outcomes`, the first
    observable's varying slowest; `values[i]` is the entry of
    `outcome_tuples[i]`.
    """

    __slots__ = ("observables", "recipe", "state", "outcome_tuples", "values")

    def __init__(self, observables, recipe: Recipe, state: DensityMatrix, values):
        observables = tuple(observables)
        tuples = tuple(itertools.product(*[obs.outcomes for obs in observables]))
        values = _array(values, ValueError, "scheme entries must be real numbers, got {!r}").reshape(-1)
        if len(values) != len(tuples):
            raise ValueError(f"expected {len(tuples)} entries, got {len(values)}")
        # written so that NaN fails them; the bounds come first, so that inf
        # and -inf are never summed (numpy warns on that)
        if not (values.min() >= ENTRY_MIN and values.max() <= ENTRY_MAX):
            raise InvalidState("scheme entry outside sanity bounds [-1, 2]")
        total = float(values.sum())
        if not abs(total - 1.0) <= RESIDUAL_ATOL:
            raise InvalidState(f"scheme entries sum to {total!r}, not 1")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "observables", observables)
        object.__setattr__(self, "recipe", recipe)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "outcome_tuples", tuples)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Scheme is immutable")

    @property
    def n_observables(self) -> int:
        return len(self.observables)

    def entry(self, outcomes) -> float:
        """The entry of one outcome tuple, at its mixed-radix flat index."""
        index = 0
        try:
            for obs, a in zip(self.observables, outcomes, strict=True):
                labels = obs.outcomes
                index = index * len(labels) + labels.index(a)
        except ValueError:
            raise KeyError(f"no outcome tuple {outcomes!r} in scheme") from None
        return float(self.values[index])

    def as_dict(self) -> dict:
        return {t: float(v) for t, v in zip(self.outcome_tuples, self.values)}

    def __repr__(self) -> str:
        return f"Scheme(n_observables={self.n_observables}, entries={len(self.values)})"


def _suffix_matrices(terms, counts) -> int:
    """Outcomes over which `weighted_matrix` makes its matrices, summed: B(s)
    once per distinct proper suffix s = c[j:] of the orderings c, over the
    outcomes of the observables in the prefix c[:j], k_i of them for
    observable i."""
    sizes = {}
    for _, c in terms:
        prefix_sizes = itertools.accumulate(map(counts.__getitem__, c), operator.mul)
        for j, size in enumerate(prefix_sizes, 1):
            sizes[c[j:]] = size
    return sum(sizes.values())


def build_scheme(rho: DensityMatrix, observables, recipe: Recipe | None = None) -> Scheme:
    """Evaluate Tr(rho P) for the pseudo-projection P of every outcome tuple.

    For a single observable every recipe reduces to the Born rule: its
    classes are not checked, and the Weyl product of one projector is that
    projector.
    Otherwise a unit/weights recipe is checked once against the N!/2
    reversal classes of `ordering_classes`, and every tuple's P is built
    from the same classes, whether or not that tuple's projectors commute;
    only classes with a nonzero weight are evaluated.

    Observable i's `projectors` stack sits on axis i of the outcome grid,
    viewed as (1, ..., k_i, ..., 1, d, d), so the recipe's products broadcast
    over all tuples at once and each sub-product is made once for the
    tuples sharing its outcomes. Weyl runs `weyl_matrix`'s subset recursion
    and unit/weights `weighted_matrix`'s suffix recursion, both multiplying
    on the right, by the one rule of `pseudoprojection._operands`: one
    ordering class (a unit recipe, and any recipe over N <= 2 observables)
    runs the complex chain, two or more run real. A recipe that is no
    Recipe raises InvalidRecipe, and inputs whose lattice exceeds
    MAX_LATTICE_ENTRIES raise OrderingExplosion, before any of it is built.

    Weyl from N = 4 on, and at N = 3 from d = 3 on, fuses the trace into
    the products: `weyl_traces` splits every ordering at m = ceil(N/2),
    makes the subset sizes only up to m and contracts each tuple's
    W(S) W(F - S) over the m-subsets S with rho, so no P is made and its
    entries are real by construction. The rest make every P and
    contract it with rho, and an imaginary entry residue above ATOL_LOOSE
    there raises NonHermitianTrace: N <= 2, unit/weights recipes, and qubit
    triples, where fusing saved ~2% of the kernel and moved the last bits
    of every entry (the coplanar triple's negativity printed as
    0.12500000000000011, not 0.125).
    """
    observables = tuple(observables)
    if not observables:
        raise ValueError("need at least one observable")
    n = len(observables)
    if n > MAX_GENERATORS:
        raise OrderingExplosion(
            f"{n} observables exceed the ordering cap {MAX_GENERATORS}"
        )
    recipe = recipe or _WEYL
    if not isinstance(recipe, Recipe):
        raise InvalidRecipe(f"recipe must be a Recipe, got {recipe!r}")
    d = rho.op.matrix.shape[0]
    counts = []
    for obs in observables:
        k, dim, _ = obs.projectors.shape
        if dim != d:
            raise DimensionMismatch(f"observable dim {dim} vs state dim {d}")
        counts.append(k)
    if n == 1 or recipe.kind == "weyl":
        terms = None
        entries = math.prod(1 + k for k in counts) * d * d
    else:
        terms = recipe.terms(ordering_classes(n))
        # weighted_matrix makes at most n matrices per ordering, each over at
        # most the whole grid; the exact count is needed only past the cap
        entries = len(terms) * n * math.prod(counts) * d * d
        if entries > MAX_LATTICE_ENTRIES:
            entries = _suffix_matrices(terms, counts) * d * d
    if entries > MAX_LATTICE_ENTRIES:
        raise OrderingExplosion(
            f"outcome lattice of {entries} entries exceeds the cap {MAX_LATTICE_ENTRIES}"
        )
    # observable i's projectors on axis i of the outcome grid
    mats = [
        obs.projectors.reshape((1,) * i + (k,) + (1,) * (n - 1 - i) + (d, d))
        for i, (obs, k) in enumerate(zip(observables, counts))
    ]
    if terms is None and (n > 3 or n == 3 and d > 2):
        return Scheme(observables, recipe, rho, weyl_traces(mats, rho.matrix))
    op = weyl_matrix(mats) if terms is None else weighted_matrix(mats, terms)
    # Tr(rho P) = sum_ij rho_ij P_ji = vec(P) . vec(rho^T)
    values = op.reshape(-1, d * d) @ rho.matrix.T.reshape(-1)
    residue = float(np.abs(values.imag).max())
    if residue > ATOL_LOOSE:
        raise NonHermitianTrace(f"imaginary entry residue {residue:.3e}")
    return Scheme(observables, recipe, rho, values.real)


def marginal(scheme: Scheme, keep) -> Scheme:
    """Sum out the observables not in `keep` (integer indices into the scheme)."""
    message = "keep indices must be integers, got {!r}"
    try:
        keep = sorted({int(_scalar(k, ValueError, message, float.is_integer)) for k in keep})
    except TypeError:  # not iterable
        raise ValueError(f"keep must be a collection of observable indices, got {keep!r}") from None
    n = scheme.n_observables
    if not keep:
        raise ValueError("keep must name at least one observable")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} observables")
    shape = tuple(len(obs.outcomes) for obs in scheme.observables)
    arr = scheme.values.reshape(shape)
    drop = tuple(i for i in range(n) if i not in keep)
    if drop:
        arr = arr.sum(axis=drop)
    return Scheme(
        tuple(scheme.observables[i] for i in keep),
        scheme.recipe,
        scheme.state,
        arr.reshape(-1),
    )


def negativity(scheme: Scheme) -> float:
    """(sum_i |p_i| - 1)/2; zero exactly when the scheme is a probability."""
    n = 0.5 * (float(np.abs(scheme.values).sum()) - 1.0)
    if n < -RESIDUAL_ATOL:
        raise InvalidState(f"negativity {n!r} below zero beyond tolerance")
    return max(n, 0.0)


@dataclass(frozen=True)
class Classification:
    classical: bool
    negative_entries: tuple


def classify(scheme: Scheme, eps: float = CLASSICALITY_EPS) -> Classification:
    """Classical verdict plus the negative entries, most negative first.

    `eps` must be a finite number >= 0; anything else raises ValueError.
    """
    eps = check_eps(eps)
    neg = [
        (t, float(v))
        for t, v in zip(scheme.outcome_tuples, scheme.values)
        if v < -eps
    ]
    neg.sort(key=lambda item: item[1])
    return Classification(classical=not neg, negative_entries=tuple(neg))


@dataclass(frozen=True)
class CoarseGraining:
    """Finest regrouping of events whose block sums are all non-negative.

    `search_states` is the number of sets of unplaced events the search
    visited, a measure of its effort.
    """

    partition: tuple
    block_count: int
    num_maximizers: int
    search_states: int


@functools.lru_cache(maxsize=None)
def _block_order(n: int):
    """Every nonempty mask of n events in block order, as sorted() orders
    their event tuples, and the highest event's bit of every mask (0 for the
    empty one). The sets whose lowest event is e are e alone, then e joined
    to each set of the higher events in their order, and they come before
    the sets of the higher events."""
    order = np.empty(0, dtype=np.int64)
    for bit in 1 << np.arange(n - 1, -1, -1):
        order = np.concatenate(([bit], order | bit, order))
    bits = 1 << np.arange(n)
    high = np.concatenate(([0], np.repeat(bits, bits)))
    order.setflags(write=False)
    high.setflags(write=False)
    return order, high


def minimal_coarse_graining(scheme: Scheme, eps: float = CLASSICALITY_EPS) -> CoarseGraining:
    """Partition the event space into the largest number of blocks with
    non-negative sums: each block's entries, added left to right in
    canonical event order, lowest event first, reach -eps.

    Exact search (no heuristics). Among partitions of maximal block count
    the lexicographically smallest is returned, blocks sorted by their
    first event in canonical order; the count of co-optimal partitions is
    reported alongside. A scheme with no negative entries yields all
    singleton blocks.

    A negative entry is one below -eps and a positive entry one above 0. In
    an optimal partition every block of two or more events holds a negative
    entry, no entry that is neither, and needs each of its positive entries,
    or it could be split into more blocks. So the only blocks tried besides
    the non-negative singletons are candidate blocks: sets of negative and
    positive entries whose sum reaches -eps and falls below it without
    their highest positive entry. Adding a positive entry never lowers a
    left-to-right float sum, so these are one or more negative entries plus
    positive entries taken in canonical order until the sum first reaches
    -eps. A block is a bitmask over the events, and its sum one lookup in a
    table of all 2^n subset sums, built by doubling when some entry is
    negative: the sums over the first b events, each plus entry b. So every
    block sum is the same plain float sum on every Python version (sum() of
    floats is compensated from 3.12 on). The candidate blocks are one
    vectorised pass over the 2^n masks, taken in block order from an order
    of all masks made once per n: O(2^n) array work, whatever the number of
    blocks. One memoised pass over the sets of unplaced events puts the
    lowest one in each block it can open, in increasing block order
    (singleton first), and adds up the co-optimal counts instead of listing
    the partitions. When the lowest event can open more than n blocks, and
    more than a walk of the set's subsets would cost, the set walks its
    subsets that hold that event instead, in block order, and keeps those
    that are blocks. More than MAX_PARTITION_EVENTS events raise
    PartitionSearchTooLarge before the search; every smaller table is
    searched. `eps` must be a finite number >= 0; anything else raises
    ValueError.
    """
    eps = check_eps(eps)
    values = scheme.values.tolist()
    n = len(values)
    if n > MAX_PARTITION_EVENTS:
        raise PartitionSearchTooLarge(f"{n} events exceeds cap {MAX_PARTITION_EVENTS}")
    floor = -eps
    # the blocks the lowest unplaced event can open, by that event's bit, in
    # increasing block order: the event alone if it is non-negative, then the
    # candidate blocks
    options = {1 << i: [1 << i] if v >= floor else [] for i, v in enumerate(values)}
    if min(values) < floor:
        order, high = _block_order(n)
        # sums[mask]: the events in mask summed left to right; an event that
        # is neither negative nor positive joins no candidate block, so it
        # adds -inf
        sums = np.zeros(1 << n)
        for b, v in enumerate(values):
            np.add(sums[:1 << b], v if v < floor or v > 0.0 else -math.inf, out=sums[1 << b:2 << b])
        positives = sum(1 << i for i, v in enumerate(values) if v > 0.0)
        merged = order[(sums[order] >= floor) & (sums[order ^ high[order & positives]] < floor)]
        for block in merged.tolist():
            options[block & -block].append(block)

    memo = {0: (0, 1, 0)}
    get = memo.get
    held = set()  # every block, made on the first walk

    def best(rest):  # unplaced events -> (most blocks, partitions reaching it, first block)
        low = rest & -rest
        choices = options[low]
        # a list of more than n blocks, and longer than a walk of the k
        # events of rest costs, gives way to the subsets of rest that hold
        # the lowest event and are blocks. A listed block costs one test, and
        # a list of at most n at most n tests a state; a walked subset costs
        # two steps (made, looked up), and each of the k - 1 free events one
        # list insertion, counted as n tests (in CPython one takes 0.5-1 us,
        # a test ~0.05 us). Blocks sort as their event tuples, a prefix
        # first, so adding the free events highest first puts each one's
        # sets right after the lowest event alone
        if len(choices) > n and len(choices) > (1 << (k := rest.bit_count())) + n * (k - 1):
            if not held:
                held.update(*options.values())
            subsets, free = [low], rest ^ low
            while free:
                bit = 1 << free.bit_length() - 1
                subsets[1:1] = [s | bit for s in subsets]
                free ^= bit
            choices = filter(held.__contains__, subsets)
        most, count, first = -1, 0, 0  # over children rest ^ block: most blocks, ways, first block
        for block in choices:
            if block & rest == block:
                child = rest ^ block
                blocks, ways, _ = get(child) or best(child)
                if not ways:
                    continue
                if blocks > most:
                    most, count, first = blocks, ways, block
                elif blocks == most:
                    count += ways
        memo[rest] = result = (most + 1, count, first)
        return result

    rest = (1 << n) - 1
    top, count, _ = best(rest)
    if count == 0:
        # unreachable: some partition into candidate blocks and singletons
        # is optimal
        raise InvalidState("no feasible partition found")
    tuples = scheme.outcome_tuples
    partition = []
    while rest:
        block = memo[rest][2]
        rest ^= block
        events = []
        while block:
            low = block & -block
            events.append(tuples[low.bit_length() - 1])
            block ^= low
        partition.append(tuple(events))
    return CoarseGraining(
        partition=tuple(partition), block_count=top, num_maximizers=count,
        search_states=len(memo) - 1,
    )
