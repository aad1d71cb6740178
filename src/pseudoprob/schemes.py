"""Joint pseudo-probability schemes over the outcomes of several observables.

A scheme is the full table of expectations Tr(rho P) where P runs over the
pseudo-projections of every joint outcome tuple. Entries always sum to one
and marginals are ordinary Born probabilities, but individual entries may
be negative; that negativity is the non-classicality witness.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidState,
    NonHermitianTrace,
    OrderingExplosion,
    PartitionSearchTooLarge,
)
from .operators import _is_integral, _is_number
from .pseudoprojection import (
    MAX_GENERATORS, MAX_LATTICE_ENTRIES, Recipe, ordering_classes, weighted_matrix, weyl_matrix,
)
from .states import DensityMatrix
from .tolerances import ATOL_LOOSE, CLASSICALITY_EPS, RESIDUAL_ATOL

# Entries live in a narrow band around [0, 1]; anything outside this sanity
# bound means the inputs were not a state and projectors.
ENTRY_MIN, ENTRY_MAX = -1.0, 2.0
# Coarse-graining cost grows with the candidate blocks (sets of negative
# entries with the positives that cover them, and the non-negative singletons;
# at most 2^16) and the sets of unplaced events the search visits, not with
# the Bell number of the events; more than MAX_PARTITION_EVENTS events raise
# PartitionSearchTooLarge. A visited set of k events tests at most max(16,
# 2^k) listed blocks, or walks its 2^(k - 1) subsets that hold its lowest
# event, two steps each, and looks up one child per block it keeps, so no
# search takes more than 3^16 + 16 * 2^16 ~ 4.4e7 tests or walk steps. No
# table found takes more than 1.1e7, and how long one near the bound would
# take is not known. On a 2-vCPU Xeon VM (Python 3.11.7) the slowest found
# take 1.0-1.7 s: 14 random negatives and 2 positives, the most steps (24,576
# states; of 60 tables of 10-15 random negatives); 13 equal negative and 3
# equal positive entries, any positive covering all the negatives (19,456
# states; the slowest of 170 equal-value tables of n negatives and 16 - n
# positives whose negatives together need 1 to (16 - n)/2 positives); 8 random
# negatives and 8 positives (20,747 states; of 292 tables of 4-9 random
# negatives, then a climb towards more steps). 400 seeded random 16-event Weyl
# schemes (4 qubit observables, up to 10 negative entries) take at most 0.6 s.
MAX_PARTITION_EVENTS = 16
# build_scheme's outcome lattice holds W(S) for every subset S of the
# observables and every outcome of those in S: prod_i (1 + k_i) complex d x d
# matrices for k_i outcomes each. A unit/weights recipe instead makes B(s)
# for every distinct proper suffix s of its nonzero orderings, over the
# outcomes of the observables outside s (_suffix_matrices). Inputs above
# MAX_LATTICE_ENTRIES entries are rejected before anything is built. On a 2-vCPU Xeon
# VM, min of 3: the slowest accepted inputs found take ~0.24 s (Weyl, d = 4,
# outcome counts 4,4,4,4,4,4,3,3; 4.0M entries) and ~0.4 s (weights over
# 11383 classes of 8 qutrit observables, or over all 20160 classes of 8
# two-outcome observables at d = 4), and the largest tracemalloc peak found
# is ~115 MiB (Weyl, d = 44, N = 2; 3.9M). Large d with few outcomes stays
# cheap: single-outcome observables at d = 1024, N = 2 or d = 128, N = 8
# take ~0.25-0.4 s (single runs), and a qutrit N = 8 Weyl scheme (0.59M)
# ~40-46 ms.


def check_eps(eps: float) -> float:
    """`eps` if it is a finite number >= 0, else ValueError: a NaN classicality
    tolerance would call every scheme classical."""
    if not (_is_number(eps) and math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be a finite number >= 0, got {eps!r}")
    return eps


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
        values = np.asarray(values, dtype=float).reshape(-1)
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

    For a single observable every recipe reduces to the Born rule: it is not
    checked, and the Weyl product of one projector is that projector.
    Otherwise a unit/weights recipe is checked once against the N!/2
    reversal classes of `ordering_classes`, and every tuple's P is built
    from the same classes, whether or not that tuple's projectors commute;
    only classes with a nonzero weight are evaluated.

    Observable i's `projectors` stack sits on axis i of the outcome grid,
    viewed as (1, ..., k_i, ..., 1, d, d), so the recipe's products broadcast
    over all tuples at once and each sub-product is made once for the
    tuples sharing its outcomes. Weyl runs `weyl_matrix`'s subset recursion
    and unit/weights `weighted_matrix`'s suffix recursion, both multiplying
    on the right, as real matmuls on float64 views wherever they make enough
    matmul calls to pay for the right factors. Inputs whose lattice exceeds
    MAX_LATTICE_ENTRIES raise OrderingExplosion before any of it is built.
    """
    observables = tuple(observables)
    if not observables:
        raise ValueError("need at least one observable")
    n = len(observables)
    if n > MAX_GENERATORS:
        raise OrderingExplosion(
            f"{n} observables exceed the ordering cap {MAX_GENERATORS}"
        )
    recipe = recipe or Recipe.weyl()
    for obs in observables:
        if obs.dim != rho.dim:
            raise DimensionMismatch(f"observable dim {obs.dim} vs state dim {rho.dim}")
    d = rho.dim
    counts = [len(obs.projectors) for obs in observables]
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
    op = weyl_matrix(mats) if terms is None else weighted_matrix(mats, terms)
    # Tr(rho P) = sum_ij rho_ij P_ji = vec(P) . vec(rho^T)
    values = op.reshape(-1, d * d) @ rho.matrix.T.reshape(-1)
    residue = float(np.abs(values.imag).max())
    if residue > ATOL_LOOSE:
        raise NonHermitianTrace(f"imaginary entry residue {residue:.3e}")
    return Scheme(observables, recipe, rho, values.real)


def marginal(scheme: Scheme, keep) -> Scheme:
    """Sum out the observables not in `keep` (integer indices into the scheme)."""
    keep = tuple(keep)
    if not all(map(_is_integral, keep)):
        raise ValueError(f"keep indices must be integers, got {keep!r}")
    keep = sorted(set(int(k) for k in keep))
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
    check_eps(eps)
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


def minimal_coarse_graining(scheme: Scheme, eps: float = CLASSICALITY_EPS) -> CoarseGraining:
    """Partition the event space into the largest number of blocks with
    non-negative sums: each block's entries, added left to right in
    canonical event order, lowest event first, reach -eps.

    Exact search (no heuristics). Among partitions of maximal block count
    the lexicographically smallest is returned, blocks sorted by their
    first event in canonical order; the count of co-optimal partitions is
    reported alongside. A scheme with no negative entries yields all
    singleton blocks.

    A negative entry is one below -eps. In an optimal partition every block
    of two or more events holds a negative entry and needs each of its
    positive entries, or it could be split into more blocks. So the only
    blocks tried besides singletons are candidate blocks: one or more
    negative entries plus positive entries taken in canonical order until
    the sum first reaches -eps. A block is a bitmask over the events, and
    its sum one lookup in a table of all 2^n subset sums, built by doubling
    when some entry is negative: the sums over the first b events, each
    plus entry b. So every block sum is the same plain float sum on every
    Python version (sum() of floats is compensated from 3.12 on). One
    memoised pass over the sets of unplaced events puts the lowest one in
    each block it can open, in increasing block order (singleton first),
    and adds up the co-optimal counts instead of listing the partitions.
    When the lowest event can open more than n blocks, and more than the set
    has subsets, the set walks its subsets that hold that event instead, in
    block order, and keeps those that are blocks. More than
    MAX_PARTITION_EVENTS events raise PartitionSearchTooLarge before the
    search; every smaller table is searched. `eps` must be a finite number
    >= 0; anything else raises ValueError.
    """
    check_eps(eps)
    values = scheme.values.tolist()
    n = len(values)
    if n > MAX_PARTITION_EVENTS:
        raise PartitionSearchTooLarge(f"{n} events exceeds cap {MAX_PARTITION_EVENTS}")
    floor = -eps
    negatives = [i for i in range(n) if values[i] < floor]
    positives = tuple(i for i in range(n) if values[i] > 0.0)
    # the singletons and candidate blocks: events in canonical order, as
    # bytes (which sort like tuples of them, and faster) -> mask
    candidates = {bytes((i,)): 1 << i for i in range(n) if values[i] >= floor}
    if negatives:
        # sums[mask]: the events in mask summed left to right
        sums = [0.0]
        for v in values:
            sums += [t + v for t in sums]
        # tails[k]: the mask of positives[k:]
        tails = [0] * (len(positives) + 1)
        for k in range(len(positives) - 1, -1, -1):
            tails[k] = tails[k + 1] | 1 << positives[k]

        def cover(block, mask, start):
            # block + positives[start:] is feasible; block alone is not
            for k in range(start, len(positives)):
                grown = block + positives[k:k + 1]
                grown_mask = mask | 1 << positives[k]
                if sums[grown_mask] >= floor:
                    candidates[bytes(sorted(grown))] = grown_mask
                else:
                    cover(grown, grown_mask, k + 1)
                if sums[mask | tails[k + 1]] < floor:
                    return

        bits = [1 << i for i in negatives]
        for r in range(1, len(negatives) + 1):
            masks = map(sum, itertools.combinations(bits, r))
            for block, mask in zip(itertools.combinations(negatives, r), masks):
                if sums[mask | tails[0]] >= floor:
                    cover(block, mask, 0)
    # the blocks the lowest unplaced event can open, by that event, in
    # increasing block order
    options = {1 << i: [] for i in range(n)}  # keyed by the lowest event's bit
    for events in sorted(candidates):
        options[1 << events[0]].append(candidates[events])

    memo = {0: (0, 1, 0)}
    get = memo.get
    held = set()  # every block, made on the first walk

    def best(rest):  # unplaced events -> (most blocks, partitions reaching it, first block)
        low = rest & -rest
        choices = options[low]
        # a list of more than n blocks, and more than rest has subsets, gives
        # way to the subsets of rest that hold the lowest event and are
        # blocks: a walked subset costs two steps (made, looked up), a listed
        # block one test, and a list of at most n at most n tests a state.
        # Blocks sort as their event tuples, a prefix first, so adding the
        # free events highest first puts each one's sets right after the
        # lowest event alone
        if len(choices) > n and len(choices) > 1 << rest.bit_count():
            if not held:
                held.update(candidates.values())
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
