"""Joint pseudo-probability schemes over the outcomes of several observables.

A scheme is the full table of expectations Tr(rho P) where P runs over the
pseudo-projections of every joint outcome tuple. Entries always sum to one
and marginals are ordinary Born probabilities, but individual entries may
be negative; that negativity is the non-classicality witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidState,
    NonHermitianTrace,
    OrderingExplosion,
    PartitionSearchTooLarge,
)
from .pseudoprojection import (
    MAX_GENERATORS, Recipe, hermitized_product, ordering_classes, weyl_matrix,
)
from .states import DensityMatrix
from .tolerances import ATOL_LOOSE, CLASSICALITY_EPS, RESIDUAL_ATOL

# Entries live in a narrow band around [0, 1]; anything outside this sanity
# bound means the inputs were not a state and projectors.
ENTRY_MIN, ENTRY_MAX = -1.0, 2.0
# Coarse-graining cost grows with the candidate blocks (sets of negative
# entries with the positives that cover them), not with the Bell number of
# the events. On a 2-vCPU Xeon VM, 40 seeded random 16-event Weyl schemes
# (4 qubit observables, 4-8 negative entries) took a median of ~60 ms and
# at most ~0.4 s; a table of 12 equal negative and 4 positive entries takes
# 1.3-2.4 s, and one of 14 negative and 2 positive entries, the slowest
# table found, 4.4-5.6 s (the VM's speed varies by run).
MAX_PARTITION_EVENTS = 16


def canonical_outcome_tuples(observables) -> tuple:
    """Product of per-observable outcomes, first-listed outcome first."""
    return tuple(itertools.product(*(obs.outcomes for obs in observables)))


class Scheme:
    """Complete pseudo-probability table for a state and observable set."""

    __slots__ = ("observables", "recipe", "state", "outcome_tuples", "values", "_index")

    def __init__(self, observables, recipe: Recipe, state: DensityMatrix, values):
        observables = tuple(observables)
        tuples = canonical_outcome_tuples(observables)
        values = np.asarray(values, dtype=float).reshape(-1)
        if len(values) != len(tuples):
            raise ValueError(f"expected {len(tuples)} entries, got {len(values)}")
        total = float(values.sum())
        if abs(total - 1.0) > RESIDUAL_ATOL:
            raise InvalidState(f"scheme entries sum to {total!r}, not 1")
        if values.min() < ENTRY_MIN or values.max() > ENTRY_MAX:
            raise InvalidState("scheme entry outside sanity bounds [-1, 2]")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "observables", observables)
        object.__setattr__(self, "recipe", recipe)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "outcome_tuples", tuples)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(tuples)})

    def __setattr__(self, name, value):
        raise AttributeError("Scheme is immutable")

    @property
    def n_observables(self) -> int:
        return len(self.observables)

    def entry(self, outcomes) -> float:
        return float(self.values[self._index[tuple(outcomes)]])

    def as_dict(self) -> dict:
        return {t: float(v) for t, v in zip(self.outcome_tuples, self.values)}

    def __repr__(self) -> str:
        return f"Scheme(n_observables={self.n_observables}, entries={len(self.values)})"


def build_scheme(rho: DensityMatrix, observables, recipe: Recipe | None = None) -> Scheme:
    """Evaluate Tr(rho P) for the pseudo-projection P of every outcome tuple.

    For a single observable every recipe reduces to the Born rule and is
    not checked. Otherwise a unit/weights recipe is checked once against
    the N!/2 reversal classes of `ordering_classes`, and every tuple's P is
    built from the same classes, whether or not that tuple's projectors
    commute; only classes with a nonzero weight are evaluated.
    """
    observables = tuple(observables)
    if not observables:
        raise ValueError("need at least one observable")
    if len(observables) > MAX_GENERATORS:
        raise OrderingExplosion(
            f"{len(observables)} observables exceed the ordering cap {MAX_GENERATORS}"
        )
    recipe = recipe or Recipe.weyl()
    for obs in observables:
        if obs.dim != rho.dim:
            raise DimensionMismatch(f"observable dim {obs.dim} vs state dim {rho.dim}")
    if len(observables) > 1 and recipe.kind != "weyl":
        terms = recipe.terms(ordering_classes(len(observables)))
    rmat = rho.matrix
    values = []
    for outcomes in canonical_outcome_tuples(observables):
        mats = [obs.projector(a).matrix for obs, a in zip(observables, outcomes)]
        if len(mats) == 1:
            op = mats[0]
        elif recipe.kind == "weyl":
            op = weyl_matrix(mats)
        else:
            op = sum(w * hermitized_product(mats, c) for w, c in terms)
        t = complex(np.trace(rmat @ op))
        if abs(t.imag) > ATOL_LOOSE:
            raise NonHermitianTrace(f"imaginary entry residue {t.imag:.3e}")
        values.append(t.real)
    return Scheme(observables, recipe, rho, values)


def marginal(scheme: Scheme, keep) -> Scheme:
    """Sum out the observables not in `keep` (indices into the scheme)."""
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
    """Classical verdict plus the negative entries, most negative first."""
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
    non-negative sums (each block summed in canonical event order, >= -eps).

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
    the sum first reaches -eps. One memoised pass over the sets of unplaced
    events puts the lowest one in each block it can open, singleton first,
    in increasing block order, and adds up the co-optimal counts instead of
    listing the partitions.
    """
    values = [float(v) for v in scheme.values]
    n = len(values)
    if n > MAX_PARTITION_EVENTS:
        raise PartitionSearchTooLarge(f"{n} events exceeds cap {MAX_PARTITION_EVENTS}")

    def feasible(events) -> bool:
        return sum(map(values.__getitem__, sorted(events))) >= -eps

    negatives = [i for i in range(n) if values[i] < -eps]
    positives = tuple(i for i in range(n) if values[i] > 0.0)
    # the blocks the lowest unplaced event can open, by that event
    candidates = [[(i,)] if values[i] >= -eps else [] for i in range(n)]

    def cover(block, start):
        # block + positives[start:] is feasible; block alone is not
        for k in range(start, len(positives)):
            grown = block + positives[k:k + 1]
            if feasible(grown):
                grown = tuple(sorted(grown))
                candidates[grown[0]].append(grown)
            else:
                cover(grown, k + 1)
            if not feasible(block + positives[k + 1:]):
                return

    for r in range(1, len(negatives) + 1):
        for block in itertools.combinations(negatives, r):
            if feasible(block + positives):
                cover(block, 0)
    options = [[sum(1 << i for i in block) for block in sorted(c)] for c in candidates]

    memo = {0: (0, 1, 0)}

    def best(rest):  # unplaced events -> (most blocks, partitions reaching it, first block)
        if rest not in memo:
            top, count, first = -1, 0, 0
            for block in options[(rest & -rest).bit_length() - 1]:
                if block & rest == block:
                    blocks, ways, _ = best(rest ^ block)
                    if ways and blocks + 1 > top:
                        top, count, first = blocks + 1, ways, block
                    elif ways and blocks + 1 == top:
                        count += ways
            memo[rest] = (top, count, first)
        return memo[rest]

    rest = (1 << n) - 1
    top, count, _ = best(rest)
    if count == 0:
        # unreachable: some partition into candidate blocks and singletons
        # is optimal
        raise InvalidState("no feasible partition found")
    partition = []
    while rest:
        block = memo[rest][2]
        partition.append(tuple(scheme.outcome_tuples[i] for i in range(n) if block >> i & 1))
        rest ^= block
    return CoarseGraining(
        partition=tuple(partition), block_count=top, num_maximizers=count,
        search_states=len(memo) - 1,
    )


def scheme_to_json(scheme: Scheme, eps: float = CLASSICALITY_EPS) -> dict:
    """Wire format with direction-backed observables, canonical entry order."""
    obs_json = []
    for obs in scheme.observables:
        if obs.axis is None:
            raise ValueError("scheme JSON output needs direction-backed observables")
        obs_json.append({"m": [float(x) for x in obs.axis]})
    entries = [
        {"a": [int(a) for a in t], "p": float(v)}
        for t, v in zip(scheme.outcome_tuples, scheme.values)
    ]
    return {
        "observables": obs_json,
        "recipe": scheme.recipe.to_json(),
        "entries": entries,
        "negativity": negativity(scheme),
        "classical": classify(scheme, eps).classical,
    }
