"""Exact coarse-graining against independent partition searches: the
Bell-number enumeration for up to 9 events, the 3^n subset DP for 10-12,
block sums added left to right, pinned Weyl schemes, and the slowest tables
found at the 16-event cap."""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from pseudoprob import (
    DensityMatrix,
    HermitianOperator,
    Observable,
    Recipe,
    Scheme,
    build_scheme,
    density_from_bloch,
    minimal_coarse_graining,
    observable_from_direction,
)

import oracles

# Values on a dyadic grid with eps = 2 grid steps: every block sum is exact,
# so ties, exact zeros, entries in [-eps, 0) and sums landing on -eps are
# decided the same way by every summation order.
GRID = 2.0**-8
DYADIC_EPS = 2 * GRID


def table_scheme(values):
    """A scheme whose events are the outcomes 0..n-1 of one diagonal observable."""
    n = len(values)
    resolution = []
    for i in range(n):
        p = np.zeros((n, n))
        p[i, i] = 1.0
        resolution.append((i, HermitianOperator(p)))
    obs = Observable(op=HermitianOperator(np.diag(np.arange(n, dtype=float))), resolution=tuple(resolution))
    return Scheme([obs], Recipe.weyl(), DensityMatrix.maximally_mixed(n), values)


def dyadic_values(rng, n):
    """n grid values summing to 1, about a third drawn from {0, -1, -2, -3}
    grid steps (zero, the [-eps, 0) band, just negative) or repeating an
    earlier value."""
    while True:
        steps = []
        for _ in range(n - 1):
            pick = rng.random()
            if pick < 0.2:
                steps.append(int(rng.choice([0, -1, -2, -3])))
            elif pick < 0.35 and steps:
                steps.append(int(rng.choice(steps)))
            else:
                steps.append(int(rng.integers(-48, 81)))
        last = 256 - sum(steps)
        if -256 <= last <= 512:
            return [k * GRID for k in steps + [last]]


def float_values(rng, n):
    v = rng.normal(scale=0.3, size=n)
    return list(v - v.mean() + 1.0 / n)


def event_blocks(out):
    return tuple(tuple(t[0] for t in block) for block in out.partition)


CASES = [
    # a block sum landing exactly on -eps is feasible
    [-0.25 - DYADIC_EPS, 0.25, 1.0 + DYADIC_EPS],
    # an entry at exactly -eps stays a singleton; exact zeros never merge
    [-DYADIC_EPS, 0.0, -0.5, 0.5, 0.0, 1.0 + DYADIC_EPS],
    # tied negatives and tied compensators
    [-0.125, -0.125, 0.125, 0.125, 0.0, 1.0],
]


@pytest.mark.parametrize("values", CASES)
def test_edge_cases_match_exhaustive_search(values):
    out = minimal_coarse_graining(table_scheme(values), eps=DYADIC_EPS)
    best, winners = oracles.best_partitions(values, eps=DYADIC_EPS)
    assert (out.block_count, out.num_maximizers) == (best, len(winners))
    assert event_blocks(out) == winners[0]


def test_sum_on_minus_eps_merges():
    out = minimal_coarse_graining(table_scheme(CASES[0]), eps=DYADIC_EPS)
    assert event_blocks(out) == ((0, 1), (2,))
    assert out.num_maximizers == 2


@pytest.mark.parametrize("kind", ["dyadic", "float"])
def test_random_tables_match_exhaustive_search(kind):
    rng = np.random.default_rng(3301 if kind == "dyadic" else 3302)
    eps = DYADIC_EPS if kind == "dyadic" else 1e-10
    draw = dyadic_values if kind == "dyadic" else float_values
    merged = 0
    for n in range(2, 10):
        for _ in range(12 if n < 8 else 4):
            values = draw(rng, n)
            out = minimal_coarse_graining(table_scheme(values), eps=eps)
            best, winners = oracles.best_partitions(values, eps=eps)
            assert (out.block_count, out.num_maximizers) == (best, len(winners)), values
            assert event_blocks(out) == winners[0], values
            merged += best < n
    assert merged >= 20  # the draws do exercise merging


@pytest.mark.parametrize("n, kind", [(10, "dyadic"), (11, "dyadic"), (12, "dyadic"), (12, "float")])
def test_larger_tables_match_subset_dp(n, kind):
    rng = np.random.default_rng(3400 + n)
    values = dyadic_values(rng, n) if kind == "dyadic" else float_values(rng, n)
    eps = DYADIC_EPS if kind == "dyadic" else 1e-10
    out = minimal_coarse_graining(table_scheme(values), eps=eps)
    assert (out.block_count, out.num_maximizers) == oracles.best_partition_count(values, eps=eps)
    assert sorted(i for block in event_blocks(out) for i in block) == list(range(n))
    assert all(sum(values[i] for i in block) >= -eps for block in event_blocks(out))


def test_blocks_found_through_subsets_keep_block_order():
    # event 2 opens 147 blocks, more than n = 12, so the states that place
    # it with at most 7 events unplaced (147 > 2^7) walk their subsets; its
    # co-optimal blocks (2, 10, 11) and (2, 11) sort one way as event tuples
    # and the other as bitmasks, or as sets made lowest event first. The
    # partition is pinned from the search that scanned every block.
    values = [k * GRID for k in (-29, -19, 38, 398, -38, -37, -4, -7, 11, -39, -4, -14)]
    out = minimal_coarse_graining(table_scheme(values), eps=DYADIC_EPS)
    assert (out.block_count, out.num_maximizers) == oracles.best_partition_count(values, eps=DYADIC_EPS)
    assert out.search_states == 647
    assert event_blocks(out) == ((0, 1, 3, 4, 5, 6, 7, 9), (2, 10, 11), (8,))


@pytest.mark.parametrize("seed, merges", [(3501, True), (3502, False)])
def test_block_sums_run_left_to_right(seed, merges):
    # event 0 needs two of the positives: 1 and 2, which with it sum to
    # within rounding of zero, or a 0.25 with 2 or another 0.25. A seeded
    # draw puts the left-to-right sum of (0, 1, 2) on one side of -eps and
    # its exact sum on the other.
    rng = np.random.default_rng(seed)
    while True:
        b, c = float(rng.uniform(0.005, 0.03)), float(rng.uniform(0.26, 0.29))
        values = [-(b + c), b, c] + [0.25] * 4
        by_loop = oracles.loop_sum(values[:3])
        floor = by_loop if merges else math.nextafter(by_loop, math.inf)  # -eps
        exact = sum(map(Fraction, values[:3]))
        if floor <= 0.0 and (exact < floor <= by_loop if merges else by_loop < floor <= exact):
            break
    eps = 0.0 - floor
    out = minimal_coarse_graining(table_scheme(values), eps=eps)
    best, winners = oracles.best_partitions(values, eps=eps)
    assert (out.block_count, out.num_maximizers) == (best, len(winners))
    assert event_blocks(out) == winners[0]
    assert ((0, 1, 2) in event_blocks(out)) == merges
    # exact sums would give another answer
    by_fractions = oracles.best_partitions(values, eps=eps, total=lambda xs: sum(map(Fraction, xs)))
    assert by_fractions[1] != winners


def test_search_states_of_a_classical_scheme():
    # nothing merges: the search walks one chain of singletons
    out = minimal_coarse_graining(table_scheme([0.25, 0.0, 0.5, 0.25]))
    assert out.block_count == 4
    assert out.search_states == 4


def test_golden_sixteen_event_weyl_scheme():
    rng = np.random.default_rng(113)
    p = oracles.rand_bloch(rng)
    dirs = [oracles.rand_direction(rng) for _ in range(4)]
    scheme = build_scheme(density_from_bloch(p), [observable_from_direction(m) for m in dirs])
    assert int((scheme.values < -1e-10).sum()) == 3
    out = minimal_coarse_graining(scheme)
    # pinned from the two-pass backtracking search this DP replaced; the
    # effort from the DP before its block sums came from a subset-sum table
    assert out.block_count == 13
    assert out.num_maximizers == 922
    assert out.search_states == 1797
    assert out.partition == (
        ((1, 1, 1, 1), (1, 1, 1, -1)),
        ((1, 1, -1, 1),),
        ((1, 1, -1, -1),),
        ((1, -1, 1, 1),),
        ((1, -1, 1, -1),),
        ((1, -1, -1, 1),),
        ((1, -1, -1, -1), (-1, 1, 1, -1)),
        ((-1, 1, 1, 1),),
        ((-1, 1, -1, 1),),
        ((-1, 1, -1, -1),),
        ((-1, -1, 1, 1),),
        ((-1, -1, 1, -1),),
        ((-1, -1, -1, 1), (-1, -1, -1, -1)),
    )


def test_digest_of_seeded_weyl_triples():
    # every field of 256 seeded qubit-triple Weyl schemes' coarse-grainings,
    # pinned from the DP before its block sums came from a subset-sum table
    rng = np.random.default_rng(4201)
    rows = []
    for _ in range(256):
        p = oracles.rand_bloch(rng)
        dirs = [oracles.rand_direction(rng) for _ in range(3)]
        scheme = build_scheme(density_from_bloch(p), [observable_from_direction(m) for m in dirs])
        out = minimal_coarse_graining(scheme)
        rows.append((out.partition, out.block_count, out.num_maximizers, out.search_states))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "7865e3a0813da3175abe49dd995edc38796b921ee55fad3512008272289eba8f"


def test_digest_of_seeded_sixteen_event_weyl_schemes():
    # every field of 24 seeded 4-qubit-observable Weyl schemes' coarse-
    # grainings (4 to 8 negative entries, up to 13,508 search states),
    # pinned from the search that scanned every option of every state
    rng = np.random.default_rng(4202)
    rows = []
    for _ in range(24):
        p = oracles.rand_bloch(rng)
        dirs = [oracles.rand_direction(rng) for _ in range(4)]
        scheme = build_scheme(density_from_bloch(p), [observable_from_direction(m) for m in dirs])
        out = minimal_coarse_graining(scheme)
        rows.append((out.partition, out.block_count, out.num_maximizers, out.search_states))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "b35bee81560ebcda8758cd9847c807f51dde4cb70f71e45e18ddc9948327521b"


# Slow 16-event tables, 13 + 3 the slowest equal-value one found: n equal
# negative and m equal positive entries where any one positive covers any
# set of the negatives (m^n co-optimal partitions, one block per positive),
# and 12 + 4 where all 12 negatives need two positives (4^12 - 4: every way
# of sharing the negatives out among the positives but the 4 that give them
# all to one). 14 + 2 random takes the most search steps found (of 60 tables
# of 10-15 random negatives; 29,992 candidate blocks), and 8 + 8 random is
# the slowest table of 4-9 random negatives found, after a climb towards more
# steps (24,274).
# Answers pinned from the search that scanned every option of every state,
# run without a limit on the blocks listed.
SLOW_TABLES = [
    # values, block count, co-optimal partitions, search states, partition
    pytest.param(
        [-0.01] * 12 + [0.28] * 4, 4, 4 ** 12, 16640, (tuple(range(13)), (13,), (14,), (15,)),
        id="12neg-4pos",
    ),
    pytest.param(
        [-0.03] * 12 + [0.34] * 4, 4, 4 ** 12 - 4, 16636,
        ((*range(11), 12), (11, 13), (14,), (15,)),
        id="12neg-4pos-covers-of-2",
    ),
    pytest.param([-0.01] * 14 + [0.57] * 2, 2, 2 ** 14, 20480, (tuple(range(15)), (15,)), id="14neg-2pos"),
    pytest.param([-0.02] * 13 + [0.42] * 3, 3, 3 ** 13, 19456, (tuple(range(14)), (14,), (15,)), id="13neg-3pos"),
    pytest.param([-0.01] * 15 + [1.15], 1, 1, 16384, (tuple(range(16)),), id="15neg-1pos"),
    pytest.param(
        [-0.023, 0.2996, 0.0128, 0.0004, -0.1915, -0.181, -0.1125, -0.0482,
         0.0237, 0.0233, 0.1542, 0.508, -0.0024, 0.7122, -0.1293, -0.0463],
        8, 45990, 20747, ((0, 1), (2,), (3,), (4, 5, 6, 7, 12, 13), (8,), (9,), (10,), (11, 14, 15)),
        id="8neg-8pos-random",
    ),
    pytest.param(
        [1.1314, -0.0234, -0.0546, -0.033, -0.0278, 0.2463, -0.0397, -0.0073,
         -0.0247, -0.048, -0.0032, -0.0132, -0.0496, -0.0145, -0.0287, -0.01],
        2, 13608, 24576, ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
        id="14neg-2pos-random",
    ),
]


@pytest.mark.parametrize("values, block_count, maximizers, states, partition", SLOW_TABLES)
def test_slow_tables_finish_under_deadline(values, block_count, maximizers, states, partition):
    t0 = time.perf_counter()
    out = minimal_coarse_graining(table_scheme(values))
    assert time.perf_counter() - t0 < 3.0
    assert out.block_count == block_count
    assert out.num_maximizers == maximizers
    assert out.search_states == states
    assert event_blocks(out) == partition
