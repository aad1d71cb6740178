"""The scheme kernel: the real right factors, and `weyl_matrix` and
`weighted_matrix` over stacks of outcome tuples; `build_scheme` on the
outcome grid against per-tuple oracles (`oracles.hermitized_chain` for one
ordering) and explicit products, its memory against the lattice size, and
the lattice cap."""

import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from pseudoprob import (
    DensityMatrix,
    HermitianOperator,
    Observable,
    OrderingExplosion,
    Recipe,
    build_scheme,
    density_from_bloch,
    observable_from_direction,
    schemes,
    unit_pseudo_projections,
    weyl_pseudo_projection,
)
from pseudoprob import pseudoprojection
from pseudoprob.pseudoprojection import (
    GATHER_BYTES, _weyl_level, _weyl_plan, _weyl_split, ordering_classes, right_factors,
    weighted_matrix, weyl_matrix, weyl_traces,
)

import oracles

# qubit N = 2..6 and qutrit N = 2..4
STACK_CASES = [(2, n) for n in range(2, 7)] + [(3, n) for n in range(2, 5)]


def haar_observable(rng, d):
    """Non-degenerate observable, outcomes 0..d-1, over a Haar-random basis."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    projs = [np.outer(q[:, i], q[:, i].conj()) for i in range(d)]
    return Observable(
        op=HermitianOperator(sum(a * p for a, p in enumerate(projs))),
        resolution=tuple((a, HermitianOperator(p)) for a, p in enumerate(projs)),
    )


def random_case(seed, d, n):
    rng = np.random.default_rng(seed)
    if d == 2:
        rho = density_from_bloch(oracles.rand_bloch(rng))
        return rho, [observable_from_direction(oracles.rand_direction(rng)) for _ in range(n)]
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g = g @ g.conj().T
    return DensityMatrix(g / np.trace(g).real), [haar_observable(rng, d) for _ in range(n)]


def tuple_mats(observables, outcomes):
    return [obs.projector(a).matrix for obs, a in zip(observables, outcomes)]


def stacked_mats(observables):
    """(N, T, d, d): generator i of every outcome tuple, tuples in canonical order."""
    tuples = list(itertools.product(*(obs.outcomes for obs in observables)))
    return tuples, np.array([tuple_mats(observables, t) for t in tuples]).swapaxes(0, 1)


def grid_mats(observables):
    """Observable i's projector stack on axis i of the outcome grid."""
    n = len(observables)
    return [obs.projectors.reshape((1,) * i + (-1,) + (1,) * (n - 1 - i) + (obs.dim, obs.dim))
            for i, obs in enumerate(observables)]


def trace_entry(rho, op):
    return float(np.trace(rho.matrix @ op).real)


def hermitized(prod):
    return 0.5 * (prod + prod.conj().T)


class TestStackedKernel:
    @pytest.mark.parametrize("d, n", STACK_CASES)
    def test_weyl_matrix_stack_equals_per_tuple(self, d, n):
        _, obs = random_case(10 * d + n, d, n)
        tuples, stack = stacked_mats(obs)
        got = weyl_matrix(stack)
        assert got.shape == (len(tuples), d, d)
        for t, w in zip(tuples, got):
            assert np.abs(w - weyl_matrix(tuple_mats(obs, t))).max() <= 1e-15

    def test_weyl_matrix_leaves_a_single_generator_alone(self):
        _, (obs,) = random_case(9, 3, 1)
        got = weyl_matrix([obs.projectors])
        assert not np.shares_memory(got, obs.projectors)
        assert np.array_equal(got, obs.projectors)

    @pytest.mark.parametrize("d, n", STACK_CASES)
    def test_unit_stack_equals_per_tuple(self, d, n):
        _, obs = random_case(20 * d + n, d, n)
        tuples, stack = stacked_mats(obs)
        classes = ordering_classes(n)
        for order in (classes[0], classes[len(classes) // 2], classes[-1]):
            got = weighted_matrix(stack, [(1.0, order)])
            assert got.shape == (len(tuples), d, d)
            for t, h in zip(tuples, got):
                expected = oracles.hermitized_chain(tuple_mats(obs, t), order)
                assert np.abs(h - expected).max() <= 1e-15


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestRightFactors:
    # w.view(float64) @ right_factors(a) is (w @ a).view(float64)

    @staticmethod
    def assert_identity(w, a):
        got = w.view(np.float64) @ right_factors(a)
        assert np.abs(got - (w @ a).view(np.float64)).max() <= 1e-15 * np.abs(w).max() * np.abs(a).max()
        assert np.abs(got.view(complex) - w @ a).max() <= 1e-15 * np.abs(w).max() * np.abs(a).max()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_contiguous_stacks(self, d):
        rng = np.random.default_rng(d)
        self.assert_identity(random_complex(rng, (7, d, d)), random_complex(rng, (7, d, d)))

    def test_broadcast_grid_stacks(self):
        # generator 1's projectors on axis 1 of the grid, times W on axis 0
        _, obs = random_case(3, 3, 2)
        w = weyl_matrix([obs[0].projectors]).reshape(3, 1, 3, 3)
        a = obs[1].projectors.reshape(1, 3, 3, 3)
        e = right_factors(a)
        assert e.shape == (1, 3, 6, 6)
        self.assert_identity(w, a)
        # a stack broadcast along a stride-0 axis
        self.assert_identity(w, np.broadcast_to(obs[1].projectors[:1], (3, 3, 3, 3)))

    def test_non_contiguous_tuple_stack_slices(self):
        _, obs = random_case(4, 2, 5)
        _, stack = stacked_mats(obs)  # (N, T, d, d)
        block = stack[:, 3:29:5]
        assert not block[1].flags.c_contiguous
        self.assert_identity(np.ascontiguousarray(block[0]), block[1])
        self.assert_identity(np.ascontiguousarray(block[2]), stack[3, 28:2:-5])

    def test_rows_interleave_the_factor_and_i_times_it(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, (4, 3, 3))
        e = right_factors(a)
        assert np.array_equal(e[:, ::2], a.view(np.float64))
        assert np.array_equal(e[:, 1::2], (1j * a).view(np.float64))


# outcome grids of `weighted_matrix` whose arithmetic did not change when one
# rule replaced the matmul call count: every ordering on its own runs
# complex, and weights over all the classes real
UNIT_ROUTE_GRIDS = [(2, (2,) * n) for n in range(3, 7)] + [(3, (3, 3, 3)), (3, (3,) * 4),
                                                            (4, (4, 3, 3, 2))]
WEIGHTS_ROUTE_GRIDS = [(2, (2,) * 4), (2, (2,) * 5), (3, (3,) * 4)]


class TestWeightedKernel:
    @pytest.mark.parametrize("n", [5, 6])
    def test_weights_with_zeros_match_per_class_sum(self, n):
        rho, obs = random_case(60 + n, 2, n)
        classes = ordering_classes(n)
        weights = np.random.default_rng(n).dirichlet(np.ones(len(classes)))
        weights[::3] = 0.0  # some classes left out
        weights /= weights.sum()
        scheme = build_scheme(rho, obs, Recipe.convex(weights))
        for t in scheme.outcome_tuples:
            mats = tuple_mats(obs, t)
            op = sum(w * oracles.hermitized_chain(mats, c) for w, c in zip(weights, classes) if w)
            assert abs(scheme.entry(t) - trace_entry(rho, op)) <= 1e-14

    @pytest.mark.parametrize("d, n", [(2, 4), (3, 3)])
    def test_unit_is_the_chain_product_bit_for_bit(self, d, n):
        # only sums of two or more orderings run real (`_operands`), so a
        # single ordering stays the complex chain product
        _, obs = random_case(70 + n, d, n)
        mats = grid_mats(obs)
        for c in ordering_classes(n):
            assert np.array_equal(weighted_matrix(mats, [(1.0, c)]),
                                  oracles.hermitized_chain(mats, c))

    def test_digest_of_weighted_routes(self):
        # every ordering on its own (complex chain products) and weights over
        # all classes from N = 4 on (real), pinned from the recursion as it
        # stood when a matmul call count chose between them
        digest = hashlib.sha256()
        for d, counts in UNIT_ROUTE_GRIDS:
            mats = grouped_grid(1812, d, counts)
            for c in ordering_classes(len(counts)):
                digest.update(weighted_matrix(mats, [(1.0, c)]).tobytes())
        for d, counts in WEIGHTS_ROUTE_GRIDS:
            mats = grouped_grid(1813, d, counts)
            classes = ordering_classes(len(counts))
            weights = np.random.default_rng(len(counts)).dirichlet(np.ones(len(classes)))
            digest.update(weighted_matrix(mats, list(zip(weights.tolist(), classes))).tobytes())
        assert digest.hexdigest() == "ba186eb6065e526b8bc3f5d354c5f0f7d586e54da9b6a2a6aeaaf4cdae03ab71"

    def test_weighted_matrix_leaves_a_single_generator_alone(self):
        _, (obs,) = random_case(9, 3, 1)
        got = weighted_matrix([obs.projectors], [(1.0, (0,))])
        assert not np.shares_memory(got, obs.projectors)
        assert np.array_equal(got, obs.projectors)


class TestUnequalOutcomeCounts:
    def test_grid_with_a_degenerate_qutrit_observable_matches_oracle(self):
        # outcome counts 2, 3, 1, 3: a degenerate qutrit observable, two
        # non-degenerate ones and the identity; at N = 4 Weyl takes the real
        # route
        rng = np.random.default_rng(11)
        rho, _ = random_case(11, 3, 1)
        obs = [grouped_observable(rng, 3, 2), haar_observable(rng, 3),
               grouped_observable(rng, 3, 1), haar_observable(rng, 3)]
        assert [len(o.outcomes) for o in obs] == [2, 3, 1, 3]
        scheme = build_scheme(rho, obs)
        assert len(scheme.outcome_tuples) == 18
        for t in scheme.outcome_tuples:
            expected = trace_entry(rho, oracles.weyl_oracle(tuple_mats(obs, t)))
            assert abs(scheme.entry(t) - expected) <= 1e-15
        assert abs(scheme.values.sum() - 1.0) <= 1e-14


def grouped_grid(seed, d, counts):
    """The outcome grid of observables of the given outcome counts over
    C^d, each grouping a Haar-random basis (`grouped_observable`)."""
    rng = np.random.default_rng(seed)
    return grid_mats([grouped_observable(rng, d, k) for k in counts])


def gathered_sizes(mats):
    """The subset sizes that `weyl_matrix` makes in gathered steps."""
    if len(mats) < 3:
        return []
    levels, _ = _weyl_plan(tuple(m.shape[:-2] for m in mats), mats[0].shape[-1], len(mats))
    return [k for k, (_, index, gathers, _) in enumerate(levels, 2) if index is not None or gathers]


# grids whose products are made in the same arithmetic as before sizes were
# gathered: qubits at N = 1 and 2 (complex, nothing to gather; at d = 2,
# A_1 A_0 is (A_0 A_1)^dag bit for bit, so one class's chain has the bytes
# of the two-product formula it replaced), qubits at N = 4..8 and outcome
# counts 4, 3, 3, 2 at d = 4 (real); with the sizes gathered in each (qubit
# sizes 4-6 at N = 7, 3-6 at N = 8 and size 3 at d = 4 in several steps)
KEPT_ROUTE_GRIDS = [((2, (2,)), [])] + [
    ((2, (2,) * n), sizes) for n, sizes in [
        (2, []), (4, [2, 3, 4]), (5, [2, 3, 4, 5]), (6, [2, 3, 4, 5, 6]), (7, [2, 3, 4, 5, 6, 7]),
        (8, [2, 3, 4, 5, 6]),
    ]
] + [((4, (4, 3, 3, 2)), [2, 3])]
# grids whose last bits moved: N = 3 grids, which run real products, not
# the complex ones of before sizes were gathered, also where no size is
# gathered (d = 6); and the qutrit N = 2 grid, now one class's chain
# A_0 A_1, not A_1 A_0 + A_0 A_1
NEW_ROUTE_GRIDS = [((2, (2, 2, 2)), [2, 3]), ((3, (3, 3, 3)), [2, 3]), ((3, (3, 2, 1)), [2, 3]),
                   ((6, (6, 6, 6)), []), ((3, (3, 3)), [])]


def grid_id(case):
    d, counts = case
    return f"d{d}-" + ",".join(map(str, counts))


def grid_shapes(counts):
    """Leading shapes of an outcome grid's generators: observable i's
    outcomes on axis i."""
    n = len(counts)
    return tuple((1,) * i + (k,) + (1,) * (n - 1 - i) for i, k in enumerate(counts))


def same_plan(a, b):
    """Whether two plan entries, nested tuples of numbers and arrays, are
    equal."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(same_plan, a, b))
    return a == b


# (d, leading shapes of the generators) of the plans whose rule is checked:
# the stacks of outcome tuples, the route grids, qutrit grids up to N = 6,
# larger grids at d = 4, 16 and 20 (at d = 4 the slowest accepted Weyl
# scheme), and single-outcome generators at d = 44 and d = 128
PLAN_CASES = (
    [(d, ((d ** n,),) * n) for d, n in STACK_CASES]
    + [(d, grid_shapes(counts)) for (d, counts), _ in KEPT_ROUTE_GRIDS + NEW_ROUTE_GRIDS]
    + [(3, grid_shapes((3,) * n)) for n in (4, 5, 6)]
    + [(4, grid_shapes((4,) * 5)), (16, grid_shapes((16,) * 4)), (20, grid_shapes((20,) * 3)),
       (4, grid_shapes((4,) * 6 + (3, 3)))]
    + [(44, ((),) * 3), (128, ((),) * 8)]
)


class TestGatheredSizes:
    # a gathered size is one stacked matmul per step (the whole size where
    # it fits the gather budget, else runs of whole subsets), summed over
    # the place of i in S; where the products were real before they are the
    # same bits, and where they were complex (N = 3) they agree with the
    # N!-term oracle per outcome tuple

    @pytest.mark.parametrize("case, sizes", KEPT_ROUTE_GRIDS + NEW_ROUTE_GRIDS,
                             ids=[grid_id(c) for c, _ in KEPT_ROUTE_GRIDS + NEW_ROUTE_GRIDS])
    def test_sizes_gathered(self, case, sizes):
        d, counts = case
        assert gathered_sizes(grouped_grid(1811, d, counts)) == sizes

    @pytest.mark.parametrize("d, shapes", PLAN_CASES,
                             ids=[f"d{d}-" + "x".join(str(math.prod(s)) for s in shapes)
                                  for d, shapes in PLAN_CASES])
    def test_plan_rule(self, d, shapes):
        # a size is one step when both fit GATHER_BYTES: its product table
        # (every row of the size below times every generator) with the k
        # products a row it picks from the table, 16 d^2 bytes a product, and
        # its products gathered with their operands, 64 d^2 bytes a product.
        # Else it is gathered in steps of whole subsets when its largest
        # subset fits half a step, each step as long as GATHER_BYTES lets it
        # be, so every step but a size's last holds at least two subsets;
        # else it is made pair by pair
        n = len(shapes)
        levels, shape = _weyl_plan(shapes, d, n)
        assert len(levels) == max(n - 1, 0)
        # weyl_traces' plan is the same sizes up to ceil(N/2), and no more
        assert same_plan(_weyl_plan(shapes, d, (n + 1) // 2)[0], levels[:(n + 1) // 2 - 1])
        generators = sum(math.prod(s) for s in shapes)
        rows_below = generators
        for k, (size, index, gathers, pairs) in enumerate(levels, 2):
            rows = [math.prod(np.broadcast_shapes(*(shapes[i] for i in s)))
                    for s in itertools.combinations(range(n), k)]
            ends = list(itertools.accumulate(rows))
            row_bytes = k * 64 * d * d  # of one row's products and their operands
            table_bytes = 16 * d * d * (generators * rows_below + k * size)
            assert size == ends[-1] and (index is not None) + bool(gathers) + bool(pairs) == 1
            rows_below = size
            one_step = table_bytes <= GATHER_BYTES and size * row_bytes <= GATHER_BYTES
            assert (index is not None) == one_step
            if one_step:
                assert index.shape == (k, size) and not index.flags.writeable
                continue
            if pairs:
                assert len(pairs) == len(rows)
                assert size * row_bytes > GATHER_BYTES
                assert 2 * max(rows) * row_bytes > GATHER_BYTES
                continue
            firsts = [first for first, _, _, _ in gathers]
            lasts = [end for _, end, _, _ in gathers]
            assert firsts == [0, *lasts[:-1]] and lasts[-1] == size
            assert set(lasts) <= set(ends)
            for first, end, below, factor in gathers:
                assert below.shape == factor.shape == (k, end - first)
                assert (end - first) * row_bytes <= GATHER_BYTES
            if len(gathers) > 1:
                assert 2 * max(rows) * row_bytes <= GATHER_BYTES
                for first, end, _, _ in gathers[:-1]:
                    assert sum(first < e <= end for e in ends) >= 2
                    assert (ends[ends.index(end) + 1] - first) * row_bytes > GATHER_BYTES
        if n < 3:
            return
        # weyl_traces' split (N >= 3): runs of consecutive m-subsets S,
        # m = ceil(N/2), of one block shape, over views of their rows and of
        # the rows of their complements, which lie in reverse order
        m, tuples, split = (n + 1) // 2, math.prod(shape[:-2]), _weyl_split(shapes)
        size_rows = [generators, *(size for size, *_ in levels)]
        assert sum(runs for *_, (runs, _, _, _), _ in split) == math.comb(n, m)
        lefts = [(a, e) for a, e, *_ in split]
        rights = [(f, g) for _, _, f, g, _, _ in split][::-1]
        for spans, rows in (lefts, size_rows[m - 1]), (rights, size_rows[n // 2 - 1]):
            assert [a for a, _ in spans] == [0, *(e for _, e in spans[:-1])] and spans[-1][1] == rows
        # a run ends where the next S has another block shape, or would
        # take its blocks over GATHER_BYTES
        for (*_, (runs, *block), _), (*_, (_, *after), _) in zip(split, split[1:]):
            assert block != after or 16 * (runs + 1) * math.prod(block) > GATHER_BYTES
        for a, e, f, g, (runs, b, r, c), index in split:
            assert runs * b * r == e - a and runs * b * c == g - f
            assert index.shape == (runs, tuples) and not index.flags.writeable
            assert index.dtype == np.int32
            assert 0 <= index.min() and index.max() < runs * b * r * c
            assert runs == 1 or 16 * runs * b * r * c <= GATHER_BYTES
            # a grid's block is exactly its tuples, and a stack of tuples
            # takes its tuple axis as the batch axis
            assert b * r * c == tuples
            assert b == (tuples if len(shapes[0]) == 1 else 1)

    def test_digest_of_kept_routes(self):
        # the grids' results, and those of each grid's first outcome tuple
        # on its own, pinned from the recursion as it stood before N = 3
        # always ran real; re-recorded without the qutrit N = 2 grid from
        # N <= 2's two-product formula, before it became one class's chain
        digest = hashlib.sha256()
        for (d, counts), _ in KEPT_ROUTE_GRIDS:
            mats = grouped_grid(1811, d, counts)
            digest.update(weyl_matrix(mats).tobytes())
            digest.update(weyl_matrix([g.reshape(-1, d, d)[0] for g in mats]).tobytes())
        assert digest.hexdigest() == "488303fc96f236139f512e4ee3c19ff5549a37381a6d500857d440a1974bb2c6"

    @pytest.mark.parametrize("case, _", NEW_ROUTE_GRIDS, ids=[grid_id(c) for c, _ in NEW_ROUTE_GRIDS])
    def test_new_route_matches_oracle_per_tuple(self, case, _):
        d, counts = case
        mats = grouped_grid(1811, d, counts)
        got = weyl_matrix(mats)
        assert got.shape == (*counts, d, d)
        for t in itertools.product(*map(range, counts)):
            tuple_mats = [m.reshape(-1, d, d)[a] for m, a in zip(mats, t)]
            assert np.abs(got[t] - oracles.weyl_oracle(tuple_mats)).max() <= 1e-15

    @pytest.mark.parametrize("n", range(2, 9))
    def test_qubit_schemes_match_oracles(self, n):
        # four outcome tuples each; the N!-term oracle up to N = 7
        rho, obs = random_case(1900 + n, 2, n)
        scheme = build_scheme(rho, obs)
        for t in scheme.outcome_tuples[:: 2 ** n // 4]:
            mats = tuple_mats(obs, t)
            polar = trace_entry(rho, oracles.weyl_polarisation_oracle(mats))
            assert abs(scheme.entry(t) - polar) <= 1e-13
            if n <= 7:
                assert abs(scheme.entry(t) - trace_entry(rho, oracles.weyl_oracle(mats))) <= 1e-14


# outcome grids of N <= 2 observables, which have one ordering class
ONE_CLASS_GRIDS = [(2, (2,)), (2, (2, 2)), (3, (3,)), (3, (3, 3)), (3, (3, 2)), (4, (4, 4)),
                   (4, (4, 2))]


class TestOneClass:
    # N <= 2 generators have one reversal class, so their Weyl average, the
    # unit of class 0 and weights [1.0] are one product: the chain of that
    # class, made once

    @pytest.mark.parametrize("case", ONE_CLASS_GRIDS, ids=grid_id)
    def test_weyl_matrix_is_the_chain_of_class_0(self, case):
        d, counts = case
        for seed in (1811, 1814):
            mats = grouped_grid(seed, d, counts)
            chain = oracles.hermitized_chain(mats, ordering_classes(len(counts))[0])
            assert np.array_equal(weyl_matrix(mats), chain)

    @pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2)])
    def test_recipes_of_the_one_class_give_one_scheme(self, d, n):
        for seed in range(2200, 2205):
            rho, obs = random_case(seed, d, n)
            weyl = build_scheme(rho, obs, Recipe.weyl()).values
            assert np.array_equal(build_scheme(rho, obs, Recipe.unit(0)).values, weyl)
            assert np.array_equal(build_scheme(rho, obs, Recipe.convex([1.0])).values, weyl)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_weyl_pseudo_projection_is_its_unit(self, d):
        rng = np.random.default_rng(2210 + d)
        for _ in range(10):
            pair = [HermitianOperator(oracles.haar_projector(rng, d, r)) for r in rng.integers(1, d, 2)]
            weyl = weyl_pseudo_projection(pair).op.matrix
            assert weyl.tobytes() == unit_pseudo_projections(pair)[0].op.matrix.tobytes()


# Weyl grids of N >= 3 whose traces `weyl_traces` takes from the split at
# m = ceil(N/2), W(F) = sum over the m-subsets S of W(S) W(F - S), without
# making any size above m; between them the sizes up to m are made in each
# of the plan's ways (one step, gathered steps and pair by pair), and at
# odd N = 5 the subsets of (3, 2, 3, 1, 2) have blocks of many shapes
FUSED_GRIDS = ([(2, (2,) * n) for n in range(3, 9)] + [(3, (3,) * n) for n in range(3, 6)]
               + [(3, (3, 2, 3, 1, 2)), (4, (4, 3, 3, 2)), (6, (6,) * 3), (20, (20,) * 3)])


def contracted(rho, mats):
    """Tr(rho P) for the `weyl_matrix` P of every outcome tuple of `mats`."""
    d = rho.dim
    return (weyl_matrix(mats).reshape(-1, d * d) @ rho.matrix.T.reshape(-1)).real


class TestFusedTraces:
    # Re Tr(rho W(S) W(F - S)) summed over the m-subsets S is, up to
    # rounding, the contraction of the hermitized last size that
    # `weyl_matrix` makes, and the oracles' value; build_scheme takes it for
    # every Weyl scheme of N >= 3 but qubit triples, which keep the
    # contraction bit for bit

    def test_grids_make_the_split_sizes_every_way(self):
        kinds = set()
        for d, counts in FUSED_GRIDS:
            levels, _ = _weyl_plan(grid_shapes(counts), d, (len(counts) + 1) // 2)
            for _, index, gathers, pairs in levels:
                kinds.add("one step" if index is not None else "steps" if gathers else "pairs")
        assert kinds == {"one step", "steps", "pairs"}

    @pytest.mark.parametrize("case", [(2, (2,) * n) for n in range(3, 9)] + [(3, (3,) * 6), (3, (3, 2, 3, 1, 2))],
                             ids=grid_id)
    def test_no_size_above_half_is_made(self, case, monkeypatch):
        # the levels weyl_traces makes are the sizes 2..ceil(N/2), in turn
        d, counts = case
        made = []

        def level(rows, factors, size, *rest):
            made.append(size)
            return _weyl_level(rows, factors, size, *rest)

        monkeypatch.setattr(pseudoprojection, "_weyl_level", level)
        rho, _ = random_case(2150, d, 1)
        weyl_traces(grouped_grid(2150, d, counts), rho.matrix)
        n = len(counts)
        assert made == [sum(math.prod(counts[i] for i in s) for s in itertools.combinations(range(n), k))
                        for k in range(2, (n + 1) // 2 + 1)]

    @pytest.mark.parametrize("case", FUSED_GRIDS, ids=grid_id)
    def test_entries_match_the_contraction_and_the_oracle(self, case):
        d, counts = case
        rng = np.random.default_rng(2000 + d + len(counts))
        rho, _ = random_case(2000 + d + len(counts), d, 1)
        obs = [grouped_observable(rng, d, k) for k in counts]
        mats = grid_mats(obs)
        got = weyl_traces(mats, rho.matrix)
        assert np.abs(got - contracted(rho, mats)).max() <= 1e-14
        scheme = build_scheme(rho, obs)
        fused = not (d == 2 and len(counts) == 3)
        assert np.array_equal(scheme.values, got if fused else contracted(rho, mats))
        # the N!-term oracle up to N = 7, at eight tuples spread over the grid
        tuples = scheme.outcome_tuples
        for k in range(0, len(tuples), max(len(tuples) // 8, 1)):
            t_mats = tuple_mats(obs, tuples[k])
            if len(counts) <= 7:
                assert abs(got[k] - trace_entry(rho, oracles.weyl_oracle(t_mats))) <= 1e-14
            assert abs(got[k] - trace_entry(rho, oracles.weyl_polarisation_oracle(t_mats))) <= 1e-13

    @pytest.mark.parametrize("d, n", [(2, 3), (2, 5), (2, 6), (3, 4)])
    def test_tuple_stacks_match_the_contraction(self, d, n):
        # generators as (T, d, d) stacks of outcome tuples, not on a grid:
        # the tuple axis is each block's batch axis
        rho, obs = random_case(2100 + n, d, n)
        _, stack = stacked_mats(obs)
        got = weyl_traces(stack, rho.matrix)
        assert got.shape == (d ** n,)
        assert np.abs(got - contracted(rho, stack)).max() <= 1e-14

    @pytest.mark.parametrize("shapes", [((5, 1), (5, 1), (1, 3)), ((3, 1), (1, 5), (1, 5)),
                                        ((2, 1, 1), (1, 3, 2), (2, 3, 1), (1,), (1, 1, 2))])
    def test_mixed_axes_match_the_contraction(self, shapes):
        # generators that share some axes and not others: a shared axis
        # before every other one of a block is its batch axis, and one after
        # them is crossed like the rest, its extra entries never gathered
        rng = np.random.default_rng(2160 + len(shapes))
        rho, _ = random_case(2160, 3, 1)
        mats = [np.array([haar_observable(rng, 3).projectors[0] for _ in range(math.prod(s))])
                .reshape(*s, 3, 3) for s in shapes]
        got = weyl_traces(mats, rho.matrix)
        assert got.shape == (math.prod(np.broadcast_shapes(*shapes)),)
        assert np.abs(got - contracted(rho, mats)).max() <= 1e-14

    def test_full_rank_d20_peak(self):
        # 20^3 tuples: the last size alone would be 8000 complex 20 x 20
        # matrices, 48.8 MiB, and weyl_matrix's peak is ~106 MiB
        rho, obs = random_case(2120, 20, 3)
        build_scheme(rho, obs)  # plan cached beforehand
        tracemalloc.start()
        try:
            build_scheme(rho, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20


class TestBuildSchemeEntries:
    @pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
    def test_weyl_entries_match_both_oracles(self, d, n):
        rho, obs = random_case(30 * d + n, d, n)
        scheme = build_scheme(rho, obs)
        for t in scheme.outcome_tuples:
            mats = tuple_mats(obs, t)
            assert abs(scheme.entry(t) - trace_entry(rho, oracles.weyl_oracle(mats))) <= 1e-14
            polar = trace_entry(rho, oracles.weyl_polarisation_oracle(mats))
            assert abs(scheme.entry(t) - polar) <= 1e-13

    @pytest.mark.parametrize("d", [2, 3])
    def test_unit_entries_match_explicit_products(self, d):
        rho, obs = random_case(40 + d, d, 3)
        # the three reversal classes (0,1,2), (0,2,1), (1,0,2)
        products = (
            lambda a, b, c: a @ b @ c,
            lambda a, b, c: a @ c @ b,
            lambda a, b, c: b @ a @ c,
        )
        for k, product in enumerate(products):
            scheme = build_scheme(rho, obs, Recipe.unit(k))
            for t in scheme.outcome_tuples:
                expected = trace_entry(rho, hermitized(product(*tuple_mats(obs, t))))
                assert abs(scheme.entry(t) - expected) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_weights_entries_match_explicit_products(self, d):
        rho, obs = random_case(50 + d, d, 3)
        scheme = build_scheme(rho, obs, Recipe.convex((0.2, 0.5, 0.3)))
        for t in scheme.outcome_tuples:
            a, b, c = tuple_mats(obs, t)
            op = (0.2 * hermitized(a @ b @ c) + 0.5 * hermitized(a @ c @ b)
                  + 0.3 * hermitized(b @ a @ c))
            assert abs(scheme.entry(t) - trace_entry(rho, op)) <= 1e-15

    def test_qutrit_weights_entries_match_per_tuple_evaluation(self):
        rho, obs = random_case(90, 3, 4)  # 81 tuples
        weights = np.random.default_rng(90).dirichlet(np.ones(12))
        scheme = build_scheme(rho, obs, Recipe.convex(weights))
        for t in scheme.outcome_tuples:
            mats = tuple_mats(obs, t)
            expected = sum(w * trace_entry(rho, oracles.hermitized_chain(mats, c))
                           for w, c in zip(weights, ordering_classes(4)))
            assert abs(scheme.entry(t) - expected) <= 1e-14


class TestBlocks:
    # Outcome tuples evaluated as tuple stacks, tuples_per_block at a time,
    # through the stacked kernel must agree with the grid-built scheme and
    # with each tuple evaluated on its own.

    @pytest.mark.parametrize("recipe", [Recipe.weyl(), Recipe.unit(7)])
    @pytest.mark.parametrize("tuples_per_block", [1, 5])
    def test_blocks_match_per_tuple_evaluation(self, recipe, tuples_per_block):
        rho, obs = random_case(70 + tuples_per_block + 10 * (recipe.kind == "unit"), 2, 5)
        scheme = build_scheme(rho, obs, recipe)  # 32 tuples
        order = ordering_classes(5)[7]
        for t in scheme.outcome_tuples:
            mats = tuple_mats(obs, t)
            op = (weyl_matrix(mats) if recipe.kind == "weyl"
                  else oracles.hermitized_chain(mats, order))
            assert abs(scheme.entry(t) - trace_entry(rho, op)) <= 1e-15
        tuples, stack = stacked_mats(obs)
        assert tuples == list(scheme.outcome_tuples)
        blocked = []
        for start in range(0, len(tuples), tuples_per_block):
            block = stack[:, start:start + tuples_per_block]
            ops = (weyl_matrix(block) if recipe.kind == "weyl"
                   else oracles.hermitized_chain(block, order))
            assert ops.shape == (min(tuples_per_block, len(tuples) - start), 2, 2)
            blocked.extend(trace_entry(rho, op) for op in ops)
        assert np.abs(np.array(blocked) - scheme.values).max() <= 1e-15


def lattice_entries(d, n, k):
    """prod_i (1 + k_i) d^2 for n observables of k outcomes each."""
    return (1 + k) ** n * d * d


def suffix_entries(orderings, d, k):
    """sum over the distinct proper suffixes s of the orderings of
    prod_{i not in s} k_i d^2, for observables of k outcomes each."""
    n = len(orderings[0])
    suffixes = {c[j:] for c in orderings for j in range(1, n + 1)}
    return sum(k ** (n - len(s)) for s in suffixes) * d * d


class TestMemoryBound:
    @pytest.mark.parametrize("d, n", [(2, 8), (3, 6), (3, 8)])
    def test_peak_stays_under_lattice_size(self, d, n):
        rho, obs = random_case(80 + n, d, n)
        tuples = d ** n
        bound = 16 * lattice_entries(d, n, d)
        # products kept per tuple and subset would take more than the bound
        assert 16 * tuples * 2 ** n * d * d > 2 * bound
        build_scheme(rho, obs)  # subset plan cached beforehand
        tracemalloc.start()
        try:
            build_scheme(rho, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the scheme itself (entries, outcome tuples, their index) is not
        # part of the kernel: allow 1 KiB per tuple for it
        assert peak <= bound + 1024 * tuples

    @pytest.mark.parametrize("d, counts", [(2, (2,) * 6), (2, (2,) * 7), (2, (2,) * 8),
                                           (4, (4, 3, 3, 2))],
                             ids=["d2-N6", "d2-N7", "d2-N8", "d4-4,3,3,2"])
    def test_gathered_peak_stays_under_lattice_plus_budget(self, d, counts):
        # qubit N = 6 gathers every size in one step, so its peak holds the
        # largest one (240 KiB); qubit N = 7-8 and the d = 4 grid have sizes
        # over the budget (306 KiB for size 3 at d = 4, 1.4 MiB for size 5
        # at N = 8), cut into steps of whole subsets that each fit it, so a
        # step sized by anything but GATHER_BYTES overruns this bound
        mats = grouped_grid(1811, d, counts)
        assert gathered_sizes(mats)
        bound = 16 * math.prod(1 + k for k in counts) * d * d + (1 << 18)
        weyl_matrix(mats)  # plan cached beforehand
        tracemalloc.start()
        try:
            weyl_matrix(mats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_generators_freed_after_the_level_that_reads_them(self):
        # three rank-1 projectors at d = 128 gather no size; in units of one
        # complex d x d matrix, the size-2 level holds the right factors (6),
        # the generators (3), its three rows and one product being added (4),
        # and the last level would hold 14 if the generators outlived the
        # level that reads them
        rng = np.random.default_rng(9)
        vs = rng.normal(size=(3, 128)) + 1j * rng.normal(size=(3, 128))
        mats = [np.outer(v, v.conj()) / np.vdot(v, v).real for v in vs]
        assert not gathered_sizes(mats)
        weyl_matrix(mats)  # plan cached beforehand
        tracemalloc.start()
        try:
            weyl_matrix(mats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 13.5 * 16 * 128 ** 2

    def test_sizes_made_pair_by_pair_hold_two_sizes_and_the_factors(self):
        # eight rank-1 projectors at d = 128 make every size pair by pair;
        # in units of one complex d x d matrix, the peak holds the two
        # largest adjacent sizes (70 and 56 subsets), the right factors (16)
        # and one product before it is added (1). A view of a size that
        # outlived the next size's allocation would add that whole size
        rng = np.random.default_rng(8)
        vs = rng.normal(size=(8, 128)) + 1j * rng.normal(size=(8, 128))
        mats = [np.outer(v, v.conj()) / np.vdot(v, v).real for v in vs]
        assert not gathered_sizes(mats)
        weyl_matrix(mats)  # plan cached beforehand
        tracemalloc.start()
        try:
            weyl_matrix(mats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (70 + 56 + 16 + 2) * 16 * 128 ** 2

    def test_full_rank_two_observable_weyl_peak(self):
        # d = 44, N = 2 over 44 outcomes each (3.9M lattice entries): one
        # class's chain makes the 57.2 MiB product grid once and hermitizes
        # it against one conjugate copy, so the peak is ~2.0x the grid
        rho, obs = random_case(86, 44, 2)
        bound = 2.5 * 16 * lattice_entries(44, 2, 44)
        build_scheme(rho, obs)
        tracemalloc.start()
        try:
            build_scheme(rho, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_weyl_sums_in_place(self):
        # d = 12, N = 4 over 12 outcomes each: the last level is 12^4 of the
        # lattice's 13^4 d x d matrices, so the peak cannot stay under the
        # lattice size; summing and hermitizing in place keeps it near two
        # copies of the last level (~1.7x), against ~3.2x with a new array
        # for each sum. build_scheme now contracts the split sizes with the
        # state and never makes that level; weyl_matrix still does (below)
        rho, obs = random_case(84, 12, 4)
        bound = 2.5 * 16 * lattice_entries(12, 4, 12)
        build_scheme(rho, obs)
        tracemalloc.start()
        try:
            build_scheme(rho, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_weyl_matrix_sums_in_place(self):
        # the same grid's whole P, which weyl_matrix makes: its peak stays
        # near two copies of the last level (~1.7x) under the same bound
        rho, obs = random_case(84, 12, 4)
        bound = 2.5 * 16 * lattice_entries(12, 4, 12)
        mats = grid_mats(obs)
        weyl_matrix(mats)
        tracemalloc.start()
        try:
            weyl_matrix(mats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_unit_hermitizes_in_place(self):
        # the same input under unit:3, whose lattice (as MAX_LATTICE_ENTRIES
        # counts it) is the one class's product over the 12^4 outcome
        # tuples: hermitizing it in place keeps the peak near two copies of
        # it (~2.0x), against ~3.0x with new arrays for the conjugate sum
        rho, obs = random_case(84, 12, 4)
        recipe = Recipe.unit(3)
        bound = 2.5 * 16 * 12 ** 4 * 12 * 12
        build_scheme(rho, obs, recipe)
        tracemalloc.start()
        try:
            build_scheme(rho, obs, recipe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


def grouped_observable(rng, d, k):
    """Observable with outcomes 0..k-1 whose projectors span near-equal
    groups of a Haar-random basis."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    projs = [q[:, g] @ q[:, g].conj().T for g in np.array_split(np.arange(d), k)]
    return Observable(
        op=HermitianOperator(sum(a * p for a, p in enumerate(projs))),
        resolution=tuple((a, HermitianOperator(p)) for a, p in enumerate(projs)),
    )


class TestLatticeCap:
    def test_weyl_just_inside_cap_finishes_under_deadline(self):
        # d = 4 is the slowest dimension per entry that N <= 8 lets near the cap
        counts = (4, 4, 4, 4, 4, 4, 3, 3)
        rng = np.random.default_rng(5)
        rho, _ = random_case(5, 4, 1)
        obs = [grouped_observable(rng, 4, k) for k in counts]
        entries = math.prod(1 + k for k in counts) * 16
        assert 0.9 * schemes.MAX_LATTICE_ENTRIES < entries <= schemes.MAX_LATTICE_ENTRIES
        t0 = time.perf_counter()
        scheme = build_scheme(rho, obs)
        assert time.perf_counter() - t0 < 3.0
        t = scheme.outcome_tuples[12345]
        polar = trace_entry(rho, oracles.weyl_polarisation_oracle(tuple_mats(obs, t)))
        assert abs(scheme.entry(t) - polar) <= 1e-12

    def test_weights_counted_per_class(self):
        # the suffix recursion makes B(s) once per distinct proper suffix s
        # of the weighted orderings, over the outcomes outside s; over 8
        # qutrit observables the first 11383 classes fit and 11384 do not
        rho, obs = random_case(6, 3, 8)
        classes = ordering_classes(8)
        inside = 11383
        assert suffix_entries(classes[:inside], 3, 3) <= schemes.MAX_LATTICE_ENTRIES
        assert suffix_entries(classes[:inside + 1], 3, 3) > schemes.MAX_LATTICE_ENTRIES
        # far fewer than one full grid per class: the old per-class count
        assert inside * 3 ** 8 * 9 > 16 * schemes.MAX_LATTICE_ENTRIES
        weights = np.zeros(len(classes))
        weights[:inside] = 1.0 / inside
        t0 = time.perf_counter()
        scheme = build_scheme(rho, obs, Recipe.convex(weights))
        assert time.perf_counter() - t0 < 3.0
        t = scheme.outcome_tuples[-1]
        mats = tuple_mats(obs, t)
        expected = sum(trace_entry(rho, oracles.hermitized_chain(mats, c))
                       for c in classes[:inside]) / inside
        assert abs(scheme.entry(t) - expected) <= 1e-13
        weights[:inside + 1] = 1.0 / (inside + 1)
        t0 = time.perf_counter()
        with pytest.raises(OrderingExplosion):
            build_scheme(rho, obs, Recipe.convex(weights))
        assert time.perf_counter() - t0 < 0.5

    def test_just_outside_cap_fails_before_allocating(self):
        rho, obs = random_case(8, 8, 8)
        assert lattice_entries(8, 8, 8) > schemes.MAX_LATTICE_ENTRIES
        t0 = time.perf_counter()
        with pytest.raises(OrderingExplosion):
            build_scheme(rho, obs)
        assert time.perf_counter() - t0 < 0.01
        tracemalloc.start()
        try:
            with pytest.raises(OrderingExplosion):
                build_scheme(rho, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
