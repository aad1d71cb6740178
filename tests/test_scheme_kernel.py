"""The scheme kernel: `weyl_matrix` and `hermitized_product` over stacks of
outcome tuples, `build_scheme` on the outcome grid against per-tuple
oracles and explicit products, its memory against the lattice size, and
the lattice cap."""

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
)
from pseudoprob.pseudoprojection import hermitized_product, ordering_classes, weyl_matrix

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
    def test_hermitized_product_stack_equals_per_tuple(self, d, n):
        _, obs = random_case(20 * d + n, d, n)
        tuples, stack = stacked_mats(obs)
        classes = ordering_classes(n)
        for order in (classes[0], classes[len(classes) // 2], classes[-1]):
            got = hermitized_product(stack, order)
            assert got.shape == (len(tuples), d, d)
            for t, h in zip(tuples, got):
                assert np.abs(h - hermitized_product(tuple_mats(obs, t), order)).max() <= 1e-15


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
            expected = sum(w * trace_entry(rho, hermitized_product(mats, c))
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
            op = weyl_matrix(mats) if recipe.kind == "weyl" else hermitized_product(mats, order)
            assert abs(scheme.entry(t) - trace_entry(rho, op)) <= 1e-15
        tuples, stack = stacked_mats(obs)
        assert tuples == list(scheme.outcome_tuples)
        blocked = []
        for start in range(0, len(tuples), tuples_per_block):
            block = stack[:, start:start + tuples_per_block]
            ops = weyl_matrix(block) if recipe.kind == "weyl" else hermitized_product(block, order)
            assert ops.shape == (min(tuples_per_block, len(tuples) - start), 2, 2)
            blocked.extend(trace_entry(rho, op) for op in ops)
        assert np.abs(np.array(blocked) - scheme.values).max() <= 1e-15


def lattice_entries(d, n, k):
    """prod_i (1 + k_i) d^2 for n observables of k outcomes each."""
    return (1 + k) ** n * d * d


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

    def test_weyl_sums_in_place(self):
        # d = 12, N = 4 over 12 outcomes each: the last level is 12^4 of the
        # lattice's 13^4 d x d matrices, so the peak cannot stay under the
        # lattice size; summing and hermitizing in place keeps it near two
        # copies of the last level (~1.7x), against ~3.2x with a new array
        # for each sum
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

    def test_unit_leaves_a_single_generator_alone(self):
        _, (obs,) = random_case(9, 3, 1)
        got = hermitized_product([obs.projectors], (0,))
        assert not np.shares_memory(got, obs.projectors)
        assert np.array_equal(got, obs.projectors)


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
        # qubit N = 8: each weighted class forms its product over 256 tuples
        rho, obs = random_case(6, 2, 8)
        per_class = 2 ** 8 * 4
        inside = schemes.MAX_LATTICE_ENTRIES // per_class
        weights = np.zeros(len(ordering_classes(8)))
        weights[:inside] = 1.0 / inside
        t0 = time.perf_counter()
        scheme = build_scheme(rho, obs, Recipe.convex(weights))
        assert time.perf_counter() - t0 < 3.0
        t = scheme.outcome_tuples[-1]
        mats = tuple_mats(obs, t)
        expected = sum(trace_entry(rho, hermitized_product(mats, c))
                       for c in ordering_classes(8)[:inside]) / inside
        assert abs(scheme.entry(t) - expected) <= 1e-13
        weights[:inside + 1] = 1.0 / (inside + 1)
        with pytest.raises(OrderingExplosion):
            build_scheme(rho, obs, Recipe.convex(weights))

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
