"""The batched scheme kernel: `weyl_matrix` and `hermitized_product` over
stacks of outcome tuples, `build_scheme` against per-tuple oracles and
explicit products, the block boundary, and the kernel's memory bound."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pseudoprob import (
    DensityMatrix,
    HermitianOperator,
    Observable,
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


class TestBlocks:
    # The blocked scheme is built first, from a case no other test builds,
    # so a skipped entry cannot pick up a right value left in freed memory.

    @pytest.mark.parametrize("recipe", [Recipe.weyl(), Recipe.unit(7)])
    @pytest.mark.parametrize("tuples_per_block", [1, 5])
    def test_blocks_match_per_tuple_evaluation(self, monkeypatch, recipe, tuples_per_block):
        rho, obs = random_case(70 + tuples_per_block + 10 * (recipe.kind == "unit"), 2, 5)
        # the widest level of N = 5 holds 5 C(4, 2) = 30 qubit matrices per tuple
        monkeypatch.setattr(schemes, "_BLOCK_BYTES", tuples_per_block * 6 * 30 * 4 * 16)
        assert schemes._block_tuples(5, 2) == tuples_per_block
        blocked = build_scheme(rho, obs, recipe)  # 32 tuples
        order = ordering_classes(5)[7]
        for t in blocked.outcome_tuples:
            mats = tuple_mats(obs, t)
            op = weyl_matrix(mats) if recipe.kind == "weyl" else hermitized_product(mats, order)
            assert abs(blocked.entry(t) - trace_entry(rho, op)) <= 1e-15
        monkeypatch.undo()
        whole = build_scheme(rho, obs, recipe)
        assert np.abs(blocked.values - whole.values).max() <= 1e-15

    def test_qutrit_weights_across_blocks(self, monkeypatch):
        rho, obs = random_case(90, 3, 4)  # 81 tuples
        weights = np.random.default_rng(90).dirichlet(np.ones(12))
        monkeypatch.setattr(schemes, "_BLOCK_BYTES", 7 * 6 * 12 * 9 * 16)
        assert schemes._block_tuples(4, 3) == 7
        blocked = build_scheme(rho, obs, Recipe.convex(weights))
        for t in blocked.outcome_tuples:
            mats = tuple_mats(obs, t)
            expected = sum(w * trace_entry(rho, hermitized_product(mats, c))
                           for w, c in zip(weights, ordering_classes(4)))
            assert abs(blocked.entry(t) - expected) <= 1e-14


class TestMemoryBound:
    @pytest.mark.parametrize("d, n", [(2, 8), (3, 6)])
    def test_peak_stays_under_block_bytes(self, d, n):
        rho, obs = random_case(80 + n, d, n)
        tuples = d ** n
        widest = n * math.comb(n - 1, (n - 1) // 2)
        # in one block the widest level's operands and product alone would
        # take more than the bound
        assert 3 * tuples * widest * d * d * 16 > 1.5 * schemes._BLOCK_BYTES
        build_scheme(rho, obs)  # index tables cached beforehand
        tracemalloc.start()
        try:
            build_scheme(rho, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the scheme itself (entries, outcome tuples, their index) is not
        # part of the kernel: allow 1 KiB per tuple for it
        assert peak <= schemes._BLOCK_BYTES + 1024 * tuples
