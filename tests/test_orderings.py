"""Ordering classes: one meaning of a recipe index for every outcome tuple,
and the subset-recursion Weyl average against an independent oracle."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from pseudoprob import (
    DensityMatrix,
    HermitianOperator,
    Observable,
    Recipe,
    build_scheme,
    coplanar_triple_directions,
    density_from_bloch,
    observable_from_direction,
    projector_from_direction,
    unit_pseudo_projections,
    weyl_pseudo_projection,
)
from pseudoprob.pseudoprojection import distinct_unit_matrices, ordering_classes

import oracles

Z, X = (0, 0, 1), (1, 0, 0)
STATE = (0.3, 0.2, 0.4)
# Reversal classes of four orderings, lexicographically smaller member
# first, in lexicographic order: written out by hand
CLASSES_4 = [
    (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1),
    (0, 3, 1, 2), (0, 3, 2, 1), (1, 0, 2, 3), (1, 0, 3, 2),
    (1, 2, 0, 3), (1, 3, 0, 2), (2, 0, 1, 3), (2, 1, 0, 3),
]


def unit_entry(rho, mats, order):
    prod = np.eye(mats[0].shape[0], dtype=complex)
    for k in order:
        prod = prod @ mats[k]
    return float(np.trace(rho.matrix @ (prod + prod.conj().T)).real) / 2


def qubit_observables(*dirs):
    return [observable_from_direction(m) for m in dirs]


def projector_mats(observables, outcomes):
    return [obs.projector(a).matrix for obs, a in zip(observables, outcomes)]


def dichotomic(plus):
    plus = np.asarray(plus, dtype=complex)
    minus = np.eye(len(plus)) - plus
    return Observable(
        op=HermitianOperator(plus - minus),
        resolution=((1, HermitianOperator(plus)), (-1, HermitianOperator(minus))),
    )


def degenerate_qutrit_observables():
    """Rank-2/rank-1 qutrit observables; the first and last commute, so
    classes (0,2,1) and (1,0,2) give the same unit in every tuple."""
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return [
        dichotomic(np.diag([1.0, 1.0, 0.0])),
        dichotomic(np.outer(q[:, 0], q[:, 0].conj())),
        dichotomic(np.diag([1.0, 0.0, 0.0])),
    ]


class TestOrderingClasses:
    def test_three(self):
        assert list(ordering_classes(3)) == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]

    def test_four(self):
        assert list(ordering_classes(4)) == CLASSES_4

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_count_is_half_factorial(self, n):
        classes = ordering_classes(n)
        assert len(classes) == math.factorial(n) // 2
        covered = set(classes) | {c[::-1] for c in classes}
        assert covered == set(itertools.permutations(range(n)))


class TestWeylPolarisationOracle:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_qubit(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            projs = [
                projector_from_direction(oracles.rand_direction(rng), int(rng.choice((1, -1))))
                for _ in range(n)
            ]
            out = weyl_pseudo_projection(projs).op.matrix
            expected = oracles.weyl_polarisation_oracle([p.matrix for p in projs])
            assert np.abs(out - expected).max() <= 1e-13

    def test_qutrit(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            projs = [
                HermitianOperator(oracles.haar_projector(rng, 3, int(rng.integers(1, 3))))
                for _ in range(3)
            ]
            out = weyl_pseudo_projection(projs).op.matrix
            expected = oracles.weyl_polarisation_oracle([p.matrix for p in projs])
            assert np.abs(out - expected).max() <= 1e-13

    def test_agrees_with_permutation_oracle(self):
        rng = np.random.default_rng(113)
        mats = [oracles.haar_projector(rng, 2, 1) for _ in range(5)]
        diff = oracles.weyl_polarisation_oracle(mats) - oracles.weyl_oracle(mats)
        assert np.abs(diff).max() <= 1e-13


class TestRecipeMeansOneOrdering:
    """z z x x: the projectors of the repeated axes coincide or annihilate,
    so per-tuple dedup used to shorten and reorder each tuple's unit list."""

    def setup_method(self):
        self.rho = density_from_bloch(STATE)
        self.obs = qubit_observables(Z, Z, X, X)

    def test_unit2_is_class_0213_in_every_tuple(self):
        scheme = build_scheme(self.rho, self.obs, Recipe.unit(2))
        for t in scheme.outcome_tuples:
            p = projector_mats(self.obs, t)
            prod = p[0] @ p[2] @ p[1] @ p[3]
            expected = float(np.trace(self.rho.matrix @ (prod + prod.conj().T)).real) / 2
            assert abs(scheme.entry(t) - expected) <= 1e-15
        assert abs(scheme.values.sum() - 1.0) <= 1e-12

    def test_unit2_not_the_collapsed_list_entry(self):
        # dedup within each tuple had made index 2 mean (0,2,3,1) here and
        # (0,3,1,2) in the next tuple
        scheme = build_scheme(self.rho, self.obs, Recipe.unit(2))
        for t, stale in (((1, 1, 1, 1), (0, 2, 3, 1)), ((1, 1, 1, -1), (0, 3, 1, 2))):
            mats = projector_mats(self.obs, t)
            assert abs(scheme.entry(t) - unit_entry(self.rho, mats, (0, 2, 1, 3))) <= 1e-15
            assert abs(scheme.entry(t) - unit_entry(self.rho, mats, stale)) > 1e-3

    @pytest.mark.parametrize("k", range(4, 12))
    def test_high_unit_indices_are_valid(self, k):
        scheme = build_scheme(self.rho, self.obs, Recipe.unit(k))
        for t in scheme.outcome_tuples:
            expected = unit_entry(self.rho, projector_mats(self.obs, t), CLASSES_4[k])
            assert abs(scheme.entry(t) - expected) <= 1e-15
        assert abs(scheme.values.sum() - 1.0) <= 1e-12

    def test_twelve_weights(self):
        weights = np.random.default_rng(7).dirichlet(np.ones(12))
        scheme = build_scheme(self.rho, self.obs, Recipe.convex(weights))
        for t in scheme.outcome_tuples:
            mats = projector_mats(self.obs, t)
            expected = sum(w * unit_entry(self.rho, mats, c) for w, c in zip(weights, CLASSES_4))
            assert abs(scheme.entry(t) - expected) <= 1e-14
        assert abs(scheme.values.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("dirs", [(X, Z, Z), (Z, Z, X)])
    def test_unit1_is_class_021_whatever_commutes(self, dirs):
        # with x z z, unit:1 used to mean (1,0,2); with z z x, (0,2,1)
        rho = density_from_bloch(STATE)
        obs = qubit_observables(*dirs)
        scheme = build_scheme(rho, obs, Recipe.unit(1))
        for t in scheme.outcome_tuples:
            p = projector_mats(obs, t)
            prod = p[0] @ p[2] @ p[1]
            expected = float(np.trace(rho.matrix @ (prod + prod.conj().T)).real) / 2
            assert abs(scheme.entry(t) - expected) <= 1e-15
        assert abs(scheme.values.sum() - 1.0) <= 1e-12


class TestDegenerateQutrit:
    def setup_method(self):
        self.rho = DensityMatrix.maximally_mixed(3)
        self.obs = degenerate_qutrit_observables()

    def test_units_collapse_in_every_tuple(self):
        for t in itertools.product((1, -1), repeat=3):
            projs = [obs.projector(a) for obs, a in zip(self.obs, t)]
            assert len(unit_pseudo_projections(projs)) <= 2

    def test_unit2(self):
        scheme = build_scheme(self.rho, self.obs, Recipe.unit(2))
        for t in scheme.outcome_tuples:
            p = projector_mats(self.obs, t)
            prod = p[1] @ p[0] @ p[2]
            expected = float(np.trace(self.rho.matrix @ (prod + prod.conj().T)).real) / 2
            assert abs(scheme.entry(t) - expected) <= 1e-15
        assert abs(scheme.values.sum() - 1.0) <= 1e-12

    def test_three_weights(self):
        weights = (0.2, 0.3, 0.5)
        scheme = build_scheme(self.rho, self.obs, Recipe.convex(weights))
        for t in scheme.outcome_tuples:
            mats = projector_mats(self.obs, t)
            expected = sum(
                w * unit_entry(self.rho, mats, c)
                for w, c in zip(weights, [(0, 1, 2), (0, 2, 1), (1, 0, 2)])
            )
            assert abs(scheme.entry(t) - expected) <= 1e-15
        assert abs(scheme.values.sum() - 1.0) <= 1e-12

    def test_equal_weights_give_weyl(self):
        weyl = build_scheme(self.rho, self.obs, Recipe.weyl())
        mean = build_scheme(self.rho, self.obs, Recipe.convex((1 / 3, 1 / 3, 1 / 3)))
        assert np.abs(weyl.values - mean.values).max() <= 1e-15


def _reproduction_cases():
    rng = np.random.default_rng(11)
    return [
        (density_from_bloch(STATE), qubit_observables(Z, Z, X, X)),
        (density_from_bloch(STATE), qubit_observables(X, Z, Z)),
        (DensityMatrix.maximally_mixed(3), degenerate_qutrit_observables()),
        (
            density_from_bloch(oracles.rand_bloch(rng)),
            qubit_observables(*(oracles.rand_direction(rng) for _ in range(4))),
        ),
    ]


@pytest.mark.parametrize("case", range(4))
def test_build_scheme_reproduces_each_unit(case):
    rho, obs = _reproduction_cases()[case]
    schemes = {}
    for t in itertools.product(*(o.outcomes for o in obs)):
        for u in unit_pseudo_projections([o.projector(a) for o, a in zip(obs, t)]):
            k = u.recipe.index
            if k not in schemes:
                schemes[k] = build_scheme(rho, obs, Recipe.unit(k))
            expected = float(np.trace(rho.matrix @ u.op.matrix).real)
            assert abs(schemes[k].entry(t) - expected) <= 1e-15


def test_coplanar_units_tagged_by_class():
    # each unit carries its class index, and that recipe replays it
    rho = density_from_bloch(STATE)
    obs = qubit_observables(*coplanar_triple_directions())
    units = unit_pseudo_projections([o.projector(1) for o in obs])
    assert [u.recipe for u in units] == [Recipe.unit(0), Recipe.unit(1), Recipe.unit(2)]
    mats = projector_mats(obs, (1, 1, 1))
    for u in units:
        order = ordering_classes(3)[u.recipe.index]
        assert np.array_equal(u.op.matrix, oracles.hermitized_chain(mats, order))
        scheme = build_scheme(rho, obs, u.recipe)
        expected = float(np.trace(rho.matrix @ u.op.matrix).real)
        assert abs(scheme.entry((1, 1, 1)) - expected) <= 1e-15


def pairwise_distinct_units(mats, atol=1e-10):
    """The dedup rule one pair at a time: a class unit is kept unless an
    earlier kept unit is within atol in max-norm."""
    kept, indices = [], []
    for k, order in enumerate(ordering_classes(len(mats))):
        prod = np.eye(mats[0].shape[0], dtype=complex)
        for i in order:
            prod = prod @ mats[i]
        h = (prod + prod.conj().T) / 2
        if all(np.abs(u - h).max() > atol for u in kept):
            kept.append(h)
            indices.append(k)
    return kept, indices


@pytest.mark.parametrize("case", range(5))
def test_distinct_units_match_pairwise_rule(case):
    if case < 4:
        obs = _reproduction_cases()[case][1]
    else:
        # five generators, one repeated and one 1e-12 off another: 60
        # classes, units equal in fp and units within DEDUP_ATOL but not equal
        obs = qubit_observables(Z, X, (1e-12, 0.0, 1.0), (0.6, 0.0, 0.8), X)
    for t in itertools.product(*(o.outcomes for o in obs)):
        mats = projector_mats(obs, t)
        units, indices = distinct_unit_matrices(mats)
        ref_units, ref_indices = pairwise_distinct_units(mats)
        assert indices == ref_indices
        for u, r in zip(units, ref_units):
            assert np.abs(u - r).max() <= 1e-15


# (d, N) of seeded generic projector sets, from qubits at the generator cap
# to d = 1024 at N = 2
DIGEST_SIZES = (
    [(2, n) for n in range(3, 9)] + [(3, n) for n in range(3, 8)] + [(4, n) for n in range(3, 6)]
    + [(14, 8), (40, 7), (128, 4), (512, 3), (1024, 2)]
)


def digest_sets():
    rng = np.random.default_rng(1601)
    for d, n in DIGEST_SIZES:
        yield [oracles.haar_projector(rng, d, max(1, d // 4)) for _ in range(n)]
    # a repeated generator and one 1e-12 from another (81 of 360 units
    # kept), and commuting generators (one unit)
    p = [oracles.haar_projector(rng, 3, 1) for _ in range(4)]
    yield p + [p[1], p[0] + 1e-12]
    yield [np.diag(rng.integers(0, 2, 4)).astype(complex) for _ in range(6)]


def test_digest_of_seeded_units():
    # the units' bytes and class indices, pinned from the per-class chain
    # products that the stacked prefix product replaced; up to N = 6, each
    # kept unit is also the oracle's chain product of its class, bit for bit
    digest = hashlib.sha256()
    for mats in digest_sets():
        units, indices = distinct_unit_matrices(mats)
        classes = ordering_classes(len(mats))
        if len(classes) <= 360:
            expected = [oracles.hermitized_chain(mats, classes[k]) for k in indices]
            assert np.array_equal(units, expected)
        digest.update(repr(indices).encode())
        digest.update(np.asarray(units).tobytes())
    assert digest.hexdigest() == "1d772a77283aa0ece35584531f68514853b1768b932ddda1c4a0f9ad359590e8"
