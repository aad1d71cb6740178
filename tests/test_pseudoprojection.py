import math

import numpy as np
import pytest

from pseudoprob import (
    DimensionMismatch,
    HermitianOperator,
    InvalidConvexWeights,
    InvalidRecipe,
    NotAProjector,
    OrderingExplosion,
    PseudoProjection,
    Recipe,
    build_scheme,
    combine,
    commutator_norm,
    coplanar_triple_directions,
    density_from_bloch,
    disjunction_operator,
    eigenvalues_hermitian,
    negation_operator,
    negation_product_residual,
    observable_from_direction,
    projector_from_direction,
    spectral_audit,
    symmetrized_product,
    trace_with,
    unit_pseudo_projections,
    weyl_pseudo_projection,
)

from pseudoprob.pseudoprojection import MAX_LATTICE_ENTRIES

import oracles

PI_Z = projector_from_direction((0, 0, 1), 1)
PI_Z_MINUS = projector_from_direction((0, 0, 1), -1)
PI_X = projector_from_direction((1, 0, 0), 1)
PI_Y = projector_from_direction((0, 1, 0), 1)


def coplanar_projectors(outcomes=(1, 1, 1)):
    return [
        projector_from_direction(m, a)
        for m, a in zip(coplanar_triple_directions(), outcomes)
    ]


class TestUnitPseudoProjections:
    def test_pair_has_single_unit(self):
        units = unit_pseudo_projections([PI_Z, PI_X])
        assert len(units) == 1
        expected = symmetrized_product(PI_Z, PI_X)
        assert np.abs(units[0].op.matrix - expected.matrix).max() <= 1e-15
        assert units[0].recipe == Recipe.unit(0)

    def test_coplanar_triple_has_three_units(self):
        units = unit_pseudo_projections(coplanar_projectors())
        assert len(units) == 3
        assert [u.recipe for u in units] == [Recipe.unit(k) for k in range(3)]
        assert all(type(u.recipe.index) is int for u in units)
        for i in range(3):
            for j in range(i + 1, 3):
                diff = np.abs(units[i].op.matrix - units[j].op.matrix).max()
                assert diff > 1e-3

    def test_dim_is_the_generators_dimension(self):
        assert unit_pseudo_projections(coplanar_projectors())[0].dim == 2
        assert weyl_pseudo_projection([PI_QUTRIT, PI_QUTRIT]).dim == 3

    def test_commuting_collapse(self):
        units = unit_pseudo_projections([PI_Z, PI_Z, PI_Z])
        assert len(units) == 1
        assert np.abs(units[0].op.matrix - PI_Z.matrix).max() <= 1e-12

    def test_rejects_non_projector(self):
        with pytest.raises(NotAProjector):
            unit_pseudo_projections([PI_Z, HermitianOperator(0.5 * np.eye(2))])

    def test_rejects_too_many(self):
        with pytest.raises(OrderingExplosion):
            unit_pseudo_projections([PI_Z] * 9)

    def test_unit_count_cap(self):
        # 4 generic projectors: at most 4!/2 = 12 distinct units
        rng = np.random.default_rng(0)
        projs = [
            projector_from_direction(oracles.rand_direction(rng), 1) for _ in range(4)
        ]
        units = unit_pseudo_projections(projs)
        assert 1 <= len(units) <= 12


PI_QUTRIT = HermitianOperator(np.diag([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("build", [weyl_pseudo_projection, unit_pseudo_projections])
class TestGeneratorChecks:
    def test_rejects_a_single_projector(self, build):
        with pytest.raises(ValueError, match="^need at least two projectors$"):
            build([PI_Z])

    def test_rejects_projectors_of_mixed_dimension(self, build):
        with pytest.raises(DimensionMismatch, match=": projectors of mixed dimension$"):
            build([PI_Z, PI_QUTRIT])


class TestWorkBound:
    # The largest projector dimension whose matrices fit MAX_LATTICE_ENTRIES
    # builds, and one more is rejected before anything is built: 2^N d^2
    # entries for Weyl, (N!/2 + N) d^2 for units (the units and the stack of
    # N generators they are made from).
    EDGES = [
        (weyl_pseudo_projection, 8, 128, 2 ** 8),
        (unit_pseudo_projections, 7, 40, math.factorial(7) // 2 + 7),
        (unit_pseudo_projections, 2, 1182, 1 + 2),
        (unit_pseudo_projections, 8, 14, math.factorial(8) // 2 + 8),
    ]
    IDS = ["weyl", "units", "units-N2", "units-N8"]

    @staticmethod
    def projectors(n, d):
        rng = np.random.default_rng(d)
        return [HermitianOperator(np.diag(rng.integers(0, 2, d))) for _ in range(n)]

    @pytest.mark.parametrize("build, n, most, matrices", EDGES, ids=IDS)
    def test_largest_dimension_inside_the_cap_builds(self, build, n, most, matrices):
        assert matrices * most ** 2 <= MAX_LATTICE_ENTRIES < matrices * (most + 1) ** 2
        build(self.projectors(n, most))

    @pytest.mark.parametrize("build, n, most, matrices", EDGES, ids=IDS)
    def test_one_dimension_more_is_rejected(self, build, n, most, matrices):
        entries = matrices * (most + 1) ** 2
        with pytest.raises(OrderingExplosion, match=f": {entries} matrix entries exceed the cap"):
            build(self.projectors(n, most + 1))


class TestWeyl:
    def test_pair_equals_symmetrized_product(self):
        out = weyl_pseudo_projection([PI_Z, PI_X])
        expected = symmetrized_product(PI_Z, PI_X)
        assert np.array_equal(out.op.matrix, expected.matrix)

    def test_complementary_pair_vanishes(self):
        out = weyl_pseudo_projection([PI_Z, PI_Z_MINUS])
        assert np.abs(out.op.matrix).max() <= 1e-12

    def test_complementary_pair_any_rank(self):
        rng = np.random.default_rng(23)
        for dim, rank in ((2, 1), (3, 1), (4, 2)):
            p = HermitianOperator(oracles.haar_projector(rng, dim, rank))
            q = HermitianOperator(np.eye(dim) - p.matrix)
            out = weyl_pseudo_projection([p, q])
            assert np.abs(out.op.matrix).max() <= 1e-12

    def test_triple_is_mean_of_units(self):
        projs = coplanar_projectors()
        units = unit_pseudo_projections(projs)
        mean = sum(u.op.matrix for u in units) / 3.0
        out = weyl_pseudo_projection(projs)
        assert np.abs(out.op.matrix - mean).max() <= 1e-14

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        projs = [
            projector_from_direction(oracles.rand_direction(rng), 1) for _ in range(3)
        ]
        base = weyl_pseudo_projection(projs).op.matrix
        for order in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            permuted = weyl_pseudo_projection([projs[i] for i in order]).op.matrix
            assert np.abs(permuted - base).max() <= 1e-14

    def test_matches_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            projs = [
                projector_from_direction(oracles.rand_direction(rng), 1)
                for _ in range(3)
            ]
            out = weyl_pseudo_projection(projs)
            expected = oracles.weyl_oracle([p.matrix for p in projs])
            assert np.abs(out.op.matrix - expected).max() <= 1e-14

    def test_trace_identity_pair(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            pa = projector_from_direction(oracles.rand_direction(rng), 1)
            pb = projector_from_direction(oracles.rand_direction(rng), -1)
            pp = weyl_pseudo_projection([pa, pb])
            prod_trace = complex(np.trace(pa.matrix @ pb.matrix))
            assert abs(prod_trace.imag) <= 1e-12
            assert abs(pp.op.trace - prod_trace.real) <= 1e-12


class TestCombine:
    def test_degenerate_weights_pick_unit(self):
        units = unit_pseudo_projections(coplanar_projectors())
        out = combine(units, (1.0, 0.0, 0.0))
        assert np.array_equal(out.op.matrix, units[0].op.matrix)

    def test_equal_weights_give_weyl(self):
        units = unit_pseudo_projections(coplanar_projectors())
        out = combine(units, (1 / 3, 1 / 3, 1 / 3))
        expected = weyl_pseudo_projection(coplanar_projectors())
        assert np.abs(out.op.matrix - expected.op.matrix).max() <= 1e-12

    def test_half_half_is_entrywise_mean(self):
        units = unit_pseudo_projections(coplanar_projectors())
        out = combine(units, (0.5, 0.5, 0.0))
        mean = 0.5 * (units[0].op.matrix + units[1].op.matrix)
        assert np.abs(out.op.matrix - mean).max() <= 1e-15

    @pytest.mark.parametrize(
        "weights",
        [
            (0.5, 0.5), (0.5, 0.5, 0.5), (-0.1, 0.6, 0.5), (0.2, 0.2, 0.2),
            # convex once converted, but not real numbers, as Recipe.convex says
            ("0.5", "0.5", "0"), (True, False, False),
            # ints past float range, which float() cannot take
            (10**400, 0, 0), (-10**400, 1, 0),
        ],
    )
    def test_rejects_bad_weights(self, weights):
        units = unit_pseudo_projections(coplanar_projectors())
        with pytest.raises(InvalidConvexWeights):
            combine(units, weights)


class TestRecipeValidation:
    @pytest.mark.parametrize(
        "weights",
        [
            (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan),
            (math.inf, 0.0), (-math.inf, 1.0), (math.inf, -math.inf),
            (10**400, 1), (-10**400, 1),
        ],
    )
    def test_weights_that_are_not_finite_are_rejected(self, weights):
        with pytest.raises(InvalidConvexWeights):
            Recipe.convex(weights)

    @pytest.mark.parametrize("index", [2.7, -0.5, math.nan, math.inf, np.float64(np.inf)])
    def test_unit_index_that_is_not_an_integer_is_rejected(self, index):
        with pytest.raises(InvalidRecipe, match="must be an integer"):
            Recipe.unit(index)

    @pytest.mark.parametrize("index", ["3", True, False, None, [2]], ids=repr)
    def test_unit_index_that_is_not_a_number_is_rejected(self, index):
        with pytest.raises(InvalidRecipe, match="must be an integer"):
            Recipe.unit(index)

    @pytest.mark.parametrize(
        "weights", [["0.5", "0.5"], [True, False], [0.5, None], [1.0, "0"]], ids=repr
    )
    def test_weights_that_are_not_numbers_are_rejected(self, weights):
        with pytest.raises(InvalidConvexWeights, match="must be real numbers"):
            Recipe.convex(weights)

    @pytest.mark.parametrize(
        "weights",
        [np.array([0.25, 0.75]), np.array([1, 0]), [np.float32(0.5), np.float64(0.5)]],
        ids=repr,
    )
    def test_numpy_weights_are_accepted(self, weights):
        assert Recipe.convex(weights).weights == tuple(float(w) for w in weights)

    @pytest.mark.parametrize("index", [2, 2.0, np.int64(2), np.float64(2.0)])
    def test_integral_unit_index_is_accepted(self, index):
        recipe = Recipe.unit(index)
        assert recipe == Recipe.unit(2)
        assert type(recipe.index) is int

    def test_negative_unit_index_is_rejected(self):
        with pytest.raises(InvalidRecipe, match="must be non-negative"):
            Recipe.unit(-1)

    def test_combine_with_no_units_is_rejected(self):
        with pytest.raises(InvalidConvexWeights):
            combine([], ())


class TestCombineReplay:
    """combine's recipe, replayed through build_scheme, gives its operator."""

    @pytest.mark.parametrize(
        "dirs, n_units, pick, weights",
        [
            # z x z: the 3 classes collapse to 2 units
            (((0, 0, 1), (1, 0, 0), (0, 0, 1)), 2, (0, 1), (0.5, 0.5)),
            # 2 of the 12 units of a generic set of 4
            (((0, 0, 1), (1, 0, 0), (0, 1, 1), (1, 1, 1)), 12, (2, 9), (0.25, 0.75)),
        ],
    )
    def test_recipe_replays_through_build_scheme(self, dirs, n_units, pick, weights):
        obs = [observable_from_direction(m) for m in dirs]
        units = unit_pseudo_projections([o.projector(1) for o in obs])
        assert len(units) == n_units
        combined = combine([units[k] for k in pick], weights)
        rho = density_from_bloch((0.3, -0.2, 0.5))
        scheme = build_scheme(rho, obs, combined.recipe)
        expected = trace_with(combined.op, rho.op)
        assert abs(scheme.entry((1,) * len(dirs)) - expected) <= 1e-12

    def test_rejects_units_without_class_tag(self):
        with pytest.raises(InvalidRecipe):
            combine([weyl_pseudo_projection(coplanar_projectors())], (1.0,))

    @pytest.mark.parametrize(
        "others",
        [[PI_Z, PI_Y], [PI_X, PI_Z], [PI_Z, PI_X, PI_Y]],
        ids=["other-pair", "same-pair-reordered", "one-more"],
    )
    def test_rejects_units_of_other_generators(self, others):
        ua = unit_pseudo_projections([PI_Z, PI_X])
        ub = unit_pseudo_projections(others)
        with pytest.raises(InvalidRecipe, match="same generators"):
            combine([ua[0], ub[0]], (0.5, 0.5))

    def test_units_of_equal_generators_from_separate_calls_combine(self):
        ua = unit_pseudo_projections([PI_Z, PI_X])
        ub = unit_pseudo_projections(
            [projector_from_direction((0, 0, 1), 1), projector_from_direction((1, 0, 0), 1)]
        )
        out = combine([ua[0], ub[0]], (0.5, 0.5))
        assert np.array_equal(out.op.matrix, ua[0].op.matrix)
        assert out.recipe == Recipe.convex((1.0,))


class TestDisjunction:
    def test_event_or_its_negation_is_identity(self):
        out = disjunction_operator(PI_Z, PI_Z_MINUS)
        assert np.abs(out.matrix - np.eye(2)).max() <= 1e-15

    def test_self_or_self_is_itself(self):
        out = disjunction_operator(PI_Z, PI_Z)
        assert np.abs(out.matrix - PI_Z.matrix).max() <= 1e-15

    def test_z_or_x(self):
        out = disjunction_operator(PI_Z, PI_X)
        expected = np.array([[1.0, 0.25], [0.25, 0.5]], dtype=complex)
        assert np.abs(out.matrix - expected).max() <= 1e-15

    def test_rejects_non_projector(self):
        with pytest.raises(NotAProjector):
            disjunction_operator(PI_Z, HermitianOperator(0.5 * np.eye(2)))

    def test_rejects_mixed_dimension(self):
        with pytest.raises(DimensionMismatch, match=": 2 vs 3$"):
            disjunction_operator(PI_Z, PI_QUTRIT)


class TestNegation:
    def test_vanishing_input_gives_identity(self):
        zero = weyl_pseudo_projection([PI_Z, PI_Z_MINUS])
        out = negation_operator(zero)
        assert np.abs(out.matrix - np.eye(2)).max() <= 1e-12

    def test_commuting_case_gives_complement(self):
        out = negation_operator(PI_Z)
        assert np.abs(out.matrix - PI_Z_MINUS.matrix).max() <= 1e-15

    def test_noncommuting_case(self):
        pp = symmetrized_product(PI_Z, PI_X)
        out = negation_operator(pp)
        expected = np.eye(2) - 0.25 * np.array([[2, 1], [1, 0]])
        assert np.abs(out.matrix - expected).max() <= 1e-15

    def test_product_residual_diagnostic(self):
        # NOT fails to annihilate its argument unless the input is a true
        # projection; the residual makes that deviation visible
        assert negation_product_residual(PI_Z) <= 1e-15
        pp = symmetrized_product(PI_Z, PI_X)
        assert negation_product_residual(pp) > 1e-3


class TestSpectralAudit:
    def test_noncommuting_pair(self):
        pp = unit_pseudo_projections([PI_Z, PI_X])[0]
        audit = spectral_audit(pp)
        assert audit.min_eig == pytest.approx((1 - math.sqrt(2)) / 4, abs=1e-12)
        assert not audit.is_true_projection
        assert audit.commutator_norm > 0.1

    def test_commuting_pair(self):
        pp = unit_pseudo_projections([PI_Z, PI_Z])[0]
        audit = spectral_audit(pp)
        assert audit.min_eig >= -1e-12
        assert audit.is_true_projection
        assert audit.commutator_norm <= 1e-15

    def test_coplanar_weyl_negative(self):
        audit = spectral_audit(weyl_pseudo_projection(coplanar_projectors()))
        assert audit.min_eig < 0

    @staticmethod
    def haar_generators():
        rng = np.random.default_rng(61)
        return [HermitianOperator(oracles.haar_projector(rng, 3, 1 + k % 2)) for k in range(5)]

    @pytest.mark.parametrize("gens", ["coplanar", "haar"])
    def test_commutator_norm_is_the_largest_pairwise_one(self, gens):
        gens = coplanar_projectors() if gens == "coplanar" else self.haar_generators()
        pairwise = [
            commutator_norm(gens[i], gens[j])
            for i in range(len(gens)) for j in range(i + 1, len(gens))
        ]
        assert len(pairwise) == len(gens) * (len(gens) - 1) // 2
        audit = spectral_audit(weyl_pseudo_projection(gens))
        assert audit.commutator_norm == max(pairwise) > 0.1

    def test_single_generator_has_no_commutator(self):
        pp = PseudoProjection(op=PI_Z, generators=(PI_Z,), recipe=Recipe.weyl())
        assert spectral_audit(pp).commutator_norm == 0.0

    def test_generators_of_mixed_dimension_are_rejected(self):
        qutrit = HermitianOperator(np.diag([1.0, 0.0, 0.0]))
        pp = PseudoProjection(op=PI_Z, generators=(PI_Z, PI_X, qutrit), recipe=Recipe.weyl())
        with pytest.raises(DimensionMismatch):
            spectral_audit(pp)


class TestSpectrumClosedForm:
    def test_qubit_pair_spectrum(self):
        # spectrum of the hermitized rank-1 pair product is exactly
        # {c(c-1)/2, c(c+1)/2} with c = cos(theta/2)
        rng = np.random.default_rng(53)
        for _ in range(100):
            m1, m2 = oracles.rand_direction(rng), oracles.rand_direction(rng)
            cos_t = float(np.clip(np.dot(m1, m2), -1, 1))
            if abs(cos_t) > 1 - 1e-9:
                continue
            c = math.cos(0.5 * math.acos(cos_t))
            pp = symmetrized_product(
                projector_from_direction(m1, 1), projector_from_direction(m2, 1)
            )
            vals = eigenvalues_hermitian(pp)
            expected = sorted([c * (c - 1) / 2, c * (c + 1) / 2])
            assert np.abs(vals - np.array(expected)).max() <= 1e-10


class TestNegativeEigenvalueTheorem:
    def test_noncommuting_pairs_have_negative_eigenvalue(self):
        rng = np.random.default_rng(61)
        for dim in (2, 3, 4, 6):
            for _ in range(30):
                r1 = int(rng.integers(1, dim))
                r2 = int(rng.integers(1, dim))
                p1 = HermitianOperator(oracles.haar_projector(rng, dim, r1))
                p2 = HermitianOperator(oracles.haar_projector(rng, dim, r2))
                comm = np.abs(p1.matrix @ p2.matrix - p2.matrix @ p1.matrix).max()
                if comm <= 1e-6:
                    continue
                pp = symmetrized_product(p1, p2)
                assert eigenvalues_hermitian(pp)[0] < -1e-14

    def test_commuting_pairs_stay_non_negative(self):
        rng = np.random.default_rng(67)
        for dim in (2, 3, 4, 6):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, _ = np.linalg.qr(z)
            for _ in range(20):
                mask1 = rng.integers(0, 2, size=dim)
                mask2 = rng.integers(0, 2, size=dim)
                p1 = HermitianOperator((q * mask1) @ q.conj().T)
                p2 = HermitianOperator((q * mask2) @ q.conj().T)
                pp = symmetrized_product(p1, p2)
                assert eigenvalues_hermitian(pp)[0] >= -1e-12
