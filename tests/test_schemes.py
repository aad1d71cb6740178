import math

import numpy as np
import pytest

from pseudoprob import (
    DensityMatrix,
    DimensionMismatch,
    HermitianOperator,
    InvalidRecipe,
    InvalidState,
    Observable,
    PairGeometry,
    PartitionSearchTooLarge,
    Recipe,
    Scheme,
    TripleGeometry,
    build_scheme,
    classify,
    coplanar_triple_directions,
    density_from_bloch,
    marginal,
    minimal_coarse_graining,
    negativity,
    observable_from_direction,
    pair_scheme_closed,
    trace_with,
    triple_scheme_weyl_closed,
)

import oracles

S2 = math.sqrt(2.0)


def mixed_state():
    return DensityMatrix.maximally_mixed(2)


def coplanar_observables():
    return [observable_from_direction(m) for m in coplanar_triple_directions()]


def aligned_pure_pair_scheme():
    # orthogonal directions, pure state along m1 + m2: entries
    # ((1+s2)/4, 1/4, 1/4, (1-s2)/4), exactly one negative
    return pair_scheme_closed(PairGeometry.aligned(1.0, 0.5 * math.pi))


class TestBuildScheme:
    def test_single_observable_is_born(self):
        scheme = build_scheme(mixed_state(), [observable_from_direction((0, 0, 1))])
        assert scheme.outcome_tuples == ((1,), (-1,))
        assert np.allclose(scheme.values, [0.5, 0.5], atol=1e-15)

    def test_rejects_observable_of_another_dimension(self):
        qutrit = Observable(op=HermitianOperator(np.diag([1.0, 0.0, -1.0])), resolution=tuple(
            (a, HermitianOperator(np.diag(np.eye(3)[i]))) for i, a in enumerate((1, 0, -1))
        ))
        with pytest.raises(DimensionMismatch, match=": observable dim 3 vs state dim 2$"):
            build_scheme(mixed_state(), [observable_from_direction((0, 0, 1)), qutrit])

    def test_orthogonal_pair_on_mixed_state(self):
        obs = [observable_from_direction((0, 0, 1)), observable_from_direction((1, 0, 0))]
        scheme = build_scheme(mixed_state(), obs)
        assert np.allclose(scheme.values, 0.25, atol=1e-15)

    def test_coplanar_weyl_entries(self):
        scheme = build_scheme(mixed_state(), coplanar_observables())
        values = scheme.as_dict()
        assert values[(1, 1, 1)] == pytest.approx(-1 / 16, abs=1e-12)
        assert values[(-1, -1, -1)] == pytest.approx(-1 / 16, abs=1e-12)
        others = [v for k, v in values.items() if k not in ((1, 1, 1), (-1, -1, -1))]
        assert np.allclose(others, 3 / 16, atol=1e-12)

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            p = oracles.rand_bloch(rng)
            ms = [oracles.rand_direction(rng) for _ in range(3)]
            scheme = build_scheme(
                density_from_bloch(p), [observable_from_direction(m) for m in ms]
            )
            assert np.abs(scheme.values - oracles.scheme_oracle(p, ms)).max() <= 1e-13

    def test_unit_recipe_differs_from_weyl_for_polarized_state(self):
        # for the maximally mixed state all orderings share one trace, so a
        # polarized state is needed to expose recipe dependence
        rho = density_from_bloch((0.6, 0.0, 0.4))
        weyl = build_scheme(rho, coplanar_observables(), Recipe.weyl())
        unit0 = build_scheme(rho, coplanar_observables(), Recipe.unit(0))
        assert np.abs(weyl.values - unit0.values).max() > 1e-3

    def test_unit_recipe_out_of_range(self):
        with pytest.raises(InvalidRecipe):
            build_scheme(mixed_state(), coplanar_observables(), Recipe.unit(3))

    def test_weights_recipe_equals_weyl_at_equal_weights(self):
        rho = density_from_bloch((0.3, 0.2, 0.5))
        weyl = build_scheme(rho, coplanar_observables(), Recipe.weyl())
        equal = build_scheme(
            rho, coplanar_observables(), Recipe.convex((1 / 3, 1 / 3, 1 / 3))
        )
        assert np.abs(weyl.values - equal.values).max() <= 1e-12

    def test_normalization_across_recipes_and_states(self):
        rng = np.random.default_rng(73)
        recipes = [Recipe.weyl(), Recipe.unit(0), Recipe.unit(2), Recipe.convex((0.2, 0.3, 0.5))]
        for _ in range(10):
            rho = density_from_bloch(oracles.rand_bloch(rng))
            obs = [
                observable_from_direction(oracles.rand_direction(rng)) for _ in range(3)
            ]
            for recipe in recipes:
                scheme = build_scheme(rho, obs, recipe)
                assert abs(scheme.values.sum() - 1.0) <= 1e-10

    def test_rejects_no_observables(self):
        with pytest.raises(ValueError, match="^need at least one observable$"):
            build_scheme(mixed_state(), [])

    def test_rejects_unknown_recipe_kind(self):
        with pytest.raises(InvalidRecipe, match=": unknown recipe kind 'bogus'$"):
            build_scheme(mixed_state(), coplanar_observables()[:2], Recipe(kind="bogus"))

    def test_constructor_rejects_wrong_entry_count(self):
        obs = coplanar_observables()[:1]
        with pytest.raises(ValueError, match="^expected 2 entries, got 3$"):
            Scheme(obs, Recipe.weyl(), mixed_state(), [0.2, 0.3, 0.5])

    def test_constructor_rejects_bad_sum(self):
        obs = (observable_from_direction((0, 0, 1)),)
        with pytest.raises(InvalidState):
            Scheme(obs, Recipe.weyl(), mixed_state(), [0.7, 0.7])

    def test_constructor_rejects_out_of_band_entry(self):
        obs = (observable_from_direction((0, 0, 1)),)
        with pytest.raises(InvalidState):
            Scheme(obs, Recipe.weyl(), mixed_state(), [2.5, -1.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructor_rejects_non_finite_entries(self, bad):
        obs = (observable_from_direction((0, 0, 1)),)
        for values in ([bad, 0.5], [bad, 1.0 - bad]):
            with pytest.raises(InvalidState):
                Scheme(obs, Recipe.weyl(), mixed_state(), values)
        obs = coplanar_observables()[:2]
        with pytest.raises(InvalidState):
            Scheme(obs, Recipe.weyl(), mixed_state(), [bad, 0.5, 0.25, 0.25])

    def test_single_observable_scheme_is_its_projectors(self):
        # the one scheme path: Weyl of one projector returns it bit for bit
        rng = np.random.default_rng(97)
        for _ in range(50):
            rho = density_from_bloch(oracles.rand_bloch(rng))
            obs = observable_from_direction(oracles.rand_direction(rng))
            expected = (obs.projectors.reshape(2, 4) @ rho.matrix.T.reshape(-1)).real
            for recipe in (Recipe.weyl(), Recipe.unit(3), Recipe.convex((0.5, 0.5))):
                assert np.array_equal(build_scheme(rho, [obs], recipe).values, expected)
            born = [trace_with(p, rho.op) for _, p in obs.resolution]
            assert np.allclose(expected, born, atol=1e-15)

    def test_qutrit_observables_supported(self):
        # beyond qubits, resolutions are supplied by the caller
        from pseudoprob import HermitianOperator, Observable, trace_with

        rng = np.random.default_rng(113)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(z)

        def basis_observable(vectors, outcomes):
            projs = [
                HermitianOperator(np.outer(v, v.conj())) for v in vectors[:2]
            ] + [HermitianOperator(np.outer(vectors[2], vectors[2].conj()))]
            op = HermitianOperator(
                sum(a * p.matrix for a, p in zip(outcomes, projs))
            )
            return Observable(op=op, resolution=tuple(zip(outcomes, projs)))

        obs_a = basis_observable(np.eye(3, dtype=complex), (1.0, 0.0, -1.0))
        obs_b = basis_observable(q.T, (2.0, 0.5, -0.5))
        rho = DensityMatrix.maximally_mixed(3)
        scheme = build_scheme(rho, [obs_a, obs_b])
        assert len(scheme.values) == 9
        assert abs(scheme.values.sum() - 1.0) <= 1e-10
        marg = marginal(scheme, [1])
        for a in obs_b.outcomes:
            born = trace_with(obs_b.projector(a), rho.op)
            assert marg.entry((a,)) == pytest.approx(born, abs=1e-12)


def relabelled(obs, labels):
    """`obs` with its outcomes renamed `labels`, which compare equal to them."""
    projs = [p for _, p in obs.resolution]
    return Observable(op=obs.op, resolution=tuple(zip(labels, projs)), axis=obs.axis)


class TestOutcomeTuples:
    # outcome tuples are built from each scheme's own labels; labels that
    # compare equal but differ in type keep their type

    @pytest.mark.parametrize("labels", [(1.0, -1.0), (np.int64(1), np.int64(-1))])
    def test_labels_keep_their_type_after_int_labels(self, labels):
        obs = [observable_from_direction((0, 0, 1)), observable_from_direction((1, 0, 1))]
        rho = density_from_bloch((0.3, -0.2, 0.5))
        ints = build_scheme(rho, obs)
        assert [type(a) for t in ints.outcome_tuples for a in t] == [int] * 8
        other = build_scheme(rho, [relabelled(o, labels) for o in obs])
        assert other.outcome_tuples == ints.outcome_tuples
        assert [type(a) for t in other.outcome_tuples for a in t] == [type(labels[0])] * 8
        assert list(other.as_dict()) == list(other.outcome_tuples)
        again = build_scheme(rho, obs)
        assert [type(a) for t in again.outcome_tuples for a in t] == [int] * 8

    def test_entry_and_as_dict_on_cached_tables(self):
        obs = coplanar_observables()
        rho = density_from_bloch((0.1, 0.2, -0.3))
        first = build_scheme(rho, obs)
        for recipe in (Recipe.weyl(), Recipe.unit(1)):
            scheme = build_scheme(rho, obs, recipe)
            assert scheme.outcome_tuples == first.outcome_tuples
            table = scheme.as_dict()
            assert list(table) == list(scheme.outcome_tuples)
            for i, t in enumerate(scheme.outcome_tuples):
                assert scheme.entry(t) == table[t] == scheme.values[i]
                assert scheme.entry(list(t)) == scheme.values[i]
            with pytest.raises(KeyError):
                scheme.entry((1, 1, 0))
        # a marginal's table is the one of its own observables
        marg = marginal(first, [0, 2])
        assert marg.outcome_tuples == ((1, 1), (1, -1), (-1, 1), (-1, -1))
        assert marg.entry((-1, 1)) == marg.as_dict()[(-1, 1)]


class TestMarginal:
    def test_single_marginal_is_born(self):
        rng = np.random.default_rng(79)
        recipes = [Recipe.weyl(), Recipe.unit(1)]
        for _ in range(10):
            p = oracles.rand_bloch(rng)
            rho = density_from_bloch(p)
            obs = [
                observable_from_direction(oracles.rand_direction(rng)) for _ in range(3)
            ]
            for recipe in recipes:
                scheme = build_scheme(rho, obs, recipe)
                for k in range(3):
                    marg = marginal(scheme, [k])
                    for a in (1, -1):
                        born = trace_with(obs[k].projector(a), rho.op)
                        assert marg.entry((a,)) == pytest.approx(born, abs=1e-12)

    def test_pair_closed_form_marginal(self):
        rng = np.random.default_rng(83)
        p = oracles.rand_bloch(rng)
        m1, m2 = oracles.rand_direction(rng), oracles.rand_direction(rng)
        scheme = pair_scheme_closed(PairGeometry(p=p, m1=m1, m2=m2))
        marg = marginal(scheme, [0])
        for a in (1, -1):
            assert marg.entry((a,)) == pytest.approx(
                0.5 * (1 + a * float(np.dot(p, scheme.observables[0].axis))), abs=1e-12
            )

    def test_coplanar_pair_marginal_pattern(self):
        scheme = build_scheme(mixed_state(), coplanar_observables())
        marg = marginal(scheme, [0, 1])
        expected = {(1, 1): 1 / 8, (1, -1): 3 / 8, (-1, 1): 3 / 8, (-1, -1): 1 / 8}
        for k, v in expected.items():
            assert marg.entry(k) == pytest.approx(v, abs=1e-12)
        assert min(marg.values) >= 0

    def test_keep_all_is_identity(self):
        scheme = build_scheme(mixed_state(), coplanar_observables())
        marg = marginal(scheme, [0, 1, 2])
        assert np.array_equal(marg.values, scheme.values)

    def test_invalid_keep(self):
        scheme = build_scheme(mixed_state(), [observable_from_direction((0, 0, 1))])
        with pytest.raises(ValueError):
            marginal(scheme, [])
        with pytest.raises(ValueError):
            marginal(scheme, [1])

    @pytest.mark.parametrize("keep", [[0.7], [True], "01"], ids=repr)
    def test_rejects_keep_indices_that_are_not_integers(self, keep):
        scheme = build_scheme(mixed_state(), coplanar_observables())
        with pytest.raises(ValueError, match="keep indices must be integers"):
            marginal(scheme, keep)

    def test_numpy_and_integral_float_indices_are_accepted(self):
        scheme = build_scheme(mixed_state(), coplanar_observables())
        marg = marginal(scheme, [np.int64(2), 0.0])
        assert np.array_equal(marg.values, marginal(scheme, [0, 2]).values)


class TestNegativity:
    def test_non_negative_scheme_has_zero(self):
        obs = [observable_from_direction((0, 0, 1)), observable_from_direction((1, 0, 0))]
        assert negativity(build_scheme(mixed_state(), obs)) == 0.0

    def test_coplanar_mixed_value(self):
        # two entries of -1/16: negativity = sum of |negative entries| = 1/8
        scheme = build_scheme(mixed_state(), coplanar_observables())
        assert negativity(scheme) == pytest.approx(0.125, abs=1e-12)

    def test_aligned_pure_pair_value(self):
        scheme = aligned_pure_pair_scheme()
        assert negativity(scheme) == pytest.approx((S2 - 1) / 4, abs=1e-12)


class TestClassify:
    def test_mixed_orthogonal_pair_is_classical(self):
        obs = [observable_from_direction((0, 0, 1)), observable_from_direction((1, 0, 0))]
        verdict = classify(build_scheme(mixed_state(), obs))
        assert verdict.classical and verdict.negative_entries == ()

    def test_aligned_pure_pair_single_negative(self):
        verdict = classify(aligned_pure_pair_scheme())
        assert not verdict.classical
        assert len(verdict.negative_entries) == 1
        tup, value = verdict.negative_entries[0]
        assert tup == (-1, -1)
        assert value == pytest.approx((1 - S2) / 4, abs=1e-12)

    def test_coplanar_two_negatives_sorted(self):
        verdict = classify(build_scheme(mixed_state(), coplanar_observables()))
        assert not verdict.classical
        assert len(verdict.negative_entries) == 2
        values = [v for _, v in verdict.negative_entries]
        assert values == sorted(values)

    def test_single_observable_always_classical(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            rho = density_from_bloch(oracles.rand_bloch(rng))
            obs = [observable_from_direction(oracles.rand_direction(rng))]
            assert classify(build_scheme(rho, obs)).classical

    def test_pair_schemes_have_at_most_one_negative(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            g = PairGeometry(
                p=oracles.rand_bloch(rng),
                m1=oracles.rand_direction(rng),
                m2=oracles.rand_direction(rng),
            )
            verdict = classify(pair_scheme_closed(g))
            assert len(verdict.negative_entries) <= 1

    def test_negativity_zero_iff_classical(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            g = TripleGeometry(
                p=oracles.rand_bloch(rng),
                m1=oracles.rand_direction(rng),
                m2=oracles.rand_direction(rng),
                m3=oracles.rand_direction(rng),
            )
            scheme = triple_scheme_weyl_closed(g)
            assert (negativity(scheme) == 0.0) == classify(scheme).classical

    def test_direction_flip_relabels_outcomes(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            p = oracles.rand_bloch(rng)
            m1, m2 = oracles.rand_direction(rng), oracles.rand_direction(rng)
            rho = density_from_bloch(p)
            base = build_scheme(
                rho, [observable_from_direction(m1), observable_from_direction(m2)]
            )
            flipped = build_scheme(
                rho, [observable_from_direction(m1), observable_from_direction(-m2)]
            )
            for (a1, a2), value in base.as_dict().items():
                assert abs(flipped.entry((a1, -a2)) - value) <= 1e-12


BAD_EPS = [math.nan, math.inf, -math.inf, -1e-10, True, "0.1",
           pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400")]


class TestEps:
    @pytest.mark.parametrize("eps", BAD_EPS)
    def test_rejects_eps_that_is_not_finite_and_non_negative(self, eps):
        scheme = build_scheme(mixed_state(), coplanar_observables())
        for check in (classify, minimal_coarse_graining):
            with pytest.raises(ValueError, match="eps must be a finite number"):
                check(scheme, eps)

    def test_zero_eps_is_valid(self):
        scheme = build_scheme(mixed_state(), coplanar_observables())
        assert not classify(scheme, 0.0).classical
        assert minimal_coarse_graining(scheme, 0).block_count == 6


class TestCoarseGraining:
    def test_classical_scheme_keeps_singletons(self):
        obs = [observable_from_direction((0, 0, 1)), observable_from_direction((1, 0, 0))]
        out = minimal_coarse_graining(build_scheme(mixed_state(), obs))
        assert out.block_count == 4
        assert out.num_maximizers == 1
        assert all(len(block) == 1 for block in out.partition)

    def test_one_negative_entry_merges_with_smallest_compensator(self):
        out = minimal_coarse_graining(aligned_pure_pair_scheme())
        assert out.block_count == 3
        assert out.num_maximizers == 3
        # canonical lexicographic winner merges the negative (-1,-1) entry
        # with the (-1,+1) entry of value 1/4
        assert out.partition == (((1, 1),), ((1, -1),), ((-1, 1), (-1, -1)))

    def test_coplanar_mixed_six_blocks(self):
        scheme = build_scheme(mixed_state(), coplanar_observables())
        out = minimal_coarse_graining(scheme)
        assert out.block_count == 6
        assert out.num_maximizers == 36
        assert out.partition[0] == ((1, 1, 1), (1, 1, -1))

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(107)
        for _ in range(15):
            g = TripleGeometry(
                p=oracles.rand_bloch(rng),
                m1=oracles.rand_direction(rng),
                m2=oracles.rand_direction(rng),
                m3=oracles.rand_direction(rng),
            )
            scheme = triple_scheme_weyl_closed(g)
            out = minimal_coarse_graining(scheme)
            best, winners = oracles.best_partitions([float(v) for v in scheme.values])
            assert out.block_count == best
            assert out.num_maximizers == len(winners)
            index = {t: i for i, t in enumerate(scheme.outcome_tuples)}
            mine = oracles.canonical_partition(
                [[index[t] for t in block] for block in out.partition]
            )
            assert mine == winners[0]

    def test_rejects_large_event_space(self):
        rng = np.random.default_rng(109)
        obs = [
            observable_from_direction(oracles.rand_direction(rng)) for _ in range(5)
        ]
        scheme = build_scheme(mixed_state(), obs)
        with pytest.raises(PartitionSearchTooLarge):
            minimal_coarse_graining(scheme)
