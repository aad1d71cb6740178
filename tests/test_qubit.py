import math

import numpy as np
import pytest

from pseudoprob import (
    PairGeometry,
    TripleGeometry,
    UnphysicalBloch,
    build_scheme,
    coplanar_triple_directions,
    critical_radius_bisection,
    density_from_bloch,
    negativity,
    negativity_max,
    negativity_special,
    observable_from_direction,
    pair_classical_radius,
    pair_entries,
    pair_scheme_closed,
    triple_classical_radius,
    triple_entries,
    triple_scheme_weyl_closed,
    unit_pseudo_projections,
    projector_from_direction,
    worst_case_min_entry,
)
from pseudoprob.qubit import ORTHOGONAL_PAIR, ORTHOGONAL_TRIPLE

import oracles

S2 = math.sqrt(2.0)
S3 = math.sqrt(3.0)


class TestPairEntries:
    def test_pure_up_with_z_x(self):
        values = pair_entries((0, 0, 1), (0, 0, 1), (1, 0, 0))
        assert np.allclose(values, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_mixed_orthogonal_collapses_to_quarter(self):
        values = pair_entries((0, 0, 0), (0, 0, 1), (1, 0, 0))
        assert np.allclose(values, 0.25, atol=1e-15)

    def test_aligned_pure_minimum(self):
        g = PairGeometry.aligned(1.0, 0.5 * math.pi)
        values = pair_entries(g.p, g.m1, g.m2)
        assert values.min() == pytest.approx(0.25 * (1 - S2), abs=1e-12)

    def test_matches_matrix_pipeline(self):
        rng = np.random.default_rng(211)
        for _ in range(300):
            p = oracles.rand_bloch(rng)
            m1, m2 = oracles.rand_direction(rng), oracles.rand_direction(rng)
            closed = pair_entries(p, m1, m2)
            scheme = build_scheme(
                density_from_bloch(p),
                [observable_from_direction(m1), observable_from_direction(m2)],
            )
            assert np.abs(closed - scheme.values).max() <= 1e-12

    def test_broadcasts(self):
        rng = np.random.default_rng(213)
        p = oracles.rand_bloch(rng, 50)
        m1 = oracles.rand_direction(rng, 50)
        m2 = oracles.rand_direction(rng, 50)
        batch = pair_entries(p, m1, m2)
        assert batch.shape == (50, 4)
        for i in (0, 17, 49):
            assert np.allclose(batch[i], pair_entries(p[i], m1[i], m2[i]))


class TestTripleEntries:
    def test_coplanar_mixed(self):
        m1, m2, m3 = coplanar_triple_directions()
        values = triple_entries((0, 0, 0), m1, m2, m3)
        assert values[0] == pytest.approx(-1 / 16, abs=1e-12)
        assert values[-1] == pytest.approx(-1 / 16, abs=1e-12)
        assert np.allclose(values[1:-1], 3 / 16, atol=1e-12)

    def test_orthogonal_mixed_is_uniform(self):
        values = triple_entries((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert np.allclose(values, 0.125, atol=1e-15)

    def test_threshold_crossing_along_diagonal(self):
        delta = 1e-6
        over = TripleGeometry.orthogonal_diagonal(1 / S3 + delta)
        under = TripleGeometry.orthogonal_diagonal(1 / S3 - delta)
        assert triple_entries(over.p, *over.directions).min() < 0
        assert triple_entries(under.p, *under.directions).min() >= 0

    def test_matches_matrix_pipeline(self):
        rng = np.random.default_rng(223)
        for _ in range(200):
            p = oracles.rand_bloch(rng)
            ms = [oracles.rand_direction(rng) for _ in range(3)]
            closed = triple_entries(p, *ms)
            scheme = build_scheme(
                density_from_bloch(p), [observable_from_direction(m) for m in ms]
            )
            assert np.abs(closed - scheme.values).max() <= 1e-12

    def test_marginal_reproduces_pair_form(self):
        rng = np.random.default_rng(227)
        for _ in range(100):
            p = oracles.rand_bloch(rng)
            ms = [oracles.rand_direction(rng) for _ in range(3)]
            full = triple_entries(p, *ms).reshape(2, 2, 2)
            # summing out the third observable leaves the first-two pair form
            pair12 = full.sum(axis=2).reshape(-1)
            assert np.abs(pair12 - pair_entries(p, ms[0], ms[1])).max() <= 1e-12
            pair13 = full.sum(axis=1).reshape(-1)
            assert np.abs(pair13 - pair_entries(p, ms[0], ms[2])).max() <= 1e-12


class TestTripleUnits:
    """The unit pseudo-projections of a coplanar qubit triple's (1, 1, 1)
    projectors, through the generic enumeration."""

    @staticmethod
    def units(g):
        return unit_pseudo_projections([projector_from_direction(m, 1) for m in g.directions])

    def test_cyclic_relabelling_permutes_units(self):
        g = TripleGeometry.coplanar120()
        base = [u.op.matrix for u in self.units(g)]
        rolled = TripleGeometry(p=g.p, m1=g.m2, m2=g.m3, m3=g.m1)
        permuted = self.units(rolled)
        assert len(permuted) == 3
        for u in permuted:
            assert any(np.abs(u.op.matrix - b).max() <= 1e-12 for b in base)

    def test_units_are_the_explicit_forms(self):
        g = TripleGeometry.coplanar120()
        p1, p2, p3 = (projector_from_direction(m, 1).matrix for m in g.directions)
        # classes in lexicographic order: (0,1,2), (0,2,1), (1,0,2)
        explicit = [
            (p1 @ p2 @ p3 + p3 @ p2 @ p1) / 2,
            (p1 @ p3 @ p2 + p2 @ p3 @ p1) / 2,
            (p2 @ p1 @ p3 + p3 @ p1 @ p2) / 2,
        ]
        units = self.units(g)
        assert len(units) == 3
        for k, (unit, form) in enumerate(zip(units, explicit)):
            assert unit.recipe.index == k
            assert np.abs(unit.op.matrix - form).max() <= 1e-14


class TestNegativitySpecial:
    def test_pure_orthogonal(self):
        assert negativity_special(1.0, 0.5 * math.pi) == pytest.approx((S2 - 1) / 4, abs=1e-12)

    def test_zero_below_threshold(self):
        for theta in (0.3, 1.0, 2.0):
            assert negativity_special(math.cos(0.5 * theta) - 1e-9, theta) == 0.0

    def test_mixed_state_is_zero_everywhere(self):
        for theta in np.linspace(1e-6, math.pi - 1e-6, 50):
            assert negativity_special(0.0, float(theta)) == 0.0

    def test_agrees_with_scheme_negativity(self):
        rng = np.random.default_rng(229)
        for _ in range(100):
            pnorm = float(rng.random())
            theta = float(rng.uniform(1e-3, math.pi - 1e-3))
            scheme = pair_scheme_closed(PairGeometry.aligned(pnorm, theta))
            assert negativity_special(pnorm, theta) == pytest.approx(
                negativity(scheme), abs=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            negativity_special(1.5, 1.0)
        with pytest.raises(ValueError):
            negativity_special(0.5, 0.0)
        with pytest.raises(ValueError):
            negativity_special(0.5, math.pi)

    def test_array_equals_the_scalar_calls(self):
        thetas = np.linspace(1e-6, math.pi - 1e-6, 1001)
        for pnorm in (0.0, 0.3, 0.9, 1.0):
            values = negativity_special(pnorm, thetas)
            assert values.shape == thetas.shape
            assert values.tolist() == [negativity_special(pnorm, float(t)) for t in thetas]
        grid = negativity_special(0.8, thetas.reshape(7, 143))
        assert np.array_equal(grid, negativity_special(0.8, thetas).reshape(7, 143))

    def test_scalar_theta_returns_a_float(self):
        assert type(negativity_special(1.0, 1.0)) is float
        assert type(negativity_special(1.0, np.float64(1.0))) is float

    @pytest.mark.parametrize("bad", [0.0, math.pi, -1.0, 4.0, math.nan])
    def test_array_with_a_theta_out_of_range_names_it(self, bad):
        with pytest.raises(ValueError) as scalar:
            negativity_special(0.5, bad)
        with pytest.raises(ValueError) as array:
            negativity_special(0.5, np.array([1.0, bad, 0.0, 2.0]))
        assert str(array.value) == str(scalar.value)
        assert str(scalar.value) == f"theta must lie in (0, pi), got {bad}"

    @pytest.mark.parametrize("pnorm, theta, message", [
        (10**400, 1.0, "pnorm must lie in [0, 1], got inf"),
        (0.5, 10**400, "theta must lie in (0, pi), got inf"),
        (0.5, [10**400], "theta must lie in (0, pi), got inf"),
        (0.5, [[1.0], [-10**400]], "theta must lie in (0, pi), got -inf"),
    ], ids=["pnorm=10**400", "theta=10**400", "theta=[10**400]", "theta=[[1.0],[-10**400]]"])
    def test_a_number_past_float_range_reads_as_infinite(self, pnorm, theta, message):
        with pytest.raises(ValueError) as error:
            negativity_special(pnorm, theta)
        assert str(error.value) == message

    def test_monotone_in_polarisation(self):
        theta = 1.9
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        values = np.array([negativity_special(float(p), theta) for p in grid])
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-15)
        positive = values[:-1] > 0
        assert np.all(diffs[positive] > 0)

    def test_nonclassical_window(self):
        rng = np.random.default_rng(233)
        for _ in range(300):
            pnorm = float(rng.random())
            theta = float(rng.uniform(1e-3, math.pi - 1e-3))
            above = pnorm > math.cos(0.5 * theta) + 1e-12
            assert (negativity_special(pnorm, theta) > 0) == above

    def test_pure_state_positive_over_full_range(self):
        for theta in np.linspace(1e-4, math.pi - 1e-4, 500):
            assert negativity_special(1.0, float(theta)) > 0


class TestNegativityMax:
    def test_pure(self):
        out = negativity_max(1.0)
        assert out.value == pytest.approx(0.125, abs=1e-15)
        assert out.theta_star == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_mixed(self):
        assert negativity_max(0.0).value == 0.0

    def test_half(self):
        assert negativity_max(0.5).value == pytest.approx(0.03125, abs=1e-15)

    @pytest.mark.parametrize("pnorm, shown", [(math.inf, "inf"), (10**400, "inf"), (-10**400, "-inf")],
                             ids=["inf", "10**400", "-10**400"])
    def test_a_pnorm_past_float_range_reads_as_infinite(self, pnorm, shown):
        with pytest.raises(ValueError) as error:
            negativity_max(pnorm)
        assert str(error.value) == f"pnorm must lie in [0, 1], got {shown}"

    def test_random_pair_geometries_stay_within_the_law(self):
        # the law |P|^2/8 is the aligned family's maximum; no pair geometry
        # in the ball, aligned or not, may exceed it
        rng = np.random.default_rng(2026)
        n = 200_000

        def units():
            v = rng.normal(size=(n, 3))
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        p = units() * rng.random((n, 1)) ** (1 / 3)
        entries = pair_entries(p, units(), units())
        values = -np.minimum(entries, 0.0).sum(axis=1)
        law = np.sum(p * p, axis=1) / 8
        assert np.all(values <= law + 1e-12)
        assert values.max() > 0.1  # the sample reaches well into the negative region

    def test_golden_section_confirms(self):
        for pnorm in (0.2, 0.6, 1.0):
            theta, value = oracles.gss_max(
                lambda t: 0.5 * (pnorm * math.cos(t / 2) - math.cos(t / 2) ** 2),
                1e-9,
                math.pi - 1e-9,
            )
            out = negativity_max(pnorm)
            assert value == pytest.approx(out.value, abs=1e-9)
            assert theta == pytest.approx(out.theta_star, abs=1e-6)


class TestThresholds:
    def test_analytic_values(self):
        assert pair_classical_radius() == pytest.approx(1 / S2, abs=1e-15)
        assert triple_classical_radius() == pytest.approx(1 / S3, abs=1e-15)

    def test_pair_worst_case_crossing(self):
        assert worst_case_min_entry(ORTHOGONAL_PAIR, 1 / S2 - 1e-6) > 0
        assert worst_case_min_entry(ORTHOGONAL_PAIR, 1 / S2 + 1e-6) < 0

    def test_bisection_converges(self):
        assert critical_radius_bisection(ORTHOGONAL_PAIR) == pytest.approx(1 / S2, abs=1e-9)
        assert critical_radius_bisection(ORTHOGONAL_TRIPLE) == pytest.approx(1 / S3, abs=1e-9)

    def test_sub_threshold_states_classical_for_random_orthogonal_pairs(self):
        rng = np.random.default_rng(239)
        pnorm = 1 / S2 - 1e-6
        for _ in range(100):
            m1 = oracles.rand_direction(rng)
            helper = oracles.rand_direction(rng)
            m2 = np.cross(m1, helper)
            m2 /= np.linalg.norm(m2)
            pdir = oracles.rand_direction(rng)
            values = pair_entries(pnorm * pdir, m1, m2)
            assert values.min() >= -1e-12

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            worst_case_min_entry("pentagon", 0.5)


class TestGeometries:
    def test_aligned_pair_geometry(self):
        g = PairGeometry.aligned(0.8, 1.1)
        assert g.theta == pytest.approx(1.1, abs=1e-12)
        total = g.m1 + g.m2
        cosine = float(np.dot(g.p, total) / (np.linalg.norm(g.p) * np.linalg.norm(total)))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_a_number_past_float_range_reads_as_infinite(self):
        with pytest.raises(ValueError, match=r"^theta must lie in \(0, pi\), got inf$"):
            PairGeometry.aligned(0.5, 10**400)
        with pytest.raises(UnphysicalBloch, match="= inf exceeds 1"):
            TripleGeometry.orthogonal_diagonal(10**400)
        with pytest.raises(UnphysicalBloch, match="= inf exceeds 1"):
            TripleGeometry.coplanar120(p=(0, -10**400, 0))

    def test_coplanar_dot_products(self):
        m1, m2, m3 = coplanar_triple_directions()
        for a, b in ((m1, m2), (m1, m3), (m2, m3)):
            assert float(np.dot(a, b)) == pytest.approx(-0.5, abs=1e-12)

    def test_closed_scheme_objects_validate(self):
        g = TripleGeometry.coplanar120(p=(0.1, 0.0, 0.2))
        scheme = triple_scheme_weyl_closed(g)
        assert abs(scheme.values.sum() - 1.0) <= 1e-12
        assert scheme.n_observables == 3
