import dataclasses
import hashlib
import math

import numpy as np
import pytest

from pseudoprob import (
    DensityMatrix,
    HermitianOperator,
    InvalidState,
    NonHermitianInput,
    NotAProjector,
    Observable,
    UnphysicalBloch,
    bloch_from_density,
    bloch_vector,
    density_from_bloch,
    direction,
    observable_from_direction,
    projector_from_direction,
    trace_with,
    validate_density,
)
from pseudoprob import states
from pseudoprob.operators import _hermitian_parts
from pseudoprob.states import pauli_matrix
from pseudoprob.tolerances import ROUNDING_ATOL

import oracles


class TestDirection:
    def test_normalises(self):
        m = direction((0, 0, 2))
        assert np.allclose(m, [0, 0, 1])
        assert abs(np.linalg.norm(m) - 1) <= 1e-10

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            direction((0, 0, 0))

    def test_rejects_huge(self):
        with pytest.raises(ValueError):
            direction((1e7, 0, 0))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            direction((1, 0))

    @pytest.mark.parametrize("v", [(math.inf, 0, 0), (10**400, 0, 0), (0, -10**400, 1)],
                             ids=["inf", "10**400", "-10**400"])
    def test_rejects_a_component_past_float_range(self, v):
        # an int past float range reads as infinite, as its norm does
        for make in (direction, observable_from_direction, lambda m: projector_from_direction(m, -1)):
            with pytest.raises(ValueError, match=r"^direction norm inf outside"):
                make(v)


class TestDensityFromBloch:
    def test_completely_mixed(self):
        rho = density_from_bloch((0, 0, 0))
        assert np.array_equal(rho.matrix, 0.5 * np.eye(2))

    def test_pure_up(self):
        rho = density_from_bloch((0, 0, 1))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_tilted(self):
        s = 1 / math.sqrt(2)
        rho = density_from_bloch((s, 0, s))
        expected = 0.5 * np.array([[1 + s, s], [s, 1 - s]])
        assert np.abs(rho.matrix - expected).max() <= 1e-15

    def test_rejects_unphysical(self):
        with pytest.raises(UnphysicalBloch):
            density_from_bloch((1.0, 1.0, 0.0))

    @pytest.mark.parametrize("p", [(math.nan, 0, 0), (0, 0, math.nan), (math.inf, 0, 0),
                                   pytest.param((0, 10**400, 0), id="10**400"),
                                   pytest.param((0, 0, -10**400), id="-10**400")])
    def test_rejects_bloch_vector_that_is_not_finite(self, p):
        with pytest.raises(UnphysicalBloch):
            bloch_vector(p)
        with pytest.raises(UnphysicalBloch):
            density_from_bloch(p)

    def test_entries_written_out(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x, y, z = p = oracles.rand_bloch(rng)
            rho = density_from_bloch(p)
            expected = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
            assert np.array_equal(rho.matrix, expected)
            assert rho.op.hermiticity_residual == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = oracles.rand_bloch(rng)
            back = bloch_from_density(density_from_bloch(p))
            assert np.abs(back - p).max() <= 1e-12

    def test_rejects_a_state_that_is_not_a_qubit(self):
        with pytest.raises(ValueError, match="^Bloch extraction is defined for 2x2 states only$"):
            bloch_from_density(DensityMatrix.maximally_mixed(3))


class TestProjectorFromDirection:
    def test_z_plus(self):
        assert np.allclose(projector_from_direction((0, 0, 1), 1).matrix, np.diag([1.0, 0.0]))

    def test_x_minus(self):
        expected = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
        out = projector_from_direction((1, 0, 0), -1)
        assert np.abs(out.matrix - expected).max() <= 1e-15

    def test_direction_flip_identity_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            m = rng.normal(size=3)
            for a in (1, -1):
                lhs = projector_from_direction(-m, a)
                rhs = projector_from_direction(m, -a)
                assert np.array_equal(lhs.matrix, rhs.matrix)

    def test_outcomes_sum_to_identity_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            m = rng.normal(size=3)
            total = projector_from_direction(m, 1).matrix + projector_from_direction(m, -1).matrix
            assert np.array_equal(total, np.eye(2, dtype=complex))

    def test_rank_one_idempotent(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            p = projector_from_direction(rng.normal(size=3), 1)
            m = p.matrix
            assert np.abs(m @ m - m).max() <= 1e-12
            assert abs(p.trace - 1.0) <= 1e-12

    def test_bad_outcome(self):
        with pytest.raises(ValueError):
            projector_from_direction((0, 0, 1), 2)


class TestBornRule:
    def test_expectation_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = oracles.rand_bloch(rng)
            m = oracles.rand_direction(rng)
            a = 1 if rng.random() < 0.5 else -1
            rho = density_from_bloch(p)
            pi = projector_from_direction(m, a)
            expected = 0.5 * (1 + a * float(np.dot(m, p)))
            assert trace_with(pi, rho.op) == pytest.approx(expected, abs=1e-12)


class TestDensityValidation:
    def test_mixed_ok(self):
        diag = validate_density(0.5 * np.eye(2))
        assert diag.ok and diag.min_eigenvalue == pytest.approx(0.5)

    def test_pure_ok(self):
        diag = validate_density(np.diag([1.0, 0.0]))
        assert diag.ok and abs(diag.min_eigenvalue) <= 1e-15

    def test_negative_eigenvalue_fails(self):
        diag = validate_density(np.diag([1.5, -0.5]))
        assert not diag.ok
        assert diag.min_eigenvalue == pytest.approx(-0.5)

    def test_constructor_rejects_bad_trace(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.eye(2))

    def test_constructor_rejects_negative(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(4)
        assert rho.dim == 4
        assert abs(rho.op.trace - 1.0) <= 1e-15


class TestObservable:
    def test_from_direction_recomposes(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = oracles.rand_direction(rng)
            obs = observable_from_direction(m)
            assert np.abs(obs.op.matrix - pauli_matrix(m)).max() <= 1e-12
            assert obs.outcomes == (1, -1)

    def test_from_direction_written_out(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            m = rng.normal(size=3)
            x, y, z = m / np.linalg.norm(m)
            obs = observable_from_direction(m)
            sigma = np.array([[z, x - 1j * y], [x + 1j * y, -z]])
            up = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
            down = 0.5 * np.array([[1 - z, -x + 1j * y], [-x - 1j * y, 1 + z]])
            assert np.array_equal(obs.op.matrix, sigma)
            assert np.array_equal(obs.projector(1).matrix, up)
            assert np.array_equal(obs.projector(-1).matrix, down)
            assert np.array_equal(obs.axis, [x, y, z])
            for _, p in obs.resolution:
                assert p.hermiticity_residual == 0.0
                assert not p.matrix.flags.writeable

    def test_outcomes_made_once(self):
        # one tuple of the labels in resolution order, kept on the instance
        # and left out of its repr
        obs = Observable(op=HermitianOperator(np.diag([2.0, -0.5, 0.0])), resolution=tuple(
            (a, HermitianOperator(np.diag(np.eye(3)[i]))) for i, a in enumerate((2.0, -0.5, 0))
        ))
        assert obs.outcomes == (2.0, -0.5, 0)
        assert obs.outcomes is obs.outcomes
        assert "outcomes" not in repr(obs)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obs.outcomes = (1, -1)

    def test_projector_lookup(self):
        obs = observable_from_direction((0, 0, 1))
        assert np.allclose(obs.projector(1).matrix, np.diag([1.0, 0.0]))
        with pytest.raises(KeyError):
            obs.projector(0)

    def test_projectors_stack_the_resolution(self):
        obs = observable_from_direction((0.3, -0.4, 1.2))
        assert obs.projectors.shape == (2, 2, 2)
        for stacked, (_, p) in zip(obs.projectors, obs.resolution):
            assert np.array_equal(stacked, p.matrix)
        # both projectors come from the unit vector kept as the axis
        half = 0.5 * pauli_matrix(obs.axis)
        assert np.array_equal(obs.projectors[0], 0.5 * np.eye(2) + half)
        assert np.array_equal(obs.projectors[1], 0.5 * np.eye(2) - half)
        assert np.array_equal(obs.op.matrix, pauli_matrix(obs.axis))
        with pytest.raises(ValueError):
            obs.projectors[0, 0, 0] = 0.0

    def test_rejects_non_projector_resolution(self):
        bad = HermitianOperator(0.5 * np.eye(2))
        with pytest.raises(NotAProjector, match="outcome 1 is not idempotent"):
            Observable(op=HermitianOperator(np.eye(2)), resolution=((1, bad), (-1, bad)))

    def test_rejects_projector_of_other_dimension(self):
        up = projector_from_direction((0, 0, 1), 1)
        with pytest.raises(InvalidState, match="projector dimension differs"):
            Observable(op=up, resolution=((1, up), (0, HermitianOperator(np.eye(3)))))

    def test_rejects_non_orthogonal_resolution(self):
        pi1 = projector_from_direction((0, 0, 1), 1)
        pi2 = projector_from_direction((1, 0, 0), 1)
        with pytest.raises(InvalidState, match="not orthogonal"):
            Observable(op=pi1 + pi2, resolution=((1, pi1), (1, pi2)))

    def test_rejects_resolution_not_summing_to_identity(self):
        up = projector_from_direction((0, 0, 1), 1)
        with pytest.raises(InvalidState, match="do not sum to identity"):
            Observable(op=up, resolution=((1, up),))

    def test_rejects_repeated_outcome_labels(self):
        # a valid resolution of the identity, but outcome 1 names both
        # projectors: build_scheme used to fail later on the entry sum
        up = projector_from_direction((0, 0, 1), 1)
        down = projector_from_direction((0, 0, 1), -1)
        with pytest.raises(InvalidState, match="repeated"):
            Observable(op=up + down, resolution=((1, up), (1, down)))

    def test_rejects_wrong_recomposition(self):
        pi1 = projector_from_direction((0, 0, 1), 1)
        pi2 = projector_from_direction((0, 0, 1), -1)
        with pytest.raises(InvalidState, match="does not recompose"):
            Observable(op=HermitianOperator(np.eye(2)), resolution=((1, pi1), (-1, pi2)))

    @pytest.mark.parametrize("labels, projectors, error, message", [
        # an earlier projector's idempotency comes before a later one's dimension
        ((1, -1), ("half", "qutrit"), NotAProjector, "outcome 1 is not idempotent"),
        ((1, -1), ("qutrit", "half"), InvalidState, "projector dimension differs"),
        # also fails to sum to identity
        ((1, -1), ("up", "plus_x"), InvalidState, "not orthogonal"),
        # also fails to recompose sigma_z
        ((1,), ("up",), InvalidState, "do not sum to identity"),
        # also repeats a label
        ((1, 1), ("up", "down"), InvalidState, "does not recompose"),
        # a non-numeric label is named after orthogonality ...
        (("a", -1), ("up", "plus_x"), InvalidState, "not orthogonal"),
        # ... and before a repeated label
        (("a", "a"), ("up", "down"), InvalidState, "'a' is not a finite real number"),
        # only a later orthogonality row fails: P0 is orthogonal to P1 and P2,
        # but P1 P2 is not zero
        ((0, 1, 2), ("e0", "e1", "e1+e2"), InvalidState, "not orthogonal"),
        # the first projector is of another dimension
        ((1, -1), ("qutrit", "down"), InvalidState, "projector dimension differs"),
        # the walk stops at the first projector of another dimension and
        # never reaches the non-projector after it ...
        ((0, 1, 2), ("up", "qutrit", "half"), InvalidState, "projector dimension differs"),
        # ... and stops at a non-projector before one of another dimension
        ((0, 1, 2), ("up", "half", "qutrit"), NotAProjector, "outcome 1 is not idempotent"),
        # an empty resolution sums to zero, not the identity
        ((), (), InvalidState, "do not sum to identity"),
    ])
    def test_first_failing_check_is_reported(self, labels, projectors, error, message):
        mats = {
            "up": np.diag([1.0, 0.0]), "down": np.diag([0.0, 1.0]),
            "plus_x": 0.5 * np.ones((2, 2)), "half": 0.5 * np.eye(2), "qutrit": np.eye(3),
            "e0": np.diag([1.0, 0.0, 0.0]), "e1": np.diag([0.0, 1.0, 0.0]),
            "e1+e2": np.array([[0, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]]),
        }
        res = tuple((a, HermitianOperator(mats[p])) for a, p in zip(labels, projectors))
        # a qubit observable, unless every projector is a qutrit one
        dims = {len(mats[p]) for p in projectors}
        op = HermitianOperator(np.diag([1.0, -1.0, 0.0][:max(dims) if len(dims) == 1 else 2]))
        with pytest.raises(error, match=message):
            Observable(op=op, resolution=res)

    # a string or a bool is no label either, although float() takes it
    @pytest.mark.parametrize("label", ["a", None, 1 + 2j, math.nan, math.inf, "1", True, np.True_,
                                       pytest.param(10**400, id="10**400"),
                                       pytest.param(-10**400, id="-10**400")])
    def test_rejects_label_that_is_not_a_finite_real(self, label):
        up = projector_from_direction((0, 0, 1), 1)
        down = projector_from_direction((0, 0, 1), -1)
        with pytest.raises(InvalidState, match="is not a finite real number"):
            Observable(op=up - down, resolution=((label, up), (-1, down)))

    def test_numeric_labels_of_other_types_are_accepted(self):
        up = projector_from_direction((0, 0, 1), 1)
        down = projector_from_direction((0, 0, 1), -1)
        for labels in ((1.0, -1.0), (np.int64(1), np.int64(-1)), (np.float32(1), -1)):
            obs = Observable(op=up - down, resolution=tuple(zip(labels, (up, down))))
            assert obs.outcomes == labels

    def test_higher_dim_observable(self):
        # generic observables supply their own resolution in any dimension
        p1 = HermitianOperator(np.diag([1.0, 0, 0]))
        p2 = HermitianOperator(np.diag([0.0, 1, 0]))
        p3 = HermitianOperator(np.diag([0.0, 0, 1]))
        obs = Observable(
            op=HermitianOperator(np.diag([2.0, -1.0, 3.0])),
            resolution=((2.0, p1), (-1.0, p2), (3.0, p3)),
        )
        assert obs.outcomes == (2.0, -1.0, 3.0)


# axis-aligned inputs whose entries hold signed zeros
SIGNED_ZEROS = [
    (0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, -0.0, -1.0), (-1.0, -0.0, -0.0),
    (1.0, 0.0, -0.0), (-0.0, 1.0, 0.0), (0.0, -1.0, -0.0), (-0.0, -0.0, -1.0),
]


def test_digest_of_seeded_qubit_constructors():
    # every array and residual of seeded qubit observables and states, and of
    # the signed-zero cases as directions and as pure or half-mixed states,
    # pinned before observable_from_direction reused its hermitized stack
    rng = np.random.default_rng(4203)
    digest = hashlib.sha256()
    for m in [*SIGNED_ZEROS, *(oracles.rand_direction(rng) for _ in range(500))]:
        obs = observable_from_direction(m)
        ops = [obs.op, *(p for _, p in obs.resolution)]
        for array in (obs.projectors, obs.axis, *(op.matrix for op in ops)):
            digest.update(repr((array.dtype, array.shape)).encode())
            digest.update(array.tobytes())
        digest.update(repr((obs.outcomes, [op.hermiticity_residual for op in ops])).encode())
    halves = [tuple(0.5 * x for x in v) for v in SIGNED_ZEROS]
    for p in [*SIGNED_ZEROS, *halves, *(oracles.rand_bloch(rng) for _ in range(500))]:
        rho = density_from_bloch(p)
        digest.update(rho.matrix.tobytes())
        digest.update(repr(rho.op.hermiticity_residual).encode())
    assert digest.hexdigest() == "39185b5e7c2b3c3f091c8f464edb43dea5afb18a38c8bfd3f39e8ff10eb6dc3e"


def _fuzzed_directions(rng):
    """Accepted direction inputs: random ones with norms log-uniform over
    [1e-6, 1e6] and at both ends, and ones with signed-zero and subnormal
    components, also at those norms."""
    scales = [*10.0 ** rng.uniform(-6, 6, size=4000), *(1e-6 * (1 + 1e-9), 1e6 * (1 - 1e-9)) * 50]
    u = rng.normal(size=(len(scales), 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    vs = [v * s for v, s in zip(u, scales)]
    tiny = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310)
    for s in (1e-6 * (1 + 1e-9), 1e-3, 1.0, 1e3, 1e6 * (1 - 1e-9)):
        for a, b in zip(tiny, tiny[::-1]):
            vs += [(s, a, b), (a, -s, b), (a, b, s), (0.6 * s, a, -0.8 * s), (-0.8 * s, 0.6 * s, b)]
    for v in rng.normal(size=(1000, 3)):
        v[rng.integers(3)] = rng.choice(tiny)
        vs.append(v / np.linalg.norm(v) * 10.0 ** rng.uniform(-6, 6))
    return vs


def _fuzzed_bloch_vectors(rng):
    """Accepted Bloch vectors: uniform in the ball, on the sphere, and up to
    |P| = 1 + 1e-12, and ones with signed-zero and subnormal components."""
    u = rng.normal(size=(6000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = [*rng.random(2000) ** (1 / 3), *np.ones(2000), *(1 + ROUNDING_ATOL * rng.random(2000))]
    ps = [v * r for v, r in zip(u, radii)]
    tiny = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308)
    ps += [(r, a, b) for r in (0.0, 0.5, -1.0, 1 + 0.5 * ROUNDING_ATOL) for a in tiny for b in tiny]
    return ps


def test_qubit_constructors_equal_the_dense_formula_byte_for_byte():
    # the constructors form their matrices on scalars; the dense formula they
    # replaced is the reference for every matrix's bytes and residual
    half_i = np.eye(2, dtype=complex) / 2

    def dense(*matrices):
        herm, residuals = _hermitian_parts(np.array(matrices))
        return [(h.tobytes(), r) for h, r in zip(herm, residuals)]

    def made(*ops):
        return [(op.matrix.tobytes(), op.hermiticity_residual) for op in ops]

    rng = np.random.default_rng(2507)
    for m in [*SIGNED_ZEROS, *_fuzzed_directions(rng)]:
        mhat = direction(m)
        sigma = pauli_matrix(mhat)
        obs = observable_from_direction(m)
        expected = dense(sigma, half_i + 0.5 * sigma, half_i - 0.5 * sigma)
        assert made(obs.op, *(p for _, p in obs.resolution)) == expected
        assert obs.projectors.tobytes() == b"".join(h for h, _ in expected[1:])
        for a in (1, -1):
            assert made(projector_from_direction(m, a)) == dense(half_i + 0.5 * pauli_matrix(a * mhat))
    for p in [*SIGNED_ZEROS, *_fuzzed_bloch_vectors(rng)]:
        assert made(density_from_bloch(p).op) == dense(half_i + 0.5 * pauli_matrix(bloch_vector(p)))


def test_closed_form_constructors_pass_the_full_checks_with_margin():
    # the closed-form constructors skip Observable's resolution checks and
    # DensityMatrix's trace and eigenvalue checks; here those checks run on
    # what they make, and the residuals stay far inside RESIDUAL_ATOL = 1e-10
    rng = np.random.default_rng(2206)
    obs = [observable_from_direction(m) for m in _fuzzed_directions(rng)]
    for o in obs:
        full = Observable(op=o.op, resolution=o.resolution, axis=o.axis)
        assert full.outcomes == o.outcomes == (1, -1)
        assert np.array_equal(full.projectors, o.projectors)
    ops = np.array([o.op.matrix for o in obs])
    up, down = np.array([o.projectors for o in obs]).swapaxes(0, 1)
    residuals = [
        up @ up - up, down @ down - down, up @ down,
        up + down - np.eye(2), up - down - ops,
    ]
    assert max(np.abs(r).max() for r in residuals) <= 1e-14
    diags = [validate_density(density_from_bloch(p).op) for p in _fuzzed_bloch_vectors(rng)]
    assert all(diag.ok for diag in diags)
    assert min(diag.min_eigenvalue for diag in diags) >= -1e-12 - ROUNDING_ATOL
    assert max(diag.trace_residual for diag in diags) <= 1e-14
    assert max(diag.hermiticity_residual for diag in diags) == 0.0


def test_direction_off_the_unit_sphere_gets_the_full_checks(monkeypatch):
    # |m . m - 1| > RESIDUAL_ATOL cannot come out of direction(), so the
    # full resolution checks are reached only through a patched one; they
    # keep their own thresholds and errors
    monkeypatch.setattr(states, "direction", lambda m: np.asarray(m, dtype=float))
    with pytest.raises(NotAProjector, match="outcome 1 is not idempotent"):
        observable_from_direction((0.0, 0.0, 1.5))
    # P^2 - P is (m . m - 1)/4 times the identity: inside the full checks
    obs = observable_from_direction((0.0, 0.0, 1 + 1.5e-10))
    assert obs.outcomes == (1, -1) and obs.axis[2] == 1 + 1.5e-10


def test_scalar_checks_refuse_non_finite_entries_and_residuals(monkeypatch):
    # direction() and bloch_vector() pass neither a non-finite component nor
    # one near float's limit, so the scalar Hermitian-part checks are reached
    # only through patched ones; a NaN component fails the finiteness check,
    # and a NaN residual (from an overflowing sum) fails the residual check
    monkeypatch.setattr(states, "direction", lambda m: np.asarray(m, dtype=float))
    monkeypatch.setattr(states, "bloch_vector", lambda p: np.asarray(p, dtype=float))
    makers = [observable_from_direction, density_from_bloch,
              lambda m: projector_from_direction(m, 1), lambda m: projector_from_direction(m, -1)]
    for v in [(math.nan, 0.0, 1.0), (0.0, math.nan, 1.0), (0.0, 0.0, math.nan), (0.0, -math.inf, 0.0)]:
        for make in makers:
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                make(v)
    with pytest.raises(NonHermitianInput, match="residual nan exceeds"):
        observable_from_direction((1e308, 1e308, 0.0))


def test_bloch_vector_past_the_closed_form_gets_the_full_checks(monkeypatch):
    # likewise for a Bloch vector that bloch_vector() would have refused
    monkeypatch.setattr(states, "bloch_vector", lambda p: np.asarray(p, dtype=float))
    with pytest.raises(InvalidState, match="not a density matrix"):
        density_from_bloch((0.0, 0.0, 1 + 1e-9))
