import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pseudoprob import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimensionMismatch,
    EigenConvergenceError,
    HermitianOperator,
    NonHermitianInput,
    commutator_norm,
    eigenvalues_hermitian,
    idempotency_residual,
    identity,
    projector_from_direction,
    symmetrized_product,
    tensor,
    trace_with,
)
from pseudoprob.operators import _scalar

import oracles

PI_Z = projector_from_direction((0, 0, 1), 1)
PI_X = projector_from_direction((1, 0, 0), 1)


def hermitian_pair(dim, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(HermitianOperator(0.5 * (z + z.conj().T)))
    return mats


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            HermitianOperator([[np.nan, 0], [0, 1]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            HermitianOperator([[1, np.inf], [0, 1]])

    def test_rejects_nan_in_imaginary_part(self):
        with pytest.raises(ValueError):
            HermitianOperator([[1, complex(0, np.nan)], [0, 1]])

    def test_rejects_inf_in_imaginary_part(self):
        with pytest.raises(ValueError):
            HermitianOperator([[1, complex(0, np.inf)], [complex(0, -np.inf), 1]])

    def test_keeps_hermitian_part_and_records_residual(self):
        drift = 1e-13
        op = HermitianOperator([[1.0, drift * 1j], [drift * 1j, 0.0]])
        assert op.hermiticity_residual == pytest.approx(drift, rel=1e-6)
        assert np.abs(op.matrix - op.matrix.conj().T).max() == 0.0

    def test_loud_failure_on_genuinely_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            HermitianOperator([[0, 1], [0, 0]])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            IDENTITY_2.matrix = np.zeros((2, 2))
        assert not SIGMA_X.matrix.flags.writeable


BAD_MATRICES = {
    "nan": [[np.nan, 0], [0, 1]],
    "inf": [[1, np.inf], [np.inf, 1]],
    "nan_imaginary": [[1, complex(0, np.nan)], [0, 1]],
    "inf_imaginary": [[1, complex(0, np.inf)], [complex(0, -np.inf), 1]],
    "non_hermitian": [[0, 1], [0, 0]],
    # Hermitian, but M + M^dag overflows to a NaN residual
    "overflow": [[0, 1e308 + 1e308j], [1e308 - 1e308j, 0]],
}


def raised(call):
    try:
        call()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return None


class TestFromStack:
    # one pass over a (k, d, d) stack validates like k single constructors

    def test_values_and_residuals_equal_single_constructor(self):
        rng = np.random.default_rng(31)
        for dim in (1, 2, 3, 5):
            z = rng.normal(size=(4, dim, dim)) + 1j * rng.normal(size=(4, dim, dim))
            mats = 0.5 * (z + z.conj().swapaxes(1, 2))
            mats[1] += 1e-12 * rng.normal(size=(dim, dim))  # a small residual
            mats[2] += 1j * 3e-11 * rng.normal(size=(dim, dim))
            ops = HermitianOperator.from_stack(mats)
            assert len(ops) == 4
            for op, m in zip(ops, mats):
                single = HermitianOperator(m)
                assert np.array_equal(op.matrix, single.matrix)
                assert op.hermiticity_residual == single.hermiticity_residual
                assert not op.matrix.flags.writeable
                assert op.dim == dim

    @pytest.mark.parametrize("name", sorted(BAD_MATRICES))
    @pytest.mark.parametrize("position", [0, 2])
    def test_fault_raises_as_single_constructor(self, name, position):
        bad = np.array(BAD_MATRICES[name], dtype=complex)
        expected = raised(lambda: HermitianOperator(bad))
        assert expected is not None
        stack = [np.eye(2), 0.5 * np.eye(2), SIGMA_X.matrix]
        stack.insert(position, bad)
        assert raised(lambda: HermitianOperator.from_stack(stack)) == expected

    def test_overflowing_hermitian_part_is_refused_without_a_warning(self):
        # pytest turns any numpy overflow warning into an error here
        bad = np.array(BAD_MATRICES["overflow"])
        with pytest.raises(NonHermitianInput, match="residual nan"):
            HermitianOperator(bad)
        with pytest.raises(NonHermitianInput, match="residual nan"):
            HermitianOperator.from_stack(bad[None])

    def test_non_square_raises_as_single_constructor(self):
        expected = raised(lambda: HermitianOperator(np.zeros((2, 3))))
        assert expected == (ValueError, "expected a square matrix, got shape (2, 3)")
        assert raised(lambda: HermitianOperator.from_stack(np.zeros((4, 2, 3)))) == expected

    @pytest.mark.parametrize("first, second", [
        ("non_hermitian", "nan"), ("inf", "non_hermitian"), ("nan_imaginary", "inf"),
    ])
    def test_first_faulty_matrix_is_reported(self, first, second):
        stack = [np.eye(2), BAD_MATRICES[first], BAD_MATRICES[second]]
        expected = raised(lambda: HermitianOperator(np.array(BAD_MATRICES[first], dtype=complex)))
        assert raised(lambda: HermitianOperator.from_stack(stack)) == expected


class TestSymmetrizedProduct:
    def test_sigma_x_squared_is_identity(self):
        out = symmetrized_product(SIGMA_X, SIGMA_X)
        assert np.allclose(out.matrix, np.eye(2), atol=1e-15)

    def test_anticommuting_paulis_vanish(self):
        out = symmetrized_product(SIGMA_X, SIGMA_Y)
        assert np.abs(out.matrix).max() <= 1e-15

    def test_z_x_projector_pair(self):
        out = symmetrized_product(PI_Z, PI_X)
        expected = 0.25 * np.array([[2, 1], [1, 0]], dtype=complex)
        assert np.abs(out.matrix - expected).max() <= 1e-15

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            symmetrized_product(SIGMA_X, identity(3))

    @settings(max_examples=40, deadline=None)
    @given(
        re=arrays(np.float64, (3, 3), elements=st.floats(-1, 1)),
        im=arrays(np.float64, (3, 3), elements=st.floats(-1, 1)),
        re2=arrays(np.float64, (3, 3), elements=st.floats(-1, 1)),
        im2=arrays(np.float64, (3, 3), elements=st.floats(-1, 1)),
    )
    def test_exactly_symmetric(self, re, im, re2, im2):
        a = HermitianOperator(0.5 * ((re + 1j * im) + (re + 1j * im).conj().T))
        b = HermitianOperator(0.5 * ((re2 + 1j * im2) + (re2 + 1j * im2).conj().T))
        ab = symmetrized_product(a, b)
        ba = symmetrized_product(b, a)
        assert np.array_equal(ab.matrix, ba.matrix)


class TestEigenvalues:
    def test_sigma_z(self):
        assert np.allclose(eigenvalues_hermitian(SIGMA_Z), [-1.0, 1.0])

    def test_identity_three(self):
        assert np.allclose(eigenvalues_hermitian(identity(3)), [1.0, 1.0, 1.0])

    def test_projector_product_closed_form(self):
        # eigenvalues c(c -+ 1)/2 with c = cos(pi/4), from the characteristic
        # polynomial x^2 - x/2 - 1/16 of the z/x symmetrized product
        out = symmetrized_product(PI_Z, PI_X)
        c = math.cos(math.pi / 4)
        expected = sorted([c * (c - 1) / 2, c * (c + 1) / 2])
        vals = eigenvalues_hermitian(out)
        assert np.allclose(vals, expected, atol=1e-14)
        for x in vals:
            assert abs(x * x - 0.5 * x - 1.0 / 16.0) < 1e-14

    @pytest.mark.parametrize("vectors, routine", [(False, "eigvalsh"), (True, "eigh")])
    def test_lapack_failure_is_eigen_convergence_error(self, monkeypatch, vectors, routine):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, routine, fail)
        with pytest.raises(EigenConvergenceError, match="did not converge"):
            eigenvalues_hermitian(SIGMA_Z, vectors=vectors)

    def test_sorted_ascending(self):
        vals = eigenvalues_hermitian(hermitian_pair(6, 3)[0])
        assert np.all(np.diff(vals) >= 0)

    def test_reconstruction_residual(self):
        op = hermitian_pair(5, 9)[0]
        vals, vecs = eigenvalues_hermitian(op, vectors=True)
        rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.abs(rebuilt - op.matrix).max() <= 1e-10

    def test_projector_spectrum_is_zero_one(self):
        rng = np.random.default_rng(17)
        for dim, rank in ((2, 1), (4, 2), (6, 3)):
            p = HermitianOperator(oracles.haar_projector(rng, dim, rank))
            vals = eigenvalues_hermitian(p)
            assert np.all((np.abs(vals) <= 1e-10) | (np.abs(vals - 1) <= 1e-10))

    def test_eigenvalue_sum_equals_trace(self):
        for seed in range(5):
            op = hermitian_pair(4, seed)[0]
            assert abs(eigenvalues_hermitian(op).sum() - op.trace) <= 1e-10


class TestTraceWith:
    def test_unit_trace_of_state(self):
        half = HermitianOperator(0.5 * np.eye(2))
        assert trace_with(identity(2), half) == pytest.approx(1.0, abs=1e-15)

    def test_eigenstate(self):
        rho = HermitianOperator(np.diag([1.0, 0.0]))
        assert trace_with(PI_Z, rho) == pytest.approx(1.0, abs=1e-15)

    def test_mixed_state_expectation(self):
        out = symmetrized_product(PI_Z, PI_X)
        rho = HermitianOperator(0.5 * np.eye(2))
        assert trace_with(out, rho) == pytest.approx(0.25, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_with(identity(3), IDENTITY_2)


class TestTensor:
    def test_identity_squares(self):
        assert np.array_equal(tensor(IDENTITY_2, IDENTITY_2).matrix, np.eye(4))

    def test_sigma_z_with_identity(self):
        out = tensor(SIGMA_Z, IDENTITY_2)
        assert np.allclose(out.matrix, np.diag([1, 1, -1, -1]))

    def test_projector_pair(self):
        out = tensor(PI_Z, projector_from_direction((0, 0, 1), -1))
        assert np.allclose(out.matrix, np.diag([0, 1, 0, 0]), atol=1e-15)

    def test_trace_multiplicative(self):
        a, b = hermitian_pair(3, 21)
        assert abs(tensor(a, b).trace - a.trace * b.trace) <= 1e-12


class TestHelpers:
    def test_idempotency_residual_zero_for_projector(self):
        assert idempotency_residual(PI_Z) <= 1e-15

    def test_commutator_norm_zero_for_commuting(self):
        assert commutator_norm(SIGMA_Z, identity(2)) == 0.0

    def test_commutator_norm_pauli(self):
        # [sx, sy] = 2i sz: entrywise max-norm 2
        assert commutator_norm(SIGMA_X, SIGMA_Y) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "value, expected",
    [
        (0.5, True),
        (3, True),
        (True, False),
        (np.float64(0.5), True),
        (np.int64(3), True),
        (np.bool_(True), False),
        (Fraction(1, 3), True),
        (1 + 2j, False),
        ("0.5", False),
        (None, False),
        (math.nan, True),
    ],
    ids=["float", "int", "bool", "np.float64", "np.int64", "np.bool_", "Fraction", "complex", "str", "None", "nan"],
)
def test_is_number(value, expected):
    # the scalar intake takes a number as a float and refuses anything else
    # with the caller's error class and message
    if expected:
        taken = _scalar(value, LookupError, "{!r} refused")
        assert type(taken) is float and (taken == float(value) or math.isnan(value))
    else:
        with pytest.raises(LookupError, match=r"^\S+ refused$"):
            _scalar(value, LookupError, "{!r} refused")
