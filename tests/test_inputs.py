"""Every public number goes through the intakes of `operators`: a bool, a
string, None or a complex value where a real is wanted is refused with the
entry's own domain error, and a number past float range reads as +-inf."""

import math

import numpy as np
import pytest

from pseudoprob import (
    DensityMatrix,
    HermitianOperator,
    InvalidConvexWeights,
    InvalidRecipe,
    InvalidState,
    Observable,
    PairGeometry,
    Recipe,
    Scheme,
    TripleGeometry,
    TwoQubitPureState,
    UnphysicalBloch,
    apply_local_unitaries,
    bloch_vector,
    build_scheme,
    combine,
    density_from_bloch,
    direction,
    identity,
    marginal,
    negativity_max,
    negativity_special,
    pair_entries,
    projector_from_direction,
    reduced_density,
    triple_entries,
    unit_pseudo_projections,
    worst_case_min_entry,
)
from pseudoprob import cli
from pseudoprob.operators import _array
from pseudoprob.qubit import ORTHOGONAL_PAIR
from pseudoprob.schemes import check_eps
from pseudoprob.states import pauli_matrix

UP = projector_from_direction((0, 0, 1), 1)
DOWN = projector_from_direction((0, 0, 1), -1)
Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
BELL = TwoQubitPureState.from_schmidt(math.pi / 4)
UNITS = unit_pseudo_projections([UP, projector_from_direction((1, 0, 0), 1)])
SCHEME = Scheme([Observable(op=UP - DOWN, resolution=((1, UP), (-1, DOWN)))], Recipe.weyl(),
                density_from_bloch(Z), [1.0, 0.0])
MATRIX = {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}

# each public entry with its domain error for malformed input, called with
# the value under test as one of its numbers
ENTRIES = {
    "direction": (ValueError, lambda x: direction([x, 0, 1])),
    "bloch_vector": (ValueError, lambda x: bloch_vector([0, x, 0])),
    "density_from_bloch": (ValueError, lambda x: density_from_bloch([x, 0, 0])),
    "pauli_matrix": (ValueError, lambda x: pauli_matrix([0, 0, x])),
    "projector_from_direction.m": (ValueError, lambda x: projector_from_direction([x, 0, 1], 1)),
    "projector_from_direction.outcome": (ValueError, lambda x: projector_from_direction(Z, x)),
    "Observable.label": (InvalidState, lambda x: Observable(op=UP - DOWN, resolution=((x, UP), (-1, DOWN)))),
    "Scheme.values": (ValueError, lambda x: Scheme(SCHEME.observables, SCHEME.recipe, SCHEME.state, [x, 1.0])),
    "check_eps": (ValueError, check_eps),
    "marginal.keep": (ValueError, lambda x: marginal(SCHEME, [x])),
    "Recipe.unit": (InvalidRecipe, Recipe.unit),
    "Recipe.convex": (InvalidConvexWeights, lambda x: Recipe.convex([x, 0.5])),
    "Recipe.index": (InvalidRecipe, lambda x: Recipe(kind="unit", index=x)),
    "Recipe.weights": (InvalidConvexWeights, lambda x: Recipe(kind="weights", weights=(x, 0.5))),
    "identity": (ValueError, identity),
    "DensityMatrix.maximally_mixed": (ValueError, DensityMatrix.maximally_mixed),
    "combine": (InvalidConvexWeights, lambda x: combine(UNITS, [0.5, x])),
    "negativity_max": (ValueError, negativity_max),
    "negativity_special.pnorm": (ValueError, lambda x: negativity_special(x, 1.0)),
    "negativity_special.theta": (ValueError, lambda x: negativity_special(0.5, x)),
    "negativity_special.theta[]": (ValueError, lambda x: negativity_special(0.5, [1.0, x])),
    "PairGeometry.aligned.pnorm": (ValueError, lambda x: PairGeometry.aligned(x, 1.0)),
    "PairGeometry.aligned.theta": (ValueError, lambda x: PairGeometry.aligned(0.5, x)),
    "TripleGeometry.orthogonal_diagonal": (ValueError, TripleGeometry.orthogonal_diagonal),
    "worst_case_min_entry": (ValueError, lambda x: worst_case_min_entry(ORTHOGONAL_PAIR, x)),
    "pair_entries": (ValueError, lambda x: pair_entries([0, 0, x], Z, X)),
    "triple_entries": (ValueError, lambda x: triple_entries(Z, Z, X, [0, x, 1])),
    "TwoQubitPureState": (InvalidState, lambda x: TwoQubitPureState([x, 0, 0, 0])),
    "from_schmidt": (InvalidState, TwoQubitPureState.from_schmidt),
    "reduced_density": (ValueError, lambda x: reduced_density(BELL, x)),
    "apply_local_unitaries": (ValueError, lambda x: apply_local_unitaries(BELL, [[x, 0], [0, 1]], np.eye(2))),
    "HermitianOperator": (ValueError, lambda x: HermitianOperator([[x, 0], [0, 1]])),
    "HermitianOperator.from_stack": (ValueError, lambda x: HermitianOperator.from_stack([[[1, 0], [0, x]]])),
    "json.dim": (ValueError, lambda x: cli._read_matrix({**MATRIX, "dim": x})),
    "json.re": (ValueError, lambda x: cli._read_matrix({**MATRIX, "re": [[1, x], [x, 0]]})),
    "json.bloch": (ValueError, lambda x: cli._read_state({"bloch": [x, 0, 0]})),
    "json.m": (ValueError, lambda x: cli._read_direction({"m": [0, 0, x]})),
    "json.schmidt_alpha": (ValueError, lambda x: cli._read_pure_state({"schmidt_alpha": x})),
    "json.amps_re": (ValueError, lambda x: cli._read_pure_state({"amps_re": [x, 0, 0, 0]})),
}
# these take complex numbers, so 1 + 2j is a number to them
COMPLEX = {"TwoQubitPureState", "apply_local_unitaries", "HermitianOperator", "HermitianOperator.from_stack"}
BAD = {"'0.5'": "0.5", "True": True, "np.True_": np.True_, "None": None, "1+2j": 1 + 2j}


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, bad, id=f"{entry}-{name}")
    for entry in ENTRIES for name, bad in BAD.items()
    if not (entry in COMPLEX and isinstance(bad, complex))
])
def test_a_value_that_is_no_number_raises_the_entry_domain_error(entry, bad):
    error, call = ENTRIES[entry]
    with pytest.raises(error) as raised:
        call(bad)
    assert type(raised.value) is error


def test_a_ragged_list_or_other_iterable_raises_the_entry_domain_error():
    with pytest.raises(ValueError, match="needs a 3-vector of real numbers"):
        direction([[1, 0], 0, 1])
    # an array input is a number, a list, a tuple or an array
    with pytest.raises(ValueError, match="needs a 3-vector of real numbers"):
        direction(range(1, 4))
    with pytest.raises(InvalidState, match="amplitudes must be numbers"):
        TwoQubitPureState([[1, 0], 0, 0])
    with pytest.raises(ValueError, match="^matrix entries must be numbers$"):
        HermitianOperator([[1, 0], [0]])
    with pytest.raises(ValueError, match='^state JSON "bloch" must hold numbers$'):
        cli._read_state({"bloch": [[0, 0], 0, 0]})


BIG = 10**400


@pytest.mark.parametrize("call, error, message", [
    (lambda: direction([BIG, 0, 0]), ValueError, "direction norm inf outside"),
    (lambda: density_from_bloch([0, -BIG, 0]), UnphysicalBloch, r"\|P\| = inf exceeds 1$"),
    (lambda: projector_from_direction(Z, -BIG), ValueError, "^outcome must be \\+1 or -1, got -inf$"),
    (lambda: Observable(op=UP - DOWN, resolution=((BIG, UP), (-1, DOWN))), InvalidState,
     ": outcome label inf is not a finite real number$"),
    (lambda: Scheme(SCHEME.observables, SCHEME.recipe, SCHEME.state, [BIG, 0]), InvalidState,
     "outside sanity bounds"),
    (lambda: check_eps(BIG), ValueError, "^eps must be a finite number >= 0, got inf$"),
    (lambda: marginal(SCHEME, [BIG]), ValueError, "^keep indices must be integers, got inf$"),
    (lambda: Recipe.unit(BIG), InvalidRecipe, ": unit index must be an integer, got inf$"),
    (lambda: Recipe.convex([BIG, 0]), InvalidConvexWeights, ": weights sum to inf, not 1$"),
    (lambda: combine(UNITS, [-BIG, 1]), InvalidConvexWeights, ": weights must be non-negative$"),
    (lambda: PairGeometry.aligned(BIG, 1.0), ValueError, r"^pnorm must lie in \[0, 1\], got inf$"),
    (lambda: worst_case_min_entry(ORTHOGONAL_PAIR, -BIG), ValueError,
     r"^pnorm must lie in \[0, 1\], got -inf$"),
    (lambda: TwoQubitPureState([BIG, 0, 0, 0]), InvalidState, ": state norm inf deviates"),
    (lambda: TwoQubitPureState.from_schmidt(-BIG), InvalidState, ": Schmidt angle -inf is not a finite number$"),
    (lambda: reduced_density(BELL, BIG), ValueError, "^subsystem must be 0 or 1, got inf$"),
    (lambda: HermitianOperator([[1, 0], [0, BIG]]), ValueError, "^matrix entries must be finite$"),
    (lambda: cli._read_pure_state({"schmidt_alpha": BIG}), InvalidState,
     ": Schmidt angle inf is not a finite number$"),
    (lambda: cli._read_matrix({**MATRIX, "dim": BIG}), ValueError, "^matrix JSON shape does not match dim$"),
], ids=[
    "direction", "density_from_bloch", "projector_from_direction.outcome", "Observable.label",
    "Scheme.values", "check_eps", "marginal.keep", "Recipe.unit", "Recipe.convex", "combine",
    "PairGeometry.aligned", "worst_case_min_entry", "TwoQubitPureState", "from_schmidt",
    "reduced_density", "HermitianOperator", "json.schmidt_alpha", "json.dim",
])
def test_a_number_past_float_range_reaches_the_range_check_as_infinite(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: marginal(SCHEME, 0), ValueError, "^keep must be a collection of observable indices, got 0$"),
    (lambda: build_scheme(SCHEME.state, SCHEME.observables * 2, "weyl"), InvalidRecipe,
     ": recipe must be a Recipe, got 'weyl'$"),
], ids=["marginal.keep", "build_scheme.recipe"])
def test_an_argument_of_the_wrong_kind_raises_the_entry_domain_error(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert type(raised.value) is error


def test_the_recipe_constructor_takes_its_fields_as_the_classmethods_do():
    assert Recipe(kind="unit", index=2.0) == Recipe.unit(2)
    assert type(Recipe(kind="unit", index=np.int64(2)).index) is int
    assert Recipe(kind="weights", weights=[1, 0]) == Recipe.convex((1.0, 0.0))
    with pytest.raises(InvalidRecipe, match=": unit index must be an integer, got True$"):
        Recipe(kind="unit", index=True)
    with pytest.raises(InvalidRecipe, match=": unit index must be non-negative, got -1$"):
        Recipe(kind="unit", index=-1)
    with pytest.raises(InvalidConvexWeights, match=": weights must be real numbers, got '0.5'$"):
        Recipe(kind="weights", weights=("0.5", "0.5"))
    with pytest.raises(InvalidConvexWeights, match=": weights must be real numbers, got None$"):
        Recipe(kind="weights")
    with pytest.raises(InvalidConvexWeights, match=": weights sum to 0.5, not 1$"):
        Recipe(kind="weights", weights=(0.25, 0.25))
    with pytest.raises(InvalidRecipe, match=": unknown recipe kind 'bogus'$"):
        Recipe(kind="bogus")


@pytest.mark.parametrize("dim", [True, 0, -2, 2.5, math.nan, math.inf, BIG, "2", None], ids=repr)
def test_a_dimension_that_is_no_integer_of_at_least_one_is_refused(dim):
    for make in (identity, DensityMatrix.maximally_mixed):
        with pytest.raises(ValueError, match="^dimension must be an integer >= 1, got "):
            make(dim)


@pytest.mark.parametrize("dim", [3, 3.0, np.int64(3), np.float64(3.0)], ids=repr)
def test_an_integral_dimension_is_accepted(dim):
    assert identity(dim).dim == 3
    assert DensityMatrix.maximally_mixed(dim).dim == 3


@pytest.mark.parametrize("values", [[1, 0, 0], (0.5, -1, 2.0), [[1, 0], [0.5, 1]], [2 ** 1022, 1.0]],
                         ids=repr)
def test_lists_of_plain_numbers_read_as_their_arrays(values):
    # exact floats and ints within float range are passed to numpy in one step
    assert np.array_equal(_array(values, ValueError, ""), np.array(values, dtype=float))
    assert np.array_equal(_array(values, ValueError, "", complex), np.array(values, dtype=complex))
