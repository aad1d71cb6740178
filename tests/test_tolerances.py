"""Guard for the tolerance policy: every numerical threshold of the package is
defined in `pseudoprob/tolerances.py`, and no function takes a per-call
tolerance knob (only the classicality `eps` is user-settable)."""

import ast
from pathlib import Path

import pytest

import pseudoprob
from pseudoprob import tolerances

SRC = Path(pseudoprob.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
THRESHOLD_CUTOFF = 1e-7  # float literals at or below this are thresholds
KNOB_NAMES = {"atol", "tol"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_found():
    assert "tolerances.py" in {p.name for p in MODULES}
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tolerances.py"], ids=lambda p: p.name)
def test_no_threshold_literal_outside_tolerances(path):
    small = [
        (node.lineno, node.value)
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < node.value <= THRESHOLD_CUTOFF
    ]
    assert small == [], f"{path.name}: define these in tolerances.py: {small}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tolerance_parameter(path):
    knobs = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.arg in KNOB_NAMES:
                    knobs.append((node.lineno, arg.arg))
    assert knobs == [], f"{path.name}: use the tolerances.py constant instead: {knobs}"


def test_policy_is_small_and_positive():
    names = [
        target.id
        for node in _tree(SRC / "tolerances.py").body
        if isinstance(node, ast.Assign)
        for target in node.targets
    ]
    assert 0 < len(names) <= 8
    for name in names:
        value = getattr(tolerances, name)
        assert isinstance(value, float) and 0.0 < value < 1.0, name
