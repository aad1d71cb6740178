"""Command-line front end: scheme evaluation, negativity sweeps, classical-region
estimation, spectrum audits, and entanglement queries.

The parser owns the argument grammar: `type=` callables parse number lists,
recipes and JSON files, required mutually exclusive groups take the "exactly
one of" pairs, and the checks that need a second argument or a file's contents
call the subcommand parser's `error`, as does an --out path that cannot be
written: one whose directory does not exist is found before the work, any other
when it is written. So every usage error prints that subcommand's usage line
and exits 2. A token made of '-' and then a digit, '.', 'inf' or 'nan' is a
value, so `--bloch -0.5,0,0` reads like `--bloch=-0.5,0,0` and `--eps -inf`
like `--eps=-inf`.

Every count has an upper bound, a work budget checked before anything is
allocated: --steps at most 100,000, --samples and --theta-grid at most 10^6
each, --pairs at most 4,096. A count over its bound is a usage error too.

The JSON wire format is decided here alone: the readers of state and
direction files and the scheme writer are this module's, and the library's
objects know no file format.

Exit codes: 0 success, 2 usage or input parse error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import PseudoprobError
from .operators import HermitianOperator, _array, _commutator_norms, _hermitian_parts, _scalar, _spectra
from .pseudoprojection import Recipe
from .qubit import (
    ORTHOGONAL_PAIR,
    ORTHOGONAL_TRIPLE,
    _aligned_directions,
    coplanar_triple_directions,
    critical_radius_bisection,
    negativity_max,
    negativity_special,
    pair_entries,
)
from .schemes import build_scheme, check_eps, classify, negativity
from .states import DensityMatrix, density_from_bloch, direction, observable_from_direction
from .tolerances import CLASSICALITY_EPS, COMMUTATOR_CUTOFF, NEGATIVE_EIG_CUTOFF, THETA_MARGIN
from . import entanglement as ent

PRNG_NAME = "numpy default_rng (PCG64)"
# Work budgets: the parser checks each count against its bound before
# anything is allocated, and a count over it is a usage error. Worst cases at
# the bounds, timed in-process on a 2-vCPU Xeon VM (min of 5 unless stated;
# the VM's speed varies by run):
# scan-negativity computes every step in one broadcast call, and building
# and writing the rows takes most of its ~3.5-4.5 us per step: 100,000 steps
# take ~0.35-0.45 s, with a tracemalloc peak of ~36 MiB.
MAX_STEPS = 100_000
# the orthogonal classical-region families take ~0.25 us per sample:
# 10^6 samples ~0.25 s, with a tracemalloc peak of ~62 MiB.
MAX_SAMPLES = 1_000_000
# free-pair finds each sample's two bracketing grid points with one
# searchsorted and evaluates only those, so a grid point costs ~25 ns and a
# sample ~1 us: 10^6 samples over 10^6 grid points take ~1.1-1.4 s, with a
# tracemalloc peak of ~222 MiB (the 10^6-sample draw and its (samples, 3)
# arrays; one sample over 10^6 points takes ~30 ms).
MAX_THETA_GRID = 1_000_000
# spectrum runs every pair in one stacked pass: ~15 us per pair at --dim 4
# (ranks 2,1) and ~0.15 ms at --dim 16 (ranks 16,16), so 4,096 pairs take
# ~0.06 s and ~0.6-0.7 s (the per-pair loop it replaced took ~0.6-0.8 s and
# ~1.2-1.5 s; min of 5, two runs each). Memory grows with the count: the
# worst accepted input, --dim 16 --ranks 16,16 --pairs 4096, peaks at
# ~129 MiB under tracemalloc, ~32 KiB per pair.
MAX_PAIRS = 4_096
_AXES = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _check_out(args) -> None:
    """Raise the usage error for an --out path whose directory does not
    exist, before the work; nothing is created, opened or truncated."""
    if args.out:
        parent = os.path.dirname(args.out) or "."
        if not os.path.isdir(parent):
            args.error(f"cannot write {args.out}: no directory {parent}")


def _emit(text: str, args) -> None:
    """Write `text` to --out, or to stdout without it. A path that cannot be
    written is a usage error, as an unreadable input file is; what
    `_check_out` cannot see, such as permissions, is found here."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        args.error(f"cannot write {args.out}: {exc}")


def _metadata(args) -> dict:
    md = {
        "tool": "pseudoprob",
        "version": __version__,
        "prng": PRNG_NAME,
        "eps": args.eps,
    }
    if not args.deterministic:
        md["timestamp"] = datetime.now(timezone.utc).isoformat()
    return md


def _scan_json(kind: str, params: dict, rows: list, args, summary: dict | None = None) -> dict:
    obj = {"kind": kind, "params": params, "rows": rows}
    if summary is not None:
        obj["summary"] = summary
    obj["metadata"] = _metadata(args)
    return obj


def _scan_csv(columns: list[str], rows: list, comments: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns))
    lines.extend(comments)
    return "\n".join(lines) + "\n"


def _angle(value: float, args) -> float:
    return math.radians(value) if args.degrees else float(value)


def _sample_ball(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points in the unit ball: random direction, radius ~ u^(1/3)."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = rng.random(n) ** (1.0 / 3.0)
    return v * r[:, None]


# ---------------------------------------------------------- JSON wire format
# A reader raises ValueError, naming the key, for JSON of the wrong shape, so
# every malformed file is one domain error.


def _json_field(obj, key: str, what: str, scalar: bool = False):
    """obj[key] as a float array (a float if `scalar`), for the JSON object
    `obj` that describes `what`. A non-object, a missing key or a value that is
    not JSON numbers (a string, null, a boolean, a ragged list) raises
    ValueError; a number past float range reads as infinite."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f'{what} JSON needs an object with a "{key}" key')
    if scalar:
        return _scalar(obj[key], ValueError, f'{what} JSON "{key}" must hold a number')
    return _array(obj[key], ValueError, f'{what} JSON "{key}" must hold numbers')


def _read_matrix(obj) -> HermitianOperator:
    """The operator of a {"dim": d, "re": [[...]], "im": [[...]]} object."""
    dim = _json_field(obj, "dim", "matrix", scalar=True)
    re = _json_field(obj, "re", "matrix")
    im = _json_field(obj, "im", "matrix")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError("matrix JSON shape does not match dim")
    return HermitianOperator(re + 1j * im)


def _read_state(obj) -> DensityMatrix:
    """A state from {"bloch": [x,y,z]} or {"rho": {dim,re,im}}."""
    if isinstance(obj, dict) and "bloch" in obj:
        return density_from_bloch(_json_field(obj, "bloch", "state"))
    if isinstance(obj, dict) and "rho" in obj:
        return DensityMatrix(_read_matrix(obj["rho"]))
    raise ValueError('state JSON needs an object with a "bloch" or "rho" key')


def _read_direction(obj) -> np.ndarray:
    """A direction from {"m": [x,y,z]} (normalised on load)."""
    return direction(_json_field(obj, "m", "direction"))


def _read_pure_state(obj) -> ent.TwoQubitPureState:
    """A two-qubit state from {"amps_re": [...], "amps_im": [...]} or
    {"schmidt_alpha": x}."""
    what = "two-qubit state"
    if isinstance(obj, dict) and "schmidt_alpha" in obj:
        return ent.TwoQubitPureState.from_schmidt(_json_field(obj, "schmidt_alpha", what, scalar=True))
    if isinstance(obj, dict) and "amps_re" in obj:
        re = _json_field(obj, "amps_re", what)
        im = _json_field(obj, "amps_im", what) if "amps_im" in obj else np.zeros(4)
        return ent.TwoQubitPureState(re + 1j * im)
    raise ValueError('two-qubit state JSON needs an object with "amps_re" or "schmidt_alpha"')


def _recipe_json(recipe: Recipe):
    if recipe.kind == "weyl":
        return "weyl"
    if recipe.kind == "unit":
        return {"unit": recipe.index}
    return {"weights": list(recipe.weights)}


def _scheme_json(scheme, eps: float) -> dict:
    """The scheme of direction-built observables (each written as its axis),
    entries in canonical order."""
    entries = [
        {"a": [int(a) for a in t], "p": float(v)}
        for t, v in zip(scheme.outcome_tuples, scheme.values)
    ]
    return {
        "observables": [{"m": [float(x) for x in obs.axis]} for obs in scheme.observables],
        "recipe": _recipe_json(scheme.recipe),
        "entries": entries,
        "negativity": negativity(scheme),
        "classical": classify(scheme, eps).classical,
    }


# ---------------------------------------------------------------- subcommands
# Each returns its JSON object, then its CSV columns, rows and comment lines;
# `main` writes the one --format asks for.


def _cmd_scheme(args) -> tuple:
    rho = density_from_bloch(args.bloch) if args.state is None else _read_state(args.state)
    if args.dirs is not None:
        # the coplanar120 vectors are unit vectors already; the rest are normalised here
        dirs = [m if isinstance(m, np.ndarray) else direction(m) for tok in args.dirs for m in tok]
    elif isinstance(args.dirs_file, list):
        dirs = [_read_direction(obj) for obj in args.dirs_file]
    else:
        args.error("--dirs-file must hold a JSON list of direction objects")
    observables = [observable_from_direction(m) for m in dirs]
    scheme = build_scheme(rho, observables, args.recipe)
    obj = _scheme_json(scheme, args.eps)
    cols = [f"a{i+1}" for i in range(scheme.n_observables)] + ["p"]
    rows = [dict(zip(cols, e["a"] + [e["p"]])) for e in obj["entries"]]
    comments = [
        f"# negativity={_fmt(obj['negativity'])}",
        f"# classical={'true' if obj['classical'] else 'false'}",
    ]
    return obj, cols, rows, comments


def _cmd_scan_negativity(args) -> tuple:
    lo = _angle(args.theta_min, args)
    hi = _angle(args.theta_max, args)
    clipped_lo = min(max(lo, THETA_MARGIN), math.pi - THETA_MARGIN)
    clipped_hi = min(max(hi, THETA_MARGIN), math.pi - THETA_MARGIN)
    if (clipped_lo, clipped_hi) != (lo, hi):
        print(
            f"warning: theta range [{lo}, {hi}] clipped to "
            f"({clipped_lo}, {clipped_hi}) inside (0, pi)",
            file=sys.stderr,
        )
    if clipped_hi < clipped_lo:
        args.error("--theta-max must not be below --theta-min")
    thetas = np.linspace(clipped_lo, clipped_hi, args.steps)
    values = negativity_special(args.pnorm, thetas).tolist()
    rows = [{"theta": t, "negativity": v} for t, v in zip(thetas.tolist(), values)]
    params = {
        "pnorm": args.pnorm,
        "theta_min": clipped_lo,
        "theta_max": clipped_hi,
        "steps": args.steps,
        "seed": args.seed,
    }
    return _scan_json("scan-negativity", params, rows, args), ["theta", "negativity"], rows, []


def _cmd_classical_region(args) -> tuple:
    rng = np.random.default_rng(args.seed)
    pnorms = np.linalg.norm(_sample_ball(rng, args.samples), axis=1)
    params = {"family": args.family, "samples": args.samples, "seed": args.seed}
    if args.family in (ORTHOGONAL_PAIR, ORTHOGONAL_TRIPLE):
        r_c = critical_radius_bisection(args.family)
        inside = pnorms <= r_c
        frac = float(inside.mean())
        se = math.sqrt(frac * (1.0 - frac) / args.samples)
        row = {
            "family": args.family,
            "samples": args.samples,
            "critical_radius": r_c,
            "radius_fraction": r_c,
            "euclidean_volume_fraction": frac,
            "euclidean_volume_fraction_se": se,
        }
    else:  # free-pair: is some aligned geometry on the theta grid non-classical?
        # Its smallest entry is (c^2 - |P| c)/2, c = cos(theta/2), and the
        # other three are never negative. That is convex in c, and c falls
        # along the grid, so the grid minimum is at one of the two points
        # whose c brackets |P|/2: the first with c <= |P|/2 and the one before.
        n = args.theta_grid
        grid = np.pi * np.arange(1, n + 1) / (n + 1)
        params["theta_grid_points"] = n
        pvecs = np.outer(pnorms, (0.0, 0.0, 1.0))  # P along z
        first = np.searchsorted(-np.cos(0.5 * grid), -0.5 * pnorms)
        nonclassical = np.zeros(args.samples, dtype=bool)
        for k in (np.maximum(first - 1, 0), np.minimum(first, n - 1)):
            entries = pair_entries(pvecs, *_aligned_directions(grid[k]))
            nonclassical |= entries.min(axis=-1) < -args.eps
        polarized = pnorms > 0.0
        frac = float(nonclassical[polarized].mean()) if polarized.any() else 0.0
        se = math.sqrt(frac * (1.0 - frac) / max(int(polarized.sum()), 1))
        row = {
            "family": args.family,
            "samples": args.samples,
            "theta_grid_points": args.theta_grid,
            "nonclassical_fraction": frac,
            "nonclassical_fraction_se": se,
        }
    return _scan_json("classical-region", params, [row], args), list(row), [row], []


def _cmd_spectrum(args) -> tuple:
    r1, r2 = args.ranks
    if not (1 <= r1 <= args.dim and 1 <= r2 <= args.dim):
        args.error(f"--ranks {r1},{r2} out of range for --dim {args.dim}")
    d, n = args.dim, args.pairs
    # one row of normals per pair, in the per-pair draw order: frame 1's real
    # and imaginary parts, then frame 2's
    normals = np.random.default_rng(args.seed).normal(size=(n, 2 * d * (r1 + r2)))
    frames = []
    for f in np.split(normals, [2 * d * r1], axis=1):
        re, im = f.reshape(n, 2, d, -1).swapaxes(0, 1)
        q = np.linalg.qr(re + 1j * im)[0]
        frames.append(_hermitian_parts(q @ q.conj().swapaxes(1, 2))[0])
    # the normals and every view of them go before the products, so the
    # peak is the second frame's (see MAX_PAIRS)
    del normals, f, re, im, q
    # each pair's symmetrized_product, its spectrum and commutator_norm,
    # with the same arithmetic, on stacks
    ab, ba = frames[0] @ frames[1], frames[1] @ frames[0]
    sym = 0.5 * (ab + ba)
    comm = _commutator_norms(ab, ba)
    min_eig = _spectra(_hermitian_parts(sym)[0])[:, 0]
    noncommuting = int((comm > COMMUTATOR_CUTOFF).sum())
    violations = int(((comm > COMMUTATOR_CUTOFF) & (min_eig >= -NEGATIVE_EIG_CUTOFF)).sum())
    rows = [
        {"pair": i, "min_eig": e, "commutator_norm": c}
        for i, (e, c) in enumerate(zip(min_eig.tolist(), comm.tolist()))
    ]
    params = {"dim": d, "ranks": [r1, r2], "pairs": n, "seed": args.seed}
    summary = {"pairs": n, "noncommuting": noncommuting, "violations": violations}
    comments = [f"# noncommuting={noncommuting}", f"# violations={violations}"]
    return (
        _scan_json("spectrum", params, rows, args, summary=summary),
        ["pair", "min_eig", "commutator_norm"], rows, comments,
    )


def _cmd_entanglement(args) -> tuple:
    if args.state is None:
        psi = ent.TwoQubitPureState.from_schmidt(_angle(args.schmidt_alpha, args))
    else:
        psi = _read_pure_state(args.state)
    p_r = ent.reduced_bloch_norm(psi, 0)
    row = {
        "reduced_bloch_norm": p_r,
        "n_max_reduced": negativity_max(p_r).value,
        "monotone": ent.monotone(psi),
    }
    return row, list(row), [row], []


# -------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Reads a token made of '-' and then a digit, '.', 'inf' or 'nan' (in
    any case) as a value, not an option: no option here starts that way, and
    argparse's own rule takes only plain decimals, not '-0.5,0,0', '-1e-10'
    or '-inf'."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-([\d.]|inf|nan)", re.IGNORECASE)


def _int_between(least: int, most: int):
    """Type of an integer in [least, most]."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message names it
    return parse


def _numbers(n: int, kind=float):
    """Type of `n` comma-separated numbers."""
    noun = "integers" if kind is int else "numbers"

    def parse(text: str) -> list:
        try:
            vals = [kind(tok) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}"
            ) from None
        if len(vals) != n:
            raise argparse.ArgumentTypeError(f"expected {n} components, got {len(vals)}")
        return vals

    return parse


def _dirs_token(text: str) -> tuple:
    """The directions one --dirs token names. A vector stays raw, so that
    `direction` normalises it in the command and a zero one exits 3."""
    if text == "coplanar120":
        return coplanar_triple_directions()
    return (_AXES[text] if text in _AXES else _numbers(3)(text),)


def _recipe(text: str) -> Recipe:
    """'weyl', 'unit:K' or weights; Recipe's own errors leave the parser
    as domain errors."""
    if text == "weyl":
        return Recipe.weyl()
    try:
        if text.startswith("unit:"):
            return Recipe.unit(int(text.removeprefix("unit:")))
        return Recipe.convex([float(t) for t in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'weyl', 'unit:K' or comma-separated weights, got {text!r}"
        ) from None


def _json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read JSON from {path}: {exc}") from None


def _eps(text: str) -> float:
    try:
        return check_eps(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="suppress the metadata timestamp for byte-identical reruns",
    )
    common.add_argument(
        "--eps", type=_eps, default=CLASSICALITY_EPS, help="classicality tolerance"
    )
    common.add_argument(
        "--degrees", action="store_true", help="interpret angle inputs as degrees"
    )

    parser = _Parser(
        prog="pseudoprob",
        description="Pseudo-probability schemes and negativity diagnostics for qubits",
    )
    parser.add_argument("--version", action="version", version=f"pseudoprob {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scheme", parents=[common], help="evaluate a pseudo-probability scheme")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--bloch", type=_numbers(3), help="state polarisation as 'x,y,z'")
    g.add_argument("--state", type=_json_file, help="state JSON file with 'bloch' or 'rho'")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument(
        "--dirs",
        nargs="+",
        type=_dirs_token,
        help="directions: axis names (x, y, z), 'coplanar120', or 'a,b,c' vectors",
    )
    g.add_argument(
        "--dirs-file", type=_json_file, help="JSON file with a list of {\"m\": [x,y,z]}"
    )
    p.add_argument(
        "--recipe", type=_recipe, default="weyl", help="'weyl', 'unit:K', or weights 'w1,w2,...'"
    )
    p.set_defaults(func=_cmd_scheme)

    p = sub.add_parser(
        "scan-negativity", parents=[common], help="aligned-geometry negativity vs theta"
    )
    p.add_argument("--pnorm", type=float, required=True, help="polarisation magnitude |P|")
    p.add_argument("--theta-min", type=float, default=THETA_MARGIN)
    p.add_argument("--theta-max", type=float, default=math.pi - THETA_MARGIN)
    p.add_argument("--steps", type=_int_between(2, MAX_STEPS), default=181)
    p.set_defaults(func=_cmd_scan_negativity)

    p = sub.add_parser(
        "classical-region", parents=[common], help="classical-state fractions per family"
    )
    p.add_argument(
        "--family",
        choices=(ORTHOGONAL_PAIR, ORTHOGONAL_TRIPLE, "free-pair"),
        required=True,
    )
    p.add_argument("--samples", type=_int_between(1, MAX_SAMPLES), required=True)
    p.add_argument(
        "--theta-grid",
        type=_int_between(1, MAX_THETA_GRID),
        default=128,
        help="geometry search resolution for free-pair",
    )
    p.set_defaults(func=_cmd_classical_region)

    p = sub.add_parser(
        "spectrum", parents=[common], help="minimum eigenvalues of random projector products"
    )
    p.add_argument("--dim", type=int, choices=range(2, 17), metavar="DIM", required=True)
    p.add_argument(
        "--ranks", type=_numbers(2, int), required=True, help="projector ranks as 'r1,r2'"
    )
    p.add_argument("--pairs", type=_int_between(1, MAX_PAIRS), default=1000)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "entanglement", parents=[common], help="reduced-purity entanglement monotone"
    )
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--schmidt-alpha", type=float, help="cos(a)|00> + sin(a)|11>")
    g.add_argument(
        "--state", type=_json_file, help="state JSON with amps_re/amps_im or schmidt_alpha"
    )
    p.set_defaults(func=_cmd_entanglement)
    for p in sub.choices.values():
        p.set_defaults(error=p.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args)
        obj, columns, rows, comments = args.func(args)
    except (PseudoprobError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        _emit(json.dumps(obj) + "\n", args)
    else:
        _emit(_scan_csv(columns, rows, comments), args)
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
