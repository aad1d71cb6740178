"""Command-line front end: scheme evaluation, negativity sweeps, classical-region
estimation, spectrum audits, and entanglement queries.

Exit codes: 0 success, 2 usage or input parse error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import PseudoprobError
from .operators import HermitianOperator, symmetrized_product
from .pseudoprojection import PseudoProjection, Recipe, spectral_audit
from .qubit import (
    ORTHOGONAL_PAIR,
    ORTHOGONAL_TRIPLE,
    PairGeometry,
    coplanar_triple_directions,
    critical_radius_bisection,
    negativity_max,
    negativity_special,
    pair_entries,
)
from .schemes import build_scheme, classify, negativity, scheme_to_json
from .states import direction, direction_from_json, observable_from_direction, state_from_json
from .tolerances import CLASSICALITY_EPS, COMMUTATOR_CUTOFF, NEGATIVE_EIG_CUTOFF, THETA_MARGIN
from . import entanglement as ent

PRNG_NAME = "numpy default_rng (PCG64)"
_AXES = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


class CliInputError(Exception):
    """Malformed user input (maps to exit code 2)."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _metadata(args, extra: dict | None = None) -> dict:
    md = {
        "tool": "pseudoprob",
        "version": __version__,
        "prng": PRNG_NAME,
        "eps": args.eps,
    }
    if extra:
        md.update(extra)
    if not args.deterministic:
        md["timestamp"] = datetime.now(timezone.utc).isoformat()
    return md


def _scan_json(kind: str, params: dict, rows: list, args, summary: dict | None = None) -> str:
    obj = {"kind": kind, "params": params, "rows": rows}
    if summary is not None:
        obj["summary"] = summary
    obj["metadata"] = _metadata(args)
    return json.dumps(obj) + "\n"


def _scan_csv(columns: list[str], rows: list, comments: list[str] | None = None) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns))
    if comments:
        lines.extend(comments)
    return "\n".join(lines) + "\n"


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliInputError(f"cannot read JSON from {path}: {exc}") from exc


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise CliInputError(f"{what}: expected comma-separated numbers, got {text!r}") from exc
    if len(vals) != n:
        raise CliInputError(f"{what}: expected {n} components, got {len(vals)}")
    return vals


def _parse_dirs(tokens: list[str] | None, dirs_file: str | None) -> list[np.ndarray]:
    if (tokens is None) == (dirs_file is None):
        raise CliInputError("provide directions via --dirs or --dirs-file (exactly one)")
    if dirs_file is not None:
        data = _load_json_file(dirs_file)
        if not isinstance(data, list):
            raise CliInputError("--dirs-file must hold a JSON list of direction objects")
        return [direction_from_json(obj) for obj in data]
    out: list[np.ndarray] = []
    for tok in tokens:
        if tok in _AXES:
            out.append(direction(_AXES[tok]))
        elif tok == "coplanar120":
            out.extend(coplanar_triple_directions())
        else:
            out.append(direction(_parse_floats(tok, 3, f"direction {tok!r}")))
    return out


def _parse_recipe(text: str) -> Recipe:
    if text == "weyl":
        return Recipe.weyl()
    if text.startswith("unit:"):
        try:
            return Recipe.unit(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise CliInputError(f"bad unit recipe {text!r}") from exc
    try:
        return Recipe.convex([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise CliInputError(
            f"recipe must be 'weyl', 'unit:K', or comma-separated weights, got {text!r}"
        ) from exc


def _angle(value: float, args) -> float:
    return math.radians(value) if args.degrees else float(value)


def _sample_ball(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points in the unit ball: random direction, radius ~ u^(1/3)."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = rng.random(n) ** (1.0 / 3.0)
    return v * r[:, None]


def _haar_projector(rng: np.random.Generator, dim: int, rank: int) -> HermitianOperator:
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(z)
    return HermitianOperator(q @ q.conj().T)


# ---------------------------------------------------------------- subcommands


def _cmd_scheme(args) -> int:
    if (args.bloch is None) == (args.state is None):
        raise CliInputError("provide the state via --bloch or --state (exactly one)")
    if args.bloch is not None:
        rho = state_from_json({"bloch": _parse_floats(args.bloch, 3, "--bloch")})
    else:
        rho = state_from_json(_load_json_file(args.state))
    dirs = _parse_dirs(args.dirs, args.dirs_file)
    recipe = _parse_recipe(args.recipe)
    observables = [observable_from_direction(m) for m in dirs]
    scheme = build_scheme(rho, observables, recipe)
    if args.format == "json":
        _emit(json.dumps(scheme_to_json(scheme, eps=args.eps)) + "\n", args.out)
    else:
        n = scheme.n_observables
        cols = [f"a{i+1}" for i in range(n)] + ["p"]
        lines = [",".join(cols)]
        for t, v in zip(scheme.outcome_tuples, scheme.values):
            lines.append(",".join([str(int(a)) for a in t] + [_fmt(v)]))
        lines.append(f"# negativity={_fmt(negativity(scheme))}")
        lines.append(f"# classical={'true' if classify(scheme, args.eps).classical else 'false'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_scan_negativity(args) -> int:
    if args.steps < 2:
        raise CliInputError(f"--steps must be at least 2, got {args.steps}")
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
        raise CliInputError("--theta-max must not be below --theta-min")
    thetas = np.linspace(clipped_lo, clipped_hi, args.steps)
    rows = [
        {"theta": float(t), "negativity": negativity_special(args.pnorm, float(t))}
        for t in thetas
    ]
    params = {
        "pnorm": args.pnorm,
        "theta_min": clipped_lo,
        "theta_max": clipped_hi,
        "steps": args.steps,
        "seed": args.seed,
    }
    if args.format == "json":
        _emit(_scan_json("scan-negativity", params, rows, args), args.out)
    else:
        _emit(_scan_csv(["theta", "negativity"], rows), args.out)
    return 0


def _cmd_classical_region(args) -> int:
    rng = np.random.default_rng(args.seed)
    states = _sample_ball(rng, args.samples)
    pnorms = np.linalg.norm(states, axis=1)
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
        cols = list(row.keys())
    else:  # free-pair: sweep the aligned geometry over a theta grid per state
        grid = np.pi * np.arange(1, args.theta_grid + 1) / (args.theta_grid + 1)
        params["theta_grid_points"] = args.theta_grid
        pvecs = np.zeros((args.samples, 3))
        pvecs[:, 2] = pnorms
        nonclassical = np.zeros(args.samples, dtype=bool)
        for theta in grid:
            g = PairGeometry.aligned(0.0, float(theta))
            entries = pair_entries(pvecs, g.m1, g.m2)
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
        cols = list(row.keys())
    if args.format == "json":
        _emit(_scan_json("classical-region", params, [row], args), args.out)
    else:
        _emit(_scan_csv(cols, [row]), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    ranks = _parse_floats(args.ranks, 2, "--ranks")
    r1, r2 = int(ranks[0]), int(ranks[1])
    if not (1 <= r1 <= args.dim and 1 <= r2 <= args.dim):
        raise CliInputError(f"ranks {r1},{r2} out of range for dim {args.dim}")
    rng = np.random.default_rng(args.seed)
    rows = []
    noncommuting = violations = 0
    for i in range(args.pairs):
        p1 = _haar_projector(rng, args.dim, r1)
        p2 = _haar_projector(rng, args.dim, r2)
        pp = PseudoProjection(symmetrized_product(p1, p2), (p1, p2), Recipe.weyl())
        audit = spectral_audit(pp)
        if audit.commutator_norm > COMMUTATOR_CUTOFF:
            noncommuting += 1
            if audit.min_eig >= -NEGATIVE_EIG_CUTOFF:
                violations += 1
        rows.append({"pair": i, "min_eig": audit.min_eig, "commutator_norm": audit.commutator_norm})
    params = {
        "dim": args.dim,
        "ranks": [r1, r2],
        "pairs": args.pairs,
        "seed": args.seed,
    }
    summary = {"pairs": args.pairs, "noncommuting": noncommuting, "violations": violations}
    if args.format == "json":
        _emit(_scan_json("spectrum", params, rows, args, summary=summary), args.out)
    else:
        comments = [
            f"# noncommuting={noncommuting}",
            f"# violations={violations}",
        ]
        _emit(_scan_csv(["pair", "min_eig", "commutator_norm"], rows, comments), args.out)
    return 0


def _cmd_entanglement(args) -> int:
    if (args.schmidt_alpha is None) == (args.state is None):
        raise CliInputError("provide the state via --schmidt-alpha or --state (exactly one)")
    if args.schmidt_alpha is not None:
        psi = ent.TwoQubitPureState.from_schmidt(_angle(args.schmidt_alpha, args))
    else:
        psi = ent.pure_state_from_json(_load_json_file(args.state))
    p_r = ent.reduced_bloch_norm(psi, 0)
    row = {
        "reduced_bloch_norm": p_r,
        "n_max_reduced": negativity_max(p_r).value,
        "monotone": ent.monotone(psi),
    }
    if args.format == "json":
        _emit(json.dumps(row) + "\n", args.out)
    else:
        _emit(_scan_csv(list(row.keys()), [row]), args.out)
    return 0


# -------------------------------------------------------------------- parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


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
        "--eps", type=float, default=CLASSICALITY_EPS, help="classicality tolerance"
    )
    common.add_argument(
        "--degrees", action="store_true", help="interpret angle inputs as degrees"
    )

    parser = argparse.ArgumentParser(
        prog="pseudoprob",
        description="Pseudo-probability schemes and negativity diagnostics for qubits",
    )
    parser.add_argument("--version", action="version", version=f"pseudoprob {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scheme", parents=[common], help="evaluate a pseudo-probability scheme")
    p.add_argument("--bloch", help="state polarisation as 'x,y,z'")
    p.add_argument("--state", help="state JSON file with 'bloch' or 'rho'")
    p.add_argument(
        "--dirs",
        nargs="+",
        help="directions: axis names (x, y, z), 'coplanar120', or 'a,b,c' vectors",
    )
    p.add_argument("--dirs-file", help="JSON file with a list of {\"m\": [x,y,z]}")
    p.add_argument("--recipe", default="weyl", help="'weyl', 'unit:K', or weights 'w1,w2,...'")
    p.set_defaults(func=_cmd_scheme)

    p = sub.add_parser(
        "scan-negativity", parents=[common], help="aligned-geometry negativity vs theta"
    )
    p.add_argument("--pnorm", type=float, required=True, help="polarisation magnitude |P|")
    p.add_argument("--theta-min", type=float, default=THETA_MARGIN)
    p.add_argument("--theta-max", type=float, default=math.pi - THETA_MARGIN)
    p.add_argument("--steps", type=int, default=181)
    p.set_defaults(func=_cmd_scan_negativity)

    p = sub.add_parser(
        "classical-region", parents=[common], help="classical-state fractions per family"
    )
    p.add_argument(
        "--family",
        choices=(ORTHOGONAL_PAIR, ORTHOGONAL_TRIPLE, "free-pair"),
        required=True,
    )
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument(
        "--theta-grid",
        type=_positive_int,
        default=128,
        help="geometry search resolution for free-pair",
    )
    p.set_defaults(func=_cmd_classical_region)

    p = sub.add_parser(
        "spectrum", parents=[common], help="minimum eigenvalues of random projector products"
    )
    p.add_argument("--dim", type=int, choices=range(2, 17), metavar="DIM", required=True)
    p.add_argument("--ranks", required=True, help="projector ranks as 'r1,r2'")
    p.add_argument("--pairs", type=_positive_int, default=1000)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "entanglement", parents=[common], help="reduced-purity entanglement monotone"
    )
    p.add_argument("--schmidt-alpha", type=float, help="cos(a)|00> + sin(a)|11>")
    p.add_argument("--state", help="state JSON with amps_re/amps_im or schmidt_alpha")
    p.set_defaults(func=_cmd_entanglement)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PseudoprobError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
