"""The four workloads. Each is built from a seed, hands the runner its
operations one fixed cycle at a time, and checks every answer with checks.py.

All four are closed loops with one client: the next operation starts when
the previous one has returned and been checked.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import hostspeed
import pseudoprob as pp


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def unit_vectors(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ball(rng, n: int) -> np.ndarray:
    """Uniform in the Bloch ball: uniform direction, radius u^(1/3)."""
    return unit_vectors(rng, n) * rng.random(n)[:, None] ** (1.0 / 3.0)


class Workload:
    name = ""
    # whole cycles a run makes at least, so the tail rank stays in one kind
    min_cycles = 1
    # scale times by the in-process reference kernel (see run.reference_seconds)
    host_adjusted = True

    def cycle(self, i: int) -> list[Op]:
        raise NotImplementedError

    def traced_cycle(self, i: int) -> list[Op]:
        return self.cycle(i)

    def after_loop(self) -> tuple[dict, str | None] | None:
        """Checked work that follows the loop: (notes, failure or None)."""
        return None

    def probes(self) -> list[Op]:
        """Cases at the package's advertised caps, run once each under the
        deadline in the traced run; a miss is recorded, not hidden."""
        return []

    def layer_extras(self, untraced, probe_results, attempt) -> dict:
        """Per-layer metrics the spans do not give."""
        return {}


# ------------------------------------------------------------- qubit-sweep


def _user_scheme(p, dirs):
    rho = pp.density_from_bloch(p)
    obs = [pp.observable_from_direction(m) for m in dirs]
    s = pp.build_scheme(rho, obs)
    return s.values, pp.negativity(s), pp.classify(s)


class QubitSweep(Workload):
    """Random qubit pairs and triples through the matrix route, as a library
    user builds them, and the same geometries through the closed forms."""

    name = "qubit-sweep"
    PATTERN = (2, 2, 3)  # two pairs per triple

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        count = 64 if tiny else 4096
        self.geoms = {}
        for n, size in ((2, count), (3, count // 2)):
            self.geoms[n] = (ball(rng, size), unit_vectors(rng, size * n).reshape(size, n, 3))
        self.used = {2: 0, 3: 0}

    def cycle(self, i):
        ops = []
        for n in self.PATTERN:
            ps, ds = self.geoms[n]
            k = self.used[n] % len(ps)
            self.used[n] += 1
            ops.append(Op(f"N{n}", partial(_user_scheme, ps[k], ds[k]),
                          partial(checks.check_qubit_scheme, ps[k], ds[k])))
        return ops

    def closed_batch(self):
        (p2, d2), (p3, d3) = self.geoms[2], self.geoms[3]
        return (pp.pair_entries(p2, d2[:, 0], d2[:, 1]),
                pp.triple_entries(p3, d3[:, 0], d3[:, 1], d3[:, 2]))

    def after_loop(self):
        """Time the closed forms over every geometry as one batch; check them."""
        times = []
        for _ in range(21):
            t0 = perf_counter()
            batch = self.closed_batch()
            times.append(perf_counter() - t0)
        schemes = sum(len(g[0]) for g in self.geoms.values())
        failure = None
        for (ps, ds), entries in zip(self.geoms.values(), batch):
            for p, d, got in zip(ps, ds, entries):
                if np.abs(got - checks.closed_entries(p, d)).max() > checks.ROUTE_TOL:
                    failure = f"wrong: closed form differs from the reference for N={len(d)}"
        return {"closed_schemes_per_s": schemes / float(np.median(times)), "closed_batch": schemes}, failure


# ---------------------------------------------------------- wide-orderings

# (recipe, dimension, observables); one operation of each per cycle. Four
# kinds cost less than unit N4 and weights N4 and four cost more, so the
# median falls between those two, which do the same work
WIDE_KINDS = (
    ("weyl", 2, 4), ("weyl", 2, 5), ("weyl", 2, 6),
    ("unit", 2, 4), ("unit", 2, 5), ("weights", 2, 4),
    ("weyl", 3, 2), ("weyl", 3, 3), ("unit", 3, 3), ("weyl", 3, 4),
)
# MAX_GENERATORS Weyl, and the unit recipe at N = 6
WIDE_PROBES = (("weyl", 2, 8), ("unit", 2, 6))


def _haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class OrderingCase:
    """A state, observables and recipe, with the projectors the reference uses."""

    def __init__(self, rng, recipe: str, d: int, n: int):
        units = math.factorial(n) // 2
        if d == 2:
            p, dirs = ball(rng, 1)[0], unit_vectors(rng, n)
            self.rho = pp.density_from_bloch(p)
            self.obs = [pp.observable_from_direction(m) for m in dirs]
            self.projs = [[checks.qubit_matrix(m, +1), checks.qubit_matrix(m, -1)] for m in dirs]
        else:
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = g @ g.conj().T
            self.rho = pp.DensityMatrix(rho / np.trace(rho).real)
            self.obs, self.projs = [], []
            for _ in range(n):  # non-degenerate: outcomes 1, 0, -1
                u = _haar_unitary(rng, d)
                projs = [np.outer(u[:, i], u[:, i].conj()) for i in range(d)]
                outcomes = tuple(range(1, 1 - d, -1))
                op = sum(a * q for a, q in zip(outcomes, projs))
                self.obs.append(pp.Observable(
                    op=pp.HermitianOperator(op),
                    resolution=tuple((a, pp.HermitianOperator(q)) for a, q in zip(outcomes, projs)),
                ))
                self.projs.append(projs)
        if recipe == "weyl":
            self.recipe, self.weights = pp.Recipe.weyl(), None
        elif recipe == "unit":
            k = int(rng.integers(units))
            self.recipe, self.weights = pp.Recipe.unit(k), [float(i == k) for i in range(units)]
        else:
            w = rng.dirichlet(np.ones(units))
            self.recipe, self.weights = pp.Recipe.convex(w), list(w)
        self._reference = None

    def run(self):
        s = pp.build_scheme(self.rho, self.obs, self.recipe)
        return s.values, pp.negativity(s)

    def check(self, result):
        if self._reference is None:
            rho = self.rho.matrix
            ref = (checks.weyl_reference(rho, self.projs) if self.weights is None
                   else checks.ordering_reference(rho, self.projs, self.weights))
            born = [np.array([np.trace(rho @ q).real for q in projs]) for projs in self.projs]
            self._reference = ref, born
        return checks.check_entries(*self._reference, result)


class WideOrderings(Workload):
    """Schemes whose cost is the ordering enumeration and unit dedup."""

    name = "wide-orderings"
    min_cycles = 12  # the slowest kind then holds the tail rank
    CASES_PER_KIND = 4

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        kinds = [k for k in WIDE_KINDS if k[2] <= 4] if tiny else WIDE_KINDS
        self.cases = {k: [OrderingCase(self.rng, *k) for _ in range(1 if tiny else self.CASES_PER_KIND)]
                      for k in kinds}

    def cycle(self, i):
        ops = []
        for (recipe, d, n), cases in self.cases.items():
            case = cases[i % len(cases)]
            ops.append(Op(f"{recipe} d{d} N{n}", case.run, case.check))
        return ops

    def probes(self):
        ops = []
        for recipe, d, n in WIDE_PROBES:
            case = OrderingCase(self.rng, recipe, d, n)
            ops.append(Op(f"{recipe} d{d} N{n}", case.run, case.check))
        return ops


# ------------------------------------------------------------ coarse-grain

def _weyl_scheme(p, dirs):
    return pp.build_scheme(pp.density_from_bloch(p), [pp.observable_from_direction(m) for m in dirs])


class CoarseGrain(Workload):
    """minimal_coarse_graining over Weyl schemes prebuilt in set-up, from the
    first seeded random qubit triples as they come. The search cost grows
    with the scheme's negative entries; over 200,000 triples 3.4%, 25.3%,
    48.2%, 19.7% and 3.4% have 0, 1, 2, 3 and 4 of them, and none more."""

    name = "coarse-grain"

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = rng = np.random.default_rng(seed)
        self.e16_probes = 1 if tiny else 3
        n = 8 if tiny else 1024
        self.pool = []
        for p, dirs in zip(ball(rng, n), unit_vectors(rng, 3 * n).reshape(n, 3, 3)):
            s = _weyl_scheme(p, dirs)
            self.pool.append((int((s.values < -checks.EPS).sum()), s))
        self.optimum: dict[int, tuple] = {}

    def _check(self, i, cg):
        scheme = self.pool[i][1]
        if i not in self.optimum:
            self.optimum[i] = checks.partition_optimum([float(v) for v in scheme.values])
        return checks.check_coarse_graining(scheme.values, scheme.outcome_tuples, cg, self.optimum[i])

    def cycle(self, i):
        return [Op(f"E8 neg{k}", partial(pp.minimal_coarse_graining, s), partial(self._check, j))
                for j, (k, s) in enumerate(self.pool)]

    def probes(self):
        """16-event schemes (4 qubit observables), at MAX_PARTITION_EVENTS."""
        n = self.e16_probes
        schemes = [_weyl_scheme(p, d) for p, d in zip(ball(self.rng, n), unit_vectors(self.rng, 4 * n).reshape(n, 4, 3))]
        self.e16_negatives = [int((s.values < -checks.EPS).sum()) for s in schemes]
        return [Op(f"E16 neg{k}", partial(pp.minimal_coarse_graining, s),
                   partial(checks.check_coarse_graining, s.values, s.outcome_tuples))
                for k, s in zip(self.e16_negatives, schemes)]

    def layer_extras(self, untraced, probe_results, attempt):
        # a missed probe counts as the deadline
        return {
            "schemes.coarse_grain_us.E16": float(np.median([r["seconds"] for r in probe_results])) * 1e6,
            "schemes.negative_entries.E16": float(np.mean(self.e16_negatives)),
        }


# -------------------------------------------------------------------- cli

# every invocation the README documents, with the check of its output
CLI_INVOCATIONS = (
    ("scheme --bloch 0,0,0 --dirs coplanar120 --recipe weyl", checks.check_scheme_json),
    ("scheme --bloch 0,0,0 --dirs coplanar120 --format csv", checks.check_scheme_csv),
    ("scheme --bloch 0.6,0,0.4 --dirs coplanar120 --recipe unit:0", checks.check_scheme_unit0),
    ("scan-negativity --pnorm 1.0 --steps 181 --format csv", checks.check_scan),
    ("classical-region --family orthogonal-pair --samples 100000 --seed 1",
     checks.check_region_radius("orthogonal-pair", math.sqrt(0.5), 100000)),
    ("classical-region --family orthogonal-triple --samples 100000",
     checks.check_region_radius("orthogonal-triple", math.sqrt(1 / 3), 100000)),
    ("classical-region --family free-pair --samples 10000", checks.check_region_free_pair(10000)),
    ("spectrum --dim 4 --ranks 2,1 --pairs 1000 --seed 7", checks.check_spectrum(1000)),
    ("entanglement --schmidt-alpha 0.7853981633974483", checks.check_entanglement),
)
# what the installed `pseudoprob` console script runs, after starting the
# host-speed samples (hostspeed.py) that the parent scales the call's time by
ENTRY_POINT = (
    "import hostspeed\nhostspeed.start()\nhostspeed.report_at_exit()\n"
    "import sys\nfrom pseudoprob.cli import run\nsys.argv[0] = 'pseudoprob'\nrun()\n"
)


def _in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pp.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return buf.getvalue()


class Cli(Workload):
    """The README's CLI invocations, one subprocess at a time, in a seeded order."""

    name = "cli"
    min_cycles = 6  # the two slowest invocations then hold the tail rank
    # each child samples the host's speed itself; the parent only waits
    host_adjusted = False

    def __init__(self, seed: int, tiny: bool = False):
        import pseudoprob.cli  # noqa: F401  loaded before any tracing starts

        self.root = Path(__file__).resolve().parents[1]
        paths = [str(Path(__file__).resolve().parent), str(self.root / "src"), os.environ.get("PYTHONPATH")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        self.order = np.random.default_rng(seed).permutation(len(CLI_INVOCATIONS))
        self.stdout_dir = Path(__file__).resolve().parent / "results"
        self.stdout_dir.mkdir(exist_ok=True)

    def _subprocess(self, argv):
        # stdout goes to a file: about 1% of the time, a child whose write to
        # a full pipe was interrupted by its sampling signal exited 0 with
        # only the first 64 KiB of `spectrum`'s output delivered
        with tempfile.TemporaryFile("w+", encoding="utf-8", dir=self.stdout_dir) as out:
            proc = subprocess.run([sys.executable, "-c", ENTRY_POINT, *argv], cwd=self.root, env=self.env,
                                  stdout=out, stderr=subprocess.PIPE, text=True)
            out.seek(0)
            stdout = out.read()
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        if hostspeed.in_flight is not None:
            hostspeed.in_flight.extend(hostspeed.child_samples(proc.stderr))
        return stdout

    def _ops(self, runner):
        ops = []
        for k in self.order:
            text, check = CLI_INVOCATIONS[k]
            argv = text.split() + ["--deterministic"]
            ops.append(Op(text, partial(runner, argv), check))
        return ops

    def cycle(self, i):
        return self._ops(self._subprocess)

    def traced_cycle(self, i):
        # spans can only be recorded in this process
        return self._ops(_in_process)

    def layer_extras(self, untraced, probe_results, attempt):
        """In-process main() per subcommand, and the share of a subprocess
        call spent outside main(): interpreter start plus imports."""
        inproc: dict[str, list] = {}
        for kind, dt in zip(untraced.kinds, untraced.latencies(adjusted=False)):
            inproc.setdefault(kind, []).append(dt)
        out = {}
        for sub in ("scheme", "scan-negativity", "classical-region", "spectrum", "entanglement"):
            times = [dt for kind, ts in inproc.items() if kind.split()[0] == sub for dt in ts]
            out[f"cli.main_ms.{sub}"] = float(np.median(times)) * 1e3
        shares = []
        for op in self.cycle(0):
            dt, _, failure = attempt(op)
            if failure is None:
                shares.append(1.0 - float(np.median(inproc[op.kind])) / dt)
        out["cli.startup_share"] = float(np.median(shares))
        return out


WORKLOADS = {w.name: w for w in (QubitSweep, WideOrderings, CoarseGrain, Cli)}
