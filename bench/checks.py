"""Independent references the benchmark checks every answer against.

Nothing here imports pseudoprob. Each reference is computed from the
generated inputs with plain numpy, by another route than the package takes:
closed qubit formulas written out from the paper, the Weyl average by subset
recursion instead of permutation enumeration, single orderings by their
reversal-class representative, and the optimal coarse-graining by a DP over
subsets instead of backtracking. Every check returns None when the answer
holds and a one-line reason when it does not.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

EPS = 1e-10  # the package's default classicality tolerance
ROUTE_TOL = 1e-12  # matrix route against an independent route
AXIOM_TOL = 1e-10  # normalisation and Born marginals
RADIUS_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def qubit_matrix(v, scale=1.0) -> np.ndarray:
    """(1 + scale * sigma.v) / 2."""
    return 0.5 * (I2 + scale * np.tensordot(np.asarray(v, dtype=float), PAULI, axes=1))


# ------------------------------------------------------------------ qubits


def closed_entries(p, dirs) -> np.ndarray:
    """Pair or Weyl-triple entries from the closed forms, canonical order.

    pair:   (1 + a1 a2 m1.m2 + P.(a1 m1 + a2 m2)) / 4
    triple: (1 + P.sum a_i m_i + sum_{i<j} a_i a_j m_i.m_j
             + (a1 a2 a3 / 3) sum_cyc (P.m_i)(m_j.m_k)) / 8
    """
    p = np.asarray(p, dtype=float)
    ms = [np.asarray(m, dtype=float) for m in dirs]
    n = len(ms)
    pm = [float(p @ m) for m in ms]
    mm = {(i, j): float(ms[i] @ ms[j]) for i in range(n) for j in range(i + 1, n)}
    out = []
    for a in itertools.product((1, -1), repeat=n):
        s = 1.0 + sum(a[i] * pm[i] for i in range(n))
        s += sum(a[i] * a[j] * c for (i, j), c in mm.items())
        if n == 3:
            cyc = pm[0] * mm[(1, 2)] + pm[1] * mm[(0, 2)] + pm[2] * mm[(0, 1)]
            s += a[0] * a[1] * a[2] * cyc / 3.0
        out.append(s / 2**n)
    return np.array(out)


def qubit_born(p, dirs) -> list:
    """Born probabilities (1 + a P.m)/2 per observable, outcomes (+1, -1)."""
    return [np.array([0.5 * (1 + float(np.dot(p, m))), 0.5 * (1 - float(np.dot(p, m)))]) for m in dirs]


def check_axioms(values, born) -> str | None:
    """Entries sum to one and every one-observable marginal is the Born rule."""
    values = np.asarray(values, dtype=float)
    if abs(values.sum() - 1.0) > AXIOM_TOL:
        return f"entries sum to {values.sum()!r}"
    arr = values.reshape([len(b) for b in born])
    for i, b in enumerate(born):
        others = tuple(k for k in range(len(born)) if k != i)
        marg = arr.sum(axis=others) if others else arr
        if np.abs(marg - b).max() > AXIOM_TOL:
            return f"marginal of observable {i} is not the Born rule"
    return None


def check_verdict(reference, tuples, negativity, classification) -> str | None:
    """Negativity and negative-entry list against the reference entries."""
    ref_neg = max(0.0, 0.5 * (float(np.abs(reference).sum()) - 1.0))
    if abs(negativity - ref_neg) > ROUTE_TOL:
        return f"negativity {negativity!r}, expected {ref_neg!r}"
    expected = {t for v, t in zip(reference, tuples) if v < -EPS}
    got = [t for t, _ in classification.negative_entries]
    vals = [v for _, v in classification.negative_entries]
    if set(got) != expected or classification.classical != (not expected):
        return f"negative entries {got}, expected {sorted(expected)}"
    if vals != sorted(vals):
        return "negative entries are not listed most negative first"
    return None


def check_qubit_scheme(p, dirs, result) -> str | None:
    values, negativity, classification = result
    ref = closed_entries(p, dirs)
    if np.abs(np.asarray(values) - ref).max() > ROUTE_TOL:
        return "matrix route differs from the closed form"
    tuples = list(itertools.product((1, -1), repeat=len(dirs)))
    return check_axioms(values, qubit_born(p, dirs)) or check_verdict(
        ref, tuples, negativity, classification
    )


# -------------------------------------------------------------- orderings


def _tuple_stacks(projector_lists) -> np.ndarray:
    """(T, N, d, d): the projectors of every outcome tuple, canonical order."""
    return np.array(
        [[projs[k] for projs, k in zip(projector_lists, idx)]
         for idx in itertools.product(*(range(len(p)) for p in projector_lists))]
    )


def _entries(rho, ops) -> np.ndarray:
    ops = 0.5 * (ops + np.conj(np.swapaxes(ops, -1, -2)))
    return np.einsum("jk,tkj->t", rho, ops).real


def weyl_reference(rho, projector_lists) -> np.ndarray:
    """Weyl entries by the subset recursion S(A) = sum_{i in A} P_i S(A - {i}),
    which sums every ordered product of A with 2^N N products instead of N! N."""
    mats = _tuple_stacks(projector_lists)
    t, n, d, _ = mats.shape
    sums = [np.broadcast_to(np.eye(d, dtype=complex), (t, d, d))]
    for mask in range(1, 1 << n):
        acc = np.zeros((t, d, d), dtype=complex)
        for i in range(n):
            if mask >> i & 1:
                acc += mats[:, i] @ sums[mask ^ (1 << i)]
        sums.append(acc)
    return _entries(rho, sums[-1] / math.factorial(n))


def class_representatives(n: int) -> list:
    """One ordering per reversal class, the lexicographically smaller one,
    in lexicographic order: the order the package indexes units in."""
    return [p for p in itertools.permutations(range(n)) if p < p[::-1]]


def ordering_reference(rho, projector_lists, weights) -> np.ndarray:
    """Entries of the convex combination of hermitized single orderings."""
    mats = _tuple_stacks(projector_lists)
    acc = np.zeros(mats.shape[:1] + mats.shape[2:], dtype=complex)
    for w, perm in zip(weights, class_representatives(mats.shape[1])):
        if w:
            prod = mats[:, perm[0]]
            for k in perm[1:]:
                prod = prod @ mats[:, k]
            acc += w * prod
    return _entries(rho, acc)


def check_entries(reference, born, result) -> str | None:
    values, negativity = result
    if np.abs(np.asarray(values) - reference).max() > ROUTE_TOL:
        return "entries differ from the independent ordering sum"
    ref_neg = max(0.0, 0.5 * (float(np.abs(reference).sum()) - 1.0))
    if abs(negativity - ref_neg) > ROUTE_TOL:
        return f"negativity {negativity!r}, expected {ref_neg!r}"
    return check_axioms(values, born)


# --------------------------------------------------------- coarse-graining


def partition_optimum(values, eps: float = EPS) -> tuple:
    """(most blocks, number of partitions with that many) over every set
    partition of the events into blocks with sums >= -eps.

    DP over subsets: the block holding a subset's lowest event ranges over
    all its submasks, so every set partition is counted exactly once.
    """
    n = len(values)
    size = 1 << n
    sums = [0.0] * size
    for mask in range(1, size):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    best = [(0, 1)] + [(-1, 0)] * (size - 1)
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        top, count = -1, 0
        sub = rest
        while True:
            block = sub | low
            if sums[block] >= -eps:
                b, c = best[mask ^ block]
                if b >= 0:
                    if b + 1 > top:
                        top, count = b + 1, c
                    elif b + 1 == top:
                        count += c
            if not sub:
                break
            sub = (sub - 1) & rest
        best[mask] = (top, count)
    return best[-1]


def check_coarse_graining(values, tuples, cg, optimum=None) -> str | None:
    """The partition covers each event once with block sums >= -eps; with an
    optimum, block count and maximizer count match it."""
    index = {t: i for i, t in enumerate(tuples)}
    try:
        blocks = [[index[t] for t in block] for block in cg.partition]
    except KeyError as exc:
        return f"unknown event {exc}"
    if sorted(i for b in blocks for i in b) != list(range(len(tuples))):
        return "partition does not cover each event exactly once"
    if any(sum(values[i] for i in b) < -EPS for b in blocks):
        return "a block sums below -eps"
    if cg.block_count != len(blocks):
        return f"block_count {cg.block_count} but {len(blocks)} blocks"
    if optimum is not None and (cg.block_count, cg.num_maximizers) != optimum:
        return f"(blocks, maximizers) = {(cg.block_count, cg.num_maximizers)}, expected {optimum}"
    return None


# ---------------------------------------------------------------------- cli

COPLANAR_ENTRIES = {(1, 1, 1): -1 / 16, (-1, -1, -1): -1 / 16}


def _coplanar(entries) -> str | None:
    if len(entries) != 8:
        return f"{len(entries)} entries, expected 8"
    for t, p in entries.items():
        if abs(p - COPLANAR_ENTRIES.get(t, 3 / 16)) > ROUTE_TOL:
            return f"entry {t} = {p!r}"
    return None


def _json_entries(doc) -> dict:
    return {tuple(e["a"]): e["p"] for e in doc["entries"]}


def check_scheme_json(out: str) -> str | None:
    doc = json.loads(out)
    if abs(doc["negativity"] - 0.125) > ROUTE_TOL or doc["classical"]:
        return "coplanar verdict wrong"
    return _coplanar(_json_entries(doc))


def check_scheme_csv(out: str) -> str | None:
    lines = out.strip().splitlines()
    if lines[0] != "a1,a2,a3,p" or lines[-2:] != ["# negativity=0.125", "# classical=false"]:
        return "csv header or verdict comments wrong"
    rows = [line.split(",") for line in lines[1:-2]]
    return _coplanar({tuple(int(x) for x in r[:3]): float(r[3]) for r in rows})


def check_scheme_unit0(out: str) -> str | None:
    doc = json.loads(out)
    p = np.array([0.6, 0.0, 0.4])
    dirs = [np.array(o["m"]) for o in doc["observables"]]
    projs = [[qubit_matrix(m, +1), qubit_matrix(m, -1)] for m in dirs]
    ref = ordering_reference(qubit_matrix(p), projs, [1.0])
    got = np.array([e["p"] for e in doc["entries"]])
    if len(got) != 8 or np.abs(got - ref).max() > ROUTE_TOL:
        return "unit:0 entries differ from the (1,2,3) ordering"
    return check_axioms(got, qubit_born(p, dirs))


def _csv_rows(out: str) -> list:
    lines = [line for line in out.strip().splitlines() if not line.startswith("#")]
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def check_scan(out: str) -> str | None:
    rows = _csv_rows(out)
    if len(rows) != 181:
        return f"{len(rows)} rows, expected 181"
    for r in rows:
        c = math.cos(0.5 * float(r["theta"]))
        if abs(float(r["negativity"]) - max(0.0, 0.5 * (c - c * c))) > ROUTE_TOL:
            return f"negativity wrong at theta={r['theta']}"
    return None


def _region_row(out: str, family: str, samples: int) -> dict:
    doc = json.loads(out)
    row = doc["rows"][0]
    if row["family"] != family or row["samples"] != samples:
        raise ValueError("row does not echo the family and sample count")
    return row


def check_region_radius(family: str, radius: float, samples: int):
    def check(out: str) -> str | None:
        row = _region_row(out, family, samples)
        if abs(row["critical_radius"] - radius) > RADIUS_TOL:
            return f"critical radius {row['critical_radius']!r}, expected {radius!r}"
        # uniform ball: the share inside radius r is r^3
        frac, se = row["euclidean_volume_fraction"], row["euclidean_volume_fraction_se"]
        if abs(frac - radius**3) > 5 * se + 1 / samples:
            return f"volume fraction {frac!r} far from r^3 = {radius**3!r}"
        return None

    return check


def check_region_free_pair(samples: int, grid: int = 128):
    # |P| > cos(theta/2) somewhere on the grid: the widest grid angle decides
    c_min = math.cos(0.5 * math.pi * grid / (grid + 1))
    expected = 1.0 - c_min**3

    def check(out: str) -> str | None:
        frac = _region_row(out, "free-pair", samples)["nonclassical_fraction"]
        if abs(frac - expected) > 5 * math.sqrt(expected * (1 - expected) / samples) + 1 / samples:
            return f"nonclassical fraction {frac!r}, expected about {expected!r}"
        return None

    return check


def check_spectrum(pairs: int):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        rows = doc["rows"]
        noncommuting = [r for r in rows if r["commutator_norm"] > 1e-6]
        if len(rows) != pairs or doc["summary"]["noncommuting"] != len(noncommuting):
            return "row or noncommuting count wrong"
        # (PQ + QP)/2 of two projectors has spectrum in [-1/8, 1], negative
        # exactly when they fail to commute
        if doc["summary"]["violations"] != 0 or any(r["min_eig"] >= 0 for r in noncommuting):
            return "a noncommuting pair without a negative eigenvalue"
        if any(r["min_eig"] < -0.125 - ROUTE_TOL for r in rows):
            return "a minimum eigenvalue below -1/8"
        return None

    return check


def check_entanglement(out: str) -> str | None:
    row = json.loads(out)
    if abs(row["monotone"] - 1.0) > ROUTE_TOL or row["reduced_bloch_norm"] > ROUTE_TOL:
        return f"monotone {row['monotone']!r} at alpha = pi/4, expected 1"
    return None
