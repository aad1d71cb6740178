"""Independent oracle implementations used to cross-check library results.

Everything here is deliberately written from scratch (direct 2x2 arithmetic,
recursive partition enumeration, golden-section search) so the tests never
share a code path with the functions they check.
"""

import itertools
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def proj_matrix(m, a):
    m = np.asarray(m, dtype=float)
    return 0.5 * (I2 + a * (m[0] * SX + m[1] * SY + m[2] * SZ))


def rho_matrix(p):
    p = np.asarray(p, dtype=float)
    return 0.5 * (I2 + p[0] * SX + p[1] * SY + p[2] * SZ)


def weyl_oracle(mats):
    acc = np.zeros_like(mats[0])
    for perm in itertools.permutations(range(len(mats))):
        prod = mats[perm[0]]
        for k in perm[1:]:
            prod = prod @ mats[k]
        acc = acc + prod
    acc = acc / math.factorial(len(mats))
    return 0.5 * (acc + acc.conj().T)


def hermitized_chain(mats, order):
    """(A + A^dag) * 0.5 for the product A of `mats` taken in `order`, formed
    left to right: the unit of one ordering. Each matrix may be a (d, d)
    matrix or a stack of them, broadcast as numpy does."""
    prod = mats[order[0]]
    for k in order[1:]:
        prod = prod @ mats[k]
    return (prod + prod.conj().swapaxes(-1, -2)) * 0.5


def weyl_polarisation_oracle(mats):
    """Weyl average by inclusion-exclusion over subsets, the noncommutative
    analogue of Ryser's permanent formula:
    sum_S (-1)^(N-|S|) (sum_{i in S} A_i)^N / N!."""
    n = len(mats)
    acc = np.zeros_like(mats[0])
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            total = sum(mats[i] for i in subset)
            acc = acc + (-1) ** (n - r) * np.linalg.matrix_power(total, n)
    return acc / math.factorial(n)


def scheme_oracle(p, ms):
    """Trace-route scheme entries for qubit directions, canonical order."""
    rho = rho_matrix(p)
    values = []
    for a in itertools.product((1, -1), repeat=len(ms)):
        op = weyl_oracle([proj_matrix(m, ai) for m, ai in zip(ms, a)])
        values.append(float(np.trace(rho @ op).real))
    return np.array(values)


def all_partitions(items):
    """Every set partition, generated by recursive insertion."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def canonical_partition(part):
    return tuple(sorted(tuple(sorted(b)) for b in part))


def loop_sum(xs):
    """xs added left to right, one float addition at a time; sum() of floats
    is compensated from Python 3.12 on."""
    total = 0.0
    for x in xs:
        total += x
    return total


def best_partitions(values, eps=1e-10, total=loop_sum):
    """Exhaustive search: (max feasible block count, sorted canonical
    maximizers), each block's values added up by `total` in ascending event
    order."""
    best = -1
    winners = []
    for part in all_partitions(range(len(values))):
        if all(total(values[i] for i in block) >= -eps for block in part):
            if len(part) > best:
                best = len(part)
                winners = [canonical_partition(part)]
            elif len(part) == best:
                winners.append(canonical_partition(part))
    return best, sorted(winners)


def best_partition_count(values, eps=1e-10):
    """Subset DP: (max feasible block count, number of partitions reaching it).

    The block holding the lowest event of a subset ranges over every subset
    of the rest, 3^n steps in all; block sums are folded in ascending event
    order, as `best_partitions` sums them.
    """
    n = len(values)
    sums = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        high = mask.bit_length() - 1
        sums[mask] = sums[mask ^ (1 << high)] + values[high]
    table = [(0, 1)]
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        top, count = -1, 0
        sub = rest
        while True:
            if sums[sub | low] >= -eps:
                blocks, ways = table[rest ^ sub]
                if ways and blocks + 1 > top:
                    top, count = blocks + 1, ways
                elif ways and blocks + 1 == top:
                    count += ways
            if not sub:
                break
            sub = (sub - 1) & rest
        table.append((top, count))
    return table[-1]


def gss_max(f, lo, hi, tol=1e-10):
    """Golden-section maximum of a unimodal function on [lo, hi]."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - gr * (hi - lo), lo + gr * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = f(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = f(c)
    x = 0.5 * (lo + hi)
    return x, f(x)


def haar_projector(rng, dim, rank):
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(z)
    p = q @ q.conj().T
    return 0.5 * (p + p.conj().T)


def rand_direction(rng, n=None):
    v = rng.normal(size=(n, 3) if n else 3)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def rand_bloch(rng, n=None):
    u = rng.random(n) if n else rng.random()
    r = np.asarray(u) ** (1.0 / 3.0)
    return rand_direction(rng, n) * (r[..., None] if n else r)
