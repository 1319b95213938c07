"""Exact integer linear algebra: one fraction-free elimination for the engine.

Fraction-free Gauss-Jordan elimination (Bareiss 1968, applied above the
pivot as well as below) replaces each row by (p * row - f * pivot_row) /
prev, p the new pivot and prev the one before; the division is exact
because every entry is a minor of the input, so no Fraction is built.
solve (a square system with its determinant), nullspace and cramer_kit
(a greedy basis of a span with the rows that solve for it) are one such
elimination each, hyperplanes one per subset.  lattice_tests alone
eliminates differently: by unimodular row and column operations, for the
group vectors generate.
residue_kit is gcd arithmetic for the last loop level of the counting route.
"""

from __future__ import annotations

import itertools
import math


def _eliminate(rows, ncols):
    """(a, pivots, last, sign): pivoting on the first ncols columns only,
    a = last * (reduced row echelon form), last the final pivot (1 if
    none) and sign the parity of the row swaps, so a square nonsingular
    matrix has determinant sign * last.
    """
    a = [list(r) for r in rows]
    pivots, prev, sign = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], a[r]
            sign = -sign
        piv = a[r]
        p = piv[c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, piv)]
        pivots.append(c)
        prev = p
    return a, pivots, prev, sign


def solve(mat, rhs):
    """(det, det * x = adj(mat) rhs) for mat x = rhs; (0, None) if singular."""
    n = len(mat)
    a, pivots, last, sign = _eliminate([[*row, b] for row, b in zip(mat, rhs)], n)
    if len(pivots) < n:
        return 0, None
    return sign * last, tuple(sign * row[n] for row in a)


def primitive(v):
    """A nonzero integer vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def nullspace(rows, width):
    """Primitive integer basis of {x : <row, x> = 0 for every row}.

    One vector per non-pivot column, first nonzero entry positive; the
    reduced echelon form is unique, so the basis depends only on the span.
    """
    a, pivots, last, _ = _eliminate(rows, width)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        v = [0] * width
        v[f] = last
        for row, pc in zip(a, pivots):
            v[pc] = -row[f]
        v = primitive(v)
        basis.append(v if next(filter(None, v)) > 0 else tuple(-x for x in v))
    return basis


def hyperplanes(vectors, rank):
    """Sorted primitive normals of the hyperplanes spanned by rank - 1 of the vectors.

    Each is the one vector of a subset's nullspace; a subset with a larger one spans none.
    """
    spans = (nullspace(s, rank) for s in itertools.combinations(sorted(set(vectors)), rank - 1))
    return sorted({ns[0] for ns in spans if len(ns) == 1})


def cramer_kit(vectors, rank):
    """(basis, det, left): a greedy basis of the vectors' span, solved once.

    One elimination of [W | I], W the rank x d matrix with the vectors as
    columns.  basis lists (by position) each vector independent of the
    vectors before it: the pivot columns.  left is the identity block of
    the pivot rows, one row per basis vector, signed so that
    left * W[:, basis] = det * I with det > 0; for y in the span of the
    vectors, det * a = left * y is the one a with W[:, basis] a = y.
    """
    d = len(vectors)
    a, basis, last, _ = _eliminate(
        [[v[t] for v in vectors] + [int(s == t) for s in range(rank)] for t in range(rank)], d)
    sign = 1 if last > 0 else -1
    return (tuple(basis), sign * last,
            tuple(tuple(sign * x for x in row[d:]) for row in a[:len(basis)]))


def residue_kit(step, det):
    """(g, period, u) with g = gcd(det, *step), period = det // g, sum(u * step) = g (mod det).

    If some a has a * step = y (mod det) in every entry, those a are exactly
    the class of sum(u * y) // g mod period.
    """
    g, u = det, ()
    for s in step:
        h = math.gcd(g, s)
        y = pow(s // h, -1, g // h)  # y * s = h (mod g)
        g, u = h, tuple(v * ((h - y * s) // g) % det for v in u) + (y,)
    return g, det // g, u


def lattice_tests(weights, rank):
    """Functionals deciding membership in the group the weights generate.

    Unimodular row operations P and column operations bring the rank x d
    matrix of the weights to diagonal form diag(e_0, ..., e_{s-1}, 0, ...),
    so x is in the group iff P x is in the group of that form: row t >= s
    of P must vanish on x (the span) and row t < s must vanish modulo
    |e_t| (the lattice inside the span).  Returns (row, modulus) pairs,
    modulus 0 for the span; a modulus 1 needs no test.
    """
    d = len(weights)
    a = [[w[t] for w in weights] + [int(s == t) for s in range(rank)] for t in range(rank)]
    p = 0
    while nz := [(abs(r[j]), i, j) for i, r in enumerate(a[p:], p) for j in range(p, d) if r[j]]:
        _, i, j = min(nz)  # the smallest entry left becomes the pivot
        a[p], a[i] = a[i], a[p]
        for r in a:
            r[p], r[j] = r[j], r[p]
        piv = a[p]
        for r in a[p + 1:]:
            q = r[p] // piv[p]
            r[:] = [x - q * y for x, y in zip(r, piv)]
        for j in range(p + 1, d):
            q = piv[j] // piv[p]
            for r in a:
                r[j] -= q * r[p]
        # remainders left in the pivot's row or column: pivot again on a smaller one
        p += not (any(r[p] for r in a[p + 1:]) or any(piv[p + 1:d]))
    return tuple((tuple(r[d:]), abs(r[t]) if t < p else 0)
                 for t, r in enumerate(a) if t >= p or abs(r[t]) > 1)
