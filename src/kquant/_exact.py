"""Exact integer linear algebra: one fraction-free elimination for the engine.

Fraction-free Gauss-Jordan elimination (Bareiss 1968, applied above the
pivot as well as below) replaces each row by (p * row - f * pivot_row) /
prev, p the new pivot and prev the one before; the division is exact
because every entry is a minor of the input, so no Fraction is built.
solve (a square system with its determinant), nullspace and cramer_kit
(a greedy basis of a span with the rows that solve for it) are one such
elimination each, hyperplanes one per subset.  hermite_basis alone
eliminates differently: by unimodular row operations (Euclid), to an
echelon basis of the group the vectors generate, on which the counting
route enumerates its targets.  residue_kit is gcd arithmetic for the
last loop level of the counting route.
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


def hermite_basis(vectors, rank):
    """Column-echelon (Hermite normal form) basis of the group the vectors generate.

    Unimodular row operations on the vectors, one coordinate t at a time:
    Euclid on the entries at t leaves one vector nonzero there, made
    positive, and the others zero at t (dropped once zero everywhere).  So
    the basis vector b_k is zero before its pivot p_k and positive at it,
    p_0 < p_1 < ..., and each earlier b_j is reduced at p_k into [0,
    b_k[p_k]), which makes the basis unique (Cohen, A Course in
    Computational Algebraic Number Theory, section 2.4).
    """
    rows, basis = [list(v) for v in vectors if any(v)], []
    for t in range(rank):
        live = [r for r in rows if r[t]]
        rows = [r for r in rows if not r[t]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[t]))
            piv, *rest = live
            live = [piv]
            for r in rest:
                q = r[t] // piv[t]
                r = [x - q * y for x, y in zip(r, piv)]
                if r[t]:
                    live.append(r)
                elif any(r):
                    rows.append(r)
        if live:
            piv = live[0] if live[0][t] > 0 else [-x for x in live[0]]
            for b in basis:
                q = b[t] // piv[t]
                b[:] = [x - q * y for x, y in zip(b, piv)]
            basis.append(piv)
    return tuple(map(tuple, basis))
