"""Shared corpus builders and exact references for the test suite.

Random data is always drawn from a seeded Random instance passed in by
the caller, so every test run sees the same corpus.
"""

import itertools
import math
import operator
import random
from fractions import Fraction

import kquant as kq
from kquant._exact import nullspace, solve
from kquant.linear_models import VanishingComponent

T1 = kq.build_root_datum("torus", 1)
T2 = kq.build_root_datum("torus", 2)
A1 = kq.build_root_datum("A", 1)
A2 = kq.build_root_datum("A", 2)
A3 = kq.build_root_datum("A", 3)

AXES2 = ((1, 0), (0, 1))


def axis_sphere(axis, kind, n):
    """A rank-one sphere embedded along one coordinate axis of T2."""
    e = AXES2[axis]
    ne = tuple(-x for x in e)
    emb = lambda k: tuple(k * x for x in e)
    if kind == "f":
        pts = (kq.point(emb(n), e), kq.point(emb(n), ne))
    else:
        pts = (kq.point(emb(0), ne), kq.point(emb(n), e))
    return kq.ClosedComponent(f"{kind}{n}@{axis}", pts)


def random_sphere(rng, lo=-4, hi=4):
    if rng.random() < 0.5:
        return kq.f_sphere(rng.randint(lo, hi))
    return kq.o_sphere(rng.randint(0, hi))


def random_closed_cycle_t1(rng, ncomp=(1, 3)):
    comps = tuple((rng.choice((1, 1, -1)), random_sphere(rng))
                  for _ in range(rng.randint(*ncomp)))
    return kq.DiscreteKCycle(T1, comps)


def random_closed_cycle_t2(rng, ncomp=(1, 2)):
    """Products of two axis spheres; closed by construction."""
    comps = []
    for _ in range(rng.randint(*ncomp)):
        c1 = axis_sphere(0, rng.choice("fo"), rng.randint(-3, 3))
        c2 = axis_sphere(1, rng.choice("fo"), rng.randint(-3, 3))
        a = kq.DiscreteKCycle(T2, ((1, c1),))
        b = kq.DiscreteKCycle(T2, ((1, c2),))
        prod = kq.product_cycle(a, b)
        comps.append((rng.choice((1, -1)), prod.components[0][1]))
    return kq.DiscreteKCycle(T2, tuple(comps))


def lazy_disk_family(shift=0, bound=200):
    """The disk as the infinite sum of weight-n sphere models."""
    fam = lambda i: (1, kq.f_sphere(i + shift))
    return kq.DiscreteKCycle(T1, (), fam, enumeration_bound=bound)


def random_formal_character(rng, datum, window, regular_only=False):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        while True:
            w = tuple(rng.randint(-window, window) for _ in range(datum.rank))
            if not datum.is_torus:
                w = tuple(abs(x) for x in w)
                if regular_only and not kq.is_regular_dominant(datum, w):
                    continue
            if max(abs(x) for x in w) <= window:
                break
        coeffs[w] = rng.choice([-2, -1, 1, 2, 3])
    return kq.FormalCharacter(datum, window, coeffs)


def random_proper_model(rng, max_d=5, max_r=3, entry=3, r=None, d=None):
    """A proper model; rank r and weight count d are drawn unless given."""
    r = rng.randint(1, max_r) if r is None else r
    d = rng.randint(1, max_d) if d is None else d
    while True:
        ws = []
        while len(ws) < d:
            w = tuple(rng.randint(-entry, entry) for _ in range(r))
            if any(w):
                ws.append(w)
        shift = tuple(rng.randint(-entry, entry) for _ in range(r))
        m = kq.linear_model(ws, shift)
        if kq.check_proper(m):
            return m


def fraction_rref(rows, ncols):
    """(reduced rows, pivot columns) by Gauss-Jordan elimination over Fraction.

    Pivots on the first ncols columns only, taking the first nonzero
    entry of each column; an independent reference for kquant._exact.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def fraction_solve(mat, rhs):
    """The unique Fraction solution of a square system, or None when singular."""
    n = len(mat)
    a, pivots = fraction_rref([[*row, b] for row, b in zip(mat, rhs)], n)
    return [row[n] for row in a] if len(pivots) == n else None


def fraction_nullspace(rows, width):
    """Primitive integer nullspace basis, first nonzero entries > 0, via Fraction."""
    a, pivots = fraction_rref(rows, width)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for row, pc in zip(a, pivots):
            vec[pc] = -row[f]
        den = 1
        for x in vec:
            den = den * x.denominator // math.gcd(den, x.denominator)
        ints = [int(x * den) for x in vec]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        vec = [v // g for v in ints]
        basis.append(tuple(vec) if next(filter(None, vec)) > 0 else tuple(-v for v in vec))
    return basis


def random_torus_component(rng):
    """A torus component: rank 1-2, 1-6 points, 0-2 tangent weights, orders 1-3.

    Half the draws close by construction: they are built from blocks of
    one point and its mirror images under flipping any subset of its
    tangent weights (a product of spheres, one orbifold order per block).
    The other half are independent points, which mostly do not close.
    """
    rank = rng.randint(1, 2)

    def weight():
        while True:
            w = tuple(rng.randint(-2, 2) for _ in range(rank))
            if any(w):
                return w

    def fiber():
        return kq.WeightPolynomial({tuple(rng.randint(-2, 2) for _ in range(rank)):
                                    rng.choice((-2, -1, 1, 2))
                                    for _ in range(rng.randint(1, 2))})

    n = rng.randint(1, 6)
    pts = []
    if rng.random() < 0.5:
        while len(pts) < n:
            # a block of 2^k points, k <= 2, that still fits in n
            ws = [weight() for _ in range(rng.randint(0, min(2, (n - len(pts)).bit_length() - 1)))]
            chi, m = fiber(), rng.randint(1, 3)
            for signs in itertools.product((1, -1), repeat=len(ws)):
                tangent = tuple(tuple(s * x for x in w) for s, w in zip(signs, ws))
                pts.append(kq.FixedPointDatum(tangent, chi, m))
    else:
        for _ in range(n):
            tangent = tuple(weight() for _ in range(rng.randint(0, 2)))
            pts.append(kq.FixedPointDatum(tangent, fiber(), rng.randint(1, 3)))
    return kq.ClosedComponent("random", pts)


def all_points_closed_index(component):
    """Reference closed index over the product of every point's full denominator.

    Point p of orbifold order m contributes its averaged numerator over
    prod_j (1 - t^{-m w_j}); every numerator is multiplied by the other
    points' denominators and the sum is divided by the product of all of
    them.  Returns the quotient, or None when the sum is not a Laurent
    polynomial.
    """
    pts = component.fixed_points
    one = kq.WeightPolynomial.one(len(next(iter(pts[0].fiber_character.terms))))
    denoms, numers = [], []
    for p in pts:
        m = p.orbifold_order
        den, num = one, p.fiber_character
        for w in p.tangent_weights:
            den = den * (one - kq.WeightPolynomial.monomial(tuple(-m * x for x in w)))
            num = num * kq.WeightPolynomial((tuple(-i * x for x in w), 1) for i in range(m))
        denoms.append(den)
        numers.append(kq.WeightPolynomial({v: c for v, c in num.items() if sum(v) % m == 0}))
    total, full = kq.WeightPolynomial.zero(), one
    for i, num in enumerate(numers):
        for j, den in enumerate(denoms):
            if j != i:
                num = num * den
        total = total + num
        full = full * denoms[i]
    try:
        return kq.exact_divide(total, full)
    except ArithmeticError:
        return None


def rescan_exact_divide(num, den):
    """Reference long division that rescans the remainder with max(rem).

    Leading-term elimination in lexicographic order with the quotient-box
    certificate of kquant.exact_divide; raises ArithmeticError when the
    division is not exact.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return kq.WeightPolynomial.zero()
    rank = len(next(iter(den.terms)))
    lo = tuple(min(w[i] for w in num.terms) - min(w[i] for w in den.terms) for i in range(rank))
    hi = tuple(max(w[i] for w in num.terms) - max(w[i] for w in den.terms) for i in range(rank))
    if any(a > b for a, b in zip(lo, hi)):
        raise ArithmeticError("not divisible: empty quotient box")
    lead = max(den.terms)
    lead_c = den.terms[lead]
    rem = dict(num.terms)
    quot = {}
    while rem:
        lw = max(rem)
        lc = rem[lw]
        mw = tuple(a - b for a, b in zip(lw, lead))
        if any(x < a or x > b for x, a, b in zip(mw, lo, hi)) or lc % lead_c:
            raise ArithmeticError(f"not divisible: stuck at term {lw}")
        mc = lc // lead_c
        quot[mw] = mc
        for w, c in den.terms.items():
            v = tuple(a + b for a, b in zip(mw, w))
            r = rem.get(v, 0) - mc * c
            if r:
                rem[v] = r
            else:
                rem.pop(v, None)
    return kq.WeightPolynomial(quot)


def strip_loop_decompose(datum, p):
    """Reference type A decomposition of an invariant p by stripping.

    Repeatedly strips the dominant term of largest height <w, 2 rho_vee>
    (ties broken lexicographically) by subtracting its full character;
    in fundamental coordinates 2 rho_vee pairs with omega_j (0-based) to
    (j + 1) * (n - j).  Returns the multiplicity dict.
    """
    n = datum.rank
    height = lambda w: (sum((j + 1) * (n - j) * x for j, x in enumerate(w)), w)
    mults = {}
    rem = p
    while rem:
        top = max((w for w in rem.terms if min(w) >= 0), key=height)
        mults[top] = rem.terms[top]
        rem = rem - mults[top] * kq.weyl_character(datum, top)
    return mults


def random_virtual_character(rng, datum, top):
    """A random sum of 1-4 irreducibles of coordinates <= top, multiplicities -3..3."""
    total = kq.WeightPolynomial.zero()
    for _ in range(rng.randint(1, 4)):
        lam = tuple(rng.randint(0, top) for _ in range(datum.rank))
        total = total + rng.randint(-3, 3) * kq.weyl_character(datum, lam)
    return total


def per_support_vertices(m, support):
    """Reference stratum vertices: every column subset of the support solved anew.

    A vertex solves the Gram subsystem of its nonzero coordinates (at
    most m.rank of them) and must satisfy every equation of the support;
    vertices are Fractions indexed by position in the support.
    """
    ws = [m.weights[j] for j in support]
    k = len(ws)
    gram = [[sum(map(operator.mul, u, v)) for v in ws] for u in ws]
    rhs = [-sum(map(operator.mul, u, m.shift)) for u in ws]
    verts = set()
    for size in range(min(k, m.rank) + 1):
        for cols in itertools.combinations(range(k), size):
            g, gx = solve([[gram[i][c] for c in cols] for i in cols], [rhs[i] for i in cols])
            if not g or min(gx, default=0) < 0:
                continue
            if all(sum(row[c] * x for c, x in zip(cols, gx)) == g * r
                   for row, r in zip(gram, rhs)):
                at = dict(zip(cols, gx))
                verts.add(tuple(Fraction(at.get(c, 0), g) for c in range(k)))
    return sorted(verts)


def glued_components(m):
    """Reference vanishing components by gluing strata whose closures touch.

    Solves every support on its own (per_support_vertices), joins a
    stratum to each larger one whose closure has a face with exactly its
    support (union-find), and takes mu from a first vertex.  Returns the
    components in the engine's order, by support size and then support.
    """
    d = len(m.weights)
    strata = {}
    for size in range(d + 1):
        for support in itertools.combinations(range(d), size):
            verts = per_support_vertices(m, support)
            if not verts or not all(any(v[i] > 0 for v in verts) for i in range(size)):
                continue
            mu = [Fraction(x) for x in m.shift]
            for pos, j in enumerate(support):
                for t in range(m.rank):
                    mu[t] += verts[0][pos] * m.weights[j][t]
            strata[support] = (verts, tuple(mu))
    parent = {s: s for s in strata}

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    for small, big in itertools.combinations(sorted(strata, key=len), 2):
        if not set(small) < set(big):
            continue
        idx = {j: pos for pos, j in enumerate(big)}
        face = [v for v in strata[big][0]
                if all(v[pos] == 0 for pos, j in enumerate(big) if j not in small)]
        if face and all(any(v[idx[j]] > 0 for v in face) for j in small):
            parent[find(big)] = find(small)
    groups = {}
    for s in strata:
        groups.setdefault(find(s), []).append(s)
    out = []
    for members in groups.values():
        members.sort(key=lambda s: (len(s), s))
        union = tuple(sorted(set().union(*members)))
        mus = {strata[s][1] for s in members}
        assert len(mus) == 1, (m.to_dict(), members)
        out.append(VanishingComponent(
            support=union, strata=tuple(members),
            stabilizer_basis=tuple(nullspace([m.weights[j] for j in union], m.rank)),
            mu_value=mus.pop(), compact=True, mu_diameter=Fraction(0)))
    out.sort(key=lambda comp: (len(comp.support), comp.support))
    return out
