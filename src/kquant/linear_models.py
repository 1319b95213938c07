"""Proper linear torus models: quantization, reduction, and vanishing sets.

A model is a torus representation C^d given by d nonzero action weights
plus a constant shift c of the quadratic moment map
mu(z) = 1/2 sum |z_j|^2 w_j + c.  Properness of mu is equivalent to all
weights lying in an open half space, decided exactly through the
minimum-norm point of their convex hull (a Farkas-style certificate:
either a separating vector xi with <w_j, xi> > 0 for all j, or an
explicit nonnegative combination of weights equal to zero).

Two independent routes compute the same invariant:

* formal_quantization expands t^c prod (1 - t^{w_j})^{-1} as a polarized
  geometric series on a window (through the localization engine);
* reduction_multiplicity counts lattice points
  #{a in Z_{>=0}^d : sum a_j w_j + c = gamma}.  Only the targets are
  visited: the points gamma of c + L, L the group the weights generate,
  that lie in the box and the cone of the weights, enumerated coordinate
  by coordinate on an echelon basis of L, with the box and the normals
  that support the cone bounding each coefficient in closed form (a
  single gamma is the one-point box [gamma, gamma]).  They
  are counted together as columns, in one list pass per loop level and
  coefficient and the last level in closed form (independent weights
  need none).  Regularity (gamma - c on no wall) is one pairing of gamma
  with the packed normals of the maximal walls, computed apart from the
  count.  The per-model setup (Farkas vector, a greedy basis of the
  weights' span with the integer rows that make each search leaf one
  divisibility and sign test, from one elimination; the oriented wall
  normals; the plan of the walk over c + L) is built on the first call
  for a model and kept on it, unchanged, so a call only walks.  It reads
  only the weights, the shift and the Farkas vector, uses neither
  multiplicities nor the series' expansion, and shares no cache with the
  series route.  The same setup counts a whole window in one pass.
  The separation result behind check_proper and farkas_vector is kept
  on the model too, so it dies with the model.

verify_qr counts the window in one pass and compares the two routes as
sparse maps, {weight: nonzero series coefficient} against {weight:
nonzero count}, which are equal exactly when the routes agree at every
weight of the window; its report builds the regular column and expands
the maps into rows only when asked.  vanishing_decomposition solves
V^mu = 0 exactly: on the stratum where exactly the coordinates in S are
nonzero the condition is <w_j, mu(z)> = 0 for j in S, a linear system
in the action variables a_j = |z_j|^2 / 2 whose solution set is a
rational polytope.  Each
column set's Gram system is solved once per model, with its mu value,
and every stratum is read off the rows of that table.  mu is constant on
a stratum, so the connected components of the full zero set are the
fibres of mu: the strata grouped by their mu value.  The components are
kept on the model for check_compatibility.

Every determinant, square solve and nullspace here (separation, the
counter's basis and walls, the vanishing rows, stabilizers) is the
integer fraction-free elimination of _exact; results become Fractions
only as outputs (the min-norm winner, mu values).
"""

from __future__ import annotations

import bisect
import functools
import itertools
from fractions import Fraction
from operator import add, neg as negative
from typing import NamedTuple

from ._exact import (cramer_kit, hermite_basis, hyperplanes, nullspace,
                     residue_kit, solve)
from ._record import FrozenRecord, Record
from .characters import FormalCharacter, WeightPolynomial
from .errors import (CertificateFailed, NotOnVanishingSet, NotProper,
                     WindowExhausted)
from .localization import (ClosedComponent, DiscreteKCycle, FixedPointDatum,
                           normalize_polarization, polarized_index)
from .root_data import (RootDatum, build_root_datum, dominant_window,
                        dot, neg, sub)


class LinearModel(FrozenRecord):
    """Torus rank, nonzero action weights, and moment map shift."""

    _fields = ("datum", "weights", "shift")

    def __init__(self, datum: RootDatum, weights: tuple, shift: tuple):
        # C^d under a torus: the lattice count reads the torus lattice
        if not datum.is_torus:
            raise ValueError("linear models are defined over torus data")
        ws = tuple(datum.check_weight(w) for w in weights)
        for w in ws:
            if not any(w):
                raise ValueError("action weights must be nonzero")
        self.__dict__.update(datum=datum, weights=ws, shift=datum.check_weight(shift))

    @property
    def rank(self):
        return self.datum.rank

    @functools.cached_property
    def _separation(self):
        """(primitive integer xi, None) if separable, else (None, witness)."""
        if not self.weights:
            return (1,) * self.rank, None
        x, used, lam = _min_norm_in_hull(self.weights, self.rank)
        if not any(x):
            return None, tuple(zip(used, lam))
        xi = normalize_polarization(x)
        if not all(dot(w, xi) > 0 for w in self.weights):
            raise CertificateFailed(f"separation certificate failed: xi = {xi}")
        return xi, None

    @functools.cached_property
    def _counter(self) -> "_LatticeCounter":
        return _LatticeCounter(self)

    @functools.cached_property
    def _components(self) -> tuple:
        """The components behind vanishing_decomposition and check_compatibility."""
        return _vanishing_components(self)

    def to_dict(self):
        return {"rank": self.rank,
                "weights": [list(w) for w in self.weights],
                "shift": list(self.shift)}

    @staticmethod
    def from_dict(d: dict) -> "LinearModel":
        datum = build_root_datum("torus", d["rank"])
        return LinearModel(datum, tuple(tuple(w) for w in d["weights"]),
                           tuple(d["shift"]))


def linear_model(weights, shift) -> LinearModel:
    """Build a model, inferring the rank from the shift vector."""
    return LinearModel(build_root_datum("torus", len(tuple(shift))),
                       tuple(tuple(w) for w in weights), tuple(shift))


def _min_norm_in_hull(points, rank):
    """Minimum-norm point of conv(points) with its convex certificate.

    Returns (x, subset, lam): x has <p, x> >= <x, x> for every input
    point, and x = sum lam_i * points[subset_i] with lam >= 0 summing
    to one.  Enumerates affinely independent subsets of size <= rank+1,
    which always contain the optimal face (Caratheodory), in a fixed
    order, keeping the first of equal norms.  Each subset's Gram system
    is one integer solve (_exact.solve): its determinant g > 0 (g = 0
    exactly when the subset is affinely dependent) and the Cramer
    numerators, so g * x and g * lam are integer vectors, norms are
    compared by cross-multiplication and only the winner becomes
    Fractions.
    """
    pts = sorted(set(map(tuple, points)))
    best = None
    for size in range(1, min(len(pts), rank + 1) + 1):
        for subset in itertools.combinations(pts, size):
            s0 = subset[0]
            vs = [sub(p, s0) for p in subset[1:]]
            gram = [[dot(u, v) for v in vs] for u in vs]
            g, ys = solve(gram, [-dot(s0, v) for v in vs])
            if not g:
                continue
            lam = [g - sum(ys), *ys]
            if min(lam) < 0:
                continue
            x = tuple(g * s + sum(y * v[k] for y, v in zip(ys, vs))
                      for k, s in enumerate(s0))
            norm = dot(x, x)
            if best is None or norm * best[1] ** 2 < best[0] * g * g:
                best = (norm, g, x, subset, lam)
    _, g, x, used, lam = best
    return (tuple(Fraction(c, g) for c in x), list(used),
            [Fraction(c, g) for c in lam])


def check_proper(m: LinearModel) -> bool:
    """True iff all action weights lie in an open half space."""
    return m._separation[0] is not None


def farkas_vector(m: LinearModel) -> tuple:
    """Primitive integer xi with <w_j, xi> >= 1 for every action weight.

    Raises NotProper with an explicit nonnegative combination of the
    weights equal to zero when no such vector exists.
    """
    xi, witness = m._separation
    if xi is None:
        combo = " + ".join(
            f"{l}*({','.join(str(x) for x in w)})" for w, l in witness if l)
        raise NotProper(f"0 = {combo}; weights span no open half space")
    return xi


def model_cycle(m: LinearModel) -> DiscreteKCycle:
    """The one-point K-cycle shadow of the model.

    The origin carries fiber t^shift and, in the contribution
    convention of the localization engine, tangent weights equal to the
    negated action weights, so its polarized expansion at the Farkas
    vector is exactly t^c prod (1 - t^{w_j})^{-1}.  The model's weights
    and shift are checked when it is built, so the point and the cycle
    are built trusted (FixedPointDatum._trusted, DiscreteKCycle._trusted),
    without checking them again.
    """
    pt = FixedPointDatum._trusted(tuple(neg(w) for w in m.weights),
                                  WeightPolynomial.monomial(m.shift))
    return DiscreteKCycle._trusted(m.datum, ((1, ClosedComponent("C^d", (pt,))),))


def formal_quantization(m: LinearModel, window: int) -> FormalCharacter:
    """Window-exact polarized expansion of t^c prod (1 - t^{w_j})^{-1}."""
    if window < 0:  # checked before farkas_vector, so it comes before NotProper
        raise WindowExhausted(f"window {window} is empty")
    return polarized_index(model_cycle(m), farkas_vector(m), window)


class ReductionCount(NamedTuple):
    """(count, regular) with named access."""

    count: int
    regular: bool


class _LatticeCounter:
    """Per-model setup of the counting route; see reduction_multiplicity.

    Walls and cone.  `walls` holds one flat tuple (*n, <n, c>)
    (flat, as a model keeps its counter) per normal n of a hyperplane
    spanned by rank - 1 weights, oriented, where possible, so that every
    weight pairs >= 0 with it; such a supporting normal bounds the cone
    of the weights, so a target gamma - c pairing < 0 with it has count
    0.  regular(axes) packs the normals as digit columns wide enough for
    its box: field f (lowest bit p, top bit q) of sum(packed * gamma) +
    const is <n_f, gamma - c> + 2^q.  So gamma is on a wall iff some
    field of that sum ^ half is zero (the zero-digit bit test, with `ones`
    the lowest bits).  With no such hyperplane the one wall is the
    weights' span: gamma is singular iff every row of a nullspace basis
    of the span vanishes on gamma - c, that is iff the packed sum is
    exactly its bias; `span` holds those rows, flat as walls, and is empty
    when there are walls.  count makes the same test on the one-point
    axes of its gamma.  No slot changes after __init__.

    Targets.  A nonzero count needs gamma - c in the group L the weights
    generate, and <n, gamma - c> >= 0 for the cone rows: the Farkas
    vector xi and the supporting normals, or, when no weight is looped
    (see below), the leaf rows.  _targets enumerates gamma = c + sum x_k
    b_k in a box level by level, on the echelon basis b_0, b_1, ... of L
    (_exact.hermite_basis: b_k is zero before its pivot row and positive
    there, pivots increasing).  Every tracked row (the coordinates of
    gamma, the fields the count reads, that is xi and the leaf rows, and
    the cone rows) is an affine column, stepped at level k by its
    pairing with b_k.  __init__ plans this walk, so a call computes no
    model constant.  `images` holds one flat tuple per level, the image
    of b_k on every tracked row.  `finals` holds, level after level and
    flat, the number of bounded rows (coordinates and cone rows) that b_k
    is the last to move, then those rows: there the box bounds a
    coordinate and the cone a cone row, each a closed-form range of x_k,
    and the pivot coordinate always gives a finite one.  `fixed` holds
    the coordinates that no level moves, where the box must hold c.  When
    no weight is looped, a target that passes the leaf rows counts 1 with
    no search: its one coefficient vector is integral (gamma - c is in L)
    and nonnegative.  Otherwise _level counts the targets.

    Counting.  The weights are sorted by increasing Farkas pairing, and
    one elimination (_exact.cramer_kit) takes from that end the greedy
    basis of their span: each weight independent of the weights before
    it.  A remainder y in the span has exactly one coefficient vector a
    on the basis, with det * a = leaf * y and det > 0, so a leaf of the
    search is one test: every entry of leaf * y a nonnegative multiple of
    det.  The other d - rank(span) weights are looped, largest pairing
    first, each but the last within the Farkas budget <y, xi>.  The test
    is linear in the last looped weight's coefficient a, so the valid a
    form an interval met with one residue class mod period = det //
    gcd(det, step), the class of u * y // g (kit = (g, period, u), from
    _exact.residue_kit), counted in closed form (_last).  All targets of
    a box go through the levels together, as one list per leaf row, one
    of budgets and one of classes u * y (_search, _level), and no value
    computed for one target is used for another; a window and a single
    gamma (the one-point box) take the same pass, _counts.  Each looped
    weight's step holds its leaf entries t and then u * t, so the class
    row is computed once per target and stepped with the leaf rows.  The
    rows whose last step entry is not 0 bound the interval, so only those
    with entry 0 (`signs`) keep a sign test; the other rows (`divides`)
    test divisibility only when the basis and the last looped weight
    generate a smaller group than L, and are empty otherwise, as always
    with one looped weight.
    """

    __slots__ = ("shift", "det", "steps", "kit", "signs", "divides", "walls", "span",
                 "images", "finals", "fixed")

    def __init__(self, m: LinearModel):
        self.shift = c0 = m.shift
        xi, r = farkas_vector(m), m.rank
        ws = sorted(m.weights, key=lambda w: dot(w, xi))
        basis, self.det, leaf = cramer_kit(ws, r)
        looped = [w for i, w in enumerate(ws) if i not in basis][::-1]
        ts = [tuple(dot(row, w) for row in leaf) for w in looped]
        self.kit = residue_kit(ts[-1] if ts else (), self.det)
        self.steps = tuple(((*t, dot(self.kit[2], t)), dot(w, xi)) for t, w in zip(ts, looped))
        lattice = hermite_basis(m.weights, r)
        self.signs = self.divides = ()
        if looped:
            self.signs = tuple(i for i, s in enumerate(ts[-1]) if not s)
            if hermite_basis([ws[i] for i in basis] + looped[-1:], r) != lattice:
                self.divides = tuple(i for i, s in enumerate(ts[-1]) if s)
        normals = [neg(n) if all(dot(w, n) <= 0 for w in m.weights) else n
                   for n in hyperplanes(m.weights, r)]
        self.walls = tuple((*n, dot(n, c0)) for n in normals)
        self.span = () if self.walls else tuple((*n, dot(n, c0)) for n in nullspace(m.weights, r))
        if looped:  # rows past the coordinates: xi and leaf, then the supporting normals
            rows = (xi, *leaf, *(n for n in normals if all(dot(w, n) >= 0 for w in m.weights)))
            cone = (r, *range(r + 1 + len(leaf), r + len(rows)))
        else:
            rows, cone = leaf, range(r, r + len(leaf))
        self.images = tuple((*b, *(dot(row, b) for row in rows)) for b in lattice)
        finals = [[] for _ in lattice]
        for q in (*range(r), *cone):
            if movers := [k for k, img in enumerate(self.images) if img[q]]:
                finals[movers[-1]].append(q)
        self.finals = tuple(x for qs in finals for x in (len(qs), *qs))
        self.fixed = tuple(q for q in range(r) if not any(img[q] for img in self.images))

    def count(self, gamma) -> ReductionCount:
        """(count, regular) at one gamma: the box pass on the one-point box [gamma, gamma]."""
        return ReductionCount(self._counts(gamma, gamma).get(gamma, 0),
                              self.regular([(g,) for g in gamma])[0])

    def window(self, w) -> dict:
        """{gamma: count} for each gamma of [-w, w]^rank with a nonzero count."""
        r = len(self.shift)
        return self._counts((-w,) * r, (w,) * r)

    def _counts(self, los, his) -> dict:
        """{gamma: count} for each gamma of the box prod [los, his] with a nonzero count."""
        r, cols = len(self.shift), self._targets(los, his)
        if not (cols and self.steps):
            return dict.fromkeys(zip(*cols[:r]), 1)  # none, or independent weights: the cone rows were exact
        if len(self.steps) > 1:  # _level reads the budgets in decreasing order
            order = sorted(range(len(cols[r])), key=cols[r].__getitem__, reverse=True)
            cols = [[col[i] for i in order] for col in cols]
        counts = self._search(cols[r], cols[r + 1:])
        return dict(zip(itertools.compress(zip(*cols[:r]), counts), filter(None, counts)))

    def _targets(self, los, his) -> list:
        """The columns of the targets in the box prod [los, his]: the coordinates, then xi and leaf.

        The walk of the class docstring: a column holds one value per partial
        point, and level k keeps of each the x_k its final rows allow.  xi and
        leaf are left out when no weight is looped; [] stands for no target.
        """
        c0, r = self.shift, len(self.shift)
        if any(not los[q] <= c0[q] <= his[q] for q in self.fixed):
            return []  # a coordinate no level moves lies outside the box
        kept = r + len(self.steps[0][0]) if self.steps else r  # the rows read after the last level
        cols = [[c] for c in c0] + ([[0] for _ in self.images[0][r:]] if self.images else [])
        finals = iter(self.finals)
        for k, img in enumerate(self.images):
            lows, highs = [], []
            for q in itertools.islice(finals, next(finals)):  # the rows final at level k
                a, col = img[q], cols[q]
                lo, hi = (los[q], his[q]) if q < r else (0, None)  # a coordinate, or a cone row
                if a > 0:
                    lows.append([-((v - lo) // a) for v in col])
                    if hi is not None:
                        highs.append([(hi - v) // a for v in col])
                else:
                    highs.append([(v - lo) // -a for v in col])
                    if hi is not None:
                        lows.append([-((hi - v) // -a) for v in col])
            reps = [range(x, y + 1) for x, y in zip(map(max, *lows) if len(lows) > 1 else lows[0],
                                                     map(min, *highs) if len(highs) > 1 else highs[0])]
            if k + 1 == len(self.images):
                cols = cols[:kept]  # the cone rows are spent
            cols = [[v + s * x for v, rep in zip(col, reps) for x in rep] if s else
                    [v for v, rep in zip(col, reps) for _ in rep] for col, s in zip(cols, img)]
            if not cols[0]:
                return []
        return cols[:kept]

    def _search(self, bs, ys) -> list:
        """The counts of targets with budgets bs and leaf rows ys: the class row u * y, then _level."""
        cs = [0] * len(bs)
        for col, x in zip(ys, self.kit[2]):
            if x:
                cs = [c + x * y for c, y in zip(cs, col)]
        return self._level(0, [*ys, cs], bs)

    def _level(self, j, ys, bs):
        """Counts from loop level j on; bs decreases, so the budgets still >= pw are a prefix."""
        if j + 1 == len(self.steps):
            return self._last(ys)
        step, pw = self.steps[j]
        total = self._level(j + 1, ys, bs)  # coefficient 0: xi is a cone row, so every budget is >= 0
        while k := bisect.bisect_right(bs, -pw, key=negative):
            bs = [b - pw for b in itertools.islice(bs, k)]
            ys = [[y - s for y in itertools.islice(col, k)] if s else col[:k]
                  for col, s in zip(ys, step)]
            total[:k] = map(add, total, self._level(j + 1, ys, bs))
        return total

    def _last(self, ys):
        """#{a >= 0 : y - a * step passes the leaf test}, per column, in closed form.

        step is the last looped weight's, and ys ends with the class row
        u * y.  The leaf rows alone decide (the target lies in c + L, so y
        is in the span): each entry of y - a * step must be a nonnegative
        multiple of det.  The rows whose entry s is > 0 bound a above and
        those with s < 0 below (from lo = 0), so every a of [lo, hi] passes
        their sign tests.  Some s is > 0: step is det times the weight's
        coefficients on the basis, so were every entry <= 0 it would pair
        <= 0 with xi.  No budget is needed either: the remainder pairs with
        xi as sum_i (y - a * step)_i / det * <b_i, xi>, >= 0 once the
        entries are.  The multiples hold, if at all, on the class of u * y
        // g mod period (_exact.residue_kit), whose first member from lo is
        lo + (u * y // g - lo) mod period.  The rows with s == 0 (`signs`)
        do not move with a, so each is tested once: y >= 0 and a multiple
        of det.  When the basis and this weight generate L, y is an integer
        combination of them, so the class exists and the multiple test
        holds already; otherwise the rows of `divides` are tested at the
        first member too.
        """
        det, (g, period, _), step = self.det, self.kit, self.steps[-1][0]
        *ys, cs = ys
        his = los = None
        for col, s in zip(ys, step):
            if s > 0:
                his = ([y // s for y in col] if his is None else
                       [q if (q := y // s) < h else h for h, y in zip(his, col)])
            elif s < 0:
                los = ([q if (q := -(y // -s)) > 0 else 0 for y in col] if los is None else
                       [q if (q := -(y // -s)) > lo else lo for lo, y in zip(los, col)])
        firsts = los or [0] * len(cs)
        if period > 1:  # else every a is in the class
            firsts = [lo + (c // g - lo) % period for lo, c in zip(firsts, cs)]
        ns = [n if (n := (h - a) // period + 1) > 0 else 0 for h, a in zip(his, firsts)]
        for i in self.signs:
            ns = [n if y >= 0 and not y % det else 0 for n, y in zip(ns, ys[i])]
        for i in self.divides:
            s = step[i]
            ns = [0 if (y - a * s) % det else n for n, y, a in zip(ns, ys[i], firsts)]
        return ns

    def regular(self, axes) -> list:
        """The regular flag of each point of product(*axes), in that order; see the class docstring."""
        r = len(self.shift)
        big = max((abs(g) for axis in axes for g in axis), default=0)
        packed, const, half, ones, p = [0] * r, 0, 0, 0, 0
        for *n, c in self.walls or self.span:
            top = 1 << p + (sum(map(abs, n)) * big + abs(c)).bit_length()
            packed = [x + (v << p) for x, v in zip(packed, n)]
            const += top - (c << p)
            half += top
            ones += 1 << p
            p = top.bit_length()
        sums = [const]
        for x, axis in zip(packed, axes):
            row = [x * g for g in axis]
            sums = [s + t for s in sums for t in row]
        if self.walls:
            return [not ((e := d ^ half) - ones) & ~e & half for d in sums]
        return [d != half for d in sums]


def reduction_multiplicity(m: LinearModel, gamma) -> ReductionCount:
    """Lattice count of mu^{-1}(gamma) data, with a regularity flag.

    Counts #{a in Z_{>=0}^d : sum a_j w_j + c = gamma}; gamma is regular
    iff gamma - c avoids every wall spanned by fewer than rank weights
    (tested on the maximal walls, by one packed pairing).  The count is
    the window's box pass on the one-point box [gamma, gamma], read from
    its sparse result: gamma is a target only if gamma - c is in the
    group the weights generate and pairs >= 0 with the cone rows (else
    the count is 0); then the count loops the weights outside a greedy
    basis of their span but the last, bounded by the Farkas vector (a_j
    <= <gamma-c, xi> / <w_j, xi>), takes the last one's coefficient from
    one residue class in closed form and solves the basis exactly.  The
    setup and the plan of the target walk are built on a model's first
    call and kept on it (_LatticeCounter).
    """
    return m._counter.count(m.datum.check_weight(gamma))


# ------------------------------------------------------------- vanishing

class VanishingComponent(FrozenRecord):
    """One connected component of the moment-flow zero set.

    support lists the coordinates allowed to be nonzero (the union of
    the strata at one mu value, each recorded in strata); the stabilizer
    subalgebra is cut out by the support's weights; mu is constant on
    the component, with value mu_value and exact diameter mu_diameter.
    """

    _fields = ("support", "strata", "stabilizer_basis", "mu_value", "compact", "mu_diameter")

    def __init__(self, support: tuple, strata: tuple, stabilizer_basis: tuple,
                 mu_value: tuple, compact: bool, mu_diameter: Fraction):
        self.__dict__.update(support=support, strata=strata, stabilizer_basis=stabilizer_basis,
                             mu_value=mu_value, compact=compact, mu_diameter=mu_diameter)

    def to_dict(self):
        return {"support": list(self.support),
                "strata": [list(s) for s in self.strata],
                "stabilizer_basis": [[str(x) for x in b] for b in self.stabilizer_basis],
                "mu_value": [str(x) for x in self.mu_value],
                "compact": self.compact,
                "mu_diameter": str(self.mu_diameter)}


def _column_table(m: LinearModel) -> list:
    """Every candidate vertex of the zero set, one integer solve per column set.

    A vertex of a stratum solves the Gram subsystem of its nonzero
    coordinates, which is singular above m.rank columns (W^T W has rank
    <= m.rank), so each column set of at most m.rank weights is solved
    once per model.  Rows are (cols, nonzero, holds, mu) for the solutions
    with det g > 0 and x >= 0: nonzero the columns with x > 0, holds the
    j with <w_j, g * mu> = 0 on the integer g * mu = g * c + sum gx_j w_j,
    and mu its one Fraction vector, interned: rows with equal mu share one
    tuple, so comparing them stops at identity.
    """
    ws, c0 = m.weights, m.shift
    gram = [[dot(u, v) for v in ws] for u in ws]
    rhs = [-dot(u, c0) for u in ws]
    table, mus = [], {}
    for size in range(min(len(ws), m.rank) + 1):
        for cols in itertools.combinations(range(len(ws)), size):
            g, gx = solve([[gram[i][c] for c in cols] for i in cols], [rhs[i] for i in cols])
            if g and min(gx, default=0) >= 0:
                gmu = [g * c + sum(x * ws[j][t] for j, x in zip(cols, gx))
                       for t, c in enumerate(c0)]
                mu = tuple(Fraction(x, g) for x in gmu)
                table.append((frozenset(cols), frozenset(j for j, x in zip(cols, gx) if x),
                              frozenset(j for j, w in enumerate(ws) if not dot(w, gmu)),
                              mus.setdefault(mu, mu)))
    return table


def vanishing_decomposition(m: LinearModel) -> list:
    """Connected components of V^mu = 0, exactly, for a proper model.

    Enumerates the 2^d coordinate supports S and reads each off one
    table of Gram solves (_column_table): the rows with cols <= S <= holds
    are its vertices, and S is a stratum when their nonzero sets cover S.
    mu is constant on a stratum (mu - c lies in the span of its weights
    and is orthogonal to it), and the points with one value p of mu form
    a convex polytope, so the components are the fibres of mu: the
    strata grouped by their mu value.  CertificateFailed if the rows of
    one stratum disagree on mu, or if a group misses its union
    support as a stratum (the average of its points has that support).
    All components of a proper model are compact, which is certified by
    the Farkas vector.  The components are computed once per model and
    kept on it; each call returns a fresh list of them.
    """
    return list(m._components)


def _vanishing_components(m: LinearModel) -> tuple:
    farkas_vector(m)  # NotProper for improper models
    table = _column_table(m)
    d = len(m.weights)
    groups = {}
    for size in range(d + 1):
        for support in itertools.combinations(range(d), size):
            s = set(support)
            rows = [(nonzero, mu) for cols, nonzero, holds, mu in table if cols <= s <= holds]
            if not rows or set().union(*(n for n, _ in rows)) != s:
                continue  # no point with support exactly this set
            mu = rows[0][1]
            if any(other != mu for _, other in rows):
                raise CertificateFailed(f"vertices of stratum {support} disagree on mu")
            groups.setdefault(mu, []).append(support)
    out = []
    for mu, strata in groups.items():
        union = tuple(sorted(set().union(*strata)))
        if union not in strata:
            raise CertificateFailed(f"strata {strata} at mu = {mu} miss their union {union}")
        basis = tuple(nullspace([m.weights[j] for j in union], m.rank))
        out.append(VanishingComponent(
            support=union, strata=tuple(strata), stabilizer_basis=basis,
            mu_value=mu, compact=True, mu_diameter=Fraction(0)))
    out.sort(key=lambda comp: (len(comp.support), comp.support))
    return tuple(out)


def check_compatibility(m: LinearModel, phi_offset, bound) -> bool:
    """Check |<mu - phi, xi>| <= bound * ||xi|| on every component.

    phi_offset maps a component's support tuple to the constant
    deviation vector mu - phi there; a missing component raises
    NotOnVanishingSet.  The comparison is done squared, so it is exact
    for rational bounds even when ||xi|| is irrational.  ValueError for a
    negative bound, a deviation vector whose length is not the rank, or
    a deviation keyed by a support that is no component.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    offsets = {tuple(sorted(k)): tuple(Fraction(x) for x in v)
               for k, v in dict(phi_offset).items()}
    for k, v in offsets.items():
        if len(v) != m.rank:
            raise ValueError(f"deviation {list(v)} on {k} has length {len(v)}, "
                             f"not the rank {m.rank}")
    if unknown := offsets.keys() - {comp.support for comp in m._components}:
        raise ValueError(f"deviations on {', '.join(sorted(map(str, unknown)))}, "
                         "which are no components")
    for comp in m._components:
        if comp.support not in offsets:
            raise NotOnVanishingSet(f"no deviation given on component {comp.support}")
        v = offsets[comp.support]
        for xi in comp.stabilizer_basis:
            if dot(v, xi) ** 2 > bound ** 2 * dot(xi, xi):
                return False
    return True


# ------------------------------------------------------------ verify_qr

class QRReport(Record):
    """The two quantization routes on a window, kept as sparse columns.

    series and counts map each weight of the window to its nonzero
    series coefficient (q_top) and nonzero lattice count (q_red); a
    weight absent from a map is 0 there, and verdict is series == counts.
    regular holds one flag per weight, in dominant_window order; the
    verdict never reads it, so it is computed from the model's counter
    on first read and kept on the report.  to_dict and table expand the
    columns into one row per weight of the window, in that order.
    """

    _fields = ("model", "window", "series", "counts", "verdict")

    def __init__(self, model: LinearModel, window: int, series: dict, counts: dict,
                 verdict: bool):
        self.model = model
        self.window = window
        self.series = series
        self.counts = counts
        self.verdict = verdict

    @functools.cached_property
    def regular(self) -> list:
        return self.model._counter.regular([range(-self.window, self.window + 1)] * self.model.rank)

    def _cells(self):
        """(gamma, q_top, q_red, regular) for every weight of the window."""
        q_top, q_red = self.series.get, self.counts.get
        for gamma, regular in zip(dominant_window(self.model.datum, self.window),
                                  self.regular):
            yield gamma, q_top(gamma, 0), q_red(gamma, 0), regular

    def to_dict(self):
        return {"model": self.model.to_dict(), "window": self.window,
                "verdict": self.verdict,
                "rows": [{"gamma": list(g), "q_top": a, "q_red": b,
                          "regular": r, "match": a == b}
                         for g, a, b, r in self._cells()]}

    def table(self) -> str:
        lines = ["gamma\tq_top\tq_red\tregular\tmatch"]
        lines += [f"{list(g)}\t{a}\t{b}\t{str(r).lower()}\t{str(a == b).lower()}"
                  for g, a, b, r in self._cells()]
        lines.append(f"verdict\t{str(self.verdict).lower()}")
        return "\n".join(lines)


def verify_qr(m: LinearModel, window: int) -> QRReport:
    """Compare series multiplicities against lattice counts on a window.

    The series comes from formal_quantization, the counts of the whole
    window from one enumeration of its targets by the model's counter
    (_LatticeCounter.window), equal to reduction_multiplicity at every
    weight.  Both hold only nonzero values, on keys inside the window, so
    the routes agree at every weight exactly when the two maps are equal.
    The report's regular column is left to its first read.
    """
    series = formal_quantization(m, window).coeffs
    counts = m._counter.window(window)
    return QRReport(m, window, series, counts, series == counts)
