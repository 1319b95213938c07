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
  #{a in Z_{>=0}^d : sum a_j w_j + c = gamma}.  One pairing of gamma
  with the packed normals of the maximal walls decides regularity and,
  through the normals that support the cone of the weights, most zero
  counts; functionals for the group the weights generate decide most
  others.  The rest are counted together as columns, in one list pass
  per loop level and coefficient and the last level in closed form (a
  simplicial cone needs none).  Its per-model setup (Farkas vector, a
  greedy basis of the weights' span with the integer rows that make each
  search leaf one divisibility and sign test, from one elimination; the
  packed normals; the group functionals) is built on the first call for
  a model and kept on it; it reads only the weights, the shift and the
  Farkas vector, and shares no cache with the series route.  The same
  setup counts a whole window in one pass.  The separation result
  behind check_proper and farkas_vector is kept on the model too, so it
  dies with the model.

verify_qr counts the window in one pass and compares the two routes as
sparse maps, {weight: nonzero series coefficient} against {weight:
nonzero count}, which are equal exactly when the routes agree at every
weight of the window; its report expands the maps into rows only when
asked.  vanishing_decomposition solves V^mu = 0 exactly: on the stratum
where exactly the coordinates in S are nonzero the condition is
<w_j, mu(z)> = 0 for j in S, a linear system in the action variables
a_j = |z_j|^2 / 2 whose solution set is a rational polytope.  Each
column set's Gram system is solved once per model and every stratum's
vertices are read off that table.  mu is constant on a stratum, so the
connected components of the full zero set are the fibres of mu: the
strata grouped by their mu value.  The components are kept on the model
for check_compatibility.

Every determinant, square solve and nullspace here (separation, the
counter's basis and walls, stratum vertices, stabilizers) is the
integer fraction-free elimination of _exact; results become Fractions
only as outputs (the min-norm winner, vertices, mu values).
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg as negative
from typing import NamedTuple

from ._exact import cramer_kit, lattice_tests, nullspace, residue_kit, solve
from .characters import FormalCharacter, WeightPolynomial
from .errors import (CertificateFailed, NotOnVanishingSet, NotProper,
                     WindowExhausted)
from .localization import (ClosedComponent, DiscreteKCycle, FixedPointDatum,
                           normalize_polarization, polarized_index)
from .root_data import (RootDatum, build_root_datum, dominant_window,
                        dot, neg, sub)


@dataclass(frozen=True)
class LinearModel:
    """Torus rank, nonzero action weights, and moment map shift."""

    datum: RootDatum
    weights: tuple
    shift: tuple

    def __post_init__(self):
        if not self.datum.is_torus:
            raise ValueError("linear models are defined over torus data")
        ws = tuple(self.datum.check_weight(w) for w in self.weights)
        for w in ws:
            if not any(w):
                raise ValueError("action weights must be nonzero")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "shift", self.datum.check_weight(self.shift))

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
    vector is exactly t^c prod (1 - t^{w_j})^{-1}.
    """
    pt = FixedPointDatum(tuple(neg(w) for w in m.weights),
                         WeightPolynomial.monomial(m.shift))
    return DiscreteKCycle(m.datum, ((1, ClosedComponent("C^d", (pt,))),))


def formal_quantization(m: LinearModel, window: int) -> FormalCharacter:
    """Window-exact polarized expansion of t^c prod (1 - t^{w_j})^{-1}."""
    if window < 0:
        raise WindowExhausted(f"window {window} is empty")
    xi = farkas_vector(m)
    out = polarized_index(model_cycle(m), xi, max(window, 1))
    return out if window >= 1 else out.restrict(window)


def _wall_normals(weights, rank):
    """Integer normal systems of the maximal walls spanned by < rank weights.

    Maximal walls: subsets of size min(d, rank-1) of the d distinct
    weights.  A smaller subset spans a wall inside one of these, so the
    union of the walls, and with it the regular flag, is unchanged.
    """
    distinct = sorted(set(weights))
    walls = {}
    for subset in itertools.combinations(distinct, min(len(distinct), rank - 1)):
        walls[tuple(sorted(nullspace(subset, rank)))] = True
    return list(walls)


def _box_sums(v, base, axes):
    """[base + <v, gamma> for gamma in product(*axes)], summed axis by axis."""
    out = [base]
    for x, values in zip(v, axes):
        row = [x * g for g in values]
        out = [a + b for a in out for b in row]
    return out


class ReductionCount(NamedTuple):
    """(count, regular) with named access."""

    count: int
    regular: bool


class _LatticeCounter:
    """Per-model setup of the counting route; see reduction_multiplicity.

    Walls and cone.  The normal n of each one-normal maximal wall is
    oriented, where possible, so that every weight pairs >= 0 with it;
    such a supporting normal bounds the cone of the weights, so a target
    gamma - c pairing < 0 with it has count 0.  The normals are packed
    as digit columns: field f (lowest bit p, top bit q) of
    sum(packed * gamma) + const is <n_f, gamma - c> + 2^q.  So gamma is
    on a one-normal wall iff some field of that sum ^ half is zero (the
    zero-digit bit test, with `ones` the lowest bits), and outside the
    cone iff a supporting field lacks its top bit (`cone`).  Widths come
    from the normals, the shift and `reach`, the largest |gamma_t| they
    hold; a wider gamma re-packs from the weights.  Walls with several
    normals (`thick`) are tested directly.

    Lattice.  A nonzero count needs gamma - c in the group the weights
    generate; `lattice` holds the functionals that decide it (see
    _exact.lattice_tests).  When the weights are a basis of the whole
    space (no looped weights, see below) the cone is simplicial and the
    cone and lattice tests are exact, so a target passing both counts 1
    with no Cramer rows.

    Window.  window(w) counts the whole box [-w, w]^rank in one pass and
    count(gamma) one point, through the same _counts: it packs for the
    reach, builds the packed, thick-wall and lattice pairings of every
    point by incremental sums along the axes (_box_sums), and counts only
    the targets inside the cone that pass the lattice test (_tally).  It
    returns two columns: a regular flag per point and a dict of the
    nonzero counts only, so a zero count costs no object.

    Counting.  The weights are sorted by increasing Farkas pairing, and
    one elimination (_exact.cramer_kit) takes from that end the greedy
    basis of their span: each weight independent of the weights before
    it.  A remainder y in the span (the lattice tests decide that before
    any search) has exactly one coefficient vector a on the basis, with
    det * a = leaf * y and det > 0, so a leaf of the search is one test:
    every entry of leaf * y a nonnegative multiple of det.  The other
    d - rank(span) weights are looped, largest pairing first, within the
    Farkas budget <y, xi>.  All targets of a pass go through the levels
    together, as one list per leaf row and one of budgets (_level), and
    no value computed for one target is used for another.  The test is
    linear in the last looped weight's coefficient a, so the valid a form
    an interval met with one residue class mod det // gcd(det, step),
    read off `kit` (_exact.residue_kit) and counted in closed form.
    """

    __slots__ = ("weights", "shift", "xi", "det", "leaf", "steps",
                 "kit", "lattice", "reach", "packed", "const", "half",
                 "ones", "cone", "thick")

    def __init__(self, m: LinearModel):
        self.weights, self.shift = m.weights, m.shift
        self.xi = xi = farkas_vector(m)
        ws = sorted(m.weights, key=lambda w: dot(w, xi))
        basis, self.det, self.leaf = cramer_kit(ws, m.rank)
        looped = [w for i, w in enumerate(ws) if i not in basis][::-1]
        self.steps = tuple((tuple(dot(row, w) for row in self.leaf), dot(w, xi))
                           for w in looped)
        self.kit = residue_kit(self.steps[-1][0] if self.steps else (), self.det)
        self.lattice = lattice_tests(m.weights, m.rank)
        self.reach = -1  # nothing packed yet

    def _pack(self, reach):
        """Pack the one-normal walls for every gamma with |gamma_t| <= reach."""
        ws, c0 = self.weights, self.shift
        packed, const, half, ones, cone, thick, p = [0] * len(c0), 0, 0, 0, 0, [], 0
        for wall in _wall_normals(ws, len(c0)):
            if len(wall) > 1:
                thick.append(tuple((n, dot(n, c0)) for n in wall))
                continue
            n = neg(wall[0]) if all(dot(w, wall[0]) <= 0 for w in ws) else wall[0]
            c = dot(n, c0)
            top = 1 << p + (sum(map(abs, n)) * reach + abs(c)).bit_length()
            packed = [x + (v << p) for x, v in zip(packed, n)]
            const += top - (c << p)
            half += top
            ones += 1 << p
            if all(dot(w, n) >= 0 for w in ws):
                cone += top
            p = top.bit_length()
        self.packed, self.const, self.half, self.ones = tuple(packed), const, half, ones
        self.cone, self.thick, self.reach = cone, tuple(thick), reach

    def count(self, gamma) -> ReductionCount:
        (regular,), counts = self._counts([(g,) for g in gamma], max(map(abs, gamma)))
        return ReductionCount(counts.get(gamma, 0), regular)

    def window(self, w):
        """(regular, counts) on [-w, w]^rank; see _counts."""
        return self._counts([range(-w, w + 1)] * len(self.shift), w)

    def _counts(self, axes, reach):
        """(regular, counts) on product(*axes), all |gamma_t| <= reach.

        regular holds one flag per point, in product order (for a window,
        dominant_window order); counts maps each gamma with a nonzero
        count to that count and holds no other key.
        """
        if self.reach < reach:
            self._pack(reach)
        half, ones, cone, c0 = self.half, self.ones, self.cone, self.shift
        ds = _box_sums(self.packed, self.const, axes)
        regular = [not ((e := d ^ half) - ones) & ~e & half for d in ds]
        for wall in self.thick:
            regular = [r and any(z) for r, *z in
                       zip(regular, *(_box_sums(n, -c, axes) for n, c in wall))]
        inside = [d & cone == cone for d in ds]
        for n, m in self.lattice:
            inside = [a and not (v % m if m else v)
                      for a, v in zip(inside, _box_sums(n, -dot(n, c0), axes))]
        gammas = list(itertools.compress(itertools.product(*axes), inside))
        del ds, inside  # box-sized, freed so they add nothing to the count's peak memory
        return regular, {g: n for g, n in zip(gammas, self._tally(gammas)) if n}

    def _tally(self, gammas) -> list:
        """The count of each target gamma - c inside the cone and the group of the weights."""
        n, c0 = len(gammas), self.shift
        if not self.steps and len(self.leaf) == len(c0):
            return [1] * n  # simplicial: the cone and lattice tests were exact
        bs, *ys = ([sum(map(mul, row, g)) - y0 for g in gammas]
                   for row, y0 in ((row, dot(row, c0)) for row in (self.xi, *self.leaf)))
        order = range(n)
        if len(self.steps) > 1:  # see _level
            order = sorted(order, key=bs.__getitem__, reverse=True)
            bs, ys = [bs[i] for i in order], [[col[i] for i in order] for col in ys]
        counts = (self._level(0, ys, bs) if self.steps else
                  self._last(ys, [0] * n, (0,) * len(ys)))  # the leaf test at a = 0 is the count
        out = [0] * n
        for i, c in zip(order, counts):
            out[i] = c
        return out

    def _level(self, j, ys, bs):
        """Counts from loop level j on; bs decreases, so the budgets still >= 0 are a prefix."""
        step, pw = self.steps[j]
        if j + 1 == len(self.steps):
            return self._last(ys, [b // pw for b in bs], step)
        total = [0] * len(bs)
        while k := bisect.bisect_right(bs, 0, key=negative):
            ys, bs = [col[:k] for col in ys], bs[:k]
            total[:k] = map(add, total, self._level(j + 1, ys, bs))
            ys, bs = [[y - s for y in col] for col, s in zip(ys, step)], [b - pw for b in bs]
        return total

    def _last(self, ys, his, step):
        """#{a in [0, hi] : y - a * step passes the leaf test}, per column, in closed form.

        The leaf rows alone decide (the lattice tests put the target in the
        span): each entry of y - a * step must be a nonnegative multiple of
        det.  The signs bound a to [lo, hi], and the multiples hold, if at
        all, on the class of sum(u * y) // g mod period, checked at its first
        a >= lo (_exact.residue_kit).
        """
        det, (g, period, u) = self.det, self.kit
        los = [0] * len(his)
        for col, s in zip(ys, step):
            if s > 0:
                his = [q if (q := y // s) < h else h for h, y in zip(his, col)]
            elif s < 0:
                los = [q if (q := -(y // -s)) > lo else lo for lo, y in zip(los, col)]
        cs = [0] * len(his)
        for col, x in zip(ys, u):
            if x:
                cs = [c + x * y for c, y in zip(cs, col)]
        firsts = [lo + (c // g - lo) % period for lo, c in zip(los, cs)]
        ok = [a <= h for a, h in zip(firsts, his)]
        for col, s in zip(ys, step):
            ok = [k and (r := y - a * s) >= 0 and not r % det for k, y, a in zip(ok, col, firsts)]
        return [(h - a) // period + 1 if k else 0 for k, h, a in zip(ok, his, firsts)]


def reduction_multiplicity(m: LinearModel, gamma) -> ReductionCount:
    """Lattice count of mu^{-1}(gamma) data, with a regularity flag.

    Counts #{a in Z_{>=0}^d : sum a_j w_j + c = gamma}; gamma is regular
    iff gamma - c avoids every wall spanned by fewer than rank weights
    (tested on the maximal walls).  One packed pairing decides regularity
    and whether gamma - c lies outside the cone of the weights, a few
    functionals whether it lies outside the group they generate (count
    0); else the count loops the weights outside a greedy basis of their
    span but the last, bounded by the Farkas vector (a_j <= <gamma-c, xi>
    / <w_j, xi>), takes the last one's coefficient from one residue class
    in closed form and solves the basis exactly.  The setup and the count
    are those of the window pass of verify_qr, which counts all targets
    of a window at once (_LatticeCounter, built on a model's first call
    and kept on it).
    """
    return m._counter.count(m.datum.check_weight(gamma))


# ------------------------------------------------------------- vanishing

@dataclass(frozen=True)
class VanishingComponent:
    """One connected component of the moment-flow zero set.

    support lists the coordinates allowed to be nonzero (the union of
    the strata at one mu value, each recorded in strata); the stabilizer
    subalgebra is cut out by the support's weights; mu is constant on
    the component, with value mu_value and exact diameter mu_diameter.
    """

    support: tuple
    strata: tuple
    stabilizer_basis: tuple
    mu_value: tuple
    compact: bool
    mu_diameter: Fraction

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
    <= m.rank).  That subsystem depends only on its own weights and the
    shift, so each column set of at most m.rank weights is solved once
    per model.  Rows are (cols, g, g * x, holds) for the solutions with
    det g > 0 (a principal minor of the Gram matrix) and x >= 0; holds
    is the set of j with <w_j, mu> = 0 at that point, checked on g * x.
    """
    ws = m.weights
    gram = [[dot(u, v) for v in ws] for u in ws]
    rhs = [-dot(u, m.shift) for u in ws]
    table = []
    for size in range(min(len(ws), m.rank) + 1):
        for cols in itertools.combinations(range(len(ws)), size):
            g, gx = solve([[gram[i][c] for c in cols] for i in cols], [rhs[i] for i in cols])
            if g and min(gx, default=0) >= 0:
                holds = {j for j, (row, r) in enumerate(zip(gram, rhs))
                         if sum(row[c] * x for c, x in zip(cols, gx)) == g * r}
                table.append((cols, g, gx, holds))
    return table


def _stratum_vertices(table, support):
    """Vertices of {a >= 0 on support : <w_i, mu> = 0 for i in support}.

    A row of _column_table is a vertex of the stratum exactly when
    cols <= support <= holds; vertices are Fractions indexed by position
    in support.
    """
    verts = set()
    for cols, g, gx, holds in table:
        if holds.issuperset(support) and set(cols).issubset(support):
            at = dict(zip(cols, gx))
            verts.add(tuple(Fraction(at.get(j, 0), g) for j in support))
    return sorted(verts)


def vanishing_decomposition(m: LinearModel) -> list:
    """Connected components of V^mu = 0, exactly, for a proper model.

    Enumerates the 2^d coordinate supports and reads each stratum's
    vertices off one table of Gram solves (_column_table).  mu is
    constant on a stratum (mu - c lies in the span of its weights and
    is orthogonal to it), and the points with one value p of mu form a
    convex polytope, so the components are the fibres of mu: the
    strata grouped by their mu value.  CertificateFailed if the vertices
    of one stratum disagree on mu, or if a group misses its union
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
            verts = _stratum_vertices(table, support)
            if not verts or not all(any(v[i] for v in verts) for i in range(size)):
                continue  # no point with support exactly this set
            mus = {tuple(Fraction(c) + sum(x * m.weights[j][t] for x, j in zip(v, support) if x)
                         for t, c in enumerate(m.shift))
                   for v in verts}
            if len(mus) != 1:
                raise CertificateFailed(f"vertices of stratum {support} disagree on mu")
            groups.setdefault(mus.pop(), []).append(support)
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
    negative bound or a deviation vector whose length is not the rank.
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
    for comp in m._components:
        if comp.support not in offsets:
            raise NotOnVanishingSet(f"no deviation given on component {comp.support}")
        v = offsets[comp.support]
        for xi in comp.stabilizer_basis:
            if dot(v, xi) ** 2 > bound ** 2 * dot(xi, xi):
                return False
    return True


# ------------------------------------------------------------ verify_qr

@dataclass
class QRReport:
    """The two quantization routes on a window, kept as sparse columns.

    series and counts map each weight of the window to its nonzero
    series coefficient (q_top) and nonzero lattice count (q_red); a
    weight absent from a map is 0 there.  regular holds one flag per
    weight, in dominant_window order, and verdict is series == counts.
    to_dict and table expand the columns into one row per weight of the
    window, in that order.
    """

    model: LinearModel
    window: int
    series: dict
    counts: dict
    regular: list
    verdict: bool

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
    window from one pass of the model's counter (_LatticeCounter.window),
    equal to reduction_multiplicity at every weight.  Both hold only
    nonzero values, on keys inside the window, so the routes agree at
    every weight exactly when the two maps are equal.
    """
    series = formal_quantization(m, window).coeffs
    regular, counts = m._counter.window(window)
    return QRReport(m, window, series, counts, regular, series == counts)
