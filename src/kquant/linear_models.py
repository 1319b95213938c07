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
  others.  The rest are enumerated with bounds from the separating
  vector, the last loop level in closed form (a simplicial cone needs
  none).  Its per-model setup (Farkas vector, weight order, the integer
  adjugate of the independent suffix that makes each search leaf one
  divisibility and sign test, the packed normals, the group functionals)
  is built on the first call for a model and kept on it; it reads only
  the weights, the shift and the Farkas vector, and shares no cache with
  the series route.  The same setup counts a whole window in one pass.
  The separation result behind check_proper and farkas_vector is kept
  on the model too, so it dies with the model.

verify_qr counts the window in one pass and compares the two routes as
sparse maps, {weight: nonzero series coefficient} against {weight:
nonzero count}, which are equal exactly when the routes agree at every
weight of the window; its report expands the maps into rows only when
asked.  vanishing_decomposition solves V^mu = 0 exactly: on the stratum
where exactly the coordinates in S are nonzero the condition is
<w_j, mu(z)> = 0 for j in S, a linear system in the action variables
a_j = |z_j|^2 / 2 whose solution set is a rational polytope; connected
components of the full zero set are obtained by gluing strata whose
closures touch; the components are kept on the model for
check_compatibility.

Every determinant, square solve and nullspace here (separation, the
counter's adjugate and walls, stratum vertices, stabilizers) is the
integer fraction-free elimination of _exact; results become Fractions
only as outputs (the min-norm winner, vertices, mu values).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub as minus
from typing import NamedTuple

from ._exact import cramer_kit, lattice_tests, nullspace, solve
from .characters import FormalCharacter, WeightPolynomial
from .errors import (CertificateFailed, NotOnVanishingSet, NotProper,
                     WindowExhausted)
from .localization import (ClosedComponent, DiscreteKCycle, FixedPointDatum,
                           normalize_polarization, polarized_index)
from .root_data import (RootDatum, as_int, build_root_datum, dominant_window,
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
        datum = build_root_datum("torus", as_int(d["rank"]))
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
    _exact.lattice_tests).  With no leading weights and k == rank (see below)
    the cone is simplicial and the cone and lattice tests are exact, so
    a target passing both counts 1 with no Cramer rows.

    Window.  window(w) counts the whole box [-w, w]^rank in one pass and
    count(gamma) one point, through the same _counts: it packs for the
    reach, builds the packed, thick-wall and lattice pairings of every
    point by incremental sums along the axes (_box_sums), and solves only
    the targets inside the cone that pass the lattice test, each on its
    own.  It returns two columns: a regular flag per point and a dict of
    the nonzero counts only, so a zero count costs no object.

    Counting.  The weights are sorted by decreasing Farkas pairing.  The
    longest linearly independent suffix of that order has at most one
    solution a for a remainder y, by Cramer's rule on a square row
    choice with determinant det > 0: det * a = adj * y[rows], and the
    rows left out must satisfy det * y[r] = sum_i (det * a_i) w_i[r].
    Both are linear in y, so `leaf` stacks them into one integer matrix.
    The search carries leaf * y and steps it by leaf * w_j for the
    leading weights; a leaf needs the first k entries to be nonnegative
    multiples of det and the rest zero.  These conditions are linear in
    the last leading weight's coefficient a, so the valid a form an
    interval met with one residue class mod `period` = det // gcd(det,
    step[:k]), counted in closed form instead of looped.
    """

    __slots__ = ("weights", "shift", "xi", "det", "k", "leaf", "steps",
                 "period", "lattice", "reach", "packed", "const", "half",
                 "ones", "cone", "thick")

    def __init__(self, m: LinearModel):
        rank = m.rank
        self.weights, self.shift = m.weights, m.shift
        self.xi = xi = farkas_vector(m)
        ws = sorted(m.weights, key=lambda w: -dot(w, xi))
        # the longest linearly independent suffix of the order
        free = next(f for f in range(len(ws) + 1) if cramer_kit(ws[f:], rank))
        rows, mat, det = cramer_kit(ws[free:], rank)
        suffix = ws[free:]
        sign = 1 if det > 0 else -1
        self.det = det * sign
        self.k = len(suffix)
        # column t of adj(mat) is det * mat^{-1} e_t; leaf row i is row i of sign * adj
        adj = [solve(mat, [int(s == t) for s in range(self.k)])[1] for t in range(self.k)]
        leaf = [tuple(sign * adj[rows.index(c)][i] if c in rows else 0 for c in range(rank))
                for i in range(self.k)]
        leaf += [tuple(self.det * (c == r) - sum(n[c] * w[r] for n, w in zip(leaf, suffix))
                       for c in range(rank))
                 for r in range(rank) if r not in rows]
        self.leaf = tuple(leaf)
        self.steps = tuple((tuple(dot(row, w) for row in leaf), dot(w, xi))
                           for w in ws[:free])
        self.period = (self.det // math.gcd(self.det, *self.steps[-1][0][:self.k])
                       if self.steps else 1)
        self.lattice = lattice_tests(m.weights, rank)
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
            vs = _box_sums(n, -dot(n, c0), axes)
            inside = [a and not (v % m if m else v) for a, v in zip(inside, vs)]
        counts = {}
        for gamma in itertools.compress(itertools.product(*axes), inside):
            if n := self._solve(tuple(map(minus, gamma, c0))):
                counts[gamma] = n
        return regular, counts

    def _solve(self, target) -> int:
        """The count of a target inside the cone and the group of the weights."""
        if not self.steps and self.k == len(target):
            return 1  # simplicial: the cone and lattice tests were exact
        y = tuple(sum(map(mul, row, target)) for row in self.leaf)
        if self.steps:  # a budget < 0 leaves the search nothing to visit
            return self._search(0, y, sum(map(mul, target, self.xi)))
        return self._last(y, 0, (0,) * len(y))  # the leaf test is the count: a = 0 on a zero step

    def _search(self, j, y, b):
        step, pw = self.steps[j]
        if j + 1 == len(self.steps):
            return self._last(y, b // pw, step)
        total = 0
        for _ in range(b // pw + 1):
            total += self._search(j + 1, y, b)
            y = tuple(map(minus, y, step))
            b -= pw
        return total

    def _last(self, y, hi, step):
        """#{a in [0, hi] : y - a * step passes the leaf test}, in closed form.

        step belongs to the last leading weight, which lies in the span
        of the suffix (or the suffix spans everything), so its residual
        entries are zero: a is bounded by the head rows alone.
        """
        k, lo = self.k, 0
        if any(y[k:]):
            return 0
        head = tuple(zip(y[:k], step))
        for yr, sr in head:
            if sr > 0:
                hi = min(hi, yr // sr)
            elif sr < 0:
                lo = max(lo, -(yr // -sr))
            elif yr < 0:
                return 0
        for a in range(lo, min(hi, lo + self.period - 1) + 1):
            if not any((yr - a * sr) % self.det for yr, sr in head):
                return (hi - a) // self.period + 1
        return 0


def reduction_multiplicity(m: LinearModel, gamma) -> ReductionCount:
    """Lattice count of mu^{-1}(gamma) data, with a regularity flag.

    Counts #{a in Z_{>=0}^d : sum a_j w_j + c = gamma}; gamma is regular
    iff gamma - c avoids every wall spanned by fewer than rank weights
    (tested on the maximal walls).  One packed pairing decides regularity
    and whether gamma - c lies outside the cone of the weights, a few
    functionals whether it lies outside the group they generate (count
    0); else a search bounded by the Farkas vector (a_j <= <gamma-c, xi>
    / <w_j, xi>) loops the leading weights but the last, counts the last
    in closed form and solves the independent suffix exactly.  The setup
    is built on a model's first call and kept on it (_LatticeCounter,
    shared with the window pass of verify_qr).
    """
    return m._counter.count(m.datum.check_weight(gamma))


# ------------------------------------------------------------- vanishing

@dataclass(frozen=True)
class VanishingComponent:
    """One connected component of the moment-flow zero set.

    support lists the coordinates allowed to be nonzero (the union over
    the glued strata, each recorded in strata); the stabilizer
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


def _stratum_vertices(m: LinearModel, support):
    """Vertices of {a >= 0 on support : <w_i, mu> = 0 for i in support}.

    A vertex solves the Gram subsystem of its nonzero coordinates, which
    is singular above m.rank columns (W_S^T W_S has rank <= m.rank).  Each
    is one integer solve with det g > 0, a principal minor of a Gram matrix,
    so the checks run on g * a; only the vertices become Fractions.
    """
    ws = [m.weights[j] for j in support]
    k = len(ws)
    gram = [[dot(u, v) for v in ws] for u in ws]
    rhs = [-dot(u, m.shift) for u in ws]
    verts = set()
    for size in range(min(k, m.rank) + 1):
        for cols in itertools.combinations(range(k), size):
            g, gx = solve([[gram[i][c] for c in cols] for i in cols], [rhs[i] for i in cols])
            if not g or min(gx, default=0) < 0:
                continue
            # candidate must satisfy every equation, not just the chosen ones
            if all(sum(row[c] * x for c, x in zip(cols, gx)) == g * r
                   for row, r in zip(gram, rhs)):
                at = dict(zip(cols, gx))
                verts.add(tuple(Fraction(at.get(c, 0), g) for c in range(k)))
    return sorted(verts)


def vanishing_decomposition(m: LinearModel) -> list:
    """Connected components of V^mu = 0, exactly, for a proper model.

    Enumerates the 2^d coordinate supports, solves each stratum's
    rational system, and glues strata whose closures touch.  Mu is
    pinned to one value per component; all components of a proper model
    are compact, which is certified by the Farkas vector.  The
    components are computed once per model and kept on it; each call
    returns a fresh list of them.
    """
    return list(m._components)


def _vanishing_components(m: LinearModel) -> tuple:
    farkas_vector(m)  # NotProper for improper models
    d = len(m.weights)
    strata = {}
    for size in range(0, d + 1):
        for support in itertools.combinations(range(d), size):
            verts = _stratum_vertices(m, support)
            if not verts:
                continue
            if not all(any(v[i] > 0 for v in verts) for i in range(size)):
                continue  # no point with support exactly this set
            mu = list(Fraction(x) for x in m.shift)
            v0 = verts[0]
            for pos, j in enumerate(support):
                for t in range(m.rank):
                    mu[t] += v0[pos] * m.weights[j][t]
            strata[support] = (verts, tuple(mu))

    parent = {s: s for s in strata}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    keys = sorted(strata, key=len)
    for small, big in itertools.combinations(keys, 2):
        if not set(small) < set(big):
            continue
        verts, _ = strata[big]
        idx = {j: pos for pos, j in enumerate(big)}
        face = [v for v in verts
                if all(v[pos] == 0 for pos, j in enumerate(big) if j not in small)]
        if face and all(any(v[idx[j]] > 0 for v in face) for j in small):
            ra, rb = find(small), find(big)
            if ra != rb:
                parent[rb] = ra

    groups = {}
    for s in strata:
        groups.setdefault(find(s), []).append(s)
    out = []
    for members in groups.values():
        members = sorted(members, key=lambda s: (len(s), s))
        union = tuple(sorted(set().union(*[set(s) for s in members]) or set()))
        mus = {strata[s][1] for s in members}
        if len(mus) != 1:
            raise CertificateFailed(f"glued strata {members} disagree on the mu value")
        rows = [m.weights[j] for j in union]
        basis = tuple(nullspace(rows, m.rank))
        out.append(VanishingComponent(
            support=union, strata=tuple(members), stabilizer_basis=basis,
            mu_value=mus.pop(), compact=True, mu_diameter=Fraction(0)))
    out.sort(key=lambda comp: (len(comp.support), comp.support))
    return tuple(out)


def check_compatibility(m: LinearModel, phi_offset, bound) -> bool:
    """Check |<mu - phi, xi>| <= bound * ||xi|| on every component.

    phi_offset maps a component's support tuple to the constant
    deviation vector mu - phi there; a missing component raises
    NotOnVanishingSet.  The comparison is done squared, so it is exact
    for rational bounds even when ||xi|| is irrational.
    """
    bound = Fraction(bound)
    offsets = {tuple(sorted(k)): tuple(Fraction(x) for x in v)
               for k, v in dict(phi_offset).items()}
    for comp in m._components:
        if comp.support not in offsets:
            raise NotOnVanishingSet(f"no deviation given on component {comp.support}")
        v = offsets[comp.support]
        for xi in comp.stabilizer_basis:
            if dot(v, xi) ** 2 > bound ** 2 * dot(xi, xi):
                return False
    return True


# ------------------------------------------------------------ verify_qr

class QRRow(NamedTuple):
    gamma: tuple
    q_top: int
    q_red: int
    regular: bool
    match: bool

    def to_dict(self):
        return {"gamma": list(self.gamma), "q_top": self.q_top,
                "q_red": self.q_red, "regular": self.regular,
                "match": self.match}


@dataclass
class QRReport:
    """The two quantization routes on a window, kept as sparse columns.

    series and counts map each weight of the window to its nonzero
    series coefficient (q_top) and nonzero lattice count (q_red); a
    weight absent from a map is 0 there.  regular holds one flag per
    weight, in dominant_window order, and verdict is series == counts.
    The rows property, to_dict and table expand the columns into one row
    per weight of the window, in that order.
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

    @property
    def rows(self) -> list:
        return [QRRow(g, a, b, r, a == b) for g, a, b, r in self._cells()]

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
