"""Equivariant indices of discrete K-cycles by fixed point localization.

A discrete K-cycle is a signed list of closed components, each carrying
only the localized data of a closed stable-complex torus orbifold with
isolated fixed points: per point a list of nonzero tangent weights, a
fiber character, and a cyclic orbifold order.  Orientation of the
stable complex structure is absorbed into the signs of the tangent
weights supplied by the data; a component sign of -1 denotes the
reversed structure and negates the contribution.

closed_index sums chi_p * prod_j (1 - t^{-w_pj})^{-1} over fixed points
over one common denominator: the distinct factors 1 - t^u (u the
lex-positive one of +-w_pj) each at its largest multiplicity at a single
point.  It certifies that the numerator is exactly divisible by it, so
the result is a genuine Laurent polynomial.  polarized_index expands
each factor as a geometric series supported in the xi-positive half
space and reports exact multiplicities on a finite window, which also
works for infinite component families with an enumeration bound.  One
series path serves both kinds: terms are cut to a coordinate box, the
window itself for a torus and the box of the extraction plan's points
for type A.

Series terms are packed integers of signed digit fields.  The pairing
with xi is the top block; below it, from the lowest field up, come the
r coordinates and then one field per guard functional (a linear bound
that a term able to reach the box cannot exceed; phi and -phi share a
field).  Every field is linear in the term, so a series step is one
integer addition, the pairing cap one comparison and a guard pairing
one shift and mask.  The guard table is built in one pass over the
distinct normals: each is paired with the series directions once, and
that one list gives both its guards, phi and -phi, and its column of
every direction's packed stride.  A point with fewer than two factors
computes no normals but the coordinates, as only their guards act there.

Orbifold orders m > 1 are handled by exact cyclic averaging along the
diagonal circle: only terms whose coordinate sum is divisible by m
survive, which is the lattice-level shadow of averaging the character
over the m-th roots of unity and keeps every coefficient an integer.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import lshift, mul

from ._exact import hyperplanes, nullspace, primitive
from ._record import FrozenRecord, Record
from .characters import FormalCharacter, WeightPolynomial, exact_divide
from .errors import (DegeneratePolarization, EnumerationUnbounded,
                     NonIsolatedFixedPoint, NotClosed,
                     OrbifoldAveragingUnsupported, WindowExhausted)
from .root_data import (RootDatum, add, as_int, as_weight, dominant_window,
                        dot, neg, scale, signed_orbit_with_images, sub, sup_norm)


class FixedPointDatum(FrozenRecord):
    """Localized data at one isolated fixed point.

    tangent_weights: nonzero weights of the tangent representation.
    fiber_character: restriction of the cycle's bundle, a nonzero
    WeightPolynomial (virtual fibers are allowed).
    orbifold_order: order of the local cyclic isotropy, >= 1.
    """

    _fields = ("tangent_weights", "fiber_character", "orbifold_order")

    def __init__(self, tangent_weights: tuple, fiber_character: WeightPolynomial,
                 orbifold_order: int = 1):
        tangent_weights = tuple(as_weight(w) for w in tangent_weights)
        for w in tangent_weights:
            if not any(w):
                raise NonIsolatedFixedPoint(f"zero tangent weight in {tangent_weights}")
        if not isinstance(fiber_character, WeightPolynomial):
            fiber_character = WeightPolynomial(fiber_character)
        if not fiber_character:
            raise ValueError("fiber character must be nonzero")
        orbifold_order = as_int(orbifold_order)
        if orbifold_order < 1:
            raise ValueError(f"orbifold order must be >= 1, got {orbifold_order}")
        self.__dict__.update(tangent_weights=tangent_weights, fiber_character=fiber_character,
                             orbifold_order=orbifold_order)

    @staticmethod
    def _trusted(tangent_weights: tuple, fiber_character: WeightPolynomial) -> "FixedPointDatum":
        """A point of order 1 from checked data: a tuple of nonzero weight
        tuples and a nonzero WeightPolynomial; no check is repeated."""
        p = object.__new__(FixedPointDatum)
        p.__dict__.update(tangent_weights=tangent_weights, fiber_character=fiber_character,
                          orbifold_order=1)
        return p

    def to_dict(self):
        return {"tangent": [list(w) for w in self.tangent_weights],
                "fiber": self.fiber_character.to_list(),
                "order": self.orbifold_order}

    @staticmethod
    def from_dict(d):
        return FixedPointDatum(tuple(tuple(w) for w in d["tangent"]),
                               WeightPolynomial.from_list(d["fiber"]),
                               d.get("order", 1))


def point(fiber, *tangent_weights, order=1) -> FixedPointDatum:
    """Shorthand constructor; fiber may be a weight tuple or a polynomial."""
    if not isinstance(fiber, WeightPolynomial):
        fiber = WeightPolynomial.monomial(fiber)
    return FixedPointDatum(tuple(tangent_weights), fiber, order)


class ClosedComponent(FrozenRecord):
    """Fixed point data of one closed piece; at least one point."""

    _fields = ("label", "fixed_points")

    def __init__(self, label: str, fixed_points: tuple):
        fixed_points = tuple(fixed_points)
        if not fixed_points:
            raise ValueError("a closed component needs at least one fixed point")
        self.__dict__.update(label=label, fixed_points=fixed_points)

    def to_dict(self, sign=1):
        return {"sign": sign, "label": self.label,
                "fixed_points": [p.to_dict() for p in self.fixed_points]}

    @staticmethod
    def from_dict(d):
        pts = tuple(FixedPointDatum.from_dict(p) for p in d["fixed_points"])
        return as_int(d.get("sign", 1)), ClosedComponent(str(d.get("label", "")), pts)


class DiscreteKCycle(Record):
    """Signed, finite or bounded-enumerable, list of closed components.

    components is a sequence of (sign, ClosedComponent) with sign +-1.
    An infinite family is a callable index -> (sign, ClosedComponent)
    together with enumeration_bound, the largest index that will ever be
    materialized; window-exactness of truncations is certified at use
    time through the monotone escape of the family's minimal pairing.
    """

    _fields = ("datum", "components", "family", "enumeration_bound")

    def __init__(self, datum: RootDatum, components: tuple = (), family=None,
                 enumeration_bound: int = None):
        if enumeration_bound is not None and as_int(enumeration_bound) < 0:
            raise ValueError(f"enumeration bound must be >= 0, got {enumeration_bound}")
        self.datum = datum
        self.components = tuple(self._checked(s, c) for s, c in components)
        self.family = family
        self.enumeration_bound = enumeration_bound

    def _checked(self, sign, comp: ClosedComponent):
        """(sign, comp) once sign is +-1 and comp's weights fit the datum."""
        sign = as_int(sign)
        if sign not in (-1, 1):
            raise ValueError(f"component sign must be +-1, got {sign}")
        for p in comp.fixed_points:
            for w in p.tangent_weights:
                self.datum.check_weight(w)
            for w in p.fiber_character.terms:
                self.datum.check_weight(w)
        return sign, comp

    @staticmethod
    def _trusted(datum: RootDatum, components: tuple) -> "DiscreteKCycle":
        """A finite cycle of checked (sign, component) pairs: signs +-1 and
        weights that fit the datum; no check is repeated."""
        k = object.__new__(DiscreteKCycle)
        k.__dict__.update(datum=datum, components=components, family=None,
                          enumeration_bound=None)
        return k

    def _mapped(self, f) -> "DiscreteKCycle":
        """f(sign, comp) in place of every (sign, comp), the family's included."""
        base = self.family
        fam = None if base is None else (lambda i: f(*base(i)))
        return DiscreteKCycle(self.datum, tuple(f(s, c) for s, c in self.components),
                              fam, self.enumeration_bound)

    def negate(self) -> "DiscreteKCycle":
        """Orientation reversal: negates every component sign."""
        return self._mapped(lambda s, c: (-s, c))

    def materialized(self) -> "DiscreteKCycle":
        """Expand the family (if any) into an explicit component list."""
        if self.family is None:
            return self
        if self.enumeration_bound is None:
            raise EnumerationUnbounded("infinite component family without enumeration_bound")
        extra = tuple(self.family(i) for i in range(self.enumeration_bound + 1))
        return DiscreteKCycle(self.datum, self.components + extra)  # checked there

    def iter_certified(self, xi, maxpair):
        """Yield components whose terms can reach pairing <= maxpair.

        For a family this checks the monotonicity certificate (minimal
        fiber pairing nondecreasing along the enumeration) and raises
        EnumerationUnbounded unless the family provably escapes the
        window within the enumeration bound.
        """
        yield from self.components
        if self.family is None:
            return
        if self.enumeration_bound is None:
            raise EnumerationUnbounded("infinite component family without enumeration_bound")
        prev = None
        for i in range(self.enumeration_bound + 1):
            s, c = self._checked(*self.family(i))
            low = min(dot(w, xi) for p in c.fixed_points for w in p.fiber_character.terms)
            if prev is not None and low < prev:
                raise EnumerationUnbounded(
                    f"family violates the monotonicity certificate at index {i}")
            prev = low
            if low > maxpair:
                return
            yield s, c
        raise EnumerationUnbounded(
            f"enumeration bound {self.enumeration_bound} does not certify the window")

    def to_dict(self) -> dict:
        out = {"datum": self.datum.to_dict(),
               "components": [c.to_dict(s) for s, c in self.materialized().components]}
        if self.enumeration_bound is not None:
            out["enumeration_bound"] = self.enumeration_bound
        return out

    @staticmethod
    def from_dict(d: dict) -> "DiscreteKCycle":
        datum = RootDatum.from_dict(d["datum"])
        comps = tuple(ClosedComponent.from_dict(c) for c in d.get("components", []))
        return DiscreteKCycle(datum, comps,
                              enumeration_bound=d.get("enumeration_bound"))


def closed_index(component: ClosedComponent, datum: RootDatum = None) -> WeightPolynomial:
    """Exact index of a closed component as a Laurent polynomial.

    Over u, the lex-positive one of +-v, a factor 1 - t^v (v = -m w) is
    1 - t^u or -t^{-u} (1 - t^u); the latter puts -t^u in the numerator.
    The common denominator is the product of the distinct 1 - t^u, each
    at its largest multiplicity at one point; the sum over it is divided
    by one binomial at a time, which is exact exactly when the product
    divides.  Divisibility does not depend on that choice, so its failure
    raises NotClosed: the data cannot come from a closed orbifold.
    Orbifold orders act by diagonal cyclic averaging as described in the
    module docstring.
    """
    rank = len(next(iter(component.fixed_points[0].fiber_character.terms)))
    one = WeightPolynomial.one(rank)
    local = []
    common = Counter()
    for p in component.fixed_points:
        m = p.orbifold_order
        if m > 1 and datum is not None and not datum.is_torus:
            raise OrbifoldAveragingUnsupported(
                "orbifold averaging outside a torus lattice is not expressible")
        num = p.fiber_character
        factors = Counter()
        for w in p.tangent_weights:
            if m > 1:
                num = num * WeightPolynomial((scale(-i, w), 1) for i in range(m))
            v = scale(-m, w)
            u = max(v, neg(v))  # the lex-positive one of +-v
            if u != v:
                num = num * WeightPolynomial.monomial(u, -1)
            factors[u] += 1
        if m > 1:
            num = WeightPolynomial({w: c for w, c in num.items() if sum(w) % m == 0})
        local.append((num, factors))
        common |= factors
    total = WeightPolynomial.zero()
    for num, factors in local:
        for u in (common - factors).elements():
            num = num * (one - WeightPolynomial.monomial(u))
        total = total + num
    try:
        for u in common.elements():
            total = exact_divide(total, one - WeightPolynomial.monomial(u))
    except ArithmeticError as exc:
        raise NotClosed(f"component {component.label!r}: {exc}") from exc
    return total


def closed_sum(k: DiscreteKCycle) -> WeightPolynomial:
    """Signed sum of the exact closed indices of all components."""
    out = WeightPolynomial.zero()
    for s, c in k.materialized().components:
        out = out + s * closed_index(c, k.datum)
    return out


def normalize_polarization(xi) -> tuple:
    """Scale a rational polarization to a primitive integer vector.

    A vector of ints is divided by its gcd directly; anything else (bools,
    Fractions, floats) is first cleared of denominators through Fraction.
    """
    xi = tuple(xi)
    if not all(type(x) is int for x in xi):
        fr = [Fraction(x) for x in xi]
        den = math.lcm(*(f.denominator for f in fr))
        xi = [f.numerator * (den // f.denominator) for f in fr]
    if not any(xi):
        raise DegeneratePolarization("polarization vector is zero")
    return primitive(xi)


def auto_polarization(*cycles: DiscreteKCycle) -> tuple:
    """A certified-generic integer polarization for every cycle given.

    Uses xi = (1, b, b^2, ...) with b one more than the largest tangent
    coordinate in absolute value: a zero pairing would be a vanishing
    base-b expansion with digits below b, forcing a zero weight.
    """
    big = 0
    for k in cycles:
        for _, comp in k.materialized().components:
            for p in comp.fixed_points:
                for w in p.tangent_weights:
                    big = max(big, sup_norm(w))
    return tuple((big + 1) ** i for i in range(cycles[0].datum.rank))


def _extraction_points(datum: RootDatum, window: int):
    """Extraction plan of a window.

    Maps each dominant window weight lam to a list of (point, sign) pairs
    such that the irreducible multiplicity of lam is sum of sign *
    coefficient(point): the alternating sum over w(lam+rho)-rho, which
    inverts the character formula.  A torus plan maps each box point to
    itself, so polarized_index reads a torus window off the box instead.
    """
    return {lam: [(sub(img, datum.rho), sgn)
                  for img, sgn, _ in signed_orbit_with_images(datum, add(lam, datum.rho))]
            for lam in dominant_window(datum, window)}


def _window_guards(dirs, rank, box):
    """The guard table of a point: (keys, pairs, active), in one pass over the normals.

    A partial product term u can still contribute to a term of the box
    [-box, box]^r only if some gamma in the box differs from u by a
    nonnegative combination of the remaining series directions.  Any
    functional phi that is nonnegative on those directions therefore
    forces <u, phi> <= max over the box of <gamma, phi>, which is box *
    sum |phi_i| in closed form, the same for phi and -phi.  The normals
    are the coordinate functionals e_t, then, for two factors or more, the
    hyperplanes spanned by rank - 1 directions (_exact.hyperplanes) and
    the annihilator of the direction span.  The annihilator is needed only
    when there is no such hyperplane: for a span of rank or rank - 1
    dimensions it is empty or one of the hyperplanes, and a smaller span
    has no hyperplane.  With fewer factors only the coordinate guards can
    act (see below).

    Each normal (first nonzero entry positive) is paired with the
    directions once, and both of its guards are read off that one list:
    key is valid on factor j when it pairs >= 0 with every later
    direction, so from the factor of its last negative pairing on, and
    -key from that of its last positive one.  Past that first valid factor
    a guard acts only where its normal pairs nonzero with the direction:
    every term already meets it, and steps that leave the pairing unchanged
    cannot break it.  On the last factor only the coordinate guards act:
    they alone cut k to exactly the box (no other guard cuts a box point).
    keys lists the normals with a guard valid somewhere (the coordinates
    always, first), one packed field each, pairs[f] the pairings of
    keys[f] with the directions, and active[j] the guards of factor j as
    (f, flip, bound), flip when the guard is -keys[f].
    """
    nfac = len(dirs)
    coords = [tuple(int(i == t) for i in range(rank)) for t in range(rank)]
    spans = set()  # rank 1 has no normal but e_0
    if nfac > 1 and rank > 1:
        spans = set(hyperplanes(dirs, rank) or nullspace(dirs, rank)).difference(coords)
    keys, pairs, active = [], [], [[] for _ in dirs]
    for n, key in enumerate(coords + sorted(spans)):
        if n < rank:
            ps, end = [d[n] for d in dirs], nfac
        else:
            ps, end = [sum(map(mul, d, key)) for d in dirs], nfac - 1
        plus = minus = 0  # the last factors that key pairs < 0 and > 0 with
        for j, x in enumerate(ps):
            if x < 0:
                plus = j
            elif x > 0:
                minus = j
        if n >= rank and plus >= end and minus >= end:
            continue
        f, b = len(keys), box * sum(map(abs, key))
        keys.append(key)
        pairs.append(ps)
        for j in range(plus, end):
            if j == plus or ps[j]:
                active[j].append((f, False, b))
        for j in range(minus, end):
            if j == minus or ps[j]:
                active[j].append((f, True, b))
    return keys, pairs, active


def _expand_point(p: FixedPointDatum, xi, maxpair, box):
    """Polarized series of one fixed point, exact below the pairing cap.

    Returns the series terms with pairing <= maxpair that lie in the box
    [-box, box]^r, as {weight: nonzero coefficient}.  The box is never
    enumerated: on the last factor its coordinate guards (+-e_t, bound
    box) cut each term's range of k to exactly the box, and a point
    without tangent weights has its fiber cut directly.

    Terms are kept as packed integers, so vector addition is plain int
    addition.  From the top down a term holds its pairing with xi, then
    one signed digit field per guard functional that is active on some
    non-last factor (phi and -phi share a field), then the r coordinate
    fields, lowest first; the coordinate functionals e_t are the guards
    +-e_t.  Each field is a linear functional of the term, so a stride
    adds to every field at once.  One bias of half a field added to every
    field keeps each stored digit in [0, 2 * half), which makes the
    pairing cap a single comparison and a guard pairing a shift and a
    mask.  A field is wide enough for the largest L1 norm of a packed
    functional times the largest coordinate a partial term can reach.
    The guard table (_window_guards) lists the fields and the pairing of
    each field's key with each direction, so a direction's stride is
    packed from its column of the table and no pairing is computed twice.
    The terms left after the last factor are read out one coordinate
    field at a time, as columns.
    """
    rank = len(xi)
    fiber = p.fiber_character.terms
    steps = []
    for w in p.tangent_weights:
        pw = dot(w, xi)
        if pw == 0:
            raise DegeneratePolarization(f"tangent weight {w} pairs to zero")
        steps.append((w, pw))
    steps.sort(key=lambda wp: -abs(wp[1]))
    fmin = min(dot(v, xi) for v in fiber)
    budget0 = maxpair - fmin
    if budget0 < 0:
        return {}
    if not steps:
        fiber = {v: c for v, c in fiber.items() if sup_norm(v) <= box}
    dirs = [neg(w) if pw < 0 else w for w, pw in steps]
    keys, pairs, active = _window_guards(dirs, rank, box)

    # field width: every coordinate a partial term can reach (the box is
    # never packed), times the largest L1 norm of a packed functional
    big = max((abs(c) for v in fiber for c in v), default=0)
    growth = sum((budget0 // abs(pw)) * max(abs(c) for c in w)
                 for w, pw in steps)
    norm = max(sum(map(abs, f)) for f in keys)
    width = (norm * (big + growth)).bit_length() + 1
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    offsets = range(0, width * len(keys), width)
    shift = 1 << offsets.stop
    bias = half * ((shift - 1) // mask)  # (shift - 1) // mask is 1 in every field
    bias2 = 2 * bias
    cap = (maxpair + 1) * shift  # a term pairs at most maxpair iff u < cap

    # a direction's stride packs its column of the guard table's pairings
    strides = [abs(pw) * shift + sum(map(lshift, col, offsets))
               for (_, pw), col in zip(steps, zip(*pairs))]
    cur = {}
    for v, c in fiber.items():
        u = dot(v, xi) * shift + bias + sum(map(lshift, [dot(v, key) for key in keys], offsets))
        cur[u] = cur.get(u, 0) + c
    for j, (w, pw) in enumerate(steps):
        if not cur:
            return {}
        stride = strides[j]
        # (1 - t^{-w})^{-1} = sum_{k>=0} t^{-kw} when pw < 0, and
        # -t^w (1 - t^w)^{-1} = -sum_{k>=1} t^{kw} when pw > 0: either way
        # step k adds k * dirs[j], whose pairing |pw| is positive
        k0, sign = (0, 1) if pw < 0 else (1, -1)
        kmax = budget0 // abs(pw)
        # guards cut each term's range of k before the term is built.  A
        # field reads half + <u, key>, and the negated term 2 * bias - u
        # reads half - <u, key>, so the room b - <u, phi> left by a guard
        # is b + half minus one field read: of u when phi is the field's
        # key, of the negated term when phi is its negative
        ups, downs, flat = [], [], []
        for f, flip, b in active[j]:
            step = -pairs[f][j] if flip else pairs[f][j]
            g = (flip, f * width, b + half)
            if step > 0:
                ups.append(g + (step,))
            elif step < 0:
                downs.append(g + (-step,))
            else:
                flat.append(g)
        guarded = bool(active[j])
        nxt = {}
        get = nxt.get
        for vp, c in cur.items():
            lo, hi = k0, kmax
            if guarded:
                reads = (vp, bias2 - vp)
                for n, sh, bb, step in ups:
                    t = (bb - ((reads[n] >> sh) & mask)) // step
                    if t < hi:
                        hi = t
                for n, sh, bb, step in downs:
                    t = -((bb - ((reads[n] >> sh) & mask)) // step)
                    if t > lo:
                        lo = t
                for n, sh, bb in flat:
                    if bb < ((reads[n] >> sh) & mask):
                        hi = -1
            c *= sign
            u = vp + lo * stride
            for _ in range(lo, hi + 1):
                if u >= cap:
                    break
                cc = get(u, 0) + c
                if cc:
                    nxt[u] = cc
                else:
                    del nxt[u]
                u += stride
        cur = nxt
    # read out one coordinate column at a time
    vs = zip(*[[((u >> sh) & mask) - half for u in cur] for sh in offsets[:rank]])
    m = p.orbifold_order
    if m > 1:
        return {v: c for v, c in zip(vs, cur.values()) if not sum(v) % m}
    return dict(zip(vs, cur.values()))


def polarized_index(k: DiscreteKCycle, xi, window: int) -> FormalCharacter:
    """Window-exact polarized index of a discrete K-cycle.

    Each factor (1 - t^{-w})^{-1} is expanded as the geometric series
    supported in the xi-positive half space.  Terms whose pairing
    exceeds the largest pairing any reported weight can need are pruned;
    since every remaining factor only adds nonnegative pairing, pruning
    never loses a contribution.  The result reports irreducible
    multiplicities for every dominant weight of sup-norm <= window.
    Both kinds cut the series to one box: for a torus it is the window
    [-window, window]^r itself, whose terms are the multiplicities; for
    type A it is the smallest box holding every point of the extraction
    plan, whose alternating sums give the multiplicities.  maxpair is the
    largest pairing of a box point (torus) or of a plan point (type A).
    The first point's terms, negated for a component of sign -1, seed the
    sum that every later point's terms are added to; a coefficient that
    cancels to 0 is dropped.
    """
    window = as_int(window)
    if window < 0:
        raise WindowExhausted(f"window must be >= 0, got {window}")
    if xi is None:
        xi = auto_polarization(k)
    xi = normalize_polarization(xi)
    if len(xi) != k.datum.rank:
        raise ValueError(f"polarization rank {len(xi)} != datum rank {k.datum.rank}")
    datum = k.datum
    if datum.is_torus:  # its plan would list each box point as a one-point orbit
        box = window
        maxpair = window * sum(map(abs, xi))
    else:
        plan = _extraction_points(datum, window)
        pts = [pt for rows in plan.values() for pt, _ in rows]
        box = max(map(sup_norm, pts))
        maxpair = max(dot(pt, xi) for pt in pts)
    acc = None  # the first point's terms, then their running sum
    for sign, comp in k.iter_certified(xi, maxpair):
        if not datum.is_torus and any(p.orbifold_order > 1 for p in comp.fixed_points):
            raise OrbifoldAveragingUnsupported(
                "orbifold averaging outside a torus lattice is not expressible")
        for p in comp.fixed_points:
            terms = _expand_point(p, xi, maxpair, box)
            if acc is None:
                acc = terms if sign == 1 else {v: -c for v, c in terms.items()}
                continue
            for v, c in terms.items():
                cc = acc.get(v, 0) + sign * c
                if cc:
                    acc[v] = cc
                else:
                    del acc[v]
    if acc is None:
        acc = {}
    coeffs = acc
    if not datum.is_torus:
        coeffs = {}
        for lam, rows in plan.items():
            m = sum(sgn * acc.get(pt, 0) for pt, sgn in rows)
            if m:
                coeffs[lam] = m
    return FormalCharacter._trusted(datum, window, coeffs)


def character_window(k: DiscreteKCycle, window: int) -> FormalCharacter:
    """Exact closed-route window character of a finite cycle of closed pieces."""
    return FormalCharacter.from_weight_polynomial(k.datum, closed_sum(k), window)
