"""Root data for rank-r tori and the type A series.

Weights are plain tuples of ints.  For a torus the coordinates live in
the standard character lattice basis.  For type A_n they are coordinates
in the fundamental-weight basis, so the pairing of a weight with the
i-th simple coroot is just its i-th coordinate, dominance is a sign test
of those coordinates, and the simple roots are the rows of the Cartan
matrix.  The one checker of a weight that must be dominant is
RootDatum.check_dominant, and of two values that must share a datum (a
sum or product of characters or of cycles) same_datum.

A torus is the datum with no simple roots.  The Weyl-group code below
loops over datum.simple_roots, so on a torus, with no branch of its own,
every orbit is one point, every weight is dominant, and W is trivial.

Weyl group elements are never materialized as words or permutations;
orbits and orbit data are computed by breadth-first closure under the
simple reflections.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from ._record import FrozenRecord
from .errors import CertificateFailed, DatumMismatch, NotDominant, UnsupportedKind

Weight = tuple


def as_int(x) -> int:
    """x as an int: integer types only (operator.index), and no bools."""
    if type(x) is bool:
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


def as_weight(v) -> Weight:
    """The weight tuple of a sequence of integers.

    Entries go through operator.index, so floats and Fractions raise
    TypeError instead of being truncated; bools raise too, as
    index(True) is 1.
    """
    v = tuple(v)
    if bool in map(type, v):
        raise TypeError(f"weight {list(v)} has bool entries")
    return tuple(map(operator.index, v))


def sup_norm(w) -> int:
    """Max absolute coordinate; sup_norm(()) is 0."""
    return max((abs(x) for x in w), default=0)


def add(v, w):
    return tuple(a + b for a, b in zip(v, w))


def sub(v, w):
    return tuple(a - b for a, b in zip(v, w))


def neg(v):
    return tuple(-a for a in v)


def scale(k, v):
    return tuple(k * a for a in v)


def dot(v, w):
    return sum(a * b for a, b in zip(v, w))


class RootDatum(FrozenRecord):
    """A torus or type A root datum at a fixed rank.

    simple_roots and positive_roots are tuples of weights (empty for a
    torus); rho is the half sum of positive roots, which in the
    fundamental-weight basis of type A is the all-ones tuple.
    """

    _fields = ("kind", "rank", "simple_roots", "positive_roots", "rho")

    def __init__(self, kind: str, rank: int, simple_roots: tuple, positive_roots: tuple,
                 rho: Weight):
        self.__dict__.update(kind=kind, rank=rank, simple_roots=simple_roots,
                             positive_roots=positive_roots, rho=rho)

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    def check_weight(self, w) -> Weight:
        w = as_weight(w)
        if len(w) != self.rank:
            raise ValueError(f"weight {w} has length {len(w)}, datum rank is {self.rank}")
        return w

    def check_dominant(self, w) -> Weight:
        """w as a weight of this datum (check_weight) that is dominant, or NotDominant."""
        w = self.check_weight(w)
        if min(w[:len(self.simple_roots)], default=0) < 0:
            raise NotDominant(f"{w} is not dominant for {self}")
        return w

    def to_dict(self) -> dict:
        return {"kind": self.kind, "rank": self.rank}

    @staticmethod
    def from_dict(d: dict) -> "RootDatum":
        return build_root_datum(d["kind"], d["rank"])

    def __repr__(self):
        return f"RootDatum({self.kind!r}, rank={self.rank})"


def build_root_datum(kind: str, rank: int) -> RootDatum:
    """Construct the torus or A-series datum of the given rank.

    kind is "torus" or "A" (case insensitive).  Any other series raises
    UnsupportedKind.  rank must be an integer (as_int) of at least 1.
    """
    rank = as_int(rank)
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    k = str(kind).strip().lower()
    if k == "torus":
        return RootDatum("torus", rank, (), (), (0,) * rank)
    if k == "a":
        # Simple root i in fundamental coordinates is row i of the Cartan matrix.
        simple = []
        for i in range(rank):
            row = [0] * rank
            row[i] = 2
            if i > 0:
                row[i - 1] = -1
            if i + 1 < rank:
                row[i + 1] = -1
            simple.append(tuple(row))
        positive = []
        for i in range(rank):
            acc = (0,) * rank
            for j in range(i, rank):
                acc = add(acc, simple[j])
                positive.append(acc)
        return RootDatum("A", rank, tuple(simple), tuple(positive), (1,) * rank)
    raise UnsupportedKind(f"unsupported series {kind!r}; only torus and A are available")


def same_datum(a: RootDatum, b: RootDatum) -> RootDatum:
    """a, when b is the same datum; DatumMismatch otherwise."""
    if a != b:
        raise DatumMismatch(f"{a} vs {b}")
    return a


def is_dominant(datum: RootDatum, w) -> bool:
    """Dominance: nonnegative pairing with every simple coroot."""
    return all(x >= 0 for x in datum.check_weight(w)[:len(datum.simple_roots)])


def is_regular_dominant(datum: RootDatum, w) -> bool:
    """Strict dominance: positive pairing with every simple coroot."""
    return all(x >= 1 for x in datum.check_weight(w)[:len(datum.simple_roots)])


def simple_reflection(datum: RootDatum, i: int, w) -> Weight:
    """Apply the i-th simple reflection."""
    alpha = datum.simple_roots[i]
    # <w, alpha_i^vee> is the i-th fundamental coordinate.
    return sub(w, scale(w[i], alpha))


def _closure(datum: RootDatum, anchor, extras, signed) -> dict:
    """Breadth-first closure under the simple reflections: image of anchor
    -> (image, sign, extra_images).  When signed, an image reached with
    both signs raises CertificateFailed (the orbit is not free)."""
    state = (anchor, 1, extras)
    seen = {anchor: state}
    frontier = [state]
    while frontier:
        nxt = []
        for a, s, ex in frontier:
            for i in range(len(datum.simple_roots)):
                a2 = simple_reflection(datum, i, a)
                if a2 in seen:
                    if signed and seen[a2][1] != -s:
                        raise CertificateFailed(f"anchor {anchor} is not regular")
                    continue
                st = (a2, -s, tuple(simple_reflection(datum, i, e) for e in ex))
                seen[a2] = st
                nxt.append(st)
        frontier = nxt
    return seen


def weyl_orbit(datum: RootDatum, w) -> set:
    """Weyl orbit of a weight, computed by reflection closure."""
    return set(_closure(datum, datum.check_weight(w), (), False))


def signed_orbit_with_images(datum: RootDatum, anchor, extras=()):
    """Orbit of a regular anchor with determinant signs and companion images.

    Returns a list of (anchor_image, sign, extra_images) triples, one per
    Weyl group element, where extra_images tracks how each weight in
    `extras` transforms alongside the anchor.  The anchor must have a
    free orbit (be regular), otherwise signs would be ill defined; a
    singular anchor raises CertificateFailed.
    """
    anchor = datum.check_weight(anchor)
    extras = tuple(datum.check_weight(e) for e in extras)
    return list(_closure(datum, anchor, extras, True).values())


def weyl_order(datum: RootDatum) -> int:
    """Order of the Weyl group, the size of the free orbit of rho."""
    return len(weyl_orbit(datum, datum.rho))


def inner_product(datum: RootDatum, v, w) -> Fraction:
    """Invariant inner product on the weight space, exact.

    Torus: the fundamental basis is orthonormal.  Type A: the standard
    A-series form, whose Gram matrix in the fundamental-weight basis is
    the inverse Cartan matrix (A^-1)_{ij} = min(i,j) * (n+1-max(i,j)) / (n+1)
    with 1-based indices.
    """
    v = datum.check_weight(v)
    w = datum.check_weight(w)
    if datum.is_torus:
        return Fraction(dot(v, w))
    n = datum.rank
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            g = Fraction(min(i + 1, j + 1) * (n + 1 - max(i + 1, j + 1)), n + 1)
            total += g * v[i] * w[j]
    return total


def weyl_dimension(datum: RootDatum, lam) -> int:
    """Dimension of the irreducible with highest weight lam.

    Product over positive roots of <lam+rho, alpha> / <rho, alpha>, which
    is 1 for a torus.  Raises NotDominant off the cone.
    """
    lam = datum.check_dominant(lam)
    num = Fraction(1)
    lam_rho = add(lam, datum.rho)
    for alpha in datum.positive_roots:
        num *= inner_product(datum, lam_rho, alpha) / inner_product(datum, datum.rho, alpha)
    if num.denominator != 1:
        raise CertificateFailed(f"Weyl dimension {num} of {lam} is not an integer")
    return int(num)


def dominant_window(datum: RootDatum, bound: int):
    """Iterate the dominant weights of sup-norm <= bound, lex order.

    Simple coordinates run over [0, bound], any others over [-bound,
    bound]: the box [-bound, bound]^r of a torus, [0, bound]^n for A_n.
    """
    n = len(datum.simple_roots)
    return itertools.product(*(range(0 if i < n else -bound, bound + 1)
                               for i in range(datum.rank)))
