"""Virtual characters, formal completions, and exact Laurent arithmetic.

Three layers:

* WeightPolynomial: a finitely supported integer combination of lattice
  weights, i.e. an element of the group ring Z[weight lattice].  Stored
  as a dict weight -> nonzero coefficient.
* Character: a finite virtual character written in the basis of
  irreducibles (dominant highest weights).
* FormalCharacter: a window truncation of a possibly infinite character,
  exact inside the window, unspecified outside.

weyl_character produces the full weight polynomial of an irreducible by
dividing its alternant by the Weyl denominator, one binomial 1 - t^{-alpha}
per positive root; decompose inverts it by reflecting each weight of
p * t^rho into the dominant chamber (the Weyl character formula read term
by term).  Every window given to a formal character or a series is
checked by _window, and every cut of a map to a window is _cut.
"""

from __future__ import annotations

import heapq

from ._record import Record
from .errors import NotInvariant, WindowExhausted
from .root_data import (RootDatum, add, as_int, as_weight, neg, same_datum,
                        signed_orbit_with_images, simple_reflection, sub, sup_norm)


def _checked(terms, key) -> dict:
    """{key(w): c} of a mapping or (w, c) pairs: each c goes through
    as_int, repeated keys add, and zeros are dropped."""
    out = {}
    for w, c in (terms.items() if hasattr(terms, "items") else terms):
        w = key(w)
        c = as_int(c) + out.get(w, 0)
        if c:
            out[w] = c
        else:
            out.pop(w, None)
    return out


def _window(window) -> int:
    """A window as given: an int (as_int), WindowExhausted below 0."""
    window = as_int(window)
    if window < 0:
        raise WindowExhausted(f"window {window} is empty")
    return window


def _cut(coeffs: dict, window: int) -> dict:
    """The entries of coeffs whose weight has sup-norm <= window."""
    return {w: m for w, m in coeffs.items() if sup_norm(w) <= window}


def _sum(a: dict, b: dict) -> dict:
    """The sparse sum of two maps to nonzero ints: keys that cancel are dropped."""
    out = dict(a)
    for k, v in b.items():
        v += out.get(k, 0)
        if v:
            out[k] = v
        else:
            del out[k]
    return out


class WeightPolynomial:
    """Finitely supported Z-linear combination of lattice weights.

    Supports +, -, unary -, * (by int or by another polynomial,
    convolution product), == and bool.  Zero coefficients are never
    stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = _checked(terms, as_weight)

    @staticmethod
    def _of(terms: dict) -> "WeightPolynomial":
        """The polynomial of a dict of weight tuples to nonzero ints, taken as is."""
        p = object.__new__(WeightPolynomial)
        p.terms = terms
        return p

    @staticmethod
    def monomial(w, c=1) -> "WeightPolynomial":
        return WeightPolynomial([(w, c)])

    @staticmethod
    def one(rank: int) -> "WeightPolynomial":
        return WeightPolynomial([((0,) * rank, 1)])

    @staticmethod
    def zero() -> "WeightPolynomial":
        return WeightPolynomial()

    def coeff(self, w) -> int:
        return self.terms.get(as_weight(w), 0)

    def items(self):
        return self.terms.items()

    def sorted_items(self):
        return sorted(self.terms.items())

    def dimension(self) -> int:
        """Evaluation at the identity: sum of all coefficients."""
        return sum(self.terms.values())

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, WeightPolynomial) and self.terms == other.terms

    def __neg__(self):
        return WeightPolynomial._of({w: -c for w, c in self.terms.items()})

    def __add__(self, other):
        return WeightPolynomial._of(_sum(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return WeightPolynomial._of({w: other * c for w, c in self.terms.items()}
                                        if other else {})
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = add(w1, w2)
                c = out.get(w, 0) + c1 * c2
                if c:
                    out[w] = c
                else:
                    del out[w]
        return WeightPolynomial._of(out)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "WeightPolynomial(0)"
        bits = [f"{c}*t^{w}" for w, c in self.sorted_items()]
        return "WeightPolynomial(" + " + ".join(bits) + ")"

    def to_list(self):
        """Serialize as a sorted list of {"weight": [...], "mult": m}."""
        return [{"weight": list(w), "mult": c} for w, c in self.sorted_items()]

    @staticmethod
    def from_list(rows) -> "WeightPolynomial":
        return WeightPolynomial((row["weight"], row["mult"]) for row in rows)


def exact_divide(num: WeightPolynomial, den: WeightPolynomial) -> WeightPolynomial:
    """Exact quotient of Laurent polynomials, or ArithmeticError.

    Uses leading-term elimination in lexicographic order.  If the
    division is exact the quotient's support lies in the coordinate box
    [min_i(num) - min_i(den), max_i(num) - max_i(den)] (the per-coordinate
    extremes of a product add), so any step leaving that box certifies
    inexactness and the box also bounds the number of steps.  A step
    writes only at or below the term it clears, since every term of den
    is at most its leading term, so the remainder's keys wait in a heap
    of negated tuples and a cleared key never comes back.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return WeightPolynomial.zero()
    rank = len(next(iter(den.terms)))
    lo = tuple(min(w[i] for w in num.terms) - min(w[i] for w in den.terms) for i in range(rank))
    hi = tuple(max(w[i] for w in num.terms) - max(w[i] for w in den.terms) for i in range(rank))
    if any(a > b for a, b in zip(lo, hi)):
        raise ArithmeticError("not divisible: empty quotient box")
    lead = max(den.terms)
    lead_c = den.terms[lead]
    rem = dict(num.terms)
    heap = [neg(w) for w in rem]
    heapq.heapify(heap)
    quot = {}
    while rem:
        lw = neg(heapq.heappop(heap))
        lc = rem.get(lw)
        if lc is None:  # cancelled after it was pushed
            continue
        mw = sub(lw, lead)
        if any(x < a or x > b for x, a, b in zip(mw, lo, hi)) or lc % lead_c:
            raise ArithmeticError(f"not divisible: stuck at term {lw}")
        mc = lc // lead_c
        quot[mw] = mc
        for w, c in den.terms.items():
            v = add(mw, w)
            r = rem.get(v, 0) - mc * c
            if r:
                if v not in rem:
                    heapq.heappush(heap, neg(v))
                rem[v] = r
            else:
                rem.pop(v, None)
    return WeightPolynomial._of(quot)


def weyl_character(datum: RootDatum, lam) -> WeightPolynomial:
    """Full weight polynomial of the irreducible with highest weight lam.

    The alternant sum_w det(w) t^{w(lam+rho)} over the Weyl denominator
    sum_w det(w) t^{w rho} = t^rho prod_{alpha > 0} (1 - t^{-alpha}):
    shifted by -rho, the alternant is divided by one binomial per
    positive root; a torus has none, so its character is t^lam.
    """
    lam = datum.check_dominant(lam)
    rho = datum.rho
    out = WeightPolynomial._of({sub(img, rho): s
                                for img, s, _ in signed_orbit_with_images(datum, add(lam, rho))})
    zero = (0,) * datum.rank
    for alpha in datum.positive_roots:
        out = exact_divide(out, WeightPolynomial._of({zero: 1, neg(alpha): -1}))
    return out


def _check_invariant(datum: RootDatum, p: WeightPolynomial):
    """NotInvariant unless every simple reflection maps each term onto an equal one."""
    for i in range(len(datum.simple_roots)):
        if any(p.terms.get(simple_reflection(datum, i, w)) != c for w, c in p.terms.items()):
            raise NotInvariant(f"polynomial is not invariant under reflection {i}")


def decompose(datum: RootDatum, p: WeightPolynomial) -> "Character":
    """Write a Weyl-invariant weight polynomial in the irreducible basis.

    By the Weyl character formula p * A_rho = sum_lam m_lam A_{lam+rho},
    where A_x = sum_w det(w) t^{w x} is the alternant.  For invariant p
    the left side is sum_nu c_nu A_{nu+rho}, so each term c_nu t^nu is
    read on its own: reflecting nu + rho at its first most negative
    simple coordinate, with a sign change each time, reaches the dominant
    chamber; a strictly dominant end point lam + rho adds the signed c_nu
    to m_lam, and one on a wall adds nothing.  A torus has no simple
    coordinates, so its character is its own decomposition.  Raises
    NotInvariant when the input is not a virtual character, and
    ValueError when a weight's length is not the datum's rank.
    """
    for nu in p.terms:  # the caller's weights
        datum.check_weight(nu)
    _check_invariant(datum, p)
    n = len(datum.simple_roots)
    mults = {}
    for nu, c in p.terms.items():
        x = add(nu, datum.rho)
        low = min(x[:n], default=1)
        while low < 0:
            x = simple_reflection(datum, x.index(low), x)
            c = -c
            low = min(x[:n], default=1)
        if low > 0:
            lam = sub(x, datum.rho)
            mults[lam] = mults.get(lam, 0) + c
    return Character._of(datum, {lam: m for lam, m in mults.items() if m})


class Character(Record):
    """Finite virtual character: dominant highest weight -> multiplicity."""

    _fields = ("datum", "mults")

    def __init__(self, datum: RootDatum, mults=()):
        self.datum = datum
        self.mults = _checked(mults, datum.check_dominant)

    def mult(self, w) -> int:
        return self.mults.get(as_weight(w), 0)

    def sorted_items(self):
        return sorted(self.mults.items())

    def __add__(self, other):
        return Character._of(same_datum(self.datum, other.datum), _sum(self.mults, other.mults))

    def __neg__(self):
        return Character._of(self.datum, {w: -m for w, m in self.mults.items()})

    def weight_polynomial(self) -> WeightPolynomial:
        """Expand back to the weight level."""
        out = WeightPolynomial.zero()
        for w, m in self.mults.items():
            out = out + m * weyl_character(self.datum, w)
        return out

    def weight_system_bound(self) -> int:
        """Sup-norm bound over all weights of all constituents."""
        bound = 0
        for w in self.mults:
            for v in weyl_character(self.datum, w).terms:
                bound = max(bound, sup_norm(v))
        return bound

    def to_list(self):
        return [{"weight": list(w), "mult": m} for w, m in self.sorted_items()]

    @staticmethod
    def from_list(datum: RootDatum, rows) -> "Character":
        return Character(datum, [(r["weight"], r["mult"]) for r in rows])


def char_product(a: Character, b: Character) -> Character:
    """Tensor product decomposition, by multiplying weight polynomials."""
    return decompose(same_datum(a.datum, b.datum), a.weight_polynomial() * b.weight_polynomial())


class FormalCharacter(Record):
    """Window truncation of an element of the character completion.

    Multiplicities of irreducibles are exact for every dominant weight
    of sup-norm <= window and unspecified outside; its sum and product
    (formal_multiply) are Character's, cut to the window.  Construction
    checks the window and every key and multiplicity; a sum, negation,
    restriction or cut of a Character holds checked keys and is built with
    _of, restrict and from_character checking only the window given.
    """

    _fields = ("datum", "window", "coeffs")

    def __init__(self, datum: RootDatum, window: int, coeffs=()):
        self.datum = datum
        self.window = _window(window)
        self.coeffs = _checked(coeffs, self._key)

    def _key(self, w):
        w = self.datum.check_dominant(w)
        if sup_norm(w) > self.window:
            raise WindowExhausted(f"key {w} outside window {self.window}")
        return w

    def mult(self, w) -> int:
        w = self.datum.check_weight(w)
        if sup_norm(w) > self.window:
            raise WindowExhausted(f"{w} is outside window {self.window}")
        return self.coeffs.get(w, 0)

    def sorted_items(self):
        return sorted(self.coeffs.items())

    def restrict(self, window: int) -> "FormalCharacter":
        window = _window(window)
        if window > self.window:
            raise WindowExhausted(f"cannot grow window {self.window} to {window}")
        return FormalCharacter._of(self.datum, window, _cut(self.coeffs, window))

    def agrees_with(self, other: "FormalCharacter") -> bool:
        """Equality of multiplicities over the shared window: the difference is 0 there."""
        return self.datum == other.datum and not (self - other).coeffs

    def __add__(self, other):
        datum = same_datum(self.datum, other.datum)
        b = min(self.window, other.window)
        return FormalCharacter._of(datum, b, _cut(_sum(self.coeffs, other.coeffs), b))

    def __neg__(self):
        return FormalCharacter._of(self.datum, self.window,
                                   {w: -m for w, m in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    @staticmethod
    def from_character(ch: Character, window: int) -> "FormalCharacter":
        window = _window(window)
        return FormalCharacter._of(ch.datum, window, _cut(ch.mults, window))

    @staticmethod
    def from_weight_polynomial(datum: RootDatum, p: WeightPolynomial,
                               window: int) -> "FormalCharacter":
        """Decompose a full (finite) weight polynomial, then truncate."""
        return FormalCharacter.from_character(decompose(datum, p), window)

    def to_dict(self) -> dict:
        return {"window": self.window,
                "terms": [{"weight": list(w), "mult": m} for w, m in self.sorted_items()]}

    @staticmethod
    def from_dict(datum: RootDatum, d: dict) -> "FormalCharacter":
        return FormalCharacter(datum, as_int(d["window"]),
                               [(r["weight"], r["mult"]) for r in d.get("terms", [])])


def formal_multiply(f: FormalCharacter, c: Character) -> FormalCharacter:
    """Multiply a window-truncated character by a finite virtual character.

    The product is char_product's, cut to the shrunken window (decompose
    is linear, so the product of sums is the sum of pairwise products).
    The window shrinks by the sup-norm bound of the finite factor's full
    weight system, which is exactly the margin needed for every
    contributing term of f to lie inside f's window.  The margin is read
    off the union of the constituents' terms, not off their sum, where
    terms could cancel.  Each distinct constituent's weyl_character is
    built once.  Raises WindowExhausted when the shrunken window is empty
    (negative).
    """
    same_datum(f.datum, c.datum)
    chars = {w: weyl_character(c.datum, w) for w in c.mults}
    margin = max((sup_norm(v) for ch in chars.values() for v in ch.terms), default=0)
    window = f.window - margin
    if window < 0:
        raise WindowExhausted(f"window {f.window} cannot absorb margin {margin}")
    for w in f.coeffs.keys() - chars.keys():
        chars[w] = weyl_character(f.datum, w)

    def expand(mults):
        return sum((m * chars[w] for w, m in mults.items()), WeightPolynomial.zero())

    product = decompose(f.datum, expand(f.coeffs) * expand(c.mults))
    return FormalCharacter.from_character(product, window)
