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
by term).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import NotDominant, NotInvariant, WindowExhausted
from .root_data import (RootDatum, add, as_int, as_weight, is_dominant, neg,
                        signed_orbit_with_images, simple_reflection, sub, sup_norm)


class WeightPolynomial:
    """Finitely supported Z-linear combination of lattice weights.

    Supports +, -, unary -, * (by int or by another polynomial,
    convolution product), == and bool.  Zero coefficients are never
    stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for w, c in items:
            w = as_weight(w)
            c = as_int(c)
            if not c:
                continue
            c += acc.get(w, 0)
            if c:
                acc[w] = c
            else:
                acc.pop(w, None)
        self.terms = acc

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
        return WeightPolynomial((w, -c) for w, c in self.terms.items())

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            c += out.get(w, 0)
            if c:
                out[w] = c
            else:
                del out[w]
        p = WeightPolynomial()
        p.terms = out
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return WeightPolynomial((w, other * c) for w, c in self.terms.items())
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = add(w1, w2)
                c = out.get(w, 0) + c1 * c2
                if c:
                    out[w] = c
                else:
                    del out[w]
        p = WeightPolynomial()
        p.terms = out
        return p

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
    out = WeightPolynomial()
    out.terms = quot
    return out


def weyl_character(datum: RootDatum, lam) -> WeightPolynomial:
    """Full weight polynomial of the irreducible with highest weight lam.

    The alternant sum_w det(w) t^{w(lam+rho)} over the Weyl denominator
    sum_w det(w) t^{w rho} = t^rho prod_{alpha > 0} (1 - t^{-alpha}):
    shifted by -rho, the alternant is divided by one binomial per
    positive root.  For a torus the character is the single monomial t^lam.
    """
    lam = datum.check_weight(lam)
    if not is_dominant(datum, lam):
        raise NotDominant(f"{lam} is not dominant for {datum}")
    if datum.is_torus:
        return WeightPolynomial.monomial(lam)
    rho = datum.rho
    out = WeightPolynomial((sub(img, rho), s)
                           for img, s, _ in signed_orbit_with_images(datum, add(lam, rho)))
    one = WeightPolynomial.one(datum.rank)
    for alpha in datum.positive_roots:
        out = exact_divide(out, one - WeightPolynomial.monomial(neg(alpha)))
    return out


def _check_invariant(datum: RootDatum, p: WeightPolynomial):
    """NotInvariant unless every simple reflection maps each term onto an equal one."""
    for i in range(datum.rank if not datum.is_torus else 0):
        if any(p.terms.get(simple_reflection(datum, i, w)) != c for w, c in p.terms.items()):
            raise NotInvariant(f"polynomial is not invariant under reflection {i}")


def decompose(datum: RootDatum, p: WeightPolynomial) -> "Character":
    """Write a Weyl-invariant weight polynomial in the irreducible basis.

    By the Weyl character formula p * A_rho = sum_lam m_lam A_{lam+rho},
    where A_x = sum_w det(w) t^{w x} is the alternant.  For invariant p
    the left side is sum_nu c_nu A_{nu+rho}, so each term c_nu t^nu is
    read on its own: reflecting nu + rho at a negative coordinate, with
    a sign change each time, reaches the dominant chamber; a strictly
    dominant end point lam + rho adds the signed c_nu to m_lam, and one
    on a wall adds nothing.  A torus character is its own decomposition.
    Raises NotInvariant when the input is not a virtual character.
    """
    _check_invariant(datum, p)
    if datum.is_torus:
        return Character(datum, p.terms)
    mults = {}
    for nu, c in p.terms.items():
        x = add(nu, datum.rho)
        while min(x) < 0:
            x = simple_reflection(datum, x.index(min(x)), x)
            c = -c
        if min(x) > 0:
            lam = sub(x, datum.rho)
            mults[lam] = mults.get(lam, 0) + c
    return Character(datum, mults)


@dataclass
class Character:
    """Finite virtual character: dominant highest weight -> multiplicity."""

    datum: RootDatum
    mults: dict = field(default_factory=dict)

    def __post_init__(self):
        torus = self.datum.is_torus
        clean = {}
        for w, m in dict(self.mults).items():
            w = self.datum.check_weight(w)
            if not torus and min(w) < 0:
                raise NotDominant(f"character key {w} is not dominant")
            m = as_int(m)
            if m:
                clean[w] = m
        self.mults = clean

    def mult(self, w) -> int:
        return self.mults.get(as_weight(w), 0)

    def sorted_items(self):
        return sorted(self.mults.items())

    def __eq__(self, other):
        return (isinstance(other, Character) and self.datum == other.datum
                and self.mults == other.mults)

    def __add__(self, other):
        if self.datum != other.datum:
            raise ValueError("datum mismatch")
        out = dict(self.mults)
        for w, m in other.mults.items():
            m += out.get(w, 0)
            if m:
                out[w] = m
            else:
                del out[w]
        return Character(self.datum, out)

    def __neg__(self):
        return Character(self.datum, {w: -m for w, m in self.mults.items()})

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
        return Character(datum, {as_weight(r["weight"]): as_int(r["mult"]) for r in rows})


def char_product(a: Character, b: Character) -> Character:
    """Tensor product decomposition, by multiplying weight polynomials."""
    if a.datum != b.datum:
        raise ValueError("datum mismatch")
    return decompose(a.datum, a.weight_polynomial() * b.weight_polynomial())


@dataclass
class FormalCharacter:
    """Window truncation of an element of the character completion.

    Multiplicities of irreducibles are exact for every dominant weight
    of sup-norm <= window and unspecified outside.  Construction checks
    every key and multiplicity; results the engine builds from keys it
    has already cut to the window skip those checks (_trusted).
    """

    datum: RootDatum
    window: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.window = as_int(self.window)
        if self.window < 0:
            raise WindowExhausted(f"window {self.window} is empty")
        torus = self.datum.is_torus
        clean = {}
        for w, m in dict(self.coeffs).items():
            w = self.datum.check_weight(w)
            if not torus and min(w) < 0:
                raise NotDominant(f"formal character key {w} is not dominant")
            if sup_norm(w) > self.window:
                raise WindowExhausted(f"key {w} outside window {self.window}")
            m = as_int(m)
            if m:
                clean[w] = m
        self.coeffs = clean

    @staticmethod
    def _trusted(datum: RootDatum, window: int, coeffs: dict) -> "FormalCharacter":
        """A result whose coeffs hold only nonzero multiplicities at checked
        keys inside the window; only the window itself is checked."""
        f = FormalCharacter(datum, window)
        f.coeffs = coeffs
        return f

    def mult(self, w) -> int:
        w = self.datum.check_weight(w)
        if sup_norm(w) > self.window:
            raise WindowExhausted(f"{w} is outside window {self.window}")
        return self.coeffs.get(w, 0)

    def sorted_items(self):
        return sorted(self.coeffs.items())

    def restrict(self, window: int) -> "FormalCharacter":
        if window > self.window:
            raise WindowExhausted(f"cannot grow window {self.window} to {window}")
        kept = {w: m for w, m in self.coeffs.items() if sup_norm(w) <= window}
        return FormalCharacter._trusted(self.datum, window, kept)

    def agrees_with(self, other: "FormalCharacter") -> bool:
        """Equality of multiplicities over the shared window, key by stored key."""
        if self.datum != other.datum:
            return False
        b = min(self.window, other.window)
        keys = {w for w in (*self.coeffs, *other.coeffs) if sup_norm(w) <= b}
        return all(self.coeffs.get(w, 0) == other.coeffs.get(w, 0) for w in keys)

    def __add__(self, other):
        if self.datum != other.datum:
            raise ValueError("datum mismatch")
        b = min(self.window, other.window)
        out = {}
        for w in sorted({w for w in (*self.coeffs, *other.coeffs) if sup_norm(w) <= b}):
            m = self.coeffs.get(w, 0) + other.coeffs.get(w, 0)
            if m:
                out[w] = m
        return FormalCharacter._trusted(self.datum, b, out)

    def __neg__(self):
        return FormalCharacter._trusted(self.datum, self.window,
                                        {w: -m for w, m in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    @staticmethod
    def from_character(ch: Character, window: int) -> "FormalCharacter":
        kept = {w: m for w, m in ch.mults.items() if sup_norm(w) <= window}
        return FormalCharacter._trusted(ch.datum, window, kept)

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
        coeffs = {as_weight(r["weight"]): as_int(r["mult"]) for r in d.get("terms", [])}
        return FormalCharacter(datum, as_int(d["window"]), coeffs)


def formal_multiply(f: FormalCharacter, c: Character) -> FormalCharacter:
    """Multiply a window-truncated character by a finite virtual character.

    The result window shrinks by the sup-norm bound of the finite
    factor's full weight system, which is exactly the margin needed for
    every contributing term of f to lie inside f's window.  Raises
    WindowExhausted when the shrunken window is empty (negative).
    """
    if f.datum != c.datum:
        raise ValueError("datum mismatch")
    margin = c.weight_system_bound()
    window = f.window - margin
    if window < 0:
        raise WindowExhausted(f"window {f.window} cannot absorb margin {margin}")
    datum = f.datum
    out = {}
    if datum.is_torus:
        for lam, a in f.coeffs.items():
            for mu, b in c.mults.items():
                w = add(lam, mu)
                if sup_norm(w) <= window:
                    out[w] = out.get(w, 0) + a * b
    else:
        for lam, a in f.coeffs.items():
            for mu, b in c.mults.items():
                prod = weyl_character(datum, lam) * weyl_character(datum, mu)
                for nu, m in decompose(datum, prod).mults.items():
                    if sup_norm(nu) <= window:
                        out[nu] = out.get(nu, 0) + a * b * m
    return FormalCharacter(datum, window, out)
