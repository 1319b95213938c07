"""Index-preserving rewrites of discrete K-cycles, with certificates.

Each move returns rewritten cycles plus (directly or through the
companion certify_* helpers) a RewriteCertificate comparing the
window-restricted indices before and after.  Bordism never appears as a
data structure; it is represented only through its observable
consequence, equality of indices, which is what the certificates check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import FormalCharacter, WeightPolynomial, decompose, formal_multiply
from .errors import (CertificateFailed, DatumMismatch, EmptyBlock,
                     FiberIndexNotUnit, OddFiber, OrbifoldAveragingUnsupported,
                     SecondFactorInfinite, UnsupportedSplit)
from .localization import (ClosedComponent, DiscreteKCycle, FixedPointDatum,
                           auto_polarization, closed_index, closed_sum, point,
                           polarized_index)
from .root_data import build_root_datum, neg, sub


@dataclass
class RewriteCertificate:
    """Window-restricted index comparison around a rewrite."""

    before: FormalCharacter
    after: FormalCharacter
    window: int
    verdict: bool

    def to_dict(self):
        return {"window": self.window, "verdict": self.verdict,
                "before": self.before.to_dict(), "after": self.after.to_dict()}


def certify(before: FormalCharacter, after: FormalCharacter) -> RewriteCertificate:
    window = min(before.window, after.window)
    return RewriteCertificate(before, after, window, before.agrees_with(after))


def f_sphere(n: int) -> ClosedComponent:
    """Rotation-invariant sphere with the weight-n trivial line bundle.

    Both poles carry fiber t^n; tangent weights +1 and -1.  Its exact
    index is the single monomial t^n.
    """
    return ClosedComponent(f"S2[F_{n}]", (point((n,), (1,)), point((n,), (-1,))))


def o_sphere(k: int) -> ClosedComponent:
    """Degree-k line bundle sphere: fibers t^0 and t^k, index 1 + ... + t^k."""
    return ClosedComponent(f"S2[O({k})]", (point((0,), (-1,)), point((k,), (1,))))


def disjoint_union(a: DiscreteKCycle, b: DiscreteKCycle) -> DiscreteKCycle:
    """Concatenate component lists; indices add."""
    if a.datum != b.datum:
        raise DatumMismatch(f"{a.datum} vs {b.datum}")
    if a.family is not None and b.family is not None:
        b = b.materialized()
    fam = a.family if a.family is not None else b.family
    bound = a.enumeration_bound if a.family is not None else b.enumeration_bound
    return DiscreteKCycle(a.datum, a.components + b.components, fam, bound)


def disk_decomposition(sign: int, truncation: int) -> DiscreteKCycle:
    """Truncated decomposition of the rotation disk into spheres.

    sign +1: components (S^2, F_n) for n = 0..truncation, whose index
    telescopes to sum_{n=0}^{N} t^n.  sign -1: the reversed-orientation
    disk, negated components (S^2, F_{-n}) for n = 1..truncation+1 with
    index -sum_{n=1}^{N+1} t^{-n}.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    datum = build_root_datum("torus", 1)
    if sign == 1:
        comps = tuple((1, f_sphere(n)) for n in range(truncation + 1))
    elif sign == -1:
        comps = tuple((-1, f_sphere(-n)) for n in range(1, truncation + 2))
    else:
        raise ValueError(f"sign must be +-1, got {sign}")
    return DiscreteKCycle(datum, comps)


def _monomial_exponent(p: WeightPolynomial):
    if len(p.terms) != 1:
        return None
    (w, c), = p.terms.items()
    return w if c == 1 else None


def glue_split(component: ClosedComponent, blocks, datum) -> tuple:
    """Cut a two-point sphere component along its free orbit sphere.

    blocks is a pair of disjoint point-index lists covering the
    component's fixed points; each must be nonempty (EmptyBlock).  The
    supported shape is two fixed points with single opposite tangent
    weights +w / -w and monomial fibers; each returned piece is closed
    by a cap whose constant fiber weight copies the fiber exponent L at
    the +w point (the -w side cap) or L - w (the +w side cap), which
    makes the pair of caps cancel exactly.  The identity
    index(piece1) + index(piece2) == index(component) is checked, and
    CertificateFailed is raised when it does not hold.
    """
    pts = component.fixed_points
    b0, b1 = [list(b) for b in blocks]
    if not b0 or not b1:
        raise EmptyBlock("both blocks of a split must be nonempty")
    if sorted(b0 + b1) != list(range(len(pts))):
        raise ValueError(f"blocks {blocks} do not partition {len(pts)} points")
    if len(pts) != 2 or any(len(p.tangent_weights) != 1 for p in pts):
        raise UnsupportedSplit("only two-point single-weight sphere components split")
    w0, w1 = pts[0].tangent_weights[0], pts[1].tangent_weights[0]
    if w1 != neg(w0):
        raise UnsupportedSplit("tangent weights must be opposite")
    exps = [_monomial_exponent(p.fiber_character) for p in pts]
    if any(e is None for e in exps):
        raise UnsupportedSplit("fibers must be single monomials")
    if any(p.orbifold_order != 1 for p in pts):
        raise UnsupportedSplit("orbifold points do not split")
    total = closed_index(component, datum)
    # Orient by the lex-positive tangent weight.
    iplus = 0 if w0 > neg(w0) else 1
    iminus = 1 - iplus
    w = pts[iplus].tangent_weights[0]
    cut = exps[iplus]
    caps = {iminus: point(cut, neg(w)), iplus: point(sub(cut, w), w)}

    def piece(block):
        kept = [pts[i] for i in block]
        cap = [caps[i] for i in range(2) if i not in block]
        lbl = f"{component.label}|{sorted(block)}"
        return ClosedComponent(lbl, tuple(kept + cap))

    p0, p1 = piece(b0), piece(b1)
    check = closed_index(p0, datum) + closed_index(p1, datum)
    if check != total:
        raise CertificateFailed("split pieces do not sum to the closed index")
    return (DiscreteKCycle(datum, ((1, p0),)), DiscreteKCycle(datum, ((1, p1),)))


def _product_point(p: FixedPointDatum, q: FixedPointDatum,
                   extra_sign: int = 1) -> FixedPointDatum:
    if p.orbifold_order > 1 and q.orbifold_order > 1:
        raise OrbifoldAveragingUnsupported(
            "product of two orbifold points is not diagonal-cyclic")
    return FixedPointDatum(p.tangent_weights + q.tangent_weights,
                           (p.fiber_character * q.fiber_character) * extra_sign,
                           p.orbifold_order * q.orbifold_order)


def bundle_modification(k: DiscreteKCycle, fiber: ClosedComponent,
                        window: int = 10, xi=None) -> tuple:
    """Twist a cycle by a compact fiber whose index is the unit.

    Every fixed point of the cycle is replaced by its products with the
    fiber's fixed points.  Preconditions: the fiber's points agree on
    the parity of their tangent-weight count (OddFiber otherwise), and
    closed_index(fiber) is the unit character (FiberIndexNotUnit).
    Returns the modified cycle and a window certificate that the
    polarized index is unchanged.
    """
    parities = {len(p.tangent_weights) % 2 for p in fiber.fixed_points}
    if len(parities) > 1:
        raise OddFiber("fiber points disagree on dimension parity")
    unit = WeightPolynomial.one(k.datum.rank)
    idx = closed_index(fiber, k.datum)
    if idx != unit:
        raise FiberIndexNotUnit(f"fiber index is {idx!r}, not the unit")

    def modify(comp: ClosedComponent) -> ClosedComponent:
        pts = tuple(_product_point(p, q)
                    for p in comp.fixed_points for q in fiber.fixed_points)
        return ClosedComponent(f"{comp.label}*{fiber.label}", pts)

    out = k._mapped(lambda s, c: (s, modify(c)))
    if xi is None:
        xi = auto_polarization(out, k)
    cert = certify(polarized_index(k, xi, window), polarized_index(out, xi, window))
    return out, cert


def product_cycle(a: DiscreteKCycle, b: DiscreteKCycle) -> DiscreteKCycle:
    """Product cycle over the shared datum: tangents concatenate, fibers tensor.

    The second factor must be finite (SecondFactorInfinite).  An
    infinite first factor stays infinite: each family component is
    multiplied by all of b, with b's signs folded into the fibers so
    the family still yields one component per index.
    """
    if a.datum != b.datum:
        raise DatumMismatch(f"{a.datum} vs {b.datum}")
    if b.family is not None:
        raise SecondFactorInfinite("second product factor must be finite")
    if not b.components:
        return DiscreteKCycle(a.datum)

    def merged(c1: ClosedComponent) -> ClosedComponent:
        pts = tuple(_product_point(p, q, s2)
                    for s2, c2 in b.components
                    for p in c1.fixed_points for q in c2.fixed_points)
        return ClosedComponent(f"{c1.label}x(...)", pts)

    comps = tuple(
        (s1 * s2, ClosedComponent(f"{c1.label}x{c2.label}",
                                  tuple(_product_point(p, q)
                                        for p in c1.fixed_points
                                        for q in c2.fixed_points)))
        for s1, c1 in a.components for s2, c2 in b.components)
    fam = None
    if a.family is not None:
        base = a.family
        fam = lambda i: (lambda sc: (sc[0], merged(sc[1])))(base(i))
    return DiscreteKCycle(a.datum, comps, fam, a.enumeration_bound)


def certify_disjoint_union(a, b, window, xi=None):
    out = disjoint_union(a, b)
    if xi is None:
        xi = auto_polarization(out)
    before = polarized_index(a, xi, window) + polarized_index(b, xi, window)
    return out, certify(before, polarized_index(out, xi, window))


def certify_disk_decomposition(sign, truncation, window, xi=None):
    out = disk_decomposition(sign, truncation)
    if sign == 1:
        target = {(n,): 1 for n in range(min(truncation, window) + 1)}
    else:
        target = {(-n,): -1 for n in range(1, truncation + 2) if n <= window}
    before = FormalCharacter(out.datum, window, target)
    if xi is None:
        xi = (1,) if sign == 1 else (-1,)
    return out, certify(before, polarized_index(out, xi, window))


def certify_glue_split(component, blocks, datum, window, xi=None):
    piece0, piece1 = glue_split(component, blocks, datum)
    if xi is None:
        xi = auto_polarization(piece0, piece1)
    before = FormalCharacter.from_weight_polynomial(
        datum, closed_index(component, datum), window)
    after = polarized_index(piece0, xi, window) + polarized_index(piece1, xi, window)
    return (piece0, piece1), certify(before, after)


def certify_product(a, b, window, xi=None):
    out = product_cycle(a, b)
    if xi is None:
        xi = auto_polarization(out)
    bchar = decompose(b.datum, closed_sum(b))
    margin = bchar.weight_system_bound()
    before = formal_multiply(polarized_index(a, xi, window + margin), bchar)
    return out, certify(before, polarized_index(out, xi, window))


def compare_cycles(a, b, window, xi=None) -> RewriteCertificate:
    """Index-equality certificate between two cycles (bordism witness)."""
    if a.datum != b.datum:
        raise DatumMismatch(f"{a.datum} vs {b.datum}")
    if xi is None:
        xi = auto_polarization(a, b)
    return certify(polarized_index(a, xi, window), polarized_index(b, xi, window))
