import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kquant as kq
from kquant.localization import _expand_point
from helpers import (T1, T2, all_points_closed_index, lazy_disk_family,
                     random_closed_cycle_t1, random_closed_cycle_t2,
                     random_torus_component)

WP = kq.WeightPolynomial


def test_fixed_point_validation():
    with pytest.raises(kq.NonIsolatedFixedPoint):
        kq.point((0,), (0,))
    with pytest.raises(ValueError):
        kq.FixedPointDatum(((1,),), WP.zero())
    with pytest.raises(ValueError):
        kq.point((0,), (1,), order=0)


def test_fixed_point_rejects_a_non_integer_order():
    # as from_dict does; 2.5 would otherwise reach closed_index's range(m)
    for order in (2.5, True):
        with pytest.raises(TypeError):
            kq.point((0,), (1,), order=order)


def test_fixed_point_roundtrip():
    p = kq.point((2,), (1,), (-3,), order=2)
    d = p.to_dict()
    assert d["order"] == 2
    assert d["tangent"] == [[1], [-3]]
    assert kq.FixedPointDatum.from_dict(d) == p


def test_twisted_sphere_index_vanishes():
    # fiber jumps by one across the two poles; contributions cancel
    for n in range(-10, 11):
        comp = kq.ClosedComponent(
            "tw", (kq.point((n,), (1,)), kq.point((n + 1,), (-1,))))
        assert kq.closed_index(comp, T1) == WP.zero()


def test_constant_sphere_index_is_monomial():
    for n in range(-5, 6):
        assert kq.closed_index(kq.f_sphere(n), T1) == WP.monomial((n,))


def test_degree_sphere_index_is_partial_sum():
    for k in range(0, 6):
        expected = WP(((i,), 1) for i in range(k + 1))
        assert kq.closed_index(kq.o_sphere(k), T1) == expected


def test_not_closed_rejected():
    # a single point with one tangent direction is a disk, not closed
    comp = kq.ClosedComponent("disk", (kq.point((0,), (-1,)),))
    with pytest.raises(kq.NotClosed):
        kq.closed_index(comp, T1)


def test_closed_index_matches_the_all_points_denominator():
    rng = random.Random(31)
    closed = 0
    for _ in range(600):
        comp = random_torus_component(rng)
        ref = all_points_closed_index(comp)
        if ref is None:
            with pytest.raises(kq.NotClosed):
                kq.closed_index(comp)
        else:
            assert kq.closed_index(comp) == ref, comp
            closed += 1
    # both verdicts are well represented
    assert 200 < closed < 450


def test_closed_sum_signs():
    k = kq.DiscreteKCycle(T1, ((1, kq.f_sphere(2)), (-1, kq.f_sphere(2))))
    assert kq.closed_sum(k) == WP.zero()


def test_cycle_negate_involution():
    rng = random.Random(0)
    k = random_closed_cycle_t1(rng)
    assert kq.closed_sum(k.negate()) == -kq.closed_sum(k)
    assert kq.closed_sum(k.negate().negate()) == kq.closed_sum(k)


def test_empty_cycle():
    k = kq.DiscreteKCycle(T1, ())
    assert kq.closed_sum(k) == WP.zero()
    assert k.negate().components == ()


def test_orbifold_football_is_invariant_part():
    for m in (2, 3, 5):
        for a in range(-4, 5):
            comp = kq.ClosedComponent("fb", (
                kq.point((a,), (1,), order=m), kq.point((a,), (-1,), order=m)))
            expected = WP.monomial((a,)) if a % m == 0 else WP.zero()
            assert kq.closed_index(comp, T1) == expected


def test_orbifold_quotient_matches_averaged_cover():
    # order-m data at every point equals the m-divisible part of the cover
    rng = random.Random(9)
    for _ in range(30):
        cover = (kq.f_sphere(rng.randint(-4, 4)) if rng.random() < 0.5
                 else kq.o_sphere(rng.randint(0, 5)))
        m = rng.randint(2, 4)
        quotient = kq.ClosedComponent("q", tuple(
            kq.FixedPointDatum(p.tangent_weights, p.fiber_character, m)
            for p in cover.fixed_points))
        averaged = WP((w, c) for w, c in kq.closed_index(cover, T1).items()
                      if sum(w) % m == 0)
        assert kq.closed_index(quotient, T1) == averaged


def test_orbifold_outside_torus_rejected():
    a1 = kq.build_root_datum("A", 1)
    comp = kq.ClosedComponent("bad", (
        kq.point((2,), (2,), order=2), kq.point((-2,), (-2,), order=2)))
    with pytest.raises(kq.OrbifoldAveragingUnsupported):
        kq.closed_index(comp, a1)


def test_polarized_half_space_model():
    # single point expanding to the full geometric series 1/(1 - t)
    comp = kq.ClosedComponent("disk", (kq.point((0,), (-1,)),))
    k = kq.DiscreteKCycle(T1, ((1, comp),))
    fc = kq.polarized_index(k, (1,), 6)
    assert fc.coeffs == {(n,): 1 for n in range(7)}


def test_polarized_single_point_no_tangents():
    comp = kq.ClosedComponent("pt", (kq.point((0,)),))
    k = kq.DiscreteKCycle(T1, ((1, comp),))
    fc = kq.polarized_index(k, (1,), 5)
    assert fc.coeffs == {(0,): 1}


def test_polarized_point_without_tangents_is_cut_to_the_window():
    # a fiber term outside the window is dropped, not reported, even when
    # its pairing is below the cap
    fiber = WP([((0, 0), 1), ((3, -3), 2), ((1, -2), -1)])
    comp = kq.ClosedComponent("pt", (kq.FixedPointDatum((), fiber),))
    k = kq.DiscreteKCycle(T2, ((1, comp),))
    for xi in ((1, 1), (1, 2), (-1, 3)):
        fc = kq.polarized_index(k, xi, 2)
        assert fc.coeffs == {(0, 0): 1, (1, -2): -1}
        assert fc.coeffs == kq.character_window(k, 2).coeffs


def test_polarized_torus_orbifold_matches_closed():
    rng = random.Random(44)
    for _ in range(12):
        for datum, cover in ((T1, random_closed_cycle_t1(rng)),
                             (T2, random_closed_cycle_t2(rng))):
            m = rng.randint(2, 3)
            k = kq.DiscreteKCycle(datum, tuple(
                (s, kq.ClosedComponent(c.label, tuple(
                    kq.FixedPointDatum(p.tangent_weights, p.fiber_character, m)
                    for p in c.fixed_points)))
                for s, c in cover.components))
            window = rng.randint(1, 5)
            ref = kq.character_window(k, window)
            for xi in ((1,) * datum.rank, (-1,) + (3,) * (datum.rank - 1)):
                assert kq.polarized_index(k, xi, window).coeffs == ref.coeffs


def test_polarized_agrees_with_closed_rank1():
    rng = random.Random(1)
    for _ in range(20):
        k = random_closed_cycle_t1(rng)
        ref = kq.FormalCharacter.from_weight_polynomial(T1, kq.closed_sum(k), 8)
        for xi in ((1,), (-1,), (3,)):
            assert kq.polarized_index(k, xi, 8).agrees_with(ref)


def test_polarized_agrees_with_closed_rank2():
    rng = random.Random(2)
    for _ in range(12):
        k = random_closed_cycle_t2(rng)
        ref = kq.FormalCharacter.from_weight_polynomial(T2, kq.closed_sum(k), 6)
        for xi in ((1, 5), (-2, 7), (3, -1)):
            assert kq.polarized_index(k, xi, 6).agrees_with(ref)


def test_degenerate_polarization_rejected():
    k = kq.DiscreteKCycle(T2, ((1, kq.product_cycle(
        kq.DiscreteKCycle(T2, ((1, kq.ClosedComponent("a", (
            kq.point((0, 0), (1, 0)), kq.point((0, 0), (-1, 0))))),)),
        kq.DiscreteKCycle(T2, ((1, kq.ClosedComponent("b", (
            kq.point((0, 0), (0, 1)), kq.point((0, 0), (0, -1))))),)),
    ).components[0][1]),))
    with pytest.raises(kq.DegeneratePolarization):
        kq.polarized_index(k, (0, 1), 4)
    with pytest.raises(kq.DegeneratePolarization):
        kq.normalize_polarization((0, 0))


def test_window_zero_rejected():
    k = kq.DiscreteKCycle(T1, ((1, kq.f_sphere(0)),))
    with pytest.raises(kq.WindowExhausted):
        kq.polarized_index(k, (1,), 0)


def test_window_must_be_an_integer():
    k = kq.DiscreteKCycle(T1, ((1, kq.f_sphere(0)),))
    for window in (2.5, 2.0):
        with pytest.raises(TypeError):
            kq.polarized_index(k, (1,), window)


def test_auto_polarization_generic():
    rng = random.Random(3)
    for _ in range(10):
        k = random_closed_cycle_t2(rng)
        other = random_closed_cycle_t2(rng)
        xi = kq.auto_polarization(k)
        for _, comp in k.components:
            for p in comp.fixed_points:
                for w in p.tangent_weights:
                    assert sum(a * b for a, b in zip(w, xi)) != 0
        # several cycles: the base covers the largest tangent coordinate of all
        big = max(abs(x) for c in (k, other) for _, comp in c.components
                  for p in comp.fixed_points for w in p.tangent_weights for x in w)
        assert kq.auto_polarization(k, other) == (1, big + 1)


def test_family_quantizes_the_disk():
    fam = lazy_disk_family()
    fc = kq.polarized_index(fam, (1,), 5)
    assert fc.coeffs == {(n,): 1 for n in range(6)}


def test_family_without_bound_rejected():
    fam = kq.DiscreteKCycle(T1, (), lambda i: (1, kq.f_sphere(i)), None)
    with pytest.raises(kq.EnumerationUnbounded):
        kq.polarized_index(fam, (1,), 5)
    with pytest.raises(kq.EnumerationUnbounded):
        fam.materialized()


def test_family_bound_must_certify_escape():
    # bound too small to push the minimal pairing past the window
    fam = kq.DiscreteKCycle(T1, (), lambda i: (1, kq.f_sphere(i)),
                            enumeration_bound=3)
    with pytest.raises(kq.EnumerationUnbounded):
        kq.polarized_index(fam, (1,), 8)


def test_family_monotonicity_enforced():
    fam = kq.DiscreteKCycle(T1, (), lambda i: (1, kq.f_sphere(-i)),
                            enumeration_bound=50)
    with pytest.raises(kq.EnumerationUnbounded):
        kq.polarized_index(fam, (1,), 5)


def test_family_signs_are_checked_on_every_route():
    # a family's sign is checked as a finite cycle's is, not only as an int
    fam = kq.DiscreteKCycle(T1, (), lambda i: (2, kq.f_sphere(i)), enumeration_bound=5)
    routes = (lambda: kq.polarized_index(fam, (1,), 3), fam.materialized,
              lambda: kq.closed_sum(fam), lambda: list(fam.iter_certified((1,), 3)))
    for route in routes:
        with pytest.raises(ValueError, match=r"component sign must be \+-1, got 2"):
            route()


def test_character_window_matches_closed():
    rng = random.Random(4)
    k = random_closed_cycle_t1(rng)
    ref = kq.FormalCharacter.from_weight_polynomial(T1, kq.closed_sum(k), 7)
    assert kq.character_window(k, 7).agrees_with(ref)


def test_cycle_json_roundtrip():
    rng = random.Random(6)
    k = random_closed_cycle_t1(rng)
    d = k.to_dict()
    back = kq.DiscreteKCycle.from_dict(d)
    assert back.datum == k.datum
    assert kq.closed_sum(back) == kq.closed_sum(k)


def test_family_serialization_materializes():
    fam = lazy_disk_family(bound=4)
    d = fam.to_dict()
    assert d["enumeration_bound"] == 4
    assert len(d["components"]) == 5


def test_torus_guard_bound_is_the_box_maximum():
    import itertools

    from kquant.localization import _window_guards

    rng = random.Random(43)
    for _ in range(40):
        rank = rng.randint(1, 3)
        window = rng.randint(0, 4)
        dirs = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(1, 4))]
        dirs = [d for d in dirs if any(d)] or [(1,) * rank]
        box = list(itertools.product(range(-window, window + 1), repeat=rank))
        guards = _window_guards(dirs, rank, window)
        assert guards
        # each closed-form bound is the maximum of <v, phi> over the box
        for phi, b in guards:
            assert b == max(sum(x * y for x, y in zip(v, phi)) for v in box)


def _pairing(v, xi):
    return sum(a * b for a, b in zip(v, xi))


def _series_reference(p, xi, maxpair, box):
    """Brute-force polarized series of one point: no guards, no packing.

    Expands every factor over each k-vector whose total pairing stays at
    most maxpair, sums the terms, then keeps the box [-box, box]^r and
    the terms the orbifold order divides.
    """
    factors = []
    for w in p.tangent_weights:
        pw = _pairing(w, xi)
        if pw < 0:
            factors.append((tuple(-x for x in w), -pw, 0, 1))
        else:
            factors.append((w, pw, 1, -1))
    out = {}
    for v, c in p.fiber_character.terms.items():
        partial = [(v, _pairing(v, xi), c)]
        for d, step, k0, sign in factors:
            partial = [(tuple(a + k * b for a, b in zip(u, d)), pu + k * step, cu * sign)
                       for u, pu, cu in partial
                       for k in range(k0, (maxpair - pu) // step + 1)]
        for u, pu, cu in partial:
            if (pu <= maxpair and max(map(abs, u)) <= box
                    and sum(u) % p.orbifold_order == 0):
                out[u] = out.get(u, 0) + cu
    return {u: c for u, c in out.items() if c}


def _check_against_reference(p, xi, maxpair, box):
    terms = _expand_point(p, xi, maxpair, box)
    assert terms == _series_reference(p, xi, maxpair, box)
    return terms


@st.composite
def series_points(draw):
    """A fixed point, a generic xi, a box and a pairing cap.

    The cap is either the one polarized_index uses for a torus window or
    a small budget above the first fiber term.  Further fiber terms have
    coordinates up to 50 and pair at least the cap minus 10, so the
    reference stays small while the packed fields get wide.
    """
    rank = draw(st.integers(1, 4))

    def vectors(bound):
        return st.tuples(*[st.integers(-bound, bound)] * rank)

    tangent = draw(st.lists(vectors(3).filter(any), min_size=1, max_size=5))
    xi = draw(vectors(7).filter(
        lambda x: all(_pairing(w, x) for w in tangent)))
    box = draw(st.integers(1, 4))
    near = draw(vectors(12))
    if draw(st.booleans()):
        maxpair = box * sum(map(abs, xi))
    else:
        maxpair = _pairing(near, xi) + draw(st.integers(-2, 8))
    # a bound on the reference's k-vectors per fiber term
    budget = maxpair - min(maxpair - 10, _pairing(near, xi))
    assume(math.prod(budget // abs(_pairing(w, xi)) + 1 for w in tangent) <= 20000)
    fiber = {near: draw(st.integers(1, 3))}
    floor = maxpair - 10
    for v in draw(st.lists(vectors(50).filter(lambda v: _pairing(v, xi) >= floor),
                           max_size=3)):
        fiber.setdefault(v, draw(st.sampled_from((-2, -1, 1, 2))))
    order = draw(st.integers(1, 3))
    p = kq.FixedPointDatum(tuple(tangent), WP(fiber), order)
    return p, xi, maxpair, box


@settings(max_examples=150, deadline=None)
@given(series_points())
# the guard (2, 1), normal to the direction (1, -2), pairs up to three
# times the largest coordinate, so its field must be that much wider
@example((kq.point((1, 0), (-1, 0), (-1, 2)), (1, 0), 1, 1))
def test_packed_series_matches_brute_force(case):
    _check_against_reference(*case)


def test_packed_series_with_million_coordinates():
    # fiber coordinates of +-10**6 set the field width; the far terms pair
    # like the near ones, so only the guards keep them out of the box
    fiber = WP([((0, 0), 1), ((1, 1), -2), ((10 ** 6, -5 * 10 ** 5), 2),
                ((-10 ** 6, 5 * 10 ** 5 + 1), -1)])
    p = kq.FixedPointDatum(((-1, 0), (0, -1), (1, -1)), fiber)
    terms = _check_against_reference(p, (1, 2), 6, 2)
    assert terms and max(map(abs, (x for v in terms for x in v))) <= 2
    # a coordinate just below a power of two fills its field to the top
    big = 2 ** 20 - 1
    p = kq.FixedPointDatum(((-1, 0),), WP([((big, -big), 1), ((0, 0), 1)]))
    assert _check_against_reference(p, (1, 1), 0, 2) == {(0, 0): 1}
