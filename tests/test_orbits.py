import random

import pytest

import kquant as kq
from helpers import A1, A2, A3, T1, T2, random_formal_character

WP = kq.WeightPolynomial


def test_torus_orbit_is_a_point():
    oc = kq.orbit_cycle(T1, (4,))
    assert len(oc.component.fixed_points) == 1
    p = oc.component.fixed_points[0]
    assert p.tangent_weights == ()
    assert p.fiber_character == WP.monomial((4,))
    assert kq.closed_index(oc.component, T1) == WP.monomial((4,))


def test_a1_orbit_reproduces_characters():
    oc = kq.orbit_cycle(A1, (2,))
    assert len(oc.component.fixed_points) == 2
    assert kq.closed_index(oc.component, A1) == WP(
        {(-2,): 1, (0,): 1, (2,): 1})
    assert kq.closed_index(kq.orbit_cycle(A1, (1,)).component, A1) == WP(
        {(-1,): 1, (1,): 1})


def test_a2_orbit_has_weyl_group_points():
    oc = kq.orbit_cycle(A2, (1, 1))
    assert len(oc.component.fixed_points) == 6
    for p in oc.component.fixed_points:
        assert len(p.tangent_weights) == 3
    assert kq.closed_index(oc.component, A2) == kq.weyl_character(A2, (1, 1))


def test_borel_weil_window():
    # A4 at window 1 is the orbit of rho alone: 120 points, dimension 2^10
    a4 = kq.build_root_datum("A", 4)
    for datum, window in ((A2, 4), (A3, 3), (a4, 1)):
        for gamma in kq.dominant_window(datum, window):
            if not kq.is_regular_dominant(datum, gamma):
                continue
            oc = kq.orbit_cycle(datum, gamma)
            assert kq.closed_index(oc.component, datum) == kq.weyl_character(datum, gamma)


def test_singular_orbit_rejected():
    with pytest.raises(kq.SingularOrbitUnsupported):
        kq.orbit_cycle(A1, (0,))
    with pytest.raises(kq.SingularOrbitUnsupported):
        kq.orbit_cycle(A2, (1, 0))


def test_non_dominant_rejected():
    with pytest.raises(kq.NotDominant):
        kq.orbit_cycle(A2, (-1, 2))


def test_p_map_torus_bookkeeping():
    fc = kq.FormalCharacter(T1, 8, {(0,): 2, (3,): 1})
    k = kq.p_map(fc)
    assert len(k.components) == 3
    assert kq.closed_sum(k) == WP({(0,): 2, (3,): 1})


def test_p_map_empty_character():
    fc = kq.FormalCharacter(A1, 5, {})
    k = kq.p_map(fc)
    assert k.components == ()
    assert kq.polarized_index(k, (1,), 5).coeffs == {}


def test_p_map_round_trip():
    rng = random.Random(20)
    for datum in (T1, T2, A1):
        for _ in range(8):
            fc = random_formal_character(rng, datum, 8, regular_only=True)
            got = kq.polarized_index(kq.p_map(fc), None, 8)
            assert got.agrees_with(fc), (datum.kind, fc.coeffs)


def test_p_map_round_trip_a2():
    rng = random.Random(21)
    for _ in range(4):
        fc = random_formal_character(rng, A2, 4, regular_only=True)
        got = kq.polarized_index(kq.p_map(fc), None, 4)
        assert got.agrees_with(fc)


def test_type_a_series_matches_closed_route_at_several_polarizations():
    # no root pairs to zero with any of these; rank 1 has two directions up
    # to scale, (-7,) also checks normalization, and None is the automatic
    # choice.  Per datum: draws, window range, polarizations
    cases = ((A1, 6, (2, 6), ((1,), (-1,), (-7,))),
             (A2, 6, (2, 6), ((1, 1), (1, 3), (-2, 1))),
             (A3, 3, (2, 3), (None, (1, 3, 9))))
    rng = random.Random(23)
    for datum, draws, windows, xis in cases:
        for _ in range(draws):
            window = rng.randint(*windows)
            fc = random_formal_character(rng, datum, window, regular_only=True)
            k = kq.p_map(fc)
            closed = kq.character_window(k, window)
            assert closed.coeffs == fc.coeffs
            for xi in xis:
                assert kq.polarized_index(k, xi, window).coeffs == closed.coeffs, (xi, fc.coeffs)


def test_type_a_series_rank3_orbit_of_rho():
    a3 = kq.build_root_datum("A", 3)
    k = kq.orbit_cycle(a3, a3.rho).cycle()
    assert kq.polarized_index(k, None, 1).coeffs == {a3.rho: 1}


def test_p_map_additive():
    rng = random.Random(22)
    for _ in range(5):
        f1 = random_formal_character(rng, A1, 6, regular_only=True)
        f2 = random_formal_character(rng, A1, 6, regular_only=True)
        k1, k2, k12 = kq.p_map(f1), kq.p_map(f2), kq.p_map(f1 + f2)
        lhs = kq.polarized_index(kq.disjoint_union(k1, k2), None, 6)
        rhs = kq.polarized_index(k12, None, 6)
        assert lhs.agrees_with(rhs)


def test_p_map_propagates_singular_weights():
    fc = kq.FormalCharacter(A1, 4, {(0,): 1})
    with pytest.raises(kq.SingularOrbitUnsupported):
        kq.p_map(fc)
