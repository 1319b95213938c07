import random

import pytest
from fractions import Fraction

import kquant as kq
from helpers import A1, A2, T1, T2


def test_torus_datum():
    assert T2.rank == 2
    assert T2.is_torus
    assert T2.simple_roots == ()
    assert T2.positive_roots == ()
    assert T2.rho == (0, 0)


def test_type_a_datum():
    assert not A2.is_torus
    # rows of the Cartan matrix in fundamental weight coordinates
    assert A2.simple_roots == ((2, -1), (-1, 2))
    assert set(A2.positive_roots) == {(2, -1), (-1, 2), (1, 1)}
    assert A2.rho == (1, 1)


def test_build_rejects_bad_input():
    with pytest.raises(kq.UnsupportedKind):
        kq.build_root_datum("B", 2)
    with pytest.raises(ValueError):
        kq.build_root_datum("A", 0)
    # bools and non-integers are rejected, never read as a rank
    for rank in (True, False, 2.5, 1.0, Fraction(2), "2"):
        for kind in ("torus", "A"):
            with pytest.raises(TypeError):
                kq.build_root_datum(kind, rank)
        with pytest.raises(TypeError):
            kq.RootDatum.from_dict({"kind": "torus", "rank": rank})


def test_kind_case_insensitive():
    assert kq.build_root_datum("Torus", 3) == kq.build_root_datum("torus", 3)
    assert kq.build_root_datum("a", 1) == A1


def test_datum_roundtrip():
    for datum in (T1, T2, A1, A2):
        assert kq.RootDatum.from_dict(datum.to_dict()) == datum


def test_dominance():
    assert kq.is_dominant(A2, (0, 3))
    assert not kq.is_dominant(A2, (-1, 3))
    assert kq.is_regular_dominant(A2, (1, 1))
    assert not kq.is_regular_dominant(A2, (0, 1))
    # every torus weight is dominant
    assert kq.is_dominant(T2, (-5, 2))


def test_weyl_orbit_sizes():
    assert kq.weyl_order(A1) == 2
    assert kq.weyl_order(A2) == 6
    assert kq.weyl_order(T2) == 1
    assert kq.weyl_orbit(A2, (1, 1)) == {
        (1, 1), (-1, 2), (2, -1), (1, -2), (-2, 1), (-1, -1)}
    # singular weight has a smaller orbit
    assert len(kq.weyl_orbit(A2, (1, 0))) == 3
    # the free orbit of rho has (n+1)! points
    assert [kq.weyl_order(kq.build_root_datum("A", n)) for n in (3, 4)] == [24, 120]


def test_weyl_dimension():
    assert kq.weyl_dimension(A1, (3,)) == 4
    assert kq.weyl_dimension(A2, (1, 0)) == 3
    assert kq.weyl_dimension(A2, (1, 1)) == 8
    assert kq.weyl_dimension(A2, (2, 2)) == 27
    with pytest.raises(kq.NotDominant):
        kq.weyl_dimension(A2, (-1, 0))


def test_every_dominance_check_is_the_datum_s_one_checker():
    # a highest weight, a character key and an orbit's gamma are checked by
    # RootDatum.check_dominant: one length check, then one NotDominant message
    routes = (lambda w: kq.weyl_character(A2, w), lambda w: kq.weyl_dimension(A2, w),
              lambda w: kq.Character(A2, {w: 1}), lambda w: kq.FormalCharacter(A2, 3, {w: 1}),
              lambda w: kq.orbit_cycle(A2, w))
    for route in routes:
        with pytest.raises(kq.NotDominant,
                           match=r"^\(-1, 1\) is not dominant for RootDatum\('A', rank=2\)$"):
            route((-1, 1))
        with pytest.raises(ValueError, match=r"^weight \(1,\) has length 1, datum rank is 2$"):
            route((1,))
    assert A2.check_dominant([0, 2]) == (0, 2)
    assert T2.check_dominant((-3, 1)) == (-3, 1)


def test_inner_product_symmetry_and_positivity():
    vals = [(1, 0), (0, 1), (2, -1), (-1, 2), (1, 1)]
    for v in vals:
        for w in vals:
            assert kq.inner_product(A2, v, w) == kq.inner_product(A2, w, v)
    for v in vals:
        assert kq.inner_product(A2, v, v) > 0


def test_inner_product_cartan_pairing():
    # <alpha_i, omega_j> proportional to delta_ij with equal root lengths
    a1, a2 = A2.simple_roots
    assert kq.inner_product(A2, a1, (0, 1)) == 0
    assert kq.inner_product(A2, a2, (1, 0)) == 0
    assert kq.inner_product(A2, a1, (1, 0)) == kq.inner_product(A2, a2, (0, 1))


def test_dominant_window_contents():
    box = list(kq.dominant_window(T1, 2))
    assert box == [(-2,), (-1,), (0,), (1,), (2,)]
    a_win = list(kq.dominant_window(A2, 1))
    assert a_win == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(set(a_win)) == len(a_win)
    assert list(kq.dominant_window(T2, -1)) == list(kq.dominant_window(A2, -1)) == []


def test_orbit_closed_under_reflections():
    orbit = kq.weyl_orbit(A2, (2, 1))
    for w in orbit:
        for i in range(A2.rank):
            assert kq.root_data.simple_reflection(A2, i, w) in orbit


def test_singular_anchor_is_a_certificate_failure():
    # (0, 1) is fixed by the first simple reflection, so its signs clash
    with pytest.raises(kq.CertificateFailed):
        kq.root_data.signed_orbit_with_images(A2, (0, 1))
    assert len(kq.root_data.signed_orbit_with_images(A2, (1, 1))) == 6


def test_torus_answers_come_from_the_general_code(monkeypatch):
    # a torus has no simple roots, so no Weyl-group loop ever reflects: each
    # answer below is the general code's on an empty root system
    from kquant import characters, root_data

    def never(*args):
        raise RuntimeError("a torus has no simple reflection")
    for module in (root_data, characters):
        monkeypatch.setattr(module, "simple_reflection", never)
    rng = random.Random(19)

    def weight(rank, size):
        return tuple(rng.randint(-size, size) for _ in range(rank))
    for rank in (1, 2, 3):
        datum = kq.build_root_datum("torus", rank)
        assert kq.weyl_order(datum) == 1
        for _ in range(12):
            w = weight(rank, 4)
            extras = tuple(weight(rank, 3) for _ in range(rng.randint(0, 2)))
            assert kq.is_dominant(datum, w) and kq.is_regular_dominant(datum, w)
            assert kq.weyl_orbit(datum, w) == {w}
            assert root_data.signed_orbit_with_images(datum, w, extras) == [(w, 1, extras)]
            assert kq.weyl_dimension(datum, w) == 1
            assert kq.weyl_character(datum, w) == kq.WeightPolynomial.monomial(w)
            p = kq.WeightPolynomial([(weight(rank, 3), rng.choice((-2, -1, 1, 3)))
                                     for _ in range(rng.randint(1, 4))])
            assert kq.decompose(datum, p).mults == p.terms
            (pt,) = kq.orbit_cycle(datum, w).component.fixed_points
            assert pt.tangent_weights == ()
            assert pt.fiber_character == kq.WeightPolynomial.monomial(w)


def test_weyl_dimension_integrality_is_a_certificate(monkeypatch):
    from kquant import root_data

    # every positive root then contributes the factor 3/2
    monkeypatch.setattr(root_data, "inner_product",
                        lambda datum, v, w: Fraction(2 if v == datum.rho else 3))
    with pytest.raises(kq.CertificateFailed):
        kq.weyl_dimension(A2, (1, 0))


def test_non_integers_are_rejected_not_truncated():
    import numpy as np
    from kquant.root_data import as_weight
    assert as_weight([np.int64(2), -3]) == (2, -3)
    assert T2.check_weight((1, 0)) == (1, 0)
    for bad in ([1.5, 0], [True, 0], [Fraction(1), 0], ["1", 0]):
        with pytest.raises(TypeError):
            T2.check_weight(bad)
    terms = [{"weight": [0], "mult": 1}]
    with pytest.raises(TypeError):
        kq.LinearModel.from_dict({"rank": 1.0, "weights": [[1]], "shift": [0]})
    with pytest.raises(TypeError):
        kq.WeightPolynomial([((1,), 2.5)])
    with pytest.raises(TypeError):
        kq.WeightPolynomial([((1,), True)])
    with pytest.raises(TypeError):
        kq.FixedPointDatum.from_dict({"tangent": [[1]], "fiber": terms, "order": 2.0})
    with pytest.raises(TypeError):
        kq.FormalCharacter.from_dict(T1, {"window": 2.5, "terms": terms})
    with pytest.raises(TypeError):
        kq.FormalCharacter.from_dict(T1, {"window": 2, "terms": [{"weight": [0], "mult": 0.5}]})
    # the constructors check multiplicities themselves, not only from_dict
    for mult in (1.5, Fraction(7, 2), True):
        with pytest.raises(TypeError):
            kq.FormalCharacter(T1, 3, {(1,): mult})
        with pytest.raises(TypeError):
            kq.Character(T1, {(1,): mult})
    for sign in (1.0, True, Fraction(1)):
        with pytest.raises(TypeError):
            kq.DiscreteKCycle(T1, ((sign, kq.f_sphere(1)),))
        family = kq.DiscreteKCycle(T1, (), lambda i: (sign, kq.f_sphere(i)), enumeration_bound=3)
        with pytest.raises(TypeError):
            family.materialized()
        with pytest.raises(TypeError):
            list(family.iter_certified((1,), 5))
