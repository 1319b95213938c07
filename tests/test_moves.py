import random

import pytest

import kquant as kq
from helpers import (T1, T2, lazy_disk_family, random_closed_cycle_t1,
                     random_closed_cycle_t2, random_sphere)

WP = kq.WeightPolynomial


def one_component(comp, datum=T1, sign=1):
    return kq.DiscreteKCycle(datum, ((sign, comp),))


def test_disjoint_union_concatenates_and_certifies():
    rng = random.Random(10)
    for _ in range(10):
        a = random_closed_cycle_t1(rng)
        b = random_closed_cycle_t1(rng)
        out, cert = kq.certify_disjoint_union(a, b, 10)
        assert cert.verdict
        assert len(out.components) == len(a.components) + len(b.components)
        assert kq.closed_sum(out) == kq.closed_sum(a) + kq.closed_sum(b)


def test_disjoint_union_rejects_mixed_data():
    a = one_component(kq.f_sphere(1))
    b = kq.DiscreteKCycle(T2, ())
    with pytest.raises(kq.DatumMismatch):
        kq.disjoint_union(a, b)


def test_disk_decomposition_positive_series():
    out, cert = kq.certify_disk_decomposition(1, 20, 20)
    assert cert.verdict
    assert kq.closed_sum(out) == WP(((n,), 1) for n in range(21))


def test_disk_decomposition_negative_series():
    out, cert = kq.certify_disk_decomposition(-1, 20, 22)
    assert cert.verdict
    assert kq.closed_sum(out) == WP(((-n,), -1) for n in range(1, 22))


def test_disk_decompositions_do_not_interfere():
    plus = kq.disk_decomposition(1, 12)
    minus = kq.disk_decomposition(-1, 12).negate()
    both = kq.disjoint_union(plus, minus)
    total = kq.closed_sum(both)
    for n in range(0, 13):
        assert total.coeff((n,)) == 1
    for n in range(1, 14):
        assert total.coeff((-n,)) == 1


def test_disk_decomposition_rejects_bad_sign():
    with pytest.raises(ValueError):
        kq.disk_decomposition(2, 5)


def test_glue_split_partial_sum_sphere():
    # degree-2 sphere splits into 1 + t and t^2 pieces
    pieces, cert = kq.certify_glue_split(kq.o_sphere(2), [[0], [1]], T1, 8)
    assert cert.verdict
    sums = [kq.closed_sum(p) for p in pieces]
    assert WP((((0,), 1), ((1,), 1))) in sums
    assert WP.monomial((2,)) in sums


def test_glue_split_constant_sphere():
    # constant sphere splits into t^n and an index-zero piece
    pieces, cert = kq.certify_glue_split(kq.f_sphere(3), [[0], [1]], T1, 8)
    assert cert.verdict
    sums = [kq.closed_sum(p) for p in pieces]
    assert WP.monomial((3,)) in sums
    assert WP.zero() in sums


def test_glue_split_sum_identity_random():
    rng = random.Random(11)
    for _ in range(25):
        # fiber exponents congruent mod w, else the total is not closed
        w = rng.choice([1, 2, 3])
        a = rng.randint(-4, 4)
        b = a + w * rng.randint(-2, 2)
        comp = kq.ClosedComponent("s", (
            kq.point((a,), (w,)), kq.point((b,), (-w,))))
        total = kq.closed_index(comp, T1)
        pieces, cert = kq.certify_glue_split(comp, [[0], [1]], T1, 9)
        assert cert.verdict
        assert sum((kq.closed_sum(p) for p in pieces), WP.zero()) == total


def test_glue_split_rejects_empty_block():
    with pytest.raises(kq.EmptyBlock):
        kq.glue_split(kq.o_sphere(1), [[0, 1], []], T1)


def test_glue_split_rejects_unsupported_shapes():
    fat = kq.ClosedComponent("fat", (
        kq.point((0, 0), (1, 0), (0, 1)), kq.point((0, 0), (-1, 0), (0, -1))))
    with pytest.raises(kq.UnsupportedSplit):
        kq.glue_split(fat, [[0], [1]], T2)
    skew = kq.ClosedComponent("skew", (
        kq.point((0,), (1,)), kq.point((0,), (-2,))))
    with pytest.raises(kq.UnsupportedSplit):
        kq.glue_split(skew, [[0], [1]], T1)


def test_bundle_modification_preserves_index():
    rng = random.Random(12)
    fiber = kq.o_sphere(0)
    for _ in range(8):
        k = random_closed_cycle_t1(rng)
        out, cert = kq.bundle_modification(k, fiber, window=8)
        assert cert.verdict
        assert kq.closed_sum(out) == kq.closed_sum(k)


def test_bundle_modification_rejects_nonunit_fiber():
    k = one_component(kq.f_sphere(1))
    with pytest.raises(kq.FiberIndexNotUnit):
        kq.bundle_modification(k, kq.o_sphere(1))
    with pytest.raises(kq.FiberIndexNotUnit):
        kq.bundle_modification(k, kq.f_sphere(2))


def test_bundle_modification_rejects_mixed_parity_fiber():
    k = one_component(kq.f_sphere(1))
    fiber = kq.ClosedComponent("mixed", (
        kq.point((0,), (1,), (1,)), kq.point((0,), (-1,))))
    with pytest.raises(kq.OddFiber):
        kq.bundle_modification(k, fiber)


def test_bundle_modification_on_family():
    fam = lazy_disk_family()
    out, cert = kq.bundle_modification(fam, kq.o_sphere(0), window=6)
    assert cert.verdict
    fc = kq.polarized_index(out, (1,), 5)
    assert all(fc.mult((n,)) == 1 for n in range(6))


def test_product_with_unit_point_is_identity():
    rng = random.Random(13)
    unit = one_component(kq.ClosedComponent("pt", (kq.point((0,)),)))
    for _ in range(6):
        a = random_closed_cycle_t1(rng)
        out, cert = kq.certify_product(a, unit, 8)
        assert cert.verdict
        assert kq.closed_sum(out) == kq.closed_sum(a)


def test_product_infinite_by_finite_series():
    # disk family times a degree-1 sphere doubles all positive weights
    prod, cert = kq.certify_product(
        lazy_disk_family(), one_component(kq.o_sphere(1)), 8)
    assert cert.verdict
    fc = kq.polarized_index(prod, (1,), 6)
    assert fc.mult((0,)) == 1
    for n in range(1, 7):
        assert fc.mult((n,)) == 2


def test_product_commutes_for_finite_cycles():
    rng = random.Random(14)
    for _ in range(8):
        a = random_closed_cycle_t1(rng, ncomp=(1, 2))
        b = random_closed_cycle_t1(rng, ncomp=(1, 2))
        ab = kq.product_cycle(a, b)
        ba = kq.product_cycle(b, a)
        assert kq.closed_sum(ab) == kq.closed_sum(ba)


def test_product_rejects_infinite_second_factor():
    a = one_component(kq.f_sphere(0))
    with pytest.raises(kq.SecondFactorInfinite):
        kq.product_cycle(a, lazy_disk_family())


def test_compare_cycles_certificate():
    a = one_component(kq.o_sphere(1))
    b = kq.DiscreteKCycle(T1, (
        (1, kq.ClosedComponent("p0", (kq.point((0,)),))),
        (1, kq.ClosedComponent("p1", (kq.point((1,)),)))))
    cert = kq.compare_cycles(a, b, 8)
    assert cert.verdict
    c = one_component(kq.f_sphere(5))
    assert not kq.compare_cycles(a, c, 8).verdict


def test_certificate_serialization():
    _, cert = kq.certify_disk_decomposition(1, 6, 6)
    d = cert.to_dict()
    assert d["verdict"] is True
    assert d["window"] == 6
    assert d["before"]["terms"] == d["after"]["terms"]


def test_split_sum_is_a_certificate(monkeypatch):
    from kquant import moves

    real = moves.closed_index

    def off_by_one_on_pieces(comp, datum=None):
        out = real(comp, datum)
        return out + WP.monomial((0,)) if "|" in comp.label else out

    monkeypatch.setattr(moves, "closed_index", off_by_one_on_pieces)
    with pytest.raises(kq.CertificateFailed):
        kq.certify_glue_split(kq.o_sphere(2), [[0], [1]], T1, 8)
