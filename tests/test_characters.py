import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kquant as kq
from kquant.characters import exact_divide
from helpers import (A1, A2, A3, T1, T2, pairwise_formal_multiply, random_formal_character,
                     random_torus_component, random_virtual_character, rescan_exact_divide,
                     strip_loop_decompose)

WP = kq.WeightPolynomial
A4 = kq.build_root_datum("A", 4)


def test_weight_polynomial_algebra():
    p = WP.monomial((2,)) + WP.monomial((0,), 3)
    q = WP.monomial((-1,))
    assert (p * q).coeff((1,)) == 1
    assert (p * q).coeff((-1,)) == 3
    assert p - p == WP.zero()
    assert not WP.zero()
    assert (p * 0) == WP.zero()
    assert (-p).coeff((2,)) == -1
    assert p.dimension() == 4


def test_weight_polynomial_drops_zero_terms():
    p = WP((((1,), 1),)) + WP((((1,), -1),))
    assert len(p) == 0
    assert p == WP.zero()


def test_to_list_sorted_and_roundtrip():
    p = WP.monomial((3,), 2) + WP.monomial((-1,), 5)
    rows = p.to_list()
    assert rows == [{"weight": [-1], "mult": 5}, {"weight": [3], "mult": 2}]
    assert WP.from_list(rows) == p


def test_exact_divide_basic():
    one = WP.one(1)
    t = WP.monomial((1,))
    num = one - t * t * t * t
    den = one - t
    assert exact_divide(num, den) == one + t + t * t + t * t * t
    with pytest.raises(ArithmeticError):
        exact_divide(one + t, one - t)
    # (3 + 3t) / (2 + 2t) has its support in the quotient box but needs the
    # coefficient 3/2: the remainder test stops at the first term
    with pytest.raises(ArithmeticError, match=r"stuck at term \(1,\)"):
        exact_divide(WP({(0,): 3, (1,): 3}), WP({(0,): 2, (1,): 2}))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)),
                min_size=1, max_size=4))
def test_exact_divide_inverts_product(aterms, bterms):
    a = WP(((w,), c) for w, c in aterms)
    b = WP(((w,), c) for w, c in bterms)
    if not b:
        return
    assert exact_divide(a * b, b) == a


def test_weyl_character_a1():
    # chi_n has weights n, n-2, ..., -n
    for n in range(0, 7):
        ch = kq.weyl_character(A1, (n,))
        assert ch == WP(((n - 2 * i,), 1) for i in range(n + 1))


def test_weyl_character_a2_fundamental():
    ch = kq.weyl_character(A2, (1, 0))
    assert ch == WP({(1, 0): 1, (-1, 1): 1, (0, -1): 1})
    assert ch.dimension() == 3


def test_weyl_character_a2_adjoint():
    ch = kq.weyl_character(A2, (1, 1))
    assert ch.coeff((0, 0)) == 2
    for root in [(2, -1), (-1, 2), (1, 1)]:
        assert ch.coeff(root) == 1
        assert ch.coeff(tuple(-x for x in root)) == 1
    assert ch.dimension() == 8


def test_weyl_character_torus_is_monomial():
    assert kq.weyl_character(T2, (4, -1)) == WP.monomial((4, -1))


def test_weyl_character_rejects_non_dominant():
    with pytest.raises(kq.NotDominant):
        kq.weyl_character(A2, (1, -1))


def test_decompose_clebsch_gordan():
    prod = kq.weyl_character(A1, (1,)) * kq.weyl_character(A1, (1,))
    ch = kq.decompose(A1, prod)
    assert dict(ch.sorted_items()) == {(0,): 1, (2,): 1}


def test_decompose_a2_tensor():
    # 3 x 3bar = adjoint + trivial
    prod = kq.weyl_character(A2, (1, 0)) * kq.weyl_character(A2, (0, 1))
    ch = kq.decompose(A2, prod)
    assert dict(ch.sorted_items()) == {(0, 0): 1, (1, 1): 1}


def test_decompose_inverts_weyl_character_a3_a4():
    # alpha_2 of A3 is (-1, 2, -1): a strip order by coordinate sum would
    # not see it as raising a weight
    for rank, top in ((3, 2), (4, 1)):
        datum = kq.build_root_datum("A", rank)
        for lam in itertools.product(range(top + 1), repeat=rank):
            assert kq.decompose(datum, kq.weyl_character(datum, lam)).mults == {lam: 1}


def test_char_product_a3():
    # 6 x 6 = 20' + 15 + 1
    a3 = kq.build_root_datum("A", 3)
    six = kq.Character(a3, {(0, 1, 0): 1})
    prod = kq.char_product(six, six)
    assert prod.mults == {(0, 2, 0): 1, (1, 0, 1): 1, (0, 0, 0): 1}
    assert prod.weight_polynomial() == six.weight_polynomial() * six.weight_polynomial()


def test_decompose_rejects_non_invariant():
    with pytest.raises(kq.NotInvariant):
        kq.decompose(A1, WP.monomial((1,)))


def test_decompose_random_reassembles():
    rng = random.Random(5)
    for _ in range(10):
        mults = {}
        for _ in range(rng.randint(1, 3)):
            lam = (rng.randint(0, 4), rng.randint(0, 4))
            mults[lam] = rng.randint(-2, 3) or 1
        total = WP.zero()
        for lam, m in mults.items():
            total = total + kq.weyl_character(A2, lam) * m
        if not total:
            continue
        back = kq.decompose(A2, total)
        assert dict(back.sorted_items()) == {k: v for k, v in mults.items() if v}


def test_character_container():
    ch = kq.Character(A1, {(2,): 1, (0,): 3})
    assert ch.mult((0,)) == 3
    assert ch.mult((6,)) == 0
    assert ch.weight_polynomial().dimension() == 6
    with pytest.raises(kq.NotDominant):
        kq.Character(A1, {(-1,): 1})


def test_repeated_keys_add_in_every_parser():
    rows = [{"weight": [1], "mult": 2}, {"weight": [1], "mult": 3}]
    pairs = [((1,), 2), ((1,), 3)]
    doc = {"window": 2, "terms": rows}
    assert kq.WeightPolynomial.from_list(rows).terms == {(1,): 5}
    assert kq.Character.from_list(T1, rows).mults == {(1,): 5}
    assert kq.Character(T1, pairs).mults == {(1,): 5}
    assert kq.FormalCharacter.from_dict(T1, doc).coeffs == {(1,): 5}
    assert kq.FormalCharacter(T1, 2, pairs).coeffs == {(1,): 5}
    # rows that cancel leave no key, and every row is checked
    cancel = [((0, 1), 2), ((1, 0), 1), ((0, 1), -2)]
    assert kq.WeightPolynomial(cancel).terms == {(1, 0): 1}
    assert kq.Character(A2, cancel).mults == {(1, 0): 1}
    assert kq.FormalCharacter(A2, 1, cancel).coeffs == {(1, 0): 1}
    for bad, exc in (([((1, 0), 1), ((-1, 1), 0)], kq.NotDominant),
                     ([((1, 0), 1), ((1, 0), 1.5)], TypeError)):
        with pytest.raises(exc):
            kq.Character(A2, bad)
        with pytest.raises(exc):
            kq.FormalCharacter(A2, 1, bad)
    with pytest.raises(kq.WindowExhausted):
        kq.FormalCharacter(A2, 1, [((1, 0), 1), ((2, 0), -1), ((2, 0), 1)])


def test_formal_character_window():
    fc = kq.FormalCharacter(T1, 3, {(2,): 5})
    assert fc.mult((2,)) == 5
    assert fc.mult((3,)) == 0
    with pytest.raises(kq.WindowExhausted):
        fc.mult((4,))
    assert fc.restrict(1).coeffs == {}


def test_formal_character_rejects_a_non_integer_window():
    for window in (2.5, 3.0, True):
        with pytest.raises(TypeError):
            kq.FormalCharacter(T1, window, {(1,): 1})
    assert kq.FormalCharacter(T1, 3, {(1,): 1}).to_dict()["window"] == 3


def test_formal_character_agreement_uses_shared_window():
    a = kq.FormalCharacter(T1, 5, {(1,): 1, (5,): 9})
    b = kq.FormalCharacter(T1, 3, {(1,): 1})
    assert a.agrees_with(b)
    c = kq.FormalCharacter(T1, 3, {(1,): 2})
    assert not a.agrees_with(c)


def test_formal_character_roundtrip():
    fc = kq.FormalCharacter(A1, 4, {(0,): 2, (3,): -1})
    d = fc.to_dict()
    assert d["window"] == 4
    assert kq.FormalCharacter.from_dict(A1, d).coeffs == fc.coeffs


def test_formal_multiply_torus_matches_truncated_series():
    # (sum_{n>=0} t^n) * (1 + t) should double every positive coefficient
    fc = kq.FormalCharacter(T1, 6, {(n,): 1 for n in range(7)})
    fin = kq.decompose(T1, WP.one(1) + WP.monomial((1,)))
    out = kq.formal_multiply(fc, fin)
    assert out.window >= 5
    assert out.mult((0,)) == 1
    for n in range(1, out.window + 1):
        assert out.mult((n,)) == 2


def test_formal_multiply_type_a():
    fc = kq.FormalCharacter(A1, 6, {(1,): 1})
    fin = kq.decompose(A1, kq.weyl_character(A1, (1,)))
    out = kq.formal_multiply(fc, fin)
    assert out.mult((0,)) == 1
    assert out.mult((2,)) == 1
    assert out.mult((1,)) == 0


def test_formal_multiply_shrinks_window():
    fc = kq.FormalCharacter(T1, 2, {(0,): 1})
    fin = kq.decompose(T1, WP.monomial((2,)))
    out = kq.formal_multiply(fc, fin)
    assert out.window == 0
    assert out.mult((0,)) == 0


def _product_or_error(multiply, f, c):
    try:
        return multiply(f, c)
    except (ValueError, kq.WindowExhausted) as exc:
        return type(exc), str(exc)


def test_formal_multiply_matches_the_pairwise_products():
    rng = random.Random(71)
    cases = []
    for datum in (T1, T2, A1, A2):
        lo = -2 if datum.is_torus else 0
        for _ in range(25):
            f = random_formal_character(rng, datum, rng.randint(0, 6))
            c = kq.Character(datum, {tuple(rng.randint(lo, 2) for _ in range(datum.rank)):
                                     rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 3))})
            cases.append((f, c))
    # (0, 0) cancels: 1 * t^0 from t^(2,0) * t^(-2,0), -1 from t^0 * -t^0
    cancel = (kq.FormalCharacter(T2, 3, {(2, 0): 1, (0, 0): 1}),
              kq.Character(T2, {(-2, 0): 1, (0, 0): -1}))
    assert kq.formal_multiply(*cancel).coeffs == {}
    cases += [cancel,
              (kq.FormalCharacter(T1, 4, {(1,): 1}), kq.Character(T2, {(9, 9): 1})),
              (kq.FormalCharacter(A1, 1, {(1,): 1}), kq.Character(A1, {(3,): 1}))]
    kinds = set()
    for f, c in cases:
        got = _product_or_error(kq.formal_multiply, f, c)
        assert got == _product_or_error(pairwise_formal_multiply, f, c), (f, c)
        kinds.add(got[0] if isinstance(got, tuple) else bool(got.coeffs))
    assert kinds == {True, False, ValueError, kq.WindowExhausted}


def test_formal_multiply_builds_each_constituent_once(monkeypatch):
    from kquant import characters as ch

    real = ch.weyl_character
    cases = [(kq.FormalCharacter(A2, 6, {(1, 1): 1, (2, 0): 3}),
              kq.Character(A2, {(1, 0): 1, (0, 1): 2})),
             # (1, 0) is a constituent of both factors
             (kq.FormalCharacter(A2, 5, {(1, 0): -1, (0, 2): 2}),
              kq.Character(A2, {(1, 0): 1, (1, 1): -1})),
             (kq.FormalCharacter(T2, 4, {(1, -1): 2, (0, 0): 1}),
              kq.Character(T2, {(0, 0): 1, (-2, 1): 3}))]
    for f, c in cases:
        calls = []
        monkeypatch.setattr(ch, "weyl_character", lambda d, w: calls.append(w) or real(d, w))
        got = kq.formal_multiply(f, c)
        monkeypatch.setattr(ch, "weyl_character", real)
        assert sorted(calls) == sorted({*f.coeffs, *c.mults}), (f, c)
        assert got.window == f.window - c.weight_system_bound()
        assert got == pairwise_formal_multiply(f, c), (f, c)
    # the margin alone decides an empty window: f's characters are not built
    calls = []
    monkeypatch.setattr(ch, "weyl_character", lambda d, w: calls.append(w) or real(d, w))
    with pytest.raises(kq.WindowExhausted):
        kq.formal_multiply(kq.FormalCharacter(A1, 1, {(1,): 1}), kq.Character(A1, {(3,): 1}))
    assert calls == [(3,)]


def _box_walk(a, b):
    """Sum and agreement of two formal characters over the whole shared box."""
    window = min(a.window, b.window)
    box = list(kq.dominant_window(a.datum, window))
    total = {w: a.coeffs.get(w, 0) + b.coeffs.get(w, 0) for w in box}
    agree = all(a.coeffs.get(w, 0) == b.coeffs.get(w, 0) for w in box)
    return window, {w: m for w, m in total.items() if m}, agree


def test_formal_character_sum_and_agreement_match_a_box_walk():
    rng = random.Random(45)
    verdicts = set()
    for datum in (T1, T2, A2):
        for _ in range(40):
            a = random_formal_character(rng, datum, rng.randint(0, 4))
            choice = rng.randrange(3)
            if choice == 0:
                b = random_formal_character(rng, datum, rng.randint(0, 4))
            elif choice == 1:
                # equal on the shared window, different outside it
                outside = random_formal_character(rng, datum, a.window + 2)
                coeffs = {w: m for w, m in outside.coeffs.items()
                          if max(map(abs, w)) > a.window}
                coeffs.update(a.coeffs)
                b = kq.FormalCharacter(datum, a.window + 2, coeffs)
            else:
                b = -a
            window, total, agree = _box_walk(a, b)
            s = a + b
            assert s.window == window
            assert s.coeffs == total and list(s.coeffs) == list(total)
            assert a.agrees_with(b) == b.agrees_with(a) == agree
            assert (a - b).coeffs == _box_walk(a, -b)[1]
            verdicts.add(agree)
    assert verdicts == {True, False}


def _check_built(r):
    """An engine-built result is what the checked constructor makes of its data."""
    assert kq.FormalCharacter(r.datum, r.window, dict(r.coeffs)) == r
    assert 0 not in r.coeffs.values()


def test_engine_built_results_pass_the_public_checks():
    rng = random.Random(61)
    results = []
    for _ in range(30):
        comp = random_torus_component(rng)
        rank = len(next(iter(comp.fixed_points[0].fiber_character.terms)))
        datum = (T1, T2)[rank - 1]
        k = kq.DiscreteKCycle(datum, ((rng.choice((1, -1)), comp),))
        results.append(kq.polarized_index(k, None, rng.randint(1, 4)))
    for datum in (A1, A2):
        for _ in range(6):
            fc = random_formal_character(rng, datum, rng.randint(1, 3), regular_only=True)
            results.append(kq.polarized_index(kq.p_map(fc), None, rng.randint(1, 3)))
    for datum in (T2, A2):
        for _ in range(6):
            ch = kq.decompose(datum, random_virtual_character(rng, datum, 2))
            results.append(kq.FormalCharacter.from_character(ch, rng.randint(0, 4)))
    assert sum(len(r.coeffs) for r in results) > 50  # not mostly empty
    derived = []
    for a, b in zip(results, results[1:]):
        derived += [a.restrict(rng.randint(0, a.window)), -a]
        if a.datum == b.datum:
            derived += [a + b, a - b, a + (-a)]
    for r in results + derived:
        _check_built(r)
    # torus products that cancel: t^1 from t^0 * t^1 and t^1 * -t^0
    f = kq.FormalCharacter(T1, 5, {(0,): 1, (1,): 1})
    out = kq.formal_multiply(f, kq.Character(T1, {(1,): 1, (0,): -1}))
    assert out.coeffs == {(0,): -1, (2,): 1}
    _check_built(out)


def test_decompose_matches_the_strip_loop():
    rng = random.Random(11)
    negative = 0
    for datum, top, draws in ((A1, 6, 40), (A2, 4, 40), (A3, 2, 30), (A4, 1, 20)):
        for _ in range(draws):
            p = random_virtual_character(rng, datum, top)
            mults = kq.decompose(datum, p).mults
            assert mults == strip_loop_decompose(datum, p)
            negative += any(m < 0 for m in mults.values())
            w = tuple(rng.randint(-top, top) for _ in range(datum.rank))
            if any(w):  # only 0 is fixed by every reflection
                with pytest.raises(kq.NotInvariant):
                    kq.decompose(datum, p + WP.monomial(w))
    assert negative > 10


def test_decompose_a4_rho_tensor_square():
    rho = (1, 1, 1, 1)
    chi = kq.weyl_character(A4, rho)
    square = kq.decompose(A4, chi * chi)
    # figures of the strip loop, too slow to rerun in a test (about 20 s):
    # 59 constituents, total multiplicity 242, weighted highest-weight sum
    assert (len(square.mults), sum(square.mults.values())) == (59, 242)
    assert [sum(m * lam[i] for lam, m in square.mults.items()) for i in range(4)] \
        == [330, 279, 279, 330]
    assert [square.mult(w) for w in (rho, (2, 2, 2, 2), (0, 0, 0, 0))] == [16, 1, 1]
    assert sum(m * kq.weyl_dimension(A4, lam) for lam, m in square.mults.items()) == 1024 ** 2


_poly_terms = st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                 st.integers(-3, 3)), max_size=5)


@settings(max_examples=150, deadline=None)
@given(_poly_terms, _poly_terms, _poly_terms, st.booleans())
def test_exact_divide_matches_the_rescanning_reference(aterms, bterms, noise, binomials):
    b = WP(bterms)
    if binomials:  # a product of binomials 1 - t^u, as the engine divides by
        b = WP.one(2)
        for u, _ in bterms:
            if any(u):
                b = b * (WP.one(2) - WP.monomial(u))
    num = WP(aterms) * b + WP(noise)
    if not b:
        return
    try:
        expected = rescan_exact_divide(num, b)
    except ArithmeticError as exc:
        with pytest.raises(ArithmeticError) as got:
            exact_divide(num, b)
        assert str(got.value) == str(exc)
    else:
        assert exact_divide(num, b) == expected
        assert expected * b == num


def test_weyl_character_returns_a_fresh_polynomial():
    kq.weyl_character(A2, (1, 0)).terms.clear()
    assert kq.weyl_character(A2, (1, 0)) == WP({(1, 0): 1, (-1, 1): 1, (0, -1): 1})
