import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kquant as kq
from helpers import (T1, box_counts, fraction_nullspace, fraction_solve, glued_components,
                     lattice_tests, leaf_kit, maximal_wall_normals, per_support_vertices,
                     random_proper_model, recursive_count)

WP = kq.WeightPolynomial


def test_model_validation():
    with pytest.raises(ValueError):
        kq.linear_model([(0, 0)], (0, 0))
    with pytest.raises(ValueError):
        kq.LinearModel(kq.build_root_datum("A", 1), ((1,),), (0,))


def test_model_json_roundtrip():
    m = kq.linear_model([(1, 0), (0, 1)], (-1, -1))
    d = m.to_dict()
    assert d == {"rank": 2, "weights": [[1, 0], [0, 1]], "shift": [-1, -1]}
    assert kq.LinearModel.from_dict(d) == m


def test_check_proper_examples():
    assert kq.check_proper(kq.linear_model([(1,), (1,)], (0,)))
    assert not kq.check_proper(kq.linear_model([(1,), (-1,)], (0,)))
    assert kq.check_proper(kq.linear_model([(1, 0), (0, 1)], (0, 0)))


def test_farkas_vector_separates():
    rng = random.Random(30)
    for _ in range(40):
        m = random_proper_model(rng)
        xi = kq.farkas_vector(m)
        assert all(isinstance(x, int) for x in xi)
        for w in m.weights:
            assert sum(a * b for a, b in zip(w, xi)) >= 1


def test_farkas_failure_carries_witness():
    m = kq.linear_model([(1, 2), (-1, 0), (0, -1)], (0, 0))
    assert not kq.check_proper(m)
    with pytest.raises(kq.NotProper) as info:
        kq.farkas_vector(m)
    assert "0 =" in str(info.value)


def test_model_cycle_shape():
    m = kq.linear_model([(1, 0), (1, 1)], (2, -1))
    k = kq.model_cycle(m)
    (sign, comp), = k.components
    assert sign == 1
    p, = comp.fixed_points
    assert p.tangent_weights == ((-1, 0), (-1, -1))
    assert p.fiber_character == WP.monomial((2, -1))


def test_model_cycle_is_the_checked_construction():
    rng = random.Random(71)
    for _ in range(60):
        m = random_proper_model(rng, max_d=5, max_r=4)
        pt = kq.FixedPointDatum(tuple(tuple(-x for x in w) for w in m.weights),
                                WP.monomial(m.shift))
        checked = kq.DiscreteKCycle(m.datum, ((1, kq.ClosedComponent("C^d", (pt,))),))
        assert kq.model_cycle(m) == checked, m.to_dict()


# the checked point constructors, which the trusted model point bypasses
_POINT_REJECTS = """
import sys
import kquant as kq
WP = kq.WeightPolynomial
fiber = [{"weight": [0, 1], "mult": 1}]
cases = [
    (kq.NonIsolatedFixedPoint, lambda: kq.FixedPointDatum(((1, 0), (0, 0)), WP.monomial((0, 1)))),
    (kq.NonIsolatedFixedPoint,
     lambda: kq.FixedPointDatum.from_dict({"tangent": [[1, 0], [0, 0]], "fiber": fiber})),
    (TypeError, lambda: kq.FixedPointDatum(((1, True),), WP.monomial((0, 1)))),
    (TypeError, lambda: kq.FixedPointDatum.from_dict({"tangent": [[False, 1]], "fiber": fiber})),
    (TypeError, lambda: kq.FixedPointDatum.from_dict(
        {"tangent": [[1, 0]], "fiber": [{"weight": [True, 0], "mult": 1}]})),
    (TypeError, lambda: kq.FixedPointDatum.from_dict(
        {"tangent": [[1, 0]], "fiber": [{"weight": [0, 1], "mult": True}]})),
]
for n, (exc, make) in enumerate(cases):
    try:
        make()
    except exc:
        continue
    sys.exit(f"case {n} was accepted")
print(f"{len(cases)} rejected")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_checked_points_reject_zero_and_bool_entries(flags):
    script = ("assert False, 'asserts are live'\n" if flags else "") + _POINT_REJECTS
    src = str(Path(kq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "6 rejected"


def test_quantization_single_weight():
    m = kq.linear_model([(1,)], (0,))
    fq = kq.formal_quantization(m, 4)
    assert {w: c for w, c in fq.sorted_items()} == {(n,): 1 for n in range(5)}


def test_quantization_double_weight():
    m = kq.linear_model([(1,), (1,)], (0,))
    fq = kq.formal_quantization(m, 4)
    assert {w: c for w, c in fq.sorted_items()} == {
        (n,): n + 1 for n in range(5)}


def test_quantization_of_a_point():
    m = kq.LinearModel(T1, (), (0,))
    fq = kq.formal_quantization(m, 3)
    assert {w: c for w, c in fq.sorted_items()} == {(0,): 1}


def test_quantization_shift_acts_as_translation():
    base = kq.linear_model([(1,), (2,)], (0,))
    shifted = kq.linear_model([(1,), (2,)], (-2,))
    f0 = kq.formal_quantization(base, 6)
    f1 = kq.formal_quantization(shifted, 8)
    # compare where both windows report the coefficient
    for n in range(-8, 5):
        assert f1.mult((n,)) == f0.mult((n + 2,))


def test_quantization_requires_proper():
    m = kq.linear_model([(1,), (-1,)], (0,))
    with pytest.raises(kq.NotProper):
        kq.formal_quantization(m, 5)


def test_quantization_rejects_negative_window():
    with pytest.raises(kq.WindowExhausted):
        kq.formal_quantization(kq.linear_model([(1,)], (0,)), -1)


def test_window_zero_is_window_one_restricted():
    rng = random.Random(19)
    for _ in range(60):
        m = random_proper_model(rng)
        f = kq.formal_quantization(m, 0)
        assert f.window == 0
        assert f.coeffs == kq.formal_quantization(m, 1).restrict(0).coeffs
        assert kq.verify_qr(m, 0).verdict is True
    # a negative window is still reported before an improper model
    with pytest.raises(kq.WindowExhausted):
        kq.formal_quantization(kq.linear_model([(1,), (-1,)], (0,)), -1)


def test_reduction_examples():
    m = kq.linear_model([(1,), (1,)], (0,))
    count, regular = kq.reduction_multiplicity(m, (3,))
    assert count == 4 and regular
    m2 = kq.linear_model([(1, 0), (0, 1)], (0, 0))
    assert kq.reduction_multiplicity(m2, (2, 5)).count == 1
    m3 = kq.linear_model([(1,)], (0,))
    assert kq.reduction_multiplicity(m3, (-1,)).count == 0


def test_reduction_regular_flag():
    m = kq.linear_model([(1, 0), (0, 1)], (0, 0))
    # points on a coordinate axis sit on a wall spanned by one weight
    assert not kq.reduction_multiplicity(m, (0, 0)).regular
    assert not kq.reduction_multiplicity(m, (3, 0)).regular
    assert kq.reduction_multiplicity(m, (2, 5)).regular
    m1 = kq.linear_model([(1,), (1,)], (0,))
    assert not kq.reduction_multiplicity(m1, (0,)).regular
    assert kq.reduction_multiplicity(m1, (3,)).regular


def test_reduction_counts_partitions():
    # weights {1,2}: number of ways to write n with parts 1 and 2
    m = kq.linear_model([(1,), (2,)], (0,))
    expected = {0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4}
    for n, c in expected.items():
        assert kq.reduction_multiplicity(m, (n,)).count == c


def _exact_rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _naive_reduction(m, window):
    """{gamma: (count, regular)} on the window box, by brute force."""
    xi = kq.farkas_vector(m)
    pairs = [sum(a * b for a, b in zip(w, xi)) for w in m.weights]
    assert min(pairs) >= 1  # so the box below holds every solution
    box = list(kq.dominant_window(m.datum, window))
    top = max(sum((g - c) * x for g, c, x in zip(gamma, m.shift, xi))
              for gamma in box)
    counts = {}
    if top >= 0:
        grid = np.indices([top // p + 1 for p in pairs]).reshape(len(pairs), -1).T
        pts = grid @ np.array(m.weights) + np.array(m.shift)
        for pt in map(tuple, pts[np.abs(pts).max(axis=1) <= window].tolist()):
            counts[pt] = counts.get(pt, 0) + 1
    out = {}
    for gamma in box:
        target = [g - c for g, c in zip(gamma, m.shift)]
        out[gamma] = (counts.get(gamma, 0), not _on_wall(m, target))
    return out


@functools.lru_cache(maxsize=None)
def _span_tests(weights, rank):
    """One Fraction nullspace basis per subset of < rank weights."""
    return tuple(fraction_nullspace(sub, rank)
                 for size in range(rank) for sub in itertools.combinations(weights, size))


def _on_wall(m, target):
    """Exact span membership: target lies in the span of < rank weights,
    i.e. pairs to zero with the nullspace of one such subset."""
    return any(all(sum(map(mul, n, target)) == 0 for n in basis)
               for basis in _span_tests(m.weights, m.rank))


def _qr_counts(m, window):
    """{gamma: (q_red, regular)} of verify_qr on a copy of m with its own counter."""
    rows = kq.verify_qr(kq.LinearModel.from_dict(m.to_dict()), window).to_dict()["rows"]
    return {tuple(r["gamma"]): (r["q_red"], r["regular"]) for r in rows}


# Repeated, parallel or dependent weights at the small-pairing end of the
# Farkas order, ranks 2-4, one with a span of rank 3 in rank 4: the count
# loops only the d - rank(span) weights outside a greedy basis of the span.
_DEPENDENT_TAIL = [
    ([(3, 1), (2, -1), (1, 0), (2, 0)], (0, 0)),
    ([(1, 2), (1, 0), (1, 0), (1, -1)], (-1, 1)),
    ([(2, 1, 0), (0, 1, 1), (1, 0, 1), (1, 0, 1)], (-1, 0, 1)),
    ([(0, 1, 0), (0, 0, 1), (1, 0, 0), (1, 0, 0), (1, 1, 1)], (0, -1, 1)),
    ([(1, 1, 1), (1, 0, 1), (2, 0, 2), (0, 1, 0)], (0, 1, -1)),
    ([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 0)], (0, 1, -1, 0)),
    ([(1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1)], (1, 0, 0, -1)),
    ([(2, 1, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)], (0, -1, 0, 1)),
]


def _loops_outside_the_span_basis(m):
    """The counter loops one level per weight outside a basis of their span."""
    return len(m._counter.steps) == len(m.weights) - _exact_rank(m.weights)


def test_reduction_matches_naive_enumeration():
    rng = random.Random(41)
    corpus = [(random_proper_model(rng, max_d=4, max_r=3, entry=2), 3)
              for _ in range(30)]
    # at least two leading weights, so the closed-form last search level
    # runs below a looped one
    for rank, sizes in ((1, (4, 5, 6)), (2, (4, 5))):
        for d in sizes:
            for _ in range(3):
                while True:
                    m = random_proper_model(rng, max_d=d, max_r=rank, entry=2)
                    if len(m.weights) == d and m.rank == rank:
                        break
                assert len(m._counter.steps) >= 2, m.to_dict()
                corpus.append((m, 4))
    corpus += [(kq.linear_model(w, c), 2) for w, c in _DEPENDENT_TAIL]
    for m, window in corpus:
        assert _loops_outside_the_span_basis(m), m.to_dict()
        expected = _naive_reduction(m, window)
        got = {g: tuple(kq.reduction_multiplicity(m, g)) for g in expected}
        assert got == expected, m.to_dict()
        assert _qr_counts(m, window) == expected, m.to_dict()


# Drawn by hand, not by chance: collinear, planar and repeated weights,
# fewer distinct weights than rank - 1 (walls with several normals),
# weights generating a group of index > 1 in their span (cyclic or not,
# simplicial or not) or of index 1, rank 1, and no weights at all.
_DEGENERATE = [
    ([(1,)], (0,)),
    ([(2,), (3,), (2,)], (-1,)),
    ([(-3,)], (1,)),
    ([(1, 1), (2, 2)], (0, 1)),
    ([(2, 4), (4, 8)], (1, 0)),
    ([(1, 0), (1, 0), (0, 1)], (-1, 0)),
    ([(2, 0), (0, 2)], (1, 0)),
    ([(2, 0), (0, 2), (2, 2)], (0, 0)),
    ([(1, 1), (1, -2)], (0, 1)),
    ([(1, 0), (1, 1), (0, 1)], (0, -1)),
    ([(1, 1, 1)], (0, 0, 0)),
    ([(2, 0, 2), (2, 0, 2)], (0, 1, 0)),
    ([(1, 0, 0), (1, 0, 0)], (0, 1, -1)),
    ([(1, 2, 0), (2, 4, 0)], (0, 0, 0)),
    ([(1, 0, 1), (0, 2, 0), (1, 2, 1)], (0, 0, 1)),
    ([(1, 0, 0), (2, 0, 0), (0, 1, 0)], (-1, 0, 0)),
    ([(1, 1, 0), (2, 2, 0), (0, 0, 1), (0, 0, 3)], (0, -1, 0)),
    ([(1, 1, 0), (1, 1, 0), (0, 0, 2)], (1, 1, 0)),
    ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], (0, 0, 0)),
    ([(1, 0, 0), (0, 2, 0), (0, 0, 3)], (0, -1, 1)),
]


def test_regular_flag_on_degenerate_models():
    for weights, shift in _DEGENERATE:
        m = kq.linear_model(weights, shift)
        assert _loops_outside_the_span_basis(m), m.to_dict()
        expected = _naive_reduction(m, 3)
        got = {g: tuple(kq.reduction_multiplicity(m, g)) for g in expected}
        assert got == expected, m.to_dict()
        assert _qr_counts(m, 3) == expected, m.to_dict()
    for shift in ((1, -1, 0), (0, 1), (2,)):
        empty = kq.linear_model([], shift)
        expected = {g: (int(g == shift), not _on_wall(empty, [a - b for a, b in zip(g, shift)]))
                    for g in kq.dominant_window(empty.datum, 2)}
        assert {g: tuple(kq.reduction_multiplicity(empty, g)) for g in expected} == expected
        assert _qr_counts(empty, 2) == expected


def test_regular_columns_match_every_maximal_wall():
    # the counter packs the hyperplanes spanned by rank - 1 weights, or the
    # rows of a nullspace basis of the weights' span when there are none
    # ("thick only"); the reference tests every wall of rank - 1 distinct weights,
    # the thick walls of dependent subsets too
    rng = random.Random(61)
    models = [random_proper_model(rng, max_d=6, max_r=4, entry=2, r=1 + i % 4)
              for i in range(40)]
    models += [kq.linear_model(w, c) for w, c in _DEGENERATE]
    a, b = (1, 1, 0, 0), (1, 0, 1, 0)
    models.append(kq.linear_model([a, tuple(2 * x for x in a), tuple(3 * x for x in a), b],
                                  (0, 1, -1, 1)))
    kinds = set()
    for m in models:
        walls = maximal_wall_normals(m.weights, m.rank)
        sizes = {len(wall) > 1 for wall in walls}
        kinds.add("redundant thick" if sizes == {True, False} else
                  "thick only" if sizes == {True} else "hyperplanes only")
        assert (not m._counter.walls) == (sizes == {True}), m.to_dict()
        for window in range(4 if m.rank < 4 else 3):
            box = kq.dominant_window(m.datum, window)
            ctr = kq.LinearModel.from_dict(m.to_dict())._counter
            regular = ctr.regular([range(-window, window + 1)] * m.rank)
            assert regular == [all(any(sum(x * (g - c) for x, g, c in zip(n, gamma, m.shift))
                                       for n in wall) for wall in walls)
                               for gamma in box], (m.to_dict(), window)
    assert kinds == {"redundant thick", "thick only", "hyperplanes only"}


def test_counter_state_is_fixed_at_construction():
    # count and window pack their own fields and leave every slot as
    # __init__ set it.  The huge targets lie outside the cone (their Farkas
    # budget is negative): one inside would loop over its whole budget.
    rng = random.Random(67)
    models = [random_proper_model(rng, max_d=5, max_r=3, entry=2) for _ in range(12)]
    models += [kq.linear_model(w, c) for w, c in _DEGENERATE]
    for m in models:
        ctr = m._counter
        slots = {name: getattr(ctr, name) for name in type(ctr).__slots__}
        huge = [tuple(c - 10**30 * x + k for c, x in zip(m.shift, kq.farkas_vector(m)))
                for k in range(3)]
        small = [kq.reduction_multiplicity(m, g) for g in kq.dominant_window(m.datum, 1)]
        assert [kq.reduction_multiplicity(m, g).count for g in huge] == [0, 0, 0]
        for window in range(4):
            fresh = kq.LinearModel.from_dict(m.to_dict())._counter
            assert ctr.window(window) == fresh.window(window), (m.to_dict(), window)
        assert all(getattr(ctr, name) is v for name, v in slots.items()), m.to_dict()
        assert small == [kq.reduction_multiplicity(m, g) for g in kq.dominant_window(m.datum, 1)]


def test_window_pass_matches_single_weight_counts():
    rng = random.Random(53)
    models = [random_proper_model(rng, max_d=5, max_r=3, entry=3) for _ in range(36)]
    models += [kq.linear_model(w, c) for w, c in _DEGENERATE]
    models += [kq.linear_model([], c) for c in ((1, -1, 0), (0, 1), (2,))]
    for m in models:
        for window in range(5):
            box = list(kq.dominant_window(m.datum, window))
            single = [kq.reduction_multiplicity(m, g) for g in box]
            # a fresh counter counts and packs for this window first
            ctr = kq.LinearModel.from_dict(m.to_dict())._counter
            counts = ctr.window(window)
            regular = ctr.regular([range(-window, window + 1)] * m.rank)
            assert len(regular) == len(box), (m.to_dict(), window)
            assert all(type(r) is bool for r in regular)
            assert 0 not in counts.values(), (m.to_dict(), window)
            assert set(counts) <= set(box), (m.to_dict(), window)
            dense = [(counts.get(g, 0), r) for g, r in zip(box, regular)]
            assert dense == single, (m.to_dict(), window)


def _dense_rows(m, window):
    """verify_qr's JSON rows built point by point from the two public routes."""
    series = kq.formal_quantization(m, window).coeffs.get
    rows = []
    for gamma in kq.dominant_window(m.datum, window):
        q_top = series(gamma, 0)
        q_red, regular = kq.reduction_multiplicity(m, gamma)
        rows.append({"gamma": list(gamma), "q_top": q_top, "q_red": q_red,
                     "regular": regular, "match": q_top == q_red})
    return rows


def _check_report(rep, m, window, rows):
    """rep's columns, verdict, to_dict and table all equal the dense rows."""
    assert rep.to_dict() == {"model": m.to_dict(), "window": window,
                             "verdict": rep.verdict, "rows": rows}, (m.to_dict(), window)
    assert rep.verdict is all(r["match"] for r in rows)
    assert rep.series == {tuple(r["gamma"]): r["q_top"] for r in rows if r["q_top"]}
    assert rep.counts == {tuple(r["gamma"]): r["q_red"] for r in rows if r["q_red"]}
    low = lambda b: "true" if b else "false"
    assert rep.table().split("\n") == (
        ["gamma\tq_top\tq_red\tregular\tmatch"]
        + [f"{r['gamma']}\t{r['q_top']}\t{r['q_red']}\t{low(r['regular'])}\t{low(r['match'])}"
           for r in rows]
        + [f"verdict\t{low(rep.verdict)}"])


def test_columnar_report_matches_dense_reference():
    rng = random.Random(59)
    models = [random_proper_model(rng, max_d=5, max_r=3, entry=3, r=1 + i % 3)
              for i in range(24)]
    models += [kq.linear_model(w, c) for w, c in _DEGENERATE]
    models += [kq.linear_model([], c) for c in ((1, -1, 0), (0, 1), (2,))]
    for m in models:
        for window in range(5):
            rows = _dense_rows(m, window)
            rep = kq.verify_qr(kq.LinearModel.from_dict(m.to_dict()), window)
            _check_report(rep, m, window, rows)
            assert rep.verdict


@pytest.mark.parametrize("fault", ["bumped", "extra", "removed"])
def test_report_mismatch_names_the_faulty_row(fault, monkeypatch, tmp_path, capsys):
    from kquant import linear_models as lm
    from kquant.cli import main

    m = kq.linear_model([(1, 0), (0, 1), (1, 1)], (-1, 0))
    window = 3
    coeffs = dict(lm.formal_quantization(m, window).coeffs)
    box = list(kq.dominant_window(m.datum, window))
    if fault == "extra":
        gamma = next(g for g in box if not kq.reduction_multiplicity(m, g).count)
        coeffs[gamma] = 3
    else:
        gamma = sorted(coeffs)[len(coeffs) // 2]
        coeffs[gamma] = coeffs[gamma] + 1 if fault == "bumped" else 0
    q_top = coeffs[gamma]
    q_red, regular = kq.reduction_multiplicity(m, gamma)
    assert q_top != q_red
    faulty = kq.FormalCharacter(m.datum, window, coeffs)
    monkeypatch.setattr(lm, "formal_quantization", lambda model, w: faulty)

    faulty_row = {"gamma": list(gamma), "q_top": q_top, "q_red": q_red,
                  "regular": regular, "match": False}
    rows = [faulty_row if r["gamma"] == list(gamma) else r for r in _dense_rows(m, window)]
    rep = kq.verify_qr(m, window)
    assert rep.verdict is False
    assert [r for r in rep.to_dict()["rows"] if not r["match"]] == [faulty_row]
    _check_report(rep, m, window, rows)

    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_dict()), encoding="utf-8")
    assert main(["verify-qr", str(path), "--window", str(window)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is False
    assert [r for r in doc["rows"] if not r["match"]] == [faulty_row]
    assert main(["verify-qr", str(path), "--window", str(window),
                 "--format", "table"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verdict\tfalse"
    false_rows = [ln for ln in lines[1:-1] if ln.endswith("\tfalse")]
    assert false_rows == [lines[1 + box.index(gamma)]]
    assert false_rows[0].startswith(f"{list(gamma)}\t{q_top}\t{q_red}\t")


def _normal(vectors, rank):
    """A normal of the span of rank - 1 vectors (zero if they are dependent)."""
    if rank == 1:
        return (1,)
    if rank == 2:
        (w,) = vectors
        return (-w[1], w[0])
    u, v = vectors
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _outside_cone(m, target):
    """target pairs < 0 with the Farkas vector or with a supporting normal."""
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    if dot(target, kq.farkas_vector(m)) < 0:
        return True
    for sub in itertools.combinations(m.weights, m.rank - 1):
        n = _normal(sub, m.rank)
        for nn in (n, tuple(-x for x in n)):
            if all(dot(w, nn) >= 0 for w in m.weights) and dot(target, nn) < 0:
                return True
    return False


def _no_count(self, j, ys, bs):
    if bs:
        raise AssertionError("a target outside the cone reached the count")
    return []


def test_reduction_exact_for_huge_targets(monkeypatch):
    from kquant import linear_models as lm

    big = (10**30, -10**30, 2**63 - 1, 2**63 + 1, -(2**63 - 1), -(2**63 + 1))
    models = [
        kq.linear_model([(1, 0), (0, 1)], (0, 0)),
        kq.linear_model([(1, 2), (3, -1), (2, 2)], (1, -1)),
        kq.linear_model([(1, 0, 0), (0, 1, 0), (1, 1, 1), (2, -1, 1)], (0, 1, -1)),
        # wall normals that must be flipped to support the cone
        kq.linear_model([(0, -1), (-1, -1)], (2, 0)),
        kq.linear_model([(-2,), (-3,)], (1,)),
        # thin: every weight lies on a wall, or the walls have several normals
        kq.linear_model([(1, 1), (2, 2)], (0, 1)),
        kq.linear_model([(1, 0, 0), (1, 0, 0)], (0, 1, -1)),
        kq.linear_model([(1, 2, 0), (2, 4, 0)], (0, 0, 0)),
        kq.linear_model([], (1, -1, 0)),
        kq.linear_model([], (3,)),
    ]
    for m in models:
        seen = 0
        with monkeypatch.context() as patch:
            if m.weights and _exact_rank(m.weights) == m.rank:
                # the supporting normals include every facet: no count
                patch.setattr(lm._LatticeCounter, "_level", _no_count)
            for gamma in itertools.product(big + (0, 1), repeat=m.rank):
                target = [g - c for g, c in zip(gamma, m.shift)]
                if not _outside_cone(m, target):
                    continue  # counting there would take about 10**30 steps
                seen += 1
                got = kq.reduction_multiplicity(m, gamma)
                assert got == (0, not _on_wall(m, target)), (m.to_dict(), gamma)
        assert seen, m.to_dict()
        # the counter re-packed for the huge targets still counts small ones
        box = list(kq.dominant_window(m.datum, 2))
        expected = (_naive_reduction(m, 2) if m.weights else
                    {g: (int(g == m.shift), not _on_wall(m, [a - b for a, b in zip(g, m.shift)]))
                     for g in box})
        assert {g: tuple(kq.reduction_multiplicity(m, g)) for g in box} == expected
    # huge targets inside the cone of a rank-1 model: one loop level at
    # most, so the count is the closed-form last level on huge numbers
    for ws, c in ((3,), 1), ((2, 3), -1), ((4, 6), 0), ((6, 4, 9), 2):
        m = kq.linear_model([(w,) for w in ws], (c,))
        for g in big + (0, 1, 2, 7):
            t = g - c
            if len(ws) == 1:
                expected = int(t >= 0 and t % ws[0] == 0)
            elif len(ws) == 2:
                # a * lead + b * last = t: a runs over residue classes mod period
                (lead, last), top = ws, t // ws[0]
                period = last // math.gcd(lead, last)
                expected = sum((top - a) // period + 1 for a in range(min(period, top + 1))
                               if (t - a * lead) % last == 0)
            elif t >= 0:
                continue  # two loop levels over 10**30 values
            else:
                expected = 0
            assert kq.reduction_multiplicity(m, (g,)) == (expected, t != 0), (ws, g)


def test_window_counts_match_the_recursive_search():
    rng = random.Random(67)
    # every rank 1-4 at every window 0-7, then the hand-drawn corpora
    corpus = [(random_proper_model(rng, max_d=6, max_r=4, entry=3, r=1 + i % 4), i // 4)
              for i in range(32)]
    corpus += [(random_proper_model(rng, max_d=7, max_r=2, entry=3, d=7), 5) for _ in range(4)]
    corpus += [(kq.linear_model(w, c), 3) for w, c in _DEPENDENT_TAIL + _DEGENERATE]
    seen = set()
    for m, window in corpus:
        levels, period = len(m._counter.steps), m._counter.kit[1]
        seen.add((min(levels, 3), period > 1))
        box = list(kq.dominant_window(m.datum, window))
        expected = {g: n for g in box if (n := recursive_count(m, g))}
        # a fresh counter: the window pass comes first
        counts = kq.LinearModel.from_dict(m.to_dict())._counter.window(window)
        assert counts == expected, (m.to_dict(), window)
        for g in rng.sample(box, min(len(box), 25)):
            assert kq.reduction_multiplicity(m, g).count == expected.get(g, 0), (m.to_dict(), g)
    assert {(3, True), (2, True), (1, True), (0, False)} <= seen
    # single points off c + L, outside the cone, or both, in and beyond the
    # windows: the one-point count rejects them as the search does
    kinds = set()
    for m, _ in corpus:
        tests = lattice_tests(m.weights, m.rank)
        for _ in range(12):
            g = tuple(rng.randint(-9, 9) for _ in range(m.rank))
            target = tuple(a - c for a, c in zip(g, m.shift))
            off = any(sum(map(mul, n, target)) % mod if mod else sum(map(mul, n, target))
                      for n, mod in tests)
            outside = m.rank < 4 and _outside_cone(m, target)
            kinds.add((off, outside))
            n = kq.reduction_multiplicity(m, g).count
            assert n == recursive_count(m, g), (m.to_dict(), g)
            assert not n or not (off or outside), (m.to_dict(), g)
    assert {(True, False), (False, True), (True, True), (False, False)} <= kinds
    # huge targets of rank-1 models with one or two loop levels: the outer
    # weights are huge too, so the reference's outer loop stays short
    big = (10**30, -10**30, 2**63 - 1, 2**63 + 1, -(2**63 + 1), 10**20 + 3)
    for ws, c in (((3, 5), 1), ((6, 4), 0), ((4, 10**18, 6 * 10**17 + 2), 3),
                  ((3, 10**19 + 1, 10**19), -1)):
        m = kq.linear_model([(w,) for w in ws], (c,))
        assert len(m._counter.steps) == len(ws) - 1 and m._counter.kit[1] > 1
        for g in big + (0, 1, 2, 7):
            if len(ws) == 3 and g - c > 10**22:
                continue  # the reference would loop 10**12 times
            assert kq.reduction_multiplicity(m, (g,)).count == recursive_count(m, (g,)), (ws, g)


def _small_models(rng, count, cap=20000):
    """Proper models of rank 1-3 with up to rank + 3 weights in [-2, 2] whose
    brute-force grid at window 2 (_naive_reduction) has at most cap points."""
    out = []
    while len(out) < count:
        r = 1 + len(out) % 3
        m = random_proper_model(rng, max_d=r + 3, max_r=3, entry=2, r=r)
        xi = kq.farkas_vector(m)
        top = 2 * sum(map(abs, xi)) + abs(sum(map(mul, m.shift, xi)))
        if math.prod(top // sum(map(mul, w, xi)) + 1 for w in m.weights) <= cap:
            out.append(m)
    return out


def test_last_level_matches_brute_force_in_every_case():
    # the last level tests signs only on the rows whose step entry is 0
    # (signs) and divisibility only when the basis and the last looped
    # weight do not generate L (divides); every combination is counted
    # against the brute-force enumeration, by the window and at each point
    rng = random.Random(83)
    seen = set()
    for m in _small_models(rng, 120):
        ctr = kq.LinearModel.from_dict(m.to_dict())._counter
        if ctr.steps:
            seen.add((min(len(ctr.steps), 3), bool(ctr.divides), bool(ctr.signs)))
        expected = _naive_reduction(m, 2)
        assert ctr.window(2) == {g: n for g, (n, _) in expected.items() if n}, m.to_dict()
        for g in rng.sample(sorted(expected), min(len(expected), 20)):
            assert tuple(kq.reduction_multiplicity(m, g)) == expected[g], (m.to_dict(), g)
    # one looped weight with the basis is every weight: nothing to divide
    assert {(1, False, False), (1, False, True)} | {
        (levels, divides, signs) for levels in (2, 3)
        for divides in (False, True) for signs in (False, True)} == seen


def test_last_level_needs_its_divisibility_rows():
    # 2, 4 and 5: the basis 2 and the last looped weight 4 generate 2Z, not
    # Z, so an odd remainder has no coefficients on them; with the rows left
    # untested, gamma = 5 would count a = 0 and 1 for 4 as well as 5 itself
    m = kq.linear_model([(2,), (4,), (5,)], (0,))
    assert m._counter.divides
    expected = {g: n for g, (n, _) in _naive_reduction(m, 9).items() if n}
    assert m._counter.window(9) == expected and expected[(5,)] == 1
    ctr = kq.LinearModel.from_dict(m.to_dict())._counter
    ctr.divides = ()
    assert ctr.window(9)[(5,)] == 3


def test_last_looped_weight_has_a_positive_leaf_entry():
    # its leaf entries are det times its coefficients on the basis, whose
    # weights pair > 0 with xi: were none > 0 it would pair <= 0 with xi,
    # so the last level always has an upper bound without the budget
    rng = random.Random(89)
    models = [random_proper_model(rng, max_d=7, max_r=4, entry=3) for _ in range(300)]
    models += [kq.linear_model(w, c) for w, c in _DEPENDENT_TAIL + _DEGENERATE]
    looped = 0
    for m in models:
        xi, _, leaf, ws = leaf_kit(m)
        assert len(m._counter.steps) == len(ws), m.to_dict()
        if ws:
            looped += 1
            step, pw = m._counter.steps[-1]
            t = tuple(sum(map(mul, row, ws[-1])) for row in leaf)
            assert step[:len(t)] == t and pw == sum(map(mul, ws[-1], xi)), m.to_dict()
            assert pw > 0 and max(t) > 0, m.to_dict()
    assert looped > 100


def _box_reference(m, window):
    """(regular, counts) of helpers.box_counts on the window, for a copy of m."""
    return box_counts(kq.LinearModel.from_dict(m.to_dict()), [range(-window, window + 1)] * m.rank)


def _thin_model(rng, r):
    """A proper rank-r model whose weights span less than the whole space.

    The weights are small combinations of k < r random vectors, sometimes
    scaled by 2 or 3, so the group they generate may have index > 1 in
    its span; the vectors may themselves be dependent.
    """
    while True:
        k = rng.randint(1, r - 1)
        base = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(k)]
        scale = rng.choice((1, 1, 2, 3))
        ws = [tuple(scale * sum(rng.randint(-1, 2) * b[t] for b in base) for t in range(r))
              for _ in range(rng.randint(1, 4))]
        m = kq.linear_model([w for w in ws if any(w)],
                            tuple(rng.randint(-3, 3) for _ in range(r)))
        if m.weights and kq.check_proper(m):
            return m


def test_target_enumeration_matches_the_box_pass():
    # the counter enumerates c + L inside the box and the cone; the box
    # reference pairs every point with the walls and the lattice functionals
    rng = random.Random(73)
    corpus = []
    for i in range(60):
        r = 1 + i % 5
        corpus.append((random_proper_model(rng, max_d=6, max_r=5, entry=3, r=r),
                       i % 7 if r < 5 else i % 5))
    corpus += [(_thin_model(rng, 2 + i % 4), i % 6 if i % 4 < 3 else i % 5) for i in range(24)]
    corpus += [(kq.linear_model(w, c), 4) for w, c in _DEPENDENT_TAIL + _DEGENERATE]
    corpus += [(kq.linear_model([], c), w) for c in ((1, -1, 0), (0, 1), (2,), (4, 0))
               for w in (0, 2, 3)]
    seen = set()
    for m, window in corpus:
        regular, counts = _box_reference(m, window)
        ctr = kq.LinearModel.from_dict(m.to_dict())._counter
        assert ctr.window(window) == counts, (m.to_dict(), window)
        assert ctr.regular([range(-window, window + 1)] * m.rank) == regular, (m.to_dict(), window)
        # the one-point count is the window pass on [gamma, gamma]: it gives a
        # point of the box the window's count and the column's flag; every
        # point of a box up to 81 points, else 30 nonzero counts and 30 drawn
        cells = list(zip(itertools.product(range(-window, window + 1), repeat=m.rank), regular))
        if len(cells) > 81:
            cells = [cell for cell in cells if cell[0] in counts][:30] + rng.sample(cells, 30)
        assert [tuple(kq.reduction_multiplicity(m, g)) for g, _ in cells] == \
            [(counts.get(g, 0), flag) for g, flag in cells], (m.to_dict(), window)
        # and its flag pairs gamma - c with every maximal wall, at c (on every wall) too
        walls = maximal_wall_normals(m.weights, m.rank)
        for g in [m.shift] + [tuple(rng.randint(-window - 2, window + 2) for _ in range(m.rank))
                              for _ in range(6)]:
            t = [x - c for x, c in zip(g, m.shift)]
            assert kq.reduction_multiplicity(m, g).regular == \
                all(any(sum(map(mul, n, t)) for n in wall) for wall in walls), (m.to_dict(), g)
        span =_exact_rank(m.weights) if m.weights else 0
        seen.add(("thin" if span < m.rank else "full", bool(ctr.steps), bool(counts)))
    assert {(kind, looped, True) for kind in ("thin", "full") for looped in (False, True)} <= seen


@st.composite
def _proper_models(draw):
    """Rank 1-4, 1-5 weights in [-3, 3]: each weight turned to pair > 0 with a drawn xi."""
    r = draw(st.integers(1, 4))
    entries = st.tuples(*[st.integers(-3, 3)] * r)
    xi = draw(entries.filter(any))
    pair = lambda w: sum(map(mul, w, xi))
    ws = draw(st.lists(entries.filter(pair), min_size=1, max_size=5))
    return kq.linear_model([w if pair(w) > 0 else tuple(-x for x in w) for w in ws], draw(entries))


@pytest.mark.parametrize("route", [
    lambda m, window: kq.formal_quantization(m, window).coeffs,
    lambda m, window: m._counter.window(window),
], ids=["series", "counts"])
def test_each_route_satisfies_the_deletion_recurrence(route):
    # P_W(gamma) - P_W(gamma - w) = P_{W - w}(gamma) for each weight w, with
    # the same shift: t^c (1 - t^w) / prod_v (1 - t^v) drops the factor of w.
    # Each route is checked against itself, never against the other one.
    rng = random.Random(97)
    window, checks, nonzero = 3, 0, 0
    for _ in range(120):
        m = random_proper_model(rng, max_d=5, max_r=3, entry=2)
        box = list(itertools.product(range(-window, window + 1), repeat=m.rank))
        full = route(m, window)
        for j, w in enumerate(m.weights):
            if w in m.weights[:j]:
                continue  # the same recurrence as for the first copy
            rest = route(kq.linear_model(m.weights[:j] + m.weights[j + 1:], m.shift), window)
            for g in box:
                h = tuple(a - b for a, b in zip(g, w))
                if max(map(abs, h)) <= window:
                    assert full.get(g, 0) - full.get(h, 0) == rest.get(g, 0), (m.to_dict(), w, g)
                    checks += 1
                    nonzero += g in rest
    assert checks > 30000 and nonzero > 3000, (checks, nonzero)


@settings(max_examples=80, deadline=None)
@given(_proper_models(), st.integers(0, 4))
def test_qr_holds_on_random_models(m, window):
    rep = kq.verify_qr(m, window)
    assert rep.verdict is True
    assert rep.counts == _box_reference(m, window)[1]


def _refuse(*args):
    raise AssertionError("the regular column was built")


def test_regular_column_is_built_only_when_rows_are_read(monkeypatch):
    from kquant import linear_models as lm

    rng = random.Random(79)
    models = [random_proper_model(rng, max_d=5, max_r=3, entry=3, r=1 + i % 3) for i in range(12)]
    models += [kq.linear_model(w, c) for w, c in _DEGENERATE[::3]]
    models += [kq.linear_model([], (1, -1)), _thin_model(rng, 3)]
    low = lambda b: "true" if b else "false"
    for m in models:
        for window in (0, 1, 3):
            regular, counts = _box_reference(m, window)
            with monkeypatch.context() as patch:
                patch.setattr(lm._LatticeCounter, "regular", _refuse)
                rep = kq.verify_qr(kq.LinearModel.from_dict(m.to_dict()), window)
                assert rep.verdict is True and rep.counts == counts, (m.to_dict(), window)
            # the rows the box pass gives, byte for byte
            box = list(kq.dominant_window(m.datum, window))
            cells = [(g, rep.series.get(g, 0), counts.get(g, 0), r) for g, r in zip(box, regular)]
            rows = [{"gamma": list(g), "q_top": a, "q_red": b, "regular": r, "match": a == b}
                    for g, a, b, r in cells]
            doc = {"model": m.to_dict(), "window": window, "verdict": True, "rows": rows}
            assert json.dumps(rep.to_dict()) == json.dumps(doc), (m.to_dict(), window)
            assert rep.table() == "\n".join(
                ["gamma\tq_top\tq_red\tregular\tmatch"]
                + [f"{list(g)}\t{a}\t{b}\t{low(r)}\t{low(a == b)}" for g, a, b, r in cells]
                + ["verdict\ttrue"])
            assert [tuple(kq.reduction_multiplicity(m, g)) for g in box] == \
                [(b, r) for _, _, b, r in cells], (m.to_dict(), window)


def test_separation_lives_on_the_model(monkeypatch):
    import gc
    import weakref

    from kquant import linear_models as lm

    calls = []
    real = lm._min_norm_in_hull
    monkeypatch.setattr(lm, "_min_norm_in_hull",
                        lambda points, rank: calls.append(1) or real(points, rank))
    proper = kq.linear_model([(3, 1), (1, 2), (2, -1)], (0, 0))
    assert kq.check_proper(proper)
    assert kq.farkas_vector(proper) == (3, 1)
    assert len(calls) == 1
    # an equal model computes its own result: nothing is shared by value
    twin = kq.linear_model([(3, 1), (1, 2), (2, -1)], (0, 0))
    assert twin == proper and kq.farkas_vector(twin) == (3, 1)
    assert len(calls) == 2
    improper = kq.linear_model([(1, 2), (-1, 0), (0, -1)], (0, 0))
    assert not kq.check_proper(improper)
    with pytest.raises(kq.NotProper) as info:
        kq.farkas_vector(improper)
    assert str(info.value) == ("0 = 1/4*(-1,0) + 1/2*(0,-1) + 1/4*(1,2); "
                               "weights span no open half space")
    assert len(calls) == 3
    # the result is stored on the model and freed with it
    assert "_separation" in vars(proper)
    refs = [weakref.ref(m) for m in (proper, twin, improper)]
    del proper, twin, improper, info
    gc.collect()
    assert all(r() is None for r in refs)


def _fraction_min_norm(points, rank):
    """(x, subset, lam) by Fraction Gauss-Jordan on each subset's Gram system."""
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    best = None
    for size in range(1, min(len(pts), rank + 1) + 1):
        for subset in itertools.combinations(pts, size):
            s0, n = subset[0], size - 1
            vs = [[a - b for a, b in zip(p, s0)] for p in subset[1:]]
            a = [[sum(x * y for x, y in zip(u, v)) for v in vs]
                 + [-sum(x * y for x, y in zip(s0, u))] for u in vs]
            for col in range(n):
                piv = next((r for r in range(col, n) if a[r][col]), None)
                if piv is None:
                    break
                a[col], a[piv] = a[piv], a[col]
                a[col] = [x / a[col][col] for x in a[col]]
                for r in range(n):
                    if r != col and a[r][col]:
                        a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
            else:
                y = [row[n] for row in a]
                lam = [1 - sum(y)] + y
                if min(lam) < 0:
                    continue
                x = [s + sum(yi * v[k] for yi, v in zip(y, vs)) for k, s in enumerate(s0)]
                norm = sum(c * c for c in x)
                if best is None or norm < best[0]:
                    best = (norm, x, subset, lam)
    return best[1:]


def test_integer_separation_matches_fraction_min_norm():
    rng = random.Random(43)
    kinds = set()
    for _ in range(120):
        rank = rng.randint(1, 3)
        ws = [w for w in (tuple(rng.randint(-2, 2) for _ in range(rank))
                          for _ in range(rng.randint(1, 5))) if any(w)]
        m = kq.linear_model(ws, (0,) * rank)
        if not ws:
            continue
        x, used, lam = _fraction_min_norm(ws, rank)
        if any(x):
            den = math.lcm(*(c.denominator for c in x))
            ints = [int(c * den) for c in x]
            xi = tuple(c // math.gcd(*ints) for c in ints)
            assert kq.farkas_vector(m) == xi, ws
            kinds.add("proper")
        else:
            combo = " + ".join(f"{l}*({','.join(str(c) for c in w)})"
                               for w, l in zip(used, lam) if l)
            with pytest.raises(kq.NotProper) as info:
                kq.farkas_vector(m)
            assert str(info.value) == f"0 = {combo}; weights span no open half space"
            kinds.add("improper")
    assert kinds == {"proper", "improper"}


def test_glued_strata_certificate_is_a_typed_error(monkeypatch):
    from kquant import linear_models as lm

    real = lm._column_table

    def skewed(m):
        # a first row, read by support (0, 1) alone, at the point a = (1, 0)
        # off the stratum's mu level
        return [(frozenset({0, 1}), frozenset({0}), frozenset({0, 1}), (Fraction(-1),))] + real(m)

    monkeypatch.setattr(lm, "_column_table", skewed)
    with pytest.raises(kq.CertificateFailed, match=r"vertices of stratum \(0, 1\) disagree on mu"):
        kq.vanishing_decomposition(kq.linear_model([(1,), (2,)], (-2,)))


def test_missing_union_stratum_is_a_typed_error(monkeypatch):
    from kquant import linear_models as lm

    real = lm._column_table

    def holed(m):
        # the open segment between the two mu = 0 points goes missing: their
        # rows hold on their own weight only, so support (0, 1) reads no row
        return [(c, n, c if len(c) == 1 else h, mu) for c, n, h, mu in real(m)]

    monkeypatch.setattr(lm, "_column_table", holed)
    with pytest.raises(kq.CertificateFailed, match=r"miss their union \(0, 1\)"):
        kq.vanishing_decomposition(kq.linear_model([(1,), (2,)], (-2,)))


_FAULTS = {  # name: (patched _column_table, expected message)
    "skewed": ("lambda m: [(frozenset({0, 1}), frozenset({0}), frozenset({0, 1}), "
               "(Fraction(-1),))] + real(m)", "vertices of stratum (0, 1) disagree on mu"),
    "holed": ("lambda m: [(c, n, c if len(c) == 1 else h, mu) for c, n, h, mu in real(m)]",
              "miss their union (0, 1)"),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_vanishing_certificates_raise_under_optimize(fault):
    # the same faults as the two tests above, in an interpreter that strips asserts
    script = "\n".join([
        "import sys",
        "from fractions import Fraction",
        "import kquant as kq",
        "from kquant import linear_models as lm",
        "assert False, 'asserts are live'",
        "real = lm._column_table",
        f"lm._column_table = {_FAULTS[fault][0]}",
        "try:",
        "    kq.vanishing_decomposition(kq.linear_model([(1,), (2,)], (-2,)))",
        "except kq.CertificateFailed as exc:",
        "    print(exc)",
        "    sys.exit(0)",
        "sys.exit('no CertificateFailed')",
    ])
    src = str(Path(kq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert _FAULTS[fault][1] in out.stdout


def test_separation_certificate_is_a_typed_error(monkeypatch):
    from kquant import linear_models as lm

    weights = ((5, 7), (7, 5))
    bad = (Fraction(-1), Fraction(0))
    monkeypatch.setattr(lm, "_min_norm_in_hull",
                        lambda points, rank: (bad, [weights[0]], [Fraction(1)]))
    m = kq.linear_model(weights, (0, 0))
    with pytest.raises(kq.CertificateFailed):
        kq.farkas_vector(m)
    with pytest.raises(kq.EngineError):
        kq.reduction_multiplicity(m, (1, 1))


def test_verify_qr_examples():
    rep = kq.verify_qr(kq.linear_model([(1,), (1,)], (0,)), 6)
    assert rep.verdict
    assert rep.series == {(n,): n + 1 for n in range(7)}
    rep2 = kq.verify_qr(kq.linear_model([(1, 0), (0, 1)], (-1, -1)), 3)
    assert rep2.verdict
    rep3 = kq.verify_qr(kq.LinearModel(T1, (), (0,)), 4)
    assert rep3.verdict
    assert sum(r["q_top"] for r in rep3.to_dict()["rows"]) == 1


def test_verify_qr_random_corpus():
    rng = random.Random(31)
    for _ in range(25):
        m = random_proper_model(rng, max_d=4, max_r=2)
        rep = kq.verify_qr(m, 5)
        assert rep.verdict, m.to_dict()


def test_verify_qr_random_rank_four():
    rng = random.Random(71)
    nonzero = 0
    for i in range(24):
        m = random_proper_model(rng, entry=2, r=4, d=4 + i % 4)
        rep = kq.verify_qr(m, 1 + i % 3)
        assert rep.verdict is True, (m.to_dict(), rep.window)
        nonzero += len(rep.counts)
    assert nonzero > 100  # the corpus is not mostly empty windows


def test_verify_qr_thin_cone():
    # nearly improper: separating vectors are long and three pairings
    # equal 1, so both routes must survive huge pairing budgets
    m = kq.linear_model([(-3, 2, -3), (3, -3, 2), (-2, 3, 0),
                         (-1, -3, 0), (-1, 3, 3)], (-2, 2, 0))
    rep = kq.verify_qr(m, 6)
    assert rep.verdict
    assert sum(rep.series.values()) == 6602


def test_verify_qr_rank_four_with_repeated_weights():
    # five weights share the smallest Farkas pairing, two of them equal;
    # the count loops 7 - 4 weights
    m = kq.linear_model([(0, -1, 1, 2), (0, -2, -1, 0), (-2, -2, -1, -1), (-2, -2, -1, -1),
                         (0, 1, -2, 1), (0, 1, -2, 0), (1, -1, 1, -1)], (-1, 2, -1, -1))
    assert len(m._counter.steps) == 3
    rep = kq.verify_qr(m, 6)
    assert rep.verdict is True
    assert len(rep.counts) == 4030


def test_report_serialization():
    rep = kq.verify_qr(kq.linear_model([(1,)], (0,)), 2)
    d = rep.to_dict()
    assert d["verdict"] is True
    assert [r["gamma"] for r in d["rows"]] == [[-2], [-1], [0], [1], [2]]
    text = rep.table()
    assert text.splitlines()[0] == "gamma\tq_top\tq_red\tregular\tmatch"
    assert text.splitlines()[-1] == "verdict\ttrue"


def test_vanishing_origin_only():
    for weights in ([(1,)], [(1,), (2,)]):
        comps = kq.vanishing_decomposition(kq.linear_model(weights, (0,)))
        assert len(comps) == 1
        assert comps[0].support == ()
        assert comps[0].mu_value == (0,)
        assert comps[0].compact


def test_vanishing_worked_example():
    m = kq.linear_model([(1, 0), (0, 1)], (-1, -1))
    comps = kq.vanishing_decomposition(m)
    assert [c.support for c in comps] == [(), (0,), (1,), (0, 1)]
    by_support = {c.support: c for c in comps}
    assert by_support[()].mu_value == (-1, -1)
    assert by_support[(0,)].mu_value == (0, -1)
    assert by_support[(1,)].mu_value == (-1, 0)
    assert by_support[(0, 1)].mu_value == (0, 0)
    assert all(c.compact for c in comps)
    assert all(c.mu_diameter == 0 for c in comps)
    # the free torus component has trivial stabilizer
    assert by_support[(0, 1)].stabilizer_basis == ()
    assert by_support[()].stabilizer_basis == ((1, 0), (0, 1))


def test_vanishing_strata_glue_along_closure():
    # mu = 0 on the segment a0 + 2a1 = 2 and on both its endpoints
    m = kq.linear_model([(1,), (2,)], (-2,))
    comps = kq.vanishing_decomposition(m)
    assert len(comps) == 2
    big = max(comps, key=lambda c: len(c.strata))
    assert big.support == (0, 1)
    assert set(big.strata) == {(0,), (1,), (0, 1)}
    assert big.mu_value == (0,)
    other = min(comps, key=lambda c: len(c.strata))
    assert other.support == ()
    assert other.mu_value == (-2,)


def test_vanishing_requires_proper():
    with pytest.raises(kq.NotProper):
        kq.vanishing_decomposition(kq.linear_model([(1,), (-1,)], (0,)))


def _wide_models():
    """Proper models with more weights than rank (rank 1-3, 4-7 weights),
    shifted by minus a sum of three weights so that mu = 0 is reached."""
    rng = random.Random(34)
    out = []
    for r, d in ((1, 4), (1, 6), (2, 5), (2, 7), (3, 4), (3, 6), (3, 7)):
        ws = random_proper_model(rng, r=r, d=d).weights
        out.append(kq.linear_model(ws, tuple(-sum(c) for c in zip(*rng.choices(ws, k=3)))))
    return out


def _uncapped_vertices(m, support):
    """Stratum vertices from every column subset, each solved over Fraction."""
    ws = [m.weights[j] for j in support]
    k = len(ws)
    gram = [[sum(map(mul, u, v)) for v in ws] for u in ws]
    rhs = [-sum(map(mul, u, m.shift)) for u in ws]
    verts = set()
    for size in range(k + 1):
        for cols in itertools.combinations(range(k), size):
            sol = fraction_solve([[gram[i][c] for c in cols] for i in cols],
                                 [rhs[i] for i in cols])
            if sol is None or any(x < 0 for x in sol):
                continue
            full = [Fraction(0)] * k
            for c, x in zip(cols, sol):
                full[c] = x
            if all(sum(map(mul, row, full)) == r for row, r in zip(gram, rhs)):
                verts.add(tuple(full))
    return sorted(verts)


def test_stratum_vertices_match_uncapped_enumeration():
    # only column sets of size <= rank are solved; larger Gram subsystems
    # are singular, so the rows each support reads (cols <= S <= holds) must
    # carry exactly the nonzero coordinates and mu values of its vertices
    from kquant.linear_models import _column_table

    nonzero = 0
    for m in _wide_models():
        d = len(m.weights)
        table = _column_table(m)
        for support in itertools.chain.from_iterable(
                itertools.combinations(range(d), size) for size in range(d + 1)):
            s = set(support)
            rows = {(n, mu) for cols, n, holds, mu in table if cols <= s <= holds}
            verts = _uncapped_vertices(m, support)
            assert rows == {(frozenset(j for x, j in zip(v, support) if x),
                             tuple(c + sum(x * m.weights[j][t] for x, j in zip(v, support))
                                   for t, c in enumerate(m.shift)))
                            for v in verts}, (m.to_dict(), support)
            nonzero += sum(any(v) for v in verts)
    assert nonzero > 100


def test_vanishing_components_match_glued_reference():
    # the fibres of mu, read off one table of solves, against per-support
    # solves glued along touching closures
    rng = random.Random(35)
    models = [random_proper_model(rng, max_d=7, max_r=3) for _ in range(12)]
    for _ in range(12):
        ws = random_proper_model(rng, max_d=7, max_r=3).weights
        picks = rng.choices(ws, k=rng.randint(1, 3))
        models.append(kq.linear_model(ws, tuple(-sum(c) for c in zip(*picks))))
    sizes = set()
    for m in _wide_models() + models:
        got = kq.vanishing_decomposition(m)
        ref = glued_components(m)
        assert [(c.support, c.strata, c.stabilizer_basis, c.mu_value) for c in got] == \
            [(c.support, c.strata, c.stabilizer_basis, c.mu_value) for c in ref], m.to_dict()
        for c in got:
            assert all(type(x) is Fraction for x in c.mu_value)
            sizes.add(len(c.strata))
    assert max(sizes) >= 4


def test_vanishing_random_corpus_compact_and_pinned():
    rng = random.Random(32)
    models = [random_proper_model(rng, max_d=4, max_r=2) for _ in range(20)]
    for m in models + _wide_models():
        comps = kq.vanishing_decomposition(m)
        assert comps, "origin stratum always present"
        supports = [c.support for c in comps]
        assert len(set(supports)) == len(supports)
        for c in comps:
            assert c.compact
            assert c.mu_diameter == 0
            # mu is orthogonal to every support weight
            for j in c.support:
                assert sum(Fraction(a) * b
                           for a, b in zip(m.weights[j], c.mu_value)) == 0


def _residual_grid(weights, shift, box, n):
    W = np.array(weights, dtype=float)
    c = np.array(shift, dtype=float)
    d = len(weights)
    axes = [np.linspace(0.0, box, n)] * d
    grids = np.meshgrid(*axes, indexing="ij")
    A = np.stack([g.ravel() for g in grids], axis=1)
    mu = A @ W + c
    resid = ((A * (mu @ W.T)) ** 2).sum(axis=1)
    return A, resid


def _component_cloud(m, comps, per_stratum=400):
    rng = np.random.default_rng(0)
    pts = []
    for comp in comps:
        for stratum in comp.strata:
            verts = np.array([[float(x) for x in v]
                              for v in per_support_vertices(m, stratum)])
            lam = rng.dirichlet(np.ones(len(verts)), size=per_stratum)
            local = lam @ verts
            full = np.zeros((per_stratum, len(m.weights)))
            for pos, j in enumerate(stratum):
                full[:, j] = local[:, pos]
            pts.append(full)
    return np.concatenate(pts, axis=0)


def test_vanishing_set_matches_dense_sampling():
    # floating point appears here only, as a cross-check of the exact engine
    rng = random.Random(33)
    models = [kq.linear_model([(1, 0), (0, 1)], (-1, -1)),
              kq.linear_model([(1,), (2,)], (-2,)),
              kq.linear_model([(1, 1), (1, -1)], (-2, 0))]
    for _ in range(6):
        models.append(random_proper_model(rng, max_d=2, max_r=2, entry=2))
    for m in models:
        comps = kq.vanishing_decomposition(m)
        box = 4.0
        A, resid = _residual_grid(m.weights, m.shift, box, 41)
        cloud = _component_cloud(m, comps)
        near_zero = A[resid < 1e-8]
        for a in near_zero:
            dist = np.min(np.linalg.norm(cloud - a, axis=1))
            assert dist < 0.35, (m.to_dict(), a.tolist(), dist)
        # engine points really are zeros of the sampled vector field
        W = np.array(m.weights, dtype=float)
        c = np.array(m.shift, dtype=float)
        mu = cloud @ W + c
        r = ((cloud * (mu @ W.T)) ** 2).sum(axis=1)
        assert float(np.max(r)) < 1e-18


def test_vanishing_cluster_count_on_grid_aligned_example():
    m = kq.linear_model([(1, 0), (0, 1)], (-1, -1))
    A, resid = _residual_grid(m.weights, m.shift, 3.0, 151)
    mask = (resid < 1e-6).reshape(151, 151)
    seen = np.zeros_like(mask)
    clusters = 0
    for i, j in zip(*np.nonzero(mask)):
        if seen[i, j]:
            continue
        clusters += 1
        stack = [(i, j)]
        seen[i, j] = True
        while stack:
            x, y = stack.pop()
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                u, v = x + dx, y + dy
                if 0 <= u < 151 and 0 <= v < 151 and mask[u, v] and not seen[u, v]:
                    seen[u, v] = True
                    stack.append((u, v))
    assert clusters == len(kq.vanishing_decomposition(m)) == 4


def test_compatibility_zero_deviation():
    m = kq.linear_model([(1, 0), (0, 1)], (-1, -1))
    offsets = {c.support: (0, 0) for c in kq.vanishing_decomposition(m)}
    assert kq.check_compatibility(m, offsets, 0)


def test_compatibility_cauchy_schwarz_threshold():
    m = kq.linear_model([(1, 0), (0, 1)], (-1, -1))
    offsets = {c.support: (1, 0) for c in kq.vanishing_decomposition(m)}
    assert kq.check_compatibility(m, offsets, 1)
    assert not kq.check_compatibility(m, offsets, Fraction(1, 2))


def test_compatibility_origin_has_full_stabilizer():
    m = kq.linear_model([(1,), (2,)], (0,))
    offsets = {(): (99,)}
    assert not kq.check_compatibility(m, offsets, 1)
    assert kq.check_compatibility(m, offsets, 99)


def test_compatibility_reuses_the_decomposition(monkeypatch):
    from kquant import linear_models as lm

    calls = []
    real = lm._column_table

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(lm, "_column_table", counted)
    m = kq.linear_model([(1, 0), (0, 1), (1, 1)], (-1, -1))
    comps = kq.vanishing_decomposition(m)
    solved = len(calls)
    assert solved == 1
    offsets = {c.support: (0, 0) for c in comps}
    assert kq.check_compatibility(m, offsets, 0)
    assert len(calls) == solved
    # the returned list is the caller's own
    first = list(comps)
    comps.clear()
    assert kq.vanishing_decomposition(m) == first
    assert kq.vanishing_decomposition(m) is not kq.vanishing_decomposition(m)
    assert kq.check_compatibility(m, offsets, 0)
    with pytest.raises(kq.NotOnVanishingSet):
        kq.check_compatibility(m, {(): (0, 0)}, 1)
    assert len(calls) == solved


def test_compatibility_rejects_a_negative_bound():
    m = kq.linear_model([(1, 0), (0, 1), (1, 1)], (-1, -1))
    offsets = {c.support: (0, 0) for c in kq.vanishing_decomposition(m)}
    assert kq.check_compatibility(m, offsets, 0)
    with pytest.raises(ValueError):
        kq.check_compatibility(m, offsets, -1)


def test_compatibility_rejects_deviations_on_supports_that_are_no_component():
    m = kq.linear_model([(1, 0), (0, 1), (1, 1)], (-1, -1))
    offsets = {c.support: (0, 0) for c in kq.vanishing_decomposition(m)}
    assert kq.check_compatibility(m, offsets, 0)
    # no index set of the weights; a support with no point; two strata
    # inside the component (0, 1, 2)
    for key in ((7, 9), (0, 2), (0, 1), (2,)):
        with pytest.raises(ValueError, match="no components"):
            kq.check_compatibility(m, {**offsets, key: (5, 5)}, 0)


def test_compatibility_rejects_deviations_of_the_wrong_length():
    m = kq.linear_model([(1, 0), (0, 1), (1, 1)], (-1, -1))
    for zero in ((0, 0, 0), (0,)):
        offsets = {c.support: zero for c in kq.vanishing_decomposition(m)}
        with pytest.raises(ValueError):
            kq.check_compatibility(m, offsets, 1)


def test_compatibility_missing_component():
    m = kq.linear_model([(1, 0), (0, 1)], (-1, -1))
    with pytest.raises(kq.NotOnVanishingSet):
        kq.check_compatibility(m, {(): (0, 0)}, 1)
