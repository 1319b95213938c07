"""The integer linear-algebra core against independent references.

solve is checked against the Leibniz formula and, with nullspace,
hyperplanes and cramer_kit, against Gauss-Jordan elimination over Fraction
(helpers.fraction_rref).  Entries reach 10**20, so a Bareiss division
that was not exact would show.  residue_kit is checked against a brute
force over two periods of its modulus.  hermite_basis is checked for its
echelon shape and, against the lattice functionals of helpers, for the
group it generates.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kquant._exact import (cramer_kit, hermite_basis, hyperplanes, nullspace, primitive,
                           residue_kit, solve)
from helpers import fraction_nullspace, fraction_rref, fraction_solve, lattice_tests

BIG = 10 ** 20
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))


def leibniz_det(mat):
    total = 0
    for perm in itertools.permutations(range(len(mat))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(row[c] for row, c in zip(mat, perm))
    return total


@st.composite
def matrices(draw, rows, cols):
    """A rows x cols integer matrix: entries drawn freely, or a product of
    two factors through a random inner size, so rank deficiency is common."""
    if draw(st.booleans()):
        return [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    inner = draw(st.integers(0, max(rows, cols)))
    factor = st.integers(-10 ** 10, 10 ** 10) | st.integers(-2, 2)
    left = [[draw(factor) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(factor) for _ in range(cols)] for _ in range(inner)]
    return [[sum(x * right[t][c] for t, x in enumerate(row)) for c in range(cols)]
            for row in left]


@st.composite
def square(draw, top=5):
    n = draw(st.integers(0, top))
    return draw(matrices(n, n))


@st.composite
def systems(draw):
    mat = draw(square())
    return mat, [draw(ENTRIES) for _ in mat]


@st.composite
def rectangles(draw):
    """Wide, tall and square inputs for nullspace: up to 6 rows, width 0-6."""
    return draw(matrices(draw(st.integers(0, 6)), draw(st.integers(0, 6))))


def test_edge_cases():
    assert solve([], []) == (1, ()) and solve([[7]], [0]) == (7, (0,))
    assert solve([[-3]], [6]) == (-3, (6,))
    assert solve([[0]], [1]) == (0, None)
    assert nullspace([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert nullspace([[0, 0]], 2) == [(1, 0), (0, 1)]
    assert nullspace([[5]], 1) == [] and nullspace([[0]], 1) == [(1,)]
    assert nullspace([[2, -4]], 2) == [(2, 1)]
    assert nullspace([[1, 2, 3]], 0) == []
    assert primitive((-4, 6, 0)) == (-2, 3, 0)
    assert hyperplanes([], 1) == [(1,)] and hyperplanes([], 2) == []
    assert hyperplanes([(1, 2), (2, 4), (-1, 0)], 2) == [(0, 1), (2, -1)]
    assert hyperplanes([(1, 0, 0), (2, 0, 0)], 3) == []
    assert cramer_kit([], 2) == ((), 1, ())
    assert cramer_kit([(-3,), (2,)], 1) == ((0,), 3, ((-1,),))
    assert cramer_kit([(1, 1), (2, 2), (0, 1)], 2) == ((0, 2), 1, ((1, 0), (-1, 1)))
    assert residue_kit((), 5) == (5, 1, ()) and residue_kit((0, 0), 4) == (4, 1, (0, 0))
    assert hermite_basis([], 2) == () and hermite_basis([(0, 0)], 2) == ()
    assert hermite_basis([(2, 4), (0, 6), (1, 1)], 2) == ((1, 1), (0, 2))
    assert hermite_basis([(0, -3, 6), (0, 2, -4)], 3) == ((0, 1, -2),)
    assert residue_kit((3,), 1) == (1, 1, (0,)) and residue_kit((-2, 3), 6) == (1, 6, (4, 1))


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_matches_fraction_elimination(system):
    mat, rhs = system
    g, gx = solve(mat, rhs)
    ref = fraction_solve(mat, rhs)
    if ref is None:
        assert (g, gx) == (0, None)
    else:
        assert g == leibniz_det(mat)
        assert [Fraction(x, g) for x in gx] == ref


@settings(max_examples=200, deadline=None)
@given(rectangles())
def test_nullspace_matches_fraction_elimination(mat):
    width = len(mat[0]) if mat else 4
    basis = nullspace(mat, width)
    assert basis == fraction_nullspace(mat, width)
    for v in basis:
        assert math.gcd(*v) == 1 and next(filter(None, v)) > 0
        assert all(sum(map(int.__mul__, row, v)) == 0 for row in mat)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda rank: st.tuples(
    st.integers(0, 6).flatmap(lambda d: matrices(d, rank)), st.just(rank))))
def test_hyperplanes_match_fraction_nullspaces(case):
    vectors, rank = case  # repeated, parallel and dependent vectors included
    vectors = [tuple(v) for v in vectors]
    ref = set()
    for subset in itertools.combinations(vectors, rank - 1):
        basis = fraction_nullspace(subset, rank)
        if len(basis) == 1:
            ref.add(basis[0])
    assert hyperplanes(vectors + vectors[:1], rank) == sorted(ref)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda rank: st.tuples(
    st.integers(0, 6).flatmap(lambda d: matrices(d, rank)), st.just(rank))))
def test_cramer_kit_solves_a_greedy_basis(case):
    vectors, rank = case  # d vectors of length rank, d > rank and dependent ones included
    basis, det, left = cramer_kit(vectors, rank)
    # the pivot columns of W, vectors as columns, are the greedy independent set
    _, pivots = fraction_rref([[v[t] for v in vectors] for t in range(rank)], len(vectors))
    assert basis == tuple(pivots)
    assert det > 0
    assert len(left) == len(basis) and all(len(row) == rank for row in left)
    for i, row in enumerate(left):
        assert [sum(map(int.__mul__, row, vectors[b])) for b in basis] == \
            [det * (i == j) for j in range(len(basis))]


@settings(max_examples=100, deadline=None)
@given(st.lists(ENTRIES, min_size=1, max_size=6).filter(any), st.integers(1, BIG))
def test_primitive_divides_out_the_content(v, k):
    p = primitive([k * x for x in v])
    assert math.gcd(*p) == 1
    assert [x * math.gcd(*v) for x in p] == v


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.lists(ENTRIES | st.just(0), max_size=4), st.booleans(), st.data())
def test_residue_kit_predicts_the_solving_class(det, step, solvable, data):
    g, period, u = residue_kit(step, det)
    assert g == math.gcd(det, *step) and period == det // g and len(u) == len(step)
    assert (sum(map(int.__mul__, u, step)) - g) % det == 0
    if solvable:  # some a0 solves every entry
        a0 = data.draw(st.integers(-BIG, BIG))
        y = [a0 * s + det * data.draw(ENTRIES) for s in step]
    else:
        y = [data.draw(ENTRIES) for _ in step]
    solves = lambda a: all((a * s - x) % det == 0 for s, x in zip(step, y))
    # the predicted class, or no class when its first member fails
    first = sum(map(int.__mul__, u, y)) // g % period
    predicted = [a for a in range(2 * det) if (a - first) % period == 0] if solves(first) else []
    assert [a for a in range(2 * det) if solves(a)] == predicted
    if solvable:
        assert predicted


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda rank: st.tuples(
    st.integers(0, 6).flatmap(lambda d: matrices(d, rank)), st.just(rank))))
def test_hermite_basis_is_an_echelon_basis_of_the_same_group(case):
    vectors, rank = case  # repeated, dependent and zero vectors included
    basis = hermite_basis(vectors, rank)
    pivots = [next(t for t, x in enumerate(b) if x) for b in basis]
    assert all(p < q for p, q in zip(pivots, pivots[1:]))
    for k, (b, p) in enumerate(zip(basis, pivots)):
        assert len(b) == rank and b[p] > 0
        assert all(0 <= a[p] < b[p] for a in basis[:k])  # reduced above each pivot
    for v in vectors:  # an integer combination of the basis, solved pivot by pivot
        rest = list(v)
        for b, p in zip(basis, pivots):
            q, r = divmod(rest[p], b[p])
            assert r == 0, (v, basis)
            rest = [x - q * y for x, y in zip(rest, b)]
        assert not any(rest), (v, basis)
    for b in basis:  # and the basis lies in the group of the vectors
        for row, mod in lattice_tests(vectors, rank):
            pairing = sum(map(int.__mul__, row, b))
            assert not (pairing % mod if mod else pairing), (b, vectors)
