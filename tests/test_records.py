"""The engine's record classes behave as values: construction, equality, hash, repr, _of."""

import random
from fractions import Fraction

import pytest

import kquant as kq
from helpers import (A1, A2, T1, T2, lazy_disk_family, random_closed_cycle_t1,
                     random_closed_cycle_t2, random_formal_character, random_proper_model,
                     random_virtual_character)

WP = kq.WeightPolynomial


def _family(i):
    return 1, kq.f_sphere(i)


_FC = kq.FormalCharacter(A2, 3, {(1, 1): -1})
_MODEL = kq.LinearModel(T2, ((1, 0), (0, 1)), (0, 0))

# class, every __init__ argument by keyword in parameter order, one field
# with another value, and the defaults of the optional arguments
RECORDS = [
    (kq.RootDatum, dict(kind="torus", rank=1, simple_roots=(), positive_roots=(), rho=(0,)),
     ("rank", 2), {}),
    (kq.Character, dict(datum=A2, mults={(1, 0): 2}), ("mults", {(0, 1): 1}), {"mults": {}}),
    (kq.FormalCharacter, dict(datum=A2, window=3, coeffs={(1, 1): -1}), ("window", 4),
     {"coeffs": {}}),
    (kq.FixedPointDatum, dict(tangent_weights=((1,),), fiber_character=WP.monomial((2,)),
                              orbifold_order=2), ("fiber_character", WP.monomial((3,))),
     {"orbifold_order": 1}),
    (kq.ClosedComponent, dict(label="s", fixed_points=kq.f_sphere(1).fixed_points),
     ("label", "t"), {}),
    (kq.DiscreteKCycle, dict(datum=T1, components=((1, kq.f_sphere(0)),), family=_family,
                             enumeration_bound=2),
     ("components", ((-1, kq.f_sphere(0)),)),
     {"components": (), "family": None, "enumeration_bound": None}),
    (kq.LinearModel, dict(datum=T2, weights=((1, 0), (0, 1)), shift=(0, 0)), ("shift", (1, 0)),
     {}),
    (kq.VanishingComponent, dict(support=(0,), strata=((0,),), stabilizer_basis=(),
                                 mu_value=(Fraction(1, 2),), compact=True,
                                 mu_diameter=Fraction(0)), ("compact", False), {}),
    (kq.QRReport, dict(model=_MODEL, window=2, series={(0, 0): 1}, counts={(0, 0): 1},
                       verdict=True), ("counts", {}), {}),
    (kq.RewriteCertificate, dict(before=_FC, after=_FC, window=3, verdict=True),
     ("window", 2), {}),
    (kq.OrbitCycle, dict(datum=T1, gamma=(0,), component=kq.f_sphere(0)), ("gamma", (1,)), {}),
]
FROZEN = {kq.RootDatum, kq.FixedPointDatum, kq.ClosedComponent, kq.LinearModel,
          kq.VanishingComponent}


@pytest.mark.parametrize("cls, kwargs, change, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_behave_as_values(cls, kwargs, change, defaults):
    code = cls.__init__.__code__
    assert code.co_varnames[1:code.co_argcount] == tuple(kwargs)
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert all(getattr(a, name) == value for name, value in kwargs.items())
    assert a == b and not a != b
    assert cls._of(*(getattr(a, f) for f in cls._fields)) == a
    assert a != object()
    name, value = change
    c = cls(**{**kwargs, name: value})
    assert getattr(c, name) == value
    assert c != a and not c == a

    required = {k: v for k, v in kwargs.items() if k not in defaults}
    d, e = cls(**required), cls(**required)
    for k, v in defaults.items():
        assert getattr(d, k) == v
        if isinstance(v, dict):  # a fresh {} each time
            assert getattr(d, k) is not getattr(e, k)

    assert repr(a).startswith(f"{cls.__name__}(")
    if cls in FROZEN:
        try:  # a frozen record hashes on its fields, so where those hash
            hash(tuple(kwargs.values()))
        except TypeError:  # a WeightPolynomial is mutable, so a point's fields do not
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == kwargs[name]
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, name, value)
        assert a == c


def test_values_built_with_of_equal_their_checked_rebuild():
    # the moves, orbit_cycle, p_map, model_cycle, decompose, polarized_index
    # and the sums, negations and cuts of characters build their values with
    # _of from checked data; rebuilding each through the checked constructors
    # (from_dict reads every field back) gives an equal value, so _of was
    # handed fields already in checked form
    rng = random.Random(27)
    cycles, chars = [], []
    for _ in range(6):
        a, b = random_closed_cycle_t1(rng), random_closed_cycle_t1(rng)
        c, d = random_closed_cycle_t2(rng), random_closed_cycle_t2(rng)
        cycles += [kq.disjoint_union(a, b), kq.product_cycle(a, b), kq.product_cycle(c, d),
                   a.negate(), kq.bundle_modification(a, kq.o_sphere(0), 2)[0],
                   kq.disk_decomposition(rng.choice((1, -1)), rng.randint(0, 4))]
    fam, _ = kq.bundle_modification(lazy_disk_family(bound=5), kq.o_sphere(0), 2)
    cycles.append(fam.materialized())
    for datum in (T1, A1, A2):
        fc = random_formal_character(rng, datum, 2, regular_only=True)
        cycles.append(kq.p_map(fc))
        cycles += [kq.orbit_cycle(datum, gamma).cycle(-1) for gamma in fc.coeffs]
    models = [kq.model_cycle(random_proper_model(rng)) for _ in range(4)]  # not closed
    formals = [kq.polarized_index(k, None, 2) for k in cycles[::4] + models]
    for datum in (T2, A2):
        x, y = (kq.decompose(datum, random_virtual_character(rng, datum, 2)) for _ in "xy")
        chars += [x, y, x + y, -x, x + -y, x + -x]
        fx, fy = kq.FormalCharacter.from_character(x, 3), kq.FormalCharacter.from_character(y, 2)
        formals += [fx, fy, fx + fy, -fx, fx - fy, fx.restrict(1)]
    for f in formals:
        assert kq.FormalCharacter.from_dict(f.datum, f.to_dict()) == f
    assert sum(len(f.coeffs) for f in formals) > 20
    polys = []
    for k in cycles + models:
        assert kq.DiscreteKCycle.from_dict(k.to_dict()) == k
        polys += [p.fiber_character for _, comp in k.components for p in comp.fixed_points]
    polys += [kq.closed_sum(k) for k in cycles]
    for x in chars:
        assert kq.Character(x.datum, x.mults) == x
        polys += [kq.weyl_character(x.datum, w) for w in x.mults]
    assert sum(map(len, polys)) > 200 and sum(len(x.mults) for x in chars) > 20
    for p in polys:
        assert WP(p.terms) == p
