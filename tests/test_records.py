"""The engine's record classes behave as values: construction, equality, hash, repr."""

from fractions import Fraction

import pytest

import kquant as kq
from helpers import T1, T2

A2 = kq.build_root_datum("A", 2)
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
