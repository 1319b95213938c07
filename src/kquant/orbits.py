"""Coadjoint orbit cycles and the orbit-sum realization of characters.

The orbit of a dominant weight, polarized at a generic vector, carries
the fixed point data of its standard holomorphic line bundle: one point
per Weyl chamber image, fiber t^{w.gamma}, tangent weights {w.alpha}
over the positive roots.  Its exact index is the irreducible character
of gamma, which is the invariant everything here is tested against.

p_map realizes a window-truncated formal character as a disjoint union
of orbit cycles, one signed copy per unit of multiplicity; composing
with polarized_index gives the identity on the window.
"""

from __future__ import annotations

from ._record import Record
from .characters import FormalCharacter, WeightPolynomial
from .errors import SingularOrbitUnsupported
from .localization import ClosedComponent, DiscreteKCycle, FixedPointDatum, _sign
from .root_data import RootDatum, is_regular_dominant, signed_orbit_with_images


class OrbitCycle(Record):
    """A coadjoint orbit cycle with its defining weight; checks the component against datum."""

    _fields = ("datum", "gamma", "component")

    def __init__(self, datum: RootDatum, gamma: tuple, component: ClosedComponent):
        DiscreteKCycle(datum, ((1, component),))
        self.datum = datum
        self.gamma = gamma
        self.component = component

    def cycle(self, sign: int = 1) -> DiscreteKCycle:
        """The orbit as a one-component cycle; only the sign is checked here."""
        return DiscreteKCycle._of(self.datum, ((_sign(sign), self.component),), None, None)


def orbit_cycle(datum: RootDatum, gamma) -> OrbitCycle:
    """Fixed point data of the orbit of gamma with its line bundle.

    One point per image w.gamma of the signed orbit, with fiber t^{w.gamma}
    and the images of the positive roots as tangent weights.  gamma must
    be strictly dominant (regular); singular orbits have
    positive-dimensional fixed sets and raise SingularOrbitUnsupported.
    A torus has no positive roots, so its orbit is the single point
    t^gamma with no tangent directions.
    """
    gamma = datum.check_dominant(gamma)
    if not is_regular_dominant(datum, gamma):
        raise SingularOrbitUnsupported(
            f"{gamma} lies on a chamber wall; only free orbits are supported")
    pts = tuple(FixedPointDatum._of(roots, WeightPolynomial._of({image: 1}), 1)
                for image, _, roots in signed_orbit_with_images(datum, gamma,
                                                                datum.positive_roots))
    return OrbitCycle._of(datum, gamma, ClosedComponent._of(f"orbit{gamma}", pts))


def p_map(gamma_char: FormalCharacter) -> DiscreteKCycle:
    """Disjoint union of orbit cycles realizing a formal character.

    Each dominant weight with multiplicity n contributes |n| copies of
    its orbit cycle with sign n/|n|.  The polarized index of the result
    reproduces the input on its window.
    """
    datum = gamma_char.datum
    comps = []
    for gamma, n in gamma_char.sorted_items():
        oc = orbit_cycle(datum, gamma)
        sign = 1 if n > 0 else -1
        comps.extend((sign, oc.component) for _ in range(abs(n)))
    return DiscreteKCycle._of(datum, tuple(comps), None, None)
