"""Exception types raised by the engine.

Every failure mode that a caller can trigger with well-formed but
unsuitable data gets its own class, so the command line tool can map
exception names to machine-readable error codes one to one.
"""


class EngineError(Exception):
    """Base class for all engine-level failures."""


class UnsupportedKind(EngineError):
    """Root datum series other than a torus or type A was requested."""


class NotDominant(EngineError):
    """A weight required to be dominant is not."""


class NotInvariant(EngineError):
    """A weight polynomial is not Weyl invariant, so it is not a character."""


class WindowExhausted(EngineError):
    """A truncation window is empty or too small for the requested operation."""


class NonIsolatedFixedPoint(EngineError):
    """A fixed point carries a zero tangent weight."""


class NotClosed(EngineError):
    """Fixed point data admits no polynomial index, so no closed orbifold."""


class OrbifoldAveragingUnsupported(EngineError):
    """Orbifold order > 1 with local data not expressible in the lattice."""


class DegeneratePolarization(EngineError):
    """The polarization vector pairs to zero with some tangent weight."""


class EnumerationUnbounded(EngineError):
    """An infinite component family lacks a usable enumeration bound."""


class DatumMismatch(EngineError, ValueError):
    """Two values built over different root data were combined (a ValueError too)."""


class EmptyBlock(EngineError):
    """A glue/split partition has an empty block."""


class UnsupportedSplit(EngineError):
    """glue_split applied to a component shape outside its scope."""


class FiberIndexNotUnit(EngineError):
    """Bundle modification fiber whose index is not the unit character."""


class OddFiber(EngineError):
    """Bundle modification fiber with ill-defined (odd) dimension parity."""


class SecondFactorInfinite(EngineError):
    """product_cycle called with an infinite second factor."""


class SingularOrbitUnsupported(EngineError):
    """Coadjoint orbit of a singular (not strictly dominant) weight."""


class NotProper(EngineError):
    """Linear model moment map is not proper (no separating half-space)."""


class NotOnVanishingSet(EngineError):
    """A compatibility table misses one of the vanishing components."""


class CertificateFailed(EngineError):
    """An internal certificate check failed, so no result is reported."""
