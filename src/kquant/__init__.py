"""Exact equivariant indices of discrete K-cycles.

Fixed-point localization over integer Laurent polynomials, certified
index-preserving rewrites, coadjoint orbit models, and two-route
quantization/reduction checks for proper linear torus actions.  All
engine arithmetic is exact (int and Fraction); no floating point.
"""

from .characters import (Character, FormalCharacter, WeightPolynomial,
                         char_product, decompose, exact_divide,
                         formal_multiply, weyl_character)
from .errors import (CertificateFailed, DatumMismatch,
                     DegeneratePolarization, EmptyBlock, EngineError,
                     EnumerationUnbounded, FiberIndexNotUnit,
                     NonIsolatedFixedPoint, NotClosed, NotDominant,
                     NotInvariant, NotOnVanishingSet, NotProper, OddFiber,
                     OrbifoldAveragingUnsupported, SecondFactorInfinite,
                     SingularOrbitUnsupported, UnsupportedKind,
                     UnsupportedSplit, WindowExhausted)
from .linear_models import (LinearModel, QRReport, ReductionCount,
                            VanishingComponent, check_compatibility,
                            check_proper, farkas_vector, formal_quantization,
                            linear_model, model_cycle, reduction_multiplicity,
                            vanishing_decomposition, verify_qr)
from .localization import (ClosedComponent, DiscreteKCycle, FixedPointDatum,
                           auto_polarization, character_window, closed_index,
                           closed_sum, normalize_polarization, point,
                           polarized_index)
from .moves import (RewriteCertificate, bundle_modification, certify,
                    certify_disjoint_union, certify_disk_decomposition,
                    certify_glue_split, certify_product, compare_cycles,
                    disjoint_union, disk_decomposition, f_sphere, glue_split,
                    o_sphere, product_cycle)
from .orbits import OrbitCycle, orbit_cycle, p_map
from .root_data import (RootDatum, build_root_datum, dominant_window,
                        inner_product, is_dominant, is_regular_dominant,
                        weyl_dimension, weyl_orbit, weyl_order)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
