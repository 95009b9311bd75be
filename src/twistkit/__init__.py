"""twistkit: exact-arithmetic construction and analysis of twisted division
algebras built from algebras with a multiplicative norm."""

from .algebra import (Algebra, associator, center, commutator, isotope,
                      nucleus, opposite)
from .analyzer import (DerivationSpace, containment_check, derivation_family,
                       derivations, derivations_fixing, inner_derivation,
                       inner_automorphism_family, is_automorphism,
                       is_derivation, is_isomorphism)
from .builders import (MapSpec, cayley_dickson, cyclic_algebra,
                       extension_as_algebra, ground_algebra, make_map,
                       number_field_algebra, standard_involution)
from .closedforms import (closed_form_inverse, involution_star, scalar_reflections_star,
                          quaternion_reflections_star)
from .fields import (ExtensionField, PrimeField, RationalField, Scalar,
                     field_make, field_norm, field_trace, frobenius)
from .forms import NormForm, verify_multiplicative, verify_similarity
from .linalg import Matrix
from .twist import (CriterionReport, CyclicSubfield, ProbeReport, ScanReport,
                    TwistResult, TwistSpec, commutative_twist,
                    division_exhaustive, division_probe_char0, iff_criterion,
                    norm_criterion, run_twist, scan_c, twist, unitalize)

__version__ = "0.1.0"
