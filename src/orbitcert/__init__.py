"""orbitcert: exact-arithmetic certificates for exceptional flag domains.

Explicit models of the three families of flag-domain geometries whose
automorphism algebra is larger than the acting group's — definite lines
under the symplectic real forms, the seven-dimensional quadric under the
split octonion derivations, and isotropic n-planes under the odd
orthogonal groups — together with constructive group-element witnesses
for the transitivity claims and Lie-algebra-level certificates for the
open-orbit and isotropy-dimension claims.  All arithmetic is exact, over
iterated real quadratic extensions of the Gaussian rationals.
"""

from ._version import __version__
from .scalars import Scalar, Tower, TowerError
from .linalg import (Matrix, Subspace, column_echelon, column_space_equal,
                     congruence_diagonalize, hermitian_signature, kernel,
                     rank)
from .forms import FormSpec, StandardModel
from .groups import (DetOne, FixesVector, GroupSpec, LieAlgebraBasis,
                     PreservesForm, RealEntries, check_onishchik_triple,
                     isotropy_subalgebra, nilpotent_orthogonal,
                     solve_linear_constraints)
from .octonions import PreservesCrossProduct, derivations
from .witnesses import (NotInDomainError, Witness, WitnessVerificationError,
                        build_group, isotropic_normal_form_complex,
                        isotropic_normal_form_real, reflect,
                        transport_positive_line_sp, witness_from_json,
                        witt_transport)
from .orbits import (OrbitReport, classify_point, quadric_algebras,
                     tangent_dim_grassmann, tangent_dim_projective,
                     verify_orbit_equality)
from .campaigns import CampaignConfig, run_campaign
from .rng import SplitMix64

__all__ = [
    "__version__",
    "Scalar", "Tower", "TowerError",
    "Matrix", "Subspace", "column_echelon", "column_space_equal",
    "congruence_diagonalize", "hermitian_signature", "kernel", "rank",
    "FormSpec", "StandardModel",
    "DetOne", "FixesVector", "GroupSpec", "LieAlgebraBasis",
    "PreservesForm", "RealEntries",
    "check_onishchik_triple", "isotropy_subalgebra",
    "nilpotent_orthogonal", "solve_linear_constraints",
    "PreservesCrossProduct", "derivations",
    "NotInDomainError", "Witness", "WitnessVerificationError", "build_group",
    "isotropic_normal_form_complex", "isotropic_normal_form_real",
    "reflect", "transport_positive_line_sp",
    "witness_from_json",
    "witt_transport",
    "OrbitReport", "classify_point", "quadric_algebras",
    "tangent_dim_grassmann", "tangent_dim_projective",
    "verify_orbit_equality",
    "CampaignConfig", "run_campaign",
    "SplitMix64",
]
