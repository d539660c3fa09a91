"""Fractional-order perturbation of eigenvalues and invariant subspaces
for matrices with Jordan blocks at a single eigenvalue.

Pipeline: describe the Jordan structure (``structure``), optionally reduce
a general pair to canonical coordinates (``reduction``), assemble and
reduce the scaled pencil (``pencil``), read off zeroth- and first-order
expansions (``expansion``, ``first_order``), and check every claimed
fractional order against a dense eigensolver oracle (``verify``).
"""

from . import errors
from .structure import CanonicalPair, JordanStructure, build_nilpotent, check_generic, w_matrix
from .reduction import SpectralTransformation, effective_d11, reduce
from .pencil import (
    AssembledPencil,
    ReducedPencil,
    assemble_pencil,
    reduce_pencil,
    theta_spectrum,
)
from .expansion import (
    EigenvalueExpansion,
    SubspaceExpansion,
    SubspaceSelection,
    eigenvalue_expansions,
    select_subspace,
    subspace_expansion,
)
from .first_order import (
    ComplementPair,
    RiccatiSolution,
    ThetaPerturbation,
    complement_pair,
    first_order_expansion,
    solve_riccati,
    theta_perturbation,
)
from .verify import ConvergenceReport, SweepPlan, match_eigenvalues, slope_fit, verify_all
from .generator import CaseSpec, generate

__version__ = "0.1.0"

__all__ = [
    "errors",
    "JordanStructure",
    "CanonicalPair",
    "build_nilpotent",
    "w_matrix",
    "check_generic",
    "SpectralTransformation",
    "reduce",
    "effective_d11",
    "AssembledPencil",
    "ReducedPencil",
    "assemble_pencil",
    "reduce_pencil",
    "theta_spectrum",
    "EigenvalueExpansion",
    "SubspaceSelection",
    "SubspaceExpansion",
    "eigenvalue_expansions",
    "select_subspace",
    "subspace_expansion",
    "ComplementPair",
    "RiccatiSolution",
    "ThetaPerturbation",
    "complement_pair",
    "theta_perturbation",
    "first_order_expansion",
    "solve_riccati",
    "SweepPlan",
    "ConvergenceReport",
    "match_eigenvalues",
    "slope_fit",
    "verify_all",
    "CaseSpec",
    "generate",
]
