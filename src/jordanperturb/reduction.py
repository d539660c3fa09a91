"""Reduction of a general pair (A, D) to canonical coordinates.

The caller supplies the spectral transformation: an invertible [Xi Xi_c]
with ``A [Xi Xi_c] = [Xi Xi_c] diag(lambda0 I + N, A22)`` and lambda0 not an
eigenvalue of A22.  Computing such a transformation from a raw matrix is an
ill-posed problem and out of scope here; validating one and splitting D
through it is not.  The cross-block coupling P(t) = t P1 + O(t^2), with
``A22 P1 - P1 A11 + D21 = 0``, adds Xi_c P(t) h(t) to the exact basis
Xi h(t) and t^2 D12 P1 to the matrix restricted to it.  The expansions
work on the canonical pair (lambda0 I + N, D11) alone and return H0 and H1
in canonical coordinates; the caller maps them to the original ones as
Xi H0 and Xi H1.  For rho >= 2 both coupling terms lie beyond H1 and
Delta11, but at rho = 1 they are first order: Xi H1 lacks Xi_c P1 H0 and
Delta11 the share of D12 P1, and the subspace relation in original
coordinates holds through t only (residual slope 1, where 2 is claimed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core_linalg as cl
from .errors import InvalidTransformation
from .structure import CanonicalPair, JordanStructure, build_nilpotent

__all__ = ["SpectralTransformation", "ReducedProblem", "reduce", "effective_d11"]

# Validation tolerances: relative similarity residual, absolute eigenvalue
# separation of lambda0 from Lambda(A22).
SIMILARITY_TOL = 1e-8
SEPARATION_TOL = 1e-6


@dataclass(frozen=True)
class SpectralTransformation:
    """User-supplied similarity exposing the lambda0 canonical block."""

    xi: np.ndarray = field(repr=False)
    xi_c: np.ndarray = field(repr=False)
    a22: np.ndarray = field(repr=False)
    structure: JordanStructure

    def __post_init__(self):
        object.__setattr__(self, "xi", cl.as_matrix(self.xi, "xi"))
        object.__setattr__(self, "xi_c", cl.as_matrix(self.xi_c, "xi_c"))
        object.__setattr__(self, "a22", cl.as_matrix(self.a22, "a22"))
        m = self.structure.dim
        n = self.xi.shape[0]
        if self.xi.shape != (n, m):
            raise InvalidTransformation(f"xi must be {n}x{m}, got {self.xi.shape}")
        if self.xi_c.shape != (n, n - m):
            raise InvalidTransformation(f"xi_c must be {n}x{n - m}, got {self.xi_c.shape}")
        if self.a22.shape != (n - m, n - m):
            raise InvalidTransformation(f"a22 must be {n - m}x{n - m}")

    @property
    def full(self) -> np.ndarray:
        return np.hstack([self.xi, self.xi_c])

    def validate(self, a: np.ndarray):
        """Check invertibility, the similarity relation, and the eigenvalue
        separation; raises :class:`InvalidTransformation` naming the failure."""
        a = cl.as_matrix(a, "a")
        t = self.full
        n = t.shape[0]
        if a.shape != (n, n):
            raise InvalidTransformation(f"a must be {n}x{n} to match the transformation")
        svals = np.linalg.svd(t, compute_uv=False)
        if svals[-1] <= 1e-12 * svals[0]:
            raise InvalidTransformation(
                f"[xi xi_c] is numerically singular (sigma_min/sigma_max = {svals[-1] / svals[0]:.3e})"
            )
        st = self.structure
        a11 = st.lambda0 * cl.eye(st.dim) + build_nilpotent(st)
        blockdiag = np.block([[a11, cl.zeros(st.dim, n - st.dim)], [cl.zeros(n - st.dim, st.dim), self.a22]])
        resid = cl.frob(a @ t - t @ blockdiag) / max(1.0, cl.frob(a))
        if resid > SIMILARITY_TOL:
            raise InvalidTransformation(
                f"similarity residual {resid:.3e} exceeds {SIMILARITY_TOL:.1e}"
            )
        if self.a22.shape[0]:
            sep = float(np.abs(cl.eig(self.a22) - st.lambda0).min())
            if sep < SEPARATION_TOL:
                raise InvalidTransformation(
                    f"lambda0 is within {sep:.3e} of Lambda(A22) (tol {SEPARATION_TOL:.1e})"
                )


@dataclass(frozen=True)
class ReducedProblem:
    """The canonical pair (structure, D11), the cross blocks D12 and D21 of D
    in transformed coordinates, and the coupling P1."""

    pair: CanonicalPair
    d12: np.ndarray = field(repr=False)
    d21: np.ndarray = field(repr=False)
    p1: np.ndarray = field(repr=False)


def reduce(a, d, trans: SpectralTransformation) -> ReducedProblem:
    """Split D through the transformation and solve for P1.

    Returns the canonical pair (structure, D11) together with D12, D21 and
    the first-order coupling P1 with ``A22 P1 - P1 A11 + D21 = 0``.
    """
    a = cl.as_matrix(a, "a")
    d = cl.as_matrix(d, "d")
    trans.validate(a)
    t = trans.full
    if d.shape != a.shape:
        raise InvalidTransformation(f"d must be {len(t)}x{len(t)} to match the transformation")
    m = trans.structure.dim
    dt = np.linalg.solve(t, d @ t)
    st = trans.structure
    a11 = st.lambda0 * cl.eye(m) + build_nilpotent(st)
    p1 = cl.solve_sylvester(trans.a22, a11, dt[m:, :m])
    return ReducedProblem(pair=CanonicalPair(st, dt[:m, :m]), d12=dt[:m, m:], d21=dt[m:, :m], p1=p1)


def effective_d11(red: ReducedProblem, t: float) -> np.ndarray:
    """D11 + t * D12 P1: the canonical block with first-order coupling folded in.

    Against D11 alone it moves the predicted eigenvalues by O(t^(1 + 1/rho)):
    below the t^(2/rho) accuracy of the expansions for rho >= 2, but at
    rho = 1 of the order of Delta11 itself (see the module docstring).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if red.d12.shape[1] == 0:
        return red.pair.d11.copy()
    return red.pair.d11 + t * (red.d12 @ red.p1)
