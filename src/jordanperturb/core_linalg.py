"""Dense complex linear-algebra substrate.

Thin, contract-checked wrappers around LAPACK (via scipy.linalg) for the
operations the perturbation pipeline needs: eigendecomposition, ordered
Schur form, Sylvester solves, and singular-value queries.  All matrices are
``numpy.ndarray`` with dtype complex128; empty dimensions are allowed
wherever they make sense (void Jordan blocks produce 0-width slices).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from .errors import NonConvergence, SpectraOverlap

EPS = float(np.finfo(np.float64).eps)

# Residual constant kappa in the eig contract: ||A v - lambda v|| <= kappa*eps*||A||
# with kappa = 100 n.  Documented here, asserted in the test suite.
EIG_RESIDUAL_KAPPA = 100.0

__all__ = [
    "EPS",
    "as_matrix",
    "eig",
    "ordered_schur",
    "solve_sylvester",
    "smallest_singular_value",
    "frob",
    "eye",
    "zeros",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1:
        m = m.reshape(-1, 1)
    elif m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return np.ascontiguousarray(m)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.complex128)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def frob(m) -> float:
    """Frobenius norm; 0.0 for empty matrices."""
    m = np.asarray(m)
    return float(np.linalg.norm(m)) if m.size else 0.0


def eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors of a square complex matrix.

    Parameters
    ----------
    m : (n, n) array_like

    Returns
    -------
    w : (n,) complex ndarray
    v : (n, n) complex ndarray
        Unit-norm right eigenvectors, one per column, so that
        ``m @ v[:, j] == w[j] * v[:, j]`` up to ``100*n*eps*||m||``.

    Raises
    ------
    NonConvergence
        If the underlying QR iteration fails to converge.
    """
    m = as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eig needs a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        return np.zeros(0, dtype=np.complex128), zeros(0, 0)
    try:
        w, v = la.eig(m)
    except la.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NonConvergence(f"eigendecomposition did not converge: {exc}") from exc
    return w.astype(np.complex128), v.astype(np.complex128)


def eigvals(m) -> np.ndarray:
    """Eigenvalues only (same contract as :func:`eig`)."""
    m = as_matrix(m, "m")
    if m.shape[0] == 0:
        return np.zeros(0, dtype=np.complex128)
    return eig(m)[0]


def ordered_schur(m, select):
    """Complex Schur form with selected eigenvalues moved to the leading block.

    Parameters
    ----------
    m : (n, n) array_like
    select : callable
        Predicate on a complex eigenvalue; selected eigenvalues are reordered
        to the top-left of T.

    Returns
    -------
    q : (n, n) unitary ndarray
    t : (n, n) upper-triangular ndarray
    r : int
        Number of selected eigenvalues; ``m @ q == q @ t`` and the leading
        ``r`` columns of ``q`` span the selected invariant subspace.
    """
    m = as_matrix(m, "m")
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"ordered_schur needs a square matrix, got {m.shape}")
    if n == 0:
        return zeros(0, 0), zeros(0, 0), 0
    t, q, r = la.schur(m, output="complex", sort=lambda lam: bool(select(lam)))
    return q.astype(np.complex128), t.astype(np.complex128), int(r)


def solve_sylvester(a, b, c) -> np.ndarray:
    """Solve ``a X - X b + c = 0`` by Bartels-Stewart.

    Requires the spectra of ``a`` and ``b`` to be separated: the minimum
    eigenvalue distance must exceed ``1e-12 * max(1, ||a||, ||b||)``,
    else :class:`SpectraOverlap` is raised.  Empty dimensions short-circuit
    to an empty solution.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    c = as_matrix(c, "c")
    na, nb = a.shape[0], b.shape[0]
    if a.shape != (na, na) or b.shape != (nb, nb):
        raise ValueError("a and b must be square")
    if c.shape != (na, nb):
        raise ValueError(f"c must be {na}x{nb}, got {c.shape}")
    if na == 0 or nb == 0:
        return zeros(na, nb)
    wa = eigvals(a)
    wb = eigvals(b)
    sep = np.abs(wa[:, None] - wb[None, :]).min()
    scale = max(1.0, frob(a), frob(b))
    if sep < 1e-12 * scale:
        raise SpectraOverlap(
            f"spectra of a and b are separated by only {sep:.3e} (scale {scale:.3e})"
        )
    # scipy solves A X + X B = Q
    return la.solve_sylvester(a, -b, -c)


def smallest_singular_value(m) -> float:
    """sigma_min(m); the matrix must be nonempty."""
    m = as_matrix(m, "m")
    if m.size == 0:
        raise ValueError("smallest_singular_value needs a nonempty matrix")
    return float(la.svdvals(m)[-1])
