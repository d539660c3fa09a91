"""Dense complex linear-algebra substrate.

Thin, contract-checked wrappers around LAPACK for the operations the
perturbation pipeline needs: eigenvalues (never eigenvectors; numpy's
``geev``, of one matrix or of each matrix of a stack in one call), complex
Schur forms, ordered or not (``zgees``' workspace queried once per order and
cached), singular values (numpy's
``gesdd``: scipy's ``svdvals``, like its ``solve``, wakes a BLAS worker
thread even at 4x4) and the principal p-th root of a triangular matrix
(Smith's recurrence, no LAPACK call).
Two Sylvester solvers sit on them: ``solve_sylvester`` for
a X - X b + c = 0 is Bartels-Stewart, Schur forms of both sides and one
LAPACK ``ztrsyl`` back-substitution; ``schur_sylvester`` for the
generalized a X - e X theta = f (Newton steps, coupling series; e=None is
I) makes one LAPACK ``zgesv`` per column in the Schur form of theta.  A
triangular matrix is its own Schur form: no LAPACK call, no product with its
identity Schur vectors.  All matrices are ``numpy.ndarray`` with dtype
complex128; empty dimensions are allowed wherever they make sense (void
Jordan blocks produce 0-width slices).

This is the only module of the package that imports scipy, and it loads
only scipy's compiled LAPACK wrappers (``_lapack``), at the first call that
needs a routine numpy lacks (``zgees``, ``ztrsen``, ``ztrsyl``, ``zgesv``).
Importing scipy.linalg after numpy costs 0.15-0.25 s and +28 MB of peak RSS
per process, against 13 ms and +3.7 MB for ``import scipy`` and the one
module (scipy 1.17, numpy 2.4, 2-vCPU x86 VM): its array-API layer clones
numpy through ``array_api_compat``, which loads numpy.f2py, numpy.testing,
numpy.ma and numpy.random.  So ``import
jordanperturb`` and ``generate`` load no scipy, ``analyze`` loads the module
only for a general problem (the Sylvester solve of ``reduce``), and
``verify`` and ``expand`` load it at their first Schur form.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import NoConvergence, SpectraOverlap

EPS = float(np.finfo(np.float64).eps)

__all__ = [
    "EPS",
    "as_matrix",
    "eig",
    "schur",
    "ordered_schur",
    "schur_sylvester",
    "solve_sylvester",
    "smallest_singular_value",
    "triangular_root",
    "frob",
    "eye",
    "zeros",
]


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, loaded by
    the first call that needs them without running ``scipy/linalg/__init__.py``.

    ``import scipy`` runs its distributor set-up; the extension is then loaded
    from ``scipy/linalg/`` and registered in ``sys.modules``, where a later
    ``import scipy.linalg`` finds it.  If ``scipy.linalg`` came first, its
    module is reused; if the file is not there, the package imports it: the
    same module either way.
    """
    import scipy

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        from scipy.linalg import _flapack

        return _flapack
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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
    return float(np.linalg.norm(m))


def eig(m) -> np.ndarray:
    """Eigenvalues of a square complex matrix, or of each matrix of a stack;
    no eigenvectors are computed.

    Parameters
    ----------
    m : (n, n) or (k, n, n) array_like

    Returns
    -------
    w : (n,) or (k, n) complex ndarray
        A stack takes one numpy call, which runs LAPACK ``zgeev`` on each
        matrix in turn: row i is ``eig(m[i])``, bit for bit.

    Raises
    ------
    NoConvergence
        If the underlying QR iteration fails to converge.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 3:
        m = as_matrix(m, "m")
    elif not np.isfinite(m).all():
        raise ValueError("m contains NaN or Inf entries")
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"eig needs square matrices, got {m.shape}")
    if m.size == 0:
        return np.zeros(m.shape[:-1], dtype=np.complex128)
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NoConvergence(f"eigenvalue computation did not converge: {exc}") from exc
    return w.astype(np.complex128)


def schur(m) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (t, q) of a square matrix, ``m = q t q^H``.

    An upper-triangular ``m`` is its own Schur form: it comes back as t, with
    q = I, and no LAPACK call is made.
    """
    m = as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"schur needs a square matrix, got {m.shape}")
    t, q = _schur(m)
    return t, eye(len(m)) if q is None else q


_STRICT_LOWER = {}  # n -> flat indices of the strict lower triangle of an n x n matrix
_ZGEES_LWORK = {}  # n -> zgees' workspace for an n x n matrix, from its query, which reads only n


def _triangular(m) -> bool:  # a checked square matrix is upper triangular
    if len(m) not in _STRICT_LOWER:
        _STRICT_LOWER[len(m)] = np.flatnonzero(np.tri(len(m), k=-1, dtype=bool))
    return not m.ravel()[_STRICT_LOWER[len(m)]].any()


def _no_sort(w):  # zgees' select callback, never called with sort_t=0
    return None


def _schur(m):  # schur of a checked square matrix, q = None when it is triangular
    if _triangular(m):
        return m, None
    zgees = _lapack().zgees  # called as scipy.linalg.schur calls it: workspace query, then no sort
    if len(m) not in _ZGEES_LWORK:
        _ZGEES_LWORK[len(m)] = int(zgees(_no_sort, m, lwork=-1)[-2][0].real)
    t, _, _, q, _, info = zgees(_no_sort, m, lwork=_ZGEES_LWORK[len(m)], overwrite_a=False, sort_t=0)
    if info > 0:
        raise NoConvergence(f"Schur form did not converge (zgees info {info})")
    return t, q


def ordered_schur(m, select, q=None):
    """Complex Schur form with selected eigenvalues moved to the leading block.

    Parameters
    ----------
    m : (n, n) array_like
    select : callable
        Receives the (n,) diagonal of an unordered Schur form and returns an
        (n,) boolean mask; the masked eigenvalues are reordered to the
        top-left of T (LAPACK ``ztrsen``).
    q : (n, n) unitary array_like, optional
        Reorder the Schur form of ``q m q^H`` instead of that of ``m``.  A
        Schur form (t, q) already at hand is only reordered, with no new one
        computed, by ``ordered_schur(t, select, q)``.

    Returns
    -------
    q : (n, n) unitary ndarray
    t : (n, n) upper-triangular ndarray
    r : int
        Number of selected eigenvalues; ``m @ q == q @ t`` and the leading
        ``r`` columns of ``q`` span the selected invariant subspace (with
        ``q m q^H`` in place of ``m`` when ``q`` is given).
    """
    t, q_m = schur(m)
    q = q_m if q is None else as_matrix(q, "q") @ q_m
    if t.shape[0] == 0:
        return q, t, 0
    mask = np.asarray(select(np.diag(t)), dtype=np.int32)  # ztrsen rejects a mask not of length n
    t, q, _, r, *_ = _lapack().ztrsen(mask, t, q, job="N")  # complex swaps cannot fail
    return q, t, int(r)


def schur_sylvester(a, e, t, q, f) -> np.ndarray:
    """X with ``a X - e X theta = f``, given theta = q t q^H in complex Schur form:
    column k of Y = X q solves (a - t_kk e) y_k = (f q)_k + e Y[:, :k] t[:k, k], one
    LAPACK ``zgesv`` (Bartels-Stewart with one triangular factor; Golub, Nash & Van
    Loan 1979).  e=None is I.  a, e may be singular if no a - t_kk e is; no overlap check."""
    fq = f @ q
    y = np.empty_like(fq)
    zgesv = _lapack().zgesv
    for k in range(t.shape[0] if len(a) else 0):
        if e is None:
            m, rhs = a.astype(np.complex128), fq[:, k] + y[:, :k] @ t[:k, k]
            m.flat[:: len(a) + 1] -= t[k, k]
        else:
            m, rhs = a - t[k, k] * e, fq[:, k] + e @ (y[:, :k] @ t[:k, k])
        _, _, y[:, k], info = zgesv(m, rhs, overwrite_a=True, overwrite_b=True)
        if info > 0:
            raise np.linalg.LinAlgError("Singular matrix")
    return y @ q.conj().T


def solve_sylvester(a, b, c) -> np.ndarray:
    """Solve ``a X - X b + c = 0`` by Bartels-Stewart (CACM 15, 1972).

    With a = qa ta qa^H and b = qb tb qb^H in :func:`schur` form (a triangular
    side costs nothing), Y = qa^H X qb solves ta Y - Y tb = -qa^H c qb, one
    back-substitution (LAPACK ``ztrsyl``).  Requires the spectra of ``a`` and
    ``b``, read off the two Schur diagonals, to be separated: the minimum
    eigenvalue distance must exceed ``1e-12 * max(1, ||a||, ||b||)``, else
    :class:`SpectraOverlap` is raised.  Empty dimensions short-circuit to an
    empty solution.
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
    (ta, qa), (tb, qb) = _schur(a), _schur(b)
    sep = np.abs(np.diag(ta)[:, None] - np.diag(tb)[None, :]).min()
    scale = max(1.0, frob(a), frob(b))
    if sep < 1e-12 * scale:
        raise SpectraOverlap(
            f"spectra of a and b are separated by only {sep:.3e} (scale {scale:.3e})"
        )
    c = -c if qa is None else -(qa.conj().T @ c)
    y, s, info = _lapack().ztrsyl(ta, tb, c if qb is None else c @ qb, isgn=-1)
    if info == 1:  # ztrsyl perturbed a near-common eigenvalue
        raise SpectraOverlap("ztrsyl found the spectra of a and b too close to separate")
    y = y / s if qa is None else qa @ (y / s)
    return y if qb is None else y @ qb.conj().T


def triangular_root(t, p: int) -> np.ndarray:
    """Principal p-th root R of a nonsingular upper-triangular t, itself upper
    triangular, by Smith's recurrence (SIAM J. Matrix Anal. Appl. 24, 2003).

    r_ii is the principal root t_ii^(1/p).  With a = r_ii, b = r_jj and the
    powers R^q known nearer the diagonal, (R^q)_ij = a^(q-1) r_ij + b (R^(q-1))_ij
    + s_q is affine in r_ij, s_q the sum of (R^(q-1))_il r_lj over i < l < j; the
    (i, j) entry of R^p = t then fixes r_ij.  Its coefficient sums a^(p-1-k) b^k,
    which does not vanish for principal roots of nonzero t_ii, t_jj.  No LAPACK
    call is made.
    """
    t = as_matrix(t, "t")
    n = t.shape[0]
    if t.shape != (n, n) or not _triangular(t):
        raise ValueError(f"triangular_root needs a square upper-triangular matrix, got {t.shape}")
    d = np.array([complex(x) ** (1.0 / p) for x in t.diagonal()], dtype=np.complex128)
    if not d.all():
        raise ValueError("triangular_root needs a nonsingular matrix")
    pw = np.zeros((p + 1, n, n), dtype=np.complex128)  # pw[q] = R^q
    diag = pw.reshape(p + 1, -1)[:, :: n + 1]
    diag[0] = 1.0
    for q in range(1, p + 1):
        diag[q] = diag[q - 1] * d
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            s = pw[:p, i, i + 1 : j] @ pw[1, i + 1 : j, j]  # s[q - 1] = s_q
            c, e = np.zeros(p + 1, dtype=np.complex128), np.zeros(p + 1, dtype=np.complex128)
            for q in range(1, p + 1):  # (R^q)_ij = c[q] r_ij + e[q]
                c[q] = pw[q - 1, i, i] + d[j] * c[q - 1]
                e[q] = d[j] * e[q - 1] + s[q - 1]
            pw[1:, i, j] = c[1:] * ((t[i, j] - e[p]) / c[p]) + e[1:]
    return pw[1]


def smallest_singular_value(m) -> float:
    """sigma_min(m); the matrix must be nonempty."""
    m = as_matrix(m, "m")
    if m.size == 0:
        raise ValueError("smallest_singular_value needs a nonempty matrix")
    return float(np.linalg.svd(m, compute_uv=False)[-1])
