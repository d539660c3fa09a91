"""Change-of-variable pencil assembly and its structural reduction.

For the eigenvalue problem ``lambda I - (lambda0 I + N + t D11)`` and a
chosen splitting order ``rho``, substituting ``z = t^(1/rho)`` and
``mu = (lambda - lambda0)/z`` and applying diagonal scalings L(z), R(z)
turns the problem into a polynomial pencil

    mu U(z) - V(z) = L(z) (z mu I - (N + z^rho D11)) R(z)
                   = mu (U + z E_U) - (V + E_V(z)),        E_V(z) = O(z).

Block row/column permutations Pi_L, Pi_R followed by one block elimination
G reduce the z = 0 pencil to block triangular form whose middle block is the
companion-like matrix Theta_rho; its spectrum (the rho-th roots of the
eigenvalues of the core S_rho) drives the leading fractional splitting.

Everything here is constructed programmatically from the block index map;
the scaling exponent rules are the primitive, and the large displayed
matrices in the literature are recovered as consequences (asserted in the
test suite).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as la

from . import core_linalg as cl
from .errors import ClusterNotSeparated, MatrixRootFailure, SingularW
from .structure import GENERIC_THRESHOLD, BlockIndex, CanonicalPair, JordanStructure, block, w_matrix

__all__ = [
    "ScalingPair",
    "AssembledPencil",
    "ClusterBasis",
    "BranchTable",
    "ReducedPencil",
    "scalar_roots",
    "sort_complex",
    "assemble_pencil",
    "reduce_pencil",
    "theta_spectrum",
    "finite_pencil_eigs",
    "check_separated",
    "CLUSTER_GAP_REL",
]

# Relative gap (times the spectral radius of S_rho) below which two
# eigenvalues of S_rho are treated as one cluster.
CLUSTER_GAP_REL = 1e-6


def check_separated(a, b, what: str) -> None:
    """Raise :class:`ClusterNotSeparated` when the eigenvalue sets a and b come
    within ``CLUSTER_GAP_REL`` times the largest modulus in either; an empty
    set is separated from any other."""
    a, b = np.ravel(a), np.ravel(b)
    if a.size and b.size:
        gap = np.abs(a[:, None] - b[None, :]).min()
        if gap <= CLUSTER_GAP_REL * max(np.abs(a).max(), np.abs(b).max(), 1e-300):
            raise ClusterNotSeparated(f"{what} separated by only {gap:.3e}")


def _argsort_complex(vals: np.ndarray) -> list[int]:
    """Indices that order vals by argument in (-pi, pi], then modulus."""
    return sorted(range(vals.size), key=lambda i: (np.angle(vals[i]), abs(vals[i]), vals[i].real))


def sort_complex(values) -> np.ndarray:
    """Deterministic eigenvalue ordering: argument in (-pi, pi], then modulus."""
    vals = np.asarray(values, dtype=np.complex128).ravel()
    return vals[_argsort_complex(vals)]


def _branch_rotations(gamma: complex, rho: int) -> tuple[complex, np.ndarray]:
    """The principal rho-th root of gamma and the rotations e^(2 pi i b / rho),
    ordered so that principal * rotations[r] is root r of :func:`scalar_roots`."""
    principal = complex(gamma) ** (1.0 / rho) if gamma != 0 else 0j
    rotations = np.array([cmath.exp(2j * cmath.pi * b / rho) for b in range(rho)])
    return principal, rotations[_argsort_complex(principal * rotations)]


def scalar_roots(gamma: complex, rho: int) -> np.ndarray:
    """All rho-th roots of gamma: principal branch times the rho rotations.

    Ordered by increasing argument in (-pi, pi].  ``root_index`` arguments
    elsewhere in the package index into this ordering.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    principal, rotations = _branch_rotations(gamma, rho)
    return principal * rotations


def left_exponent(i: int, ell: int, rho: int) -> int:
    """z-exponent of the L_i scaling at sub-row ell (1-based)."""
    if i <= rho:
        return -ell
    return -max(0, ell - (i - rho))


def right_exponent(j: int, m: int, rho: int) -> int:
    """z-exponent of the R_j scaling at sub-column m (1-based)."""
    if j <= rho:
        return m - 1
    return max(0, m - (j - rho) - 1)


@dataclass(frozen=True)
class ScalingPair:
    """Per-position z-exponents of the diagonal scalings L and R."""

    rho: int
    left_exponents: np.ndarray = field(repr=False)
    right_exponents: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, structure: JordanStructure, rho: int) -> "ScalingPair":
        left = np.zeros(structure.dim, dtype=np.int64)
        right = np.zeros(structure.dim, dtype=np.int64)
        pos = 0
        for j in range(1, structure.k + 1):
            sj = structure.s(j)
            for m in range(1, j + 1):
                left[pos : pos + sj] = left_exponent(j, m, rho)
                right[pos : pos + sj] = right_exponent(j, m, rho)
                pos += sj
        return cls(rho=rho, left_exponents=left, right_exponents=right)


@dataclass(frozen=True)
class AssembledPencil:
    """The polynomial pencil mu(U + z E_U) - (V + E_V(z)) for one rho.

    ``ev_coeffs`` maps each exponent e >= 1 to the coefficient matrix of
    z^e in E_V(z).
    """

    pair: CanonicalPair
    rho: int
    u0: np.ndarray = field(repr=False)
    eu: np.ndarray = field(repr=False)
    v0: np.ndarray = field(repr=False)
    ev_coeffs: dict = field(repr=False)
    scaling: ScalingPair = field(repr=False)

    def u_of(self, z: float) -> np.ndarray:
        return self.u0 + z * self.eu

    def ev_of(self, z: float) -> np.ndarray:
        m = self.pair.structure.dim
        out = cl.zeros(m, m)
        for e, coeff in self.ev_coeffs.items():
            out += (z**e) * coeff
        return out

    def v_of(self, z: float) -> np.ndarray:
        return self.v0 + self.ev_of(z)

    def scaled_problem(self, z: float, mu: complex) -> np.ndarray:
        """L(z) (z mu I - (N + z^rho D11)) R(z), with L and R applied as row
        and column scalings."""
        raw = z * mu * cl.eye(self.pair.structure.dim) - (
            self.pair.nilpotent + (z**self.rho) * self.pair.d11
        )
        zc = np.asarray(z, dtype=np.complex128)
        return (zc**self.scaling.left_exponents)[:, None] * raw * zc**self.scaling.right_exponents

    def identity_residual(self, z: float, mu: complex) -> float:
        """|| L(z mu I - (N + z^rho D)) R - (mu U(z) - V(z)) || / scale."""
        lhs = self.scaled_problem(z, mu)
        rhs = mu * self.u_of(z) - self.v_of(z)
        return cl.frob(lhs - rhs) / max(1.0, cl.frob(lhs))


def assemble_pencil(pair: CanonicalPair, rho: int) -> AssembledPencil:
    """Build U, E_U, V and the exponent map of E_V(z) for the given rho.

    Entry (p, q) of D11 scales to the z-exponent rho + L_p + R_q, the mu
    diagonal to 1 + L_p + R_p and N to 0: exponent 0 lands in U or V, the
    rest in E_U (exponent 1, mu part) or ``ev_coeffs``.  The pencil identity
    is checked at z = 0.1 and 0.01 on every call.
    """
    st = pair.structure
    if not 1 <= rho <= st.k:
        raise ValueError(f"rho={rho} outside 1..{st.k}")
    scaling = ScalingPair.build(st, rho)
    left, right = scaling.left_exponents, scaling.right_exponents

    u0 = np.diag((1 + left + right == 0).astype(np.complex128))
    eu = cl.eye(st.dim) - u0
    d = pair.d11
    exps = rho + left[:, None] + right[None, :]
    v0 = pair.nilpotent + np.where(exps == 0, d, 0)
    # One masked copy of D11 per exponent that carries a nonzero entry.
    ev_coeffs = {int(e): np.where(exps == e, d, 0) for e in np.unique(exps[(exps != 0) & (d != 0)])}

    out = AssembledPencil(
        pair=pair, rho=rho, u0=u0, eu=eu, v0=v0, ev_coeffs=ev_coeffs, scaling=scaling,
    )
    if st.dim:
        for z in (1e-1, 1e-2):
            res = out.identity_residual(z, mu=0.37 + 0.21j)
            if res > 1e-10:
                raise AssertionError(f"pencil identity violated at z={z}: {res:.3e}")
    return out


@dataclass(frozen=True)
class ClusterBasis:
    """Schur data of one eigenvalue cluster of S_rho."""

    gamma: complex
    count: int
    q: np.ndarray = field(repr=False)     # right basis: S q = q s11
    s11: np.ndarray = field(repr=False)
    qt: np.ndarray = field(repr=False)    # left basis: qt S = s11 qt, qt q = I
    tol: float                            # absolute clustering radius on Lambda(S_rho)


@dataclass(frozen=True)
class BranchTable:
    """The biorthogonal basis of Theta_rho over every root branch.

    Branch (i, b), with omega = w_b R, R the principal rho-th root of the S11
    block of ``clusters[i]`` and w_b the rotation that takes R's eigenvalues to
    root b of :func:`scalar_roots` of gamma_i, owns the columns
    ``columns[(i, b)]``, in (cluster, branch) order, of phi_ib = [Q_i omega^j]_j
    (j = 0..rho-1) and the same rows of psi_ib = M_ib^-1 [omega^(rho-1-j) Qt_i]_j,
    with M_ib = sum_j omega^(rho-1-j) Qt_i Q_i omega^j.  ``omega`` is block
    diagonal, ``lam`` holds Lambda(omega) under the same columns,
    ``sigma[(i, b)]`` = (sigma_min(M_ib), ||M_ib||_F) and ``roots[i, b]`` =
    ``scalar_roots(gamma_i, rho)[b]``; M_ib and Qt_i enter through psi alone.
    A cluster's entries are filled in when :meth:`cols` first names its
    branches, so a cluster with no rho-th root (a singular S11) fails only the
    calls that need it, with :class:`MatrixRootFailure`.
    """

    clusters: tuple = field(repr=False)
    columns: dict = field(repr=False)
    phi: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    roots: np.ndarray = field(repr=False)
    sigma: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, clusters, rho: int, s_dim: int) -> "BranchTable":
        pairs = [(ci, b) for ci in range(len(clusters)) for b in range(rho)]
        ends = np.cumsum([0] + [clusters[ci].count for ci, _ in pairs])
        n = rho * s_dim
        roots = np.array([scalar_roots(cb.gamma, rho) for cb in clusters], dtype=complex)
        roots.flags.writeable = False
        return cls(
            clusters=tuple(clusters), roots=roots.reshape(-1, rho),
            columns={p: np.arange(a, z) for p, a, z in zip(pairs, ends, ends[1:])},
            phi=cl.zeros(n, n), psi=cl.zeros(n, n), omega=cl.zeros(n, n),
            lam=np.zeros(n, dtype=np.complex128),
        )

    def _fill(self, ci: int):
        """Cluster ci's branches from one power sequence of the principal root R
        of its S11 (exact for a 1x1 block): branch b has omega = w_b R with
        |w_b| = 1, so phi_b = [w_b^j Q R^j]_j, M_b = w_b^(rho-1) M_0 and
        psi_b = M_0^-1 [w_b^-j R^(rho-1-j) Qt]_j (the Lidskii branch structure;
        Moro, Burke & Overton, SIMAX 18, 1997)."""
        cb, rho = self.clusters[ci], self.roots.shape[1]
        s11 = cb.s11
        if cl.smallest_singular_value(s11) < 1e-14 * max(1.0, cl.frob(s11)):
            raise MatrixRootFailure("S11 is numerically singular; no invertible rho-th root")
        if cb.count == 1:
            root = np.array([[complex(s11[0, 0]) ** (1.0 / rho)]])
        else:
            root = la.fractional_matrix_power(s11, 1.0 / rho).astype(np.complex128)
        res = cl.frob(np.linalg.matrix_power(root, rho) - s11) / max(1.0, cl.frob(s11))
        if res > 1e-10:
            raise MatrixRootFailure(f"matrix root residual {res:.3e} too large")
        pw = [np.linalg.matrix_power(root, j) for j in range(rho)]
        mm = sum(pw[-1 - j] @ cb.qt @ cb.q @ pw[j] for j in range(rho))
        sigma = (cl.smallest_singular_value(mm), cl.frob(mm))
        phi = np.vstack([cb.q @ p for p in pw])
        psi = np.linalg.inv(mm) @ np.hstack([p @ cb.qt for p in pw[::-1]])
        lam_root = cl.eig(root)
        s_dim = cb.q.shape[0]
        for b, w in enumerate(_branch_rotations(cb.gamma, rho)[1]):
            c = self.columns[(ci, b)]
            wj = np.repeat(w ** np.arange(rho), s_dim)  # w_b^j on block j
            self.omega[np.ix_(c, c)] = w * root
            self.phi[:, c], self.psi[c] = wj[:, None] * phi, psi / wj
            self.lam[c] = w * lam_root
            self.sigma[(ci, b)] = sigma

    def cols(self, pairs) -> np.ndarray:
        """The columns of the branches ``pairs``, in their given order; fills in
        the clusters they name (:class:`MatrixRootFailure` if one has no root)."""
        try:
            cols = [self.columns[p] for p in pairs]
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]} is not a (cluster, branch) of Theta_rho") from None
        for p in pairs:
            if p not in self.sigma:
                self._fill(p[0])
        return np.concatenate(cols + [np.zeros(0, dtype=np.intp)])

    def split(self, chosen) -> tuple[np.ndarray, np.ndarray, list]:
        """The columns of the ``chosen`` branches, then those of every other
        branch in table order, and those other branches."""
        taken = set(chosen)
        comp = [p for p in self.columns if p not in taken]
        return self.cols(chosen), self.cols(comp), comp


def _cluster(vals: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of nearly-equal eigenvalues (union-find by distance)."""
    n = vals.size
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    reps = sorted(groups.values(), key=lambda g: (np.angle(vals[g[0]]), abs(vals[g[0]])))
    return reps


@dataclass(frozen=True)
class ReducedPencil:
    """Output of the permutation + elimination stage for one rho.

    Groups (in permuted coordinates): g1 = blocks 1..rho-1, g2 = block rho
    (rho*s_rho rows, holding Theta_rho), g3 = everything else (the stacked
    eigenvector-row group of width shat_{rho+1} first, then the remaining
    sub-rows of blocks > rho).

    Pi_L, Pi_R and G are kept as index maps: ``row_order[i]`` is the row of
    the assembled pencil that lands at row i (Pi_L M = M[row_order]) and
    ``col_order[c]`` the column that lands at column c (M Pi_R =
    M[:, col_order]).  G is the identity except for ``g_block``, the
    shat_{rho+1} x (n1 + n2) block in the eigenvector rows and the g1/g2
    columns that holds G^(rho)_j at the leading sub-column of each block
    j <= rho.  ``s_rho`` is the core S_rho, the only S_i formed; no W_i is
    kept.  What derives from the pencil alone (``clusters``, ``branches``,
    ``branch_delta``, ``branch_lift``, ``series``) is computed on first use,
    once per pencil.
    """

    assembled: AssembledPencil
    rho: int
    s_rho: np.ndarray = field(repr=False)
    row_order: np.ndarray = field(repr=False)
    col_order: np.ndarray = field(repr=False)
    g_block: np.ndarray = field(repr=False)
    n1: int
    n2: int

    @property
    def pair(self) -> CanonicalPair:
        return self.assembled.pair

    @property
    def structure(self) -> JordanStructure:
        return self.pair.structure

    @property
    def g1(self) -> slice:
        return slice(0, self.n1)

    @property
    def g2(self) -> slice:
        return slice(self.n1, self.n1 + self.n2)

    @property
    def g3(self) -> slice:
        return slice(self.n1 + self.n2, self.structure.dim)

    @property
    def eig_rows(self) -> slice:
        """The eigenvector-row group, where G - I is nonzero."""
        start = self.n1 + self.n2
        return slice(start, start + self.g_block.shape[0])

    def hat(self, m: np.ndarray) -> np.ndarray:
        """Pi_L m Pi_R G: a gather into the reduced order, then G as the update
        ``out[:, g1 g2] += out[:, eig_rows] @ g_block`` of the only columns it
        changes, a product shat_(rho+1) deep (60x4 @ 4x40 on (4,4,4,4,4) at
        rho = 4, below the size at which OpenBLAS starts a worker thread).
        It agrees with the dense Pi_L m Pi_R G to 6e-17 relative on the test
        structures; compressing Theta_1 to Delta11 amplifies that change of
        summation order to at most 6e-12 relative on the benchmark's expand
        cases (seed 102, (4,4,4,4,4), rho = 1)."""
        n12 = self.n1 + self.n2
        out = np.asarray(m, dtype=np.complex128)[np.ix_(self.row_order, self.col_order)]
        out[:, :n12] += out[:, self.eig_rows] @ self.g_block
        return out

    def lift(self, y: np.ndarray) -> np.ndarray:
        """Pi_R G y: G as one block update, then a scatter back to the original rows."""
        gy = np.array(y, dtype=np.complex128)
        gy[self.eig_rows] += self.g_block @ gy[: self.n1 + self.n2]
        out = np.empty_like(gy)
        out[self.col_order] = gy
        return out

    @cached_property
    def u_hat(self) -> np.ndarray:
        """Pi_L U Pi_R G, the mu part of the reduced pencil at z = 0."""
        return self.hat(self.assembled.u0)

    @cached_property
    def v_hat(self) -> np.ndarray:
        """Pi_L V Pi_R G = [[V11, 0, 0], [V21, Theta, V23], [0, 0, V33]] at z = 0."""
        return self.hat(self.assembled.v0)

    @property
    def theta(self) -> np.ndarray:
        """Theta_rho, the g2 x g2 block of V-hat."""
        return self.v_hat[self.g2, self.g2]

    @cached_property
    def x0(self) -> np.ndarray:
        """The constant basis X0: the z^0 part of R(z) Pi_R G [0; I; 0].

        An m x (rho s_rho) matrix holding I_{s_rho} (resp. G_{i rho}) in the
        first column block at sub-row 1 of block rho (resp. of each block
        i > rho); every constant subspace term is X0 Phi.  Read-only, as it
        is shared by every expansion built on this pencil.
        """
        mid = cl.zeros(self.structure.dim, self.n2)
        mid[self.g2] = cl.eye(self.n2)
        x0 = self.lift(mid)
        x0[self.assembled.scaling.right_exponents != 0] = 0.0
        x0.flags.writeable = False
        return x0

    @cached_property
    def clusters(self) -> tuple[ClusterBasis, ...]:
        """All eigenvalue clusters of S_rho with right/left Schur bases,
        sorted by argument then modulus; computed once per pencil from one
        Schur form of S_rho, reordered once per cluster."""
        s = self.s_rho
        if s.shape[0] == 0:
            return ()
        vals = cl.eig(s)
        scale = max(float(np.abs(vals).max()), 1e-300)
        tol = CLUSTER_GAP_REL * scale
        t_s, q_s = cl.schur(s)  # the one Schur form, reordered per cluster
        bases = []
        for g in _cluster(vals, tol):
            members = vals[g]
            rep = complex(members.mean())

            def inside(diag, members=members, tol=tol):
                return np.abs(diag[:, None] - members[None, :]).min(axis=1) <= 10 * tol

            q_full, t_full, r = cl.ordered_schur(t_s, inside, q_s)
            if r != len(g):
                raise ClusterNotSeparated(
                    f"Schur reordering selected {r} eigenvalues for a cluster of {len(g)}"
                )
            q = q_full[:, :r]
            s11 = t_full[:r, :r]
            t12 = t_full[:r, r:]
            t22 = t_full[r:, r:]
            if t22.shape[0]:
                rr = cl.solve_sylvester(s11, t22, t12)
                qt = np.hstack([cl.eye(r), -rr]) @ q_full.conj().T
            else:
                qt = q_full.conj().T
            bases.append(ClusterBasis(gamma=rep, count=r, q=q, s11=s11, qt=qt, tol=tol))
        return tuple(bases)

    @cached_property
    def branches(self) -> BranchTable:
        """The biorthogonal branch basis of Theta_rho over every (cluster,
        branch) of :attr:`clusters`, one per pencil; each cluster's entries are
        computed once, when a selection first needs them."""
        return BranchTable.build(self.clusters, self.rho, self.s_rho.shape[0])

    @cached_property
    def branch_delta(self) -> np.ndarray:
        """D = Psi Theta_1 Phi, the first-order perturbation of Theta_rho in the
        basis of :attr:`branches`: Delta11 and Delta21 of any selection are
        slices of it."""
        tab = self.branches
        tab.split(())  # every cluster's entries
        return tab.psi @ self.theta_perturbation.delta_coef @ tab.phi

    @cached_property
    def branch_lift(self) -> tuple[np.ndarray, np.ndarray]:
        """(F, E), the lifted bases H1 is read from: a selection with branch
        columns c, complement columns cc and coupling Y has H1 = F[:, c] +
        E[:, cc] Y.  With Phi = ``branches.phi`` over every branch, E holds the
        z^0 rows of Pi_R G [0; Phi; 0] (E = X0 Phi), and F its z^1 rows plus the
        z^0 rows of Pi_R G [X1_1 Phi; 0; X2_1 Phi], X_1 the first-order term
        of :meth:`series`."""
        tab, tp = self.branches, self.theta_perturbation
        tab.split(())  # every cluster's entries
        phi, n1, n2 = tab.phi, self.n1, self.n2
        f0 = self.lift(np.vstack([cl.zeros(n1, n2), phi, cl.zeros(self.structure.dim - n1 - n2, n2)]))
        f1 = self.lift(np.vstack([tp.x1_coef @ phi, cl.zeros(n2, n2), tp.x2_coef @ phi]))
        exps = self.assembled.scaling.right_exponents[:, None]
        f = np.where(exps == 1, f0, 0.0) + np.where(exps == 0, f1, 0.0)
        return f, np.where(exps == 0, f0, 0.0)

    @cached_property
    def theta_perturbation(self):
        """The first-order perturbation of Theta_rho, the k = 1 term of
        :meth:`series` (:func:`jordanperturb.first_order.theta_perturbation`),
        computed once per pencil and shared by every expansion built on it."""
        from . import first_order

        return first_order.theta_perturbation(self)

    def series(self, order: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(X, Theta), the Taylor coefficients of the exact coupling at z = 0 to
        ``order`` (:func:`jordanperturb.first_order.coupling_series`).  Each
        order is solved once per pencil; a higher order resumes from the last."""
        from . import first_order

        x, theta, jac = self.__dict__.get("_series", ((), (), None))
        if len(x) <= order:
            x, theta, jac = self.__dict__["_series"] = first_order.coupling_series(self, order, x, theta, jac)
        return x[: order + 1], theta[: order + 1]


def _permutations(structure: JordanStructure, rho: int) -> tuple[np.ndarray, np.ndarray]:
    """Row order: blocks 1..rho, then sub-row i of each block i > rho, then
    sub-rows 1..i-1 of each block i > rho.  Column order: blocks 1..rho, then
    sub-column 1 of each block j > rho, then sub-columns 2..j."""
    idx = BlockIndex(structure)
    k = structure.k

    def expand(groups):
        return np.array([i for sl in groups for i in range(sl.start, sl.stop)], dtype=np.int64)

    row_groups = [idx.rows(i, ell) for i in range(1, rho + 1) for ell in range(1, i + 1)]
    row_groups += [idx.rows(i, i) for i in range(rho + 1, k + 1)]
    row_groups += [idx.rows(i, ell) for i in range(rho + 1, k + 1) for ell in range(1, i)]
    col_groups = [idx.cols(j, m) for j in range(1, rho + 1) for m in range(1, j + 1)]
    col_groups += [idx.cols(j, 1) for j in range(rho + 1, k + 1)]
    col_groups += [idx.cols(j, m) for j in range(rho + 1, k + 1) for m in range(2, j + 1)]
    row_order = expand(row_groups)
    col_order = expand(col_groups)
    assert row_order.size == structure.dim and col_order.size == structure.dim
    return row_order, col_order


def reduce_pencil(p: AssembledPencil) -> ReducedPencil:
    """Permute and eliminate the z = 0 pencil, extracting Theta_rho and S_rho.

    G^(rho)_j = -W_{rho+1}^-1 Z_{rho+1,j} for j = 1..rho and
    S_rho = B^(rho rho)_{rho 1} + W_{rho,rho+1} G^(rho)_rho.  Requires W_{rho+1}
    to be invertible (vacuous when rho = k); raises :class:`SingularW`
    otherwise.  The eliminated pencil splits into zero eigenvalues (V11
    nilpotent), Lambda(Theta_rho), and infinite eigenvalues.
    """
    pair = p.pair
    st = pair.structure
    rho = p.rho
    k = st.k

    if rho < k:
        w_next = w_matrix(pair, rho + 1)
        sigma = cl.smallest_singular_value(w_next)
        scale = max(cl.frob(pair.d11), 1e-300)
        if sigma <= GENERIC_THRESHOLD * scale:
            raise SingularW(
                f"W_{rho + 1} has sigma_min {sigma:.3e} <= {GENERIC_THRESHOLD:.1e} * ||D11||; "
                "the generic condition fails"
            )

    row_order, col_order = _permutations(st, rho)
    n1 = sum(i * st.s(i) for i in range(1, rho))
    n2 = rho * st.s(rho)
    g_block = cl.zeros(st.shat(rho + 1), n1 + n2)
    for j in range(1, rho + 1):
        # Z_{rho+1,j} stacks the leading-column blocks of every row group below rho.
        z = [block(pair, pp, j, pp, 1) for pp in range(rho + 1, k + 1)]
        g = -np.linalg.solve(w_next, np.vstack(z)) if z else cl.zeros(0, st.s(j))
        start = pair.index.offset(j, 1)
        g_block[:, start : start + st.s(j)] = g

    # cross = W_{rho,rho+1}; g is G^(rho)_rho after the loop.
    cross = (
        np.hstack([block(pair, rho, q, rho, 1) for q in range(rho + 1, k + 1)])
        if rho < k
        else cl.zeros(st.s(rho), 0)
    )

    return ReducedPencil(
        assembled=p,
        rho=rho,
        s_rho=block(pair, rho, rho, rho, 1) + cross @ g,
        row_order=row_order,
        col_order=col_order,
        g_block=g_block,
        n1=n1,
        n2=n2,
    )


def theta_spectrum(r: ReducedPencil) -> np.ndarray:
    """Eigenvalues of Theta_rho, sorted by argument then modulus.

    As a multiset this equals all rho-th roots of the eigenvalues of S_rho.
    """
    return sort_complex(cl.eig(r.theta))


def finite_pencil_eigs(pair: CanonicalPair, rho: int) -> np.ndarray:
    """The s_rho finite eigenvalues of gamma*diag(I_{s_rho}, 0) - W_rho.

    Computed directly from the generalized eigenvalue problem (independent
    of the Theta_rho route); under the generic condition these coincide with
    the eigenvalues of S_rho.  Raises :class:`SingularW` when one of them has
    a relative weight |beta| / (|alpha| + |beta|) below ``GENERIC_THRESHOLD``.
    """
    st = pair.structure
    if not 1 <= rho <= st.k:
        raise ValueError(f"rho={rho} outside 1..{st.k}")
    s_rho = st.s(rho)
    w = w_matrix(pair, rho)
    if s_rho == 0:
        return np.zeros(0, dtype=np.complex128)
    if rho == st.k:
        return sort_complex(cl.eig(w))
    e = np.diag(
        np.concatenate([np.ones(s_rho), np.zeros(st.shat(rho + 1))]).astype(np.complex128)
    )
    alpha, beta = la.eig(w, e, right=False, homogeneous_eigvals=True)
    weight = np.abs(beta) / (np.abs(alpha) + np.abs(beta) + 1e-300)
    order = np.argsort(weight)[::-1]
    take = order[:s_rho]
    if np.any(weight[take] < GENERIC_THRESHOLD):
        raise SingularW(
            "pencil has fewer well-defined finite eigenvalues than s_rho; "
            "W_{rho+1} is numerically singular"
        )
    return sort_complex(alpha[take] / beta[take])
