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
    "ReducedPencil",
    "scalar_roots",
    "sort_complex",
    "assemble_pencil",
    "reduce_pencil",
    "theta_spectrum",
    "finite_pencil_eigs",
    "CLUSTER_GAP_REL",
]

# Relative gap (times the spectral radius of S_rho) below which two
# eigenvalues of S_rho are treated as one cluster.
CLUSTER_GAP_REL = 1e-6


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
    z^e in E_V(z); ``ev_orders`` records per entry the leading exponent
    (0 marks entries with no z-dependence at all).
    """

    pair: CanonicalPair
    rho: int
    u0: np.ndarray = field(repr=False)
    eu: np.ndarray = field(repr=False)
    v0: np.ndarray = field(repr=False)
    ev_coeffs: dict = field(repr=False)
    ev_orders: np.ndarray = field(repr=False)
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


def assemble_pencil(pair: CanonicalPair, rho: int, validate: bool = True) -> AssembledPencil:
    """Build U, E_U, V and the exponent map of E_V(z) for the given rho.

    The construction walks every sub-block position once and files each
    scaled entry under its z-exponent: exponent 0 lands in U or V, the rest
    in E_U (exponent 1, mu part) or ``ev_coeffs``.
    """
    st = pair.structure
    if not 1 <= rho <= st.k:
        raise ValueError(f"rho={rho} outside 1..{st.k}")
    idx = pair.index
    mdim = st.dim
    scaling = ScalingPair.build(st, rho)

    u_diag = np.zeros(mdim)
    for i in range(1, st.k + 1):
        for ell in range(1, i + 1):
            e = 1 + left_exponent(i, ell, rho) + right_exponent(i, ell, rho)
            if e == 0:
                u_diag[idx.rows(i, ell)] = 1.0
    u0 = np.diag(u_diag).astype(np.complex128)
    eu = cl.eye(mdim) - u0

    v0 = cl.zeros(mdim, mdim)
    # Nilpotent part: every superdiagonal identity block scales to exponent 0.
    for i in range(1, st.k + 1):
        si = st.s(i)
        if si == 0:
            continue
        for ell in range(1, i):
            e = left_exponent(i, ell, rho) + right_exponent(i, ell + 1, rho)
            assert e == 0
            v0[idx.rows(i, ell), idx.cols(i, ell + 1)] += np.eye(si)

    ev_coeffs: dict[int, np.ndarray] = {}
    for i in range(1, st.k + 1):
        if st.s(i) == 0:
            continue
        for j in range(1, st.k + 1):
            if st.s(j) == 0:
                continue
            for ell in range(1, i + 1):
                rows = idx.rows(i, ell)
                for m in range(1, j + 1):
                    e = rho + left_exponent(i, ell, rho) + right_exponent(j, m, rho)
                    b = block(pair, i, j, ell, m)
                    cols = idx.cols(j, m)
                    if e == 0:
                        v0[rows, cols] += b
                    else:
                        if e not in ev_coeffs:
                            ev_coeffs[e] = cl.zeros(mdim, mdim)
                        ev_coeffs[e][rows, cols] += b

    # Drop identically-zero coefficients and record per-entry leading exponents
    # (0 marks entries of E_V(z) that are identically zero).
    ev_coeffs = {e: c for e, c in ev_coeffs.items() if cl.frob(c) > 0.0}
    ev_orders = np.zeros((mdim, mdim), dtype=np.int64)
    for e in sorted(ev_coeffs, reverse=True):
        mask = ev_coeffs[e] != 0
        ev_orders[mask] = e

    out = AssembledPencil(
        pair=pair, rho=rho, u0=u0, eu=eu, v0=v0, ev_coeffs=ev_coeffs,
        ev_orders=ev_orders, scaling=scaling,
    )
    if validate and mdim:
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
    rho: int                              # root order of the cluster's branches

    @cached_property
    def root(self) -> np.ndarray:
        """Principal rho-th root of S11 (exact for a 1x1 block).

        Computed on first use, so that a singular S11 fails only the
        selections that take this cluster; raises :class:`MatrixRootFailure`.
        """
        s11 = self.s11
        if cl.smallest_singular_value(s11) < 1e-14 * max(1.0, cl.frob(s11)):
            raise MatrixRootFailure("S11 is numerically singular; no invertible rho-th root")
        if self.count == 1:
            root = np.array([[complex(s11[0, 0]) ** (1.0 / self.rho)]])
        else:
            root = la.fractional_matrix_power(s11, 1.0 / self.rho).astype(np.complex128)
        res = cl.frob(np.linalg.matrix_power(root, self.rho) - s11) / max(1.0, cl.frob(s11))
        if res > 1e-10:
            raise MatrixRootFailure(f"matrix root residual {res:.3e} too large")
        return root

    def omega(self, branch: int) -> np.ndarray:
        """Triangular rho-th root of S11 on root branch ``branch``, indexed
        like :func:`scalar_roots` of gamma."""
        if not 0 <= branch < self.rho:
            raise ValueError(f"root_index={branch} outside 0..{self.rho - 1}")
        return _branch_rotations(self.gamma, self.rho)[1][branch] * self.root


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
    j <= rho.
    """

    assembled: AssembledPencil
    rho: int
    s_rho: np.ndarray = field(repr=False)
    s_blocks: tuple = field(repr=False)      # S_1..S_rho
    g_blocks: tuple = field(repr=False)      # G^(rho)_1..G^(rho)_rho
    w_rho: np.ndarray = field(repr=False)
    w_rho_next: np.ndarray = field(repr=False)
    w_cross: np.ndarray = field(repr=False)  # W_{rho,rho+1}
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

    def g_sub(self, i: int, j: int) -> np.ndarray:
        """G_{ij}: the s_i x s_j sub-block of G^(rho)_j for i > rho."""
        st = self.structure
        gj = self.g_blocks[j - 1]
        start = sum(st.s(p) for p in range(self.rho + 1, i))
        return gj[start : start + st.s(i), :]

    def hat(self, m: np.ndarray) -> np.ndarray:
        """Pi_L m Pi_R G: a gather into the reduced order, then G as one block
        product on the g1/g2 columns, the only ones it changes.

        The product with [I; g_block] sums in the same order as the dense
        Pi_L m Pi_R G; the first-order recursion amplifies a change of that
        order to about 5e-12 relative on ill-conditioned pencils.
        """
        n12 = self.n1 + self.n2
        out = np.asarray(m, dtype=np.complex128)[np.ix_(self.row_order, self.col_order)]
        out[:, :n12] = out[:, : self.eig_rows.stop] @ np.vstack([cl.eye(n12), self.g_block])
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
        sorted by argument then modulus; computed once per pencil."""
        s = self.s_rho
        if s.shape[0] == 0:
            return ()
        vals = cl.eig(s)[0]
        scale = max(float(np.abs(vals).max()), 1e-300)
        tol = CLUSTER_GAP_REL * scale
        bases = []
        for g in _cluster(vals, tol):
            members = vals[g]
            rep = complex(members.mean())

            def inside(lam, members=members, tol=tol):
                return bool(np.min(np.abs(members - lam)) <= 10 * tol)

            q_full, t_full, r = cl.ordered_schur(s, inside)
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
            bases.append(
                ClusterBasis(gamma=rep, count=r, q=q, s11=s11, qt=qt, tol=tol, rho=self.rho)
            )
        return tuple(bases)

    @cached_property
    def theta_perturbation(self):
        """The first-order perturbation of Theta_rho and the X blocks behind
        it (:func:`jordanperturb.first_order.theta_perturbation`), computed
        once per pencil and shared by every expansion built on it."""
        from . import first_order

        return first_order.theta_perturbation(self)

    def identity_residual(self, z: float, mu: complex) -> float:
        """Residual of Pi_L L (z mu I - (N + z^rho D)) R Pi_R G = mu U-hat(z) - V-hat(z)."""
        ap = self.assembled
        lhs = self.hat(ap.scaled_problem(z, mu))
        rhs = self.hat(mu * ap.u_of(z) - ap.v_of(z))
        return cl.frob(lhs - rhs) / max(1.0, cl.frob(lhs))


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
    """Permute and eliminate the z = 0 pencil, extracting Theta_rho and S_i.

    Requires W_{rho+1} to be invertible (vacuous when rho = k); raises
    :class:`SingularW` otherwise.  The eliminated pencil splits into zero
    eigenvalues (V11 nilpotent), Lambda(Theta_rho), and infinite eigenvalues.
    """
    pair = p.pair
    st = pair.structure
    rho = p.rho
    k = st.k
    shat_next = st.shat(rho + 1)

    if rho < k and shat_next > 0:
        w_next = w_matrix(pair, rho + 1)
        sigma = cl.smallest_singular_value(w_next)
        scale = max(cl.frob(pair.d11), 1e-300)
        if sigma <= GENERIC_THRESHOLD * scale:
            raise SingularW(
                f"W_{rho + 1} has sigma_min {sigma:.3e} <= {GENERIC_THRESHOLD:.1e} * ||D11||; "
                "the generic condition fails"
            )
    else:
        w_next = cl.zeros(0, 0)

    # Z_{rho+1,j} stacks the leading-column blocks of every row group below rho.
    def z_block(j: int) -> np.ndarray:
        parts = [block(pair, pp, j, pp, 1) for pp in range(rho + 1, k + 1)]
        return np.vstack(parts) if parts else cl.zeros(0, st.s(j))

    g_blocks = []
    for j in range(1, rho + 1):
        zj = z_block(j)
        if shat_next:
            g_blocks.append(-la.solve(w_next, zj))
        else:
            g_blocks.append(cl.zeros(0, st.s(j)))
    g_blocks = tuple(g_blocks)

    row_order, col_order = _permutations(st, rho)
    n1 = sum(i * st.s(i) for i in range(1, rho))
    n2 = rho * st.s(rho)
    g_block = cl.zeros(shat_next, n1 + n2)
    for j in range(1, rho + 1):
        start = pair.index.offset(j, 1)
        g_block[:, start : start + st.s(j)] = g_blocks[j - 1]

    w_cross = (
        np.hstack([block(pair, rho, q, rho, 1) for q in range(rho + 1, k + 1)])
        if rho < k
        else cl.zeros(st.s(rho), 0)
    )
    s_blocks = tuple(
        block(pair, rho, i, rho, 1) + w_cross @ g_blocks[i - 1] for i in range(1, rho + 1)
    )

    return ReducedPencil(
        assembled=p,
        rho=rho,
        s_rho=s_blocks[rho - 1],
        s_blocks=s_blocks,
        g_blocks=g_blocks,
        w_rho=w_matrix(pair, rho),
        w_rho_next=w_next,
        w_cross=w_cross,
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
    if r.theta.shape[0] == 0:
        return np.zeros(0, dtype=np.complex128)
    return sort_complex(cl.eig(r.theta)[0])


def finite_pencil_eigs(
    pair: CanonicalPair, rho: int, threshold: float = GENERIC_THRESHOLD
) -> np.ndarray:
    """The s_rho finite eigenvalues of gamma*diag(I_{s_rho}, 0) - W_rho.

    Computed directly from the generalized eigenvalue problem (independent
    of the Theta_rho route); under the generic condition these coincide with
    the eigenvalues of S_rho.
    """
    st = pair.structure
    if not 1 <= rho <= st.k:
        raise ValueError(f"rho={rho} outside 1..{st.k}")
    s_rho = st.s(rho)
    w = w_matrix(pair, rho)
    if s_rho == 0:
        return np.zeros(0, dtype=np.complex128)
    if rho == st.k:
        return sort_complex(cl.eig(w)[0])
    e = np.diag(
        np.concatenate([np.ones(s_rho), np.zeros(st.shat(rho + 1))]).astype(np.complex128)
    )
    alpha, beta = la.eig(w, e, right=False, homogeneous_eigvals=True)
    weight = np.abs(beta) / (np.abs(alpha) + np.abs(beta) + 1e-300)
    order = np.argsort(weight)[::-1]
    take = order[:s_rho]
    if np.any(weight[take] < threshold):
        raise SingularW(
            "pencil has fewer well-defined finite eigenvalues than s_rho; "
            "W_{rho+1} is numerically singular"
        )
    return sort_complex(alpha[take] / beta[take])
