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
from .errors import ClusterNotSeparated, SingularW
from .structure import GENERIC_THRESHOLD, CanonicalPair, JordanStructure, block, w_matrix

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


def sort_complex(values) -> np.ndarray:
    """Deterministic eigenvalue ordering: argument in (-pi, pi], then modulus."""
    vals = np.asarray(values, dtype=np.complex128).ravel()
    key = sorted(range(vals.size), key=lambda i: (np.angle(vals[i]), abs(vals[i]), vals[i].real))
    return vals[key]


def scalar_roots(gamma: complex, rho: int) -> np.ndarray:
    """All rho-th roots of gamma: principal branch times the rho rotations.

    Ordered by increasing argument in (-pi, pi].  ``root_index`` arguments
    elsewhere in the package index into this ordering.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    gamma = complex(gamma)
    principal = gamma ** (1.0 / rho) if gamma != 0 else 0.0
    roots = [principal * cmath.exp(2j * cmath.pi * b / rho) for b in range(rho)]
    return sort_complex(roots)


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

    def l_matrix(self, z: float) -> np.ndarray:
        return np.diag(np.asarray(z, dtype=np.complex128) ** self.left_exponents)

    def r_matrix(self, z: float) -> np.ndarray:
        return np.diag(np.asarray(z, dtype=np.complex128) ** self.right_exponents)

    def right_power_selector(self, e: int) -> np.ndarray:
        """0/1 diagonal picking the rows of R(z) that carry z^e."""
        return np.diag((self.right_exponents == e).astype(np.complex128))


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

    def identity_residual(self, z: float, mu: complex, d11=None) -> float:
        """|| L(z mu I - (N + z^rho D)) R - (mu U(z) - V(z)) || / scale."""
        st = self.pair.structure
        d = self.pair.d11 if d11 is None else d11
        raw = z * mu * cl.eye(st.dim) - (self.pair.nilpotent + (z**self.rho) * d)
        lhs = self.scaling.l_matrix(z) @ raw @ self.scaling.r_matrix(z)
        rhs = mu * self.u_of(z) - self.v_of(z)
        scale = max(1.0, cl.frob(lhs))
        return cl.frob(lhs - rhs) / scale


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
    """

    assembled: AssembledPencil
    rho: int
    theta: np.ndarray = field(repr=False)
    s_rho: np.ndarray = field(repr=False)
    s_blocks: tuple = field(repr=False)      # S_1..S_rho
    g_blocks: tuple = field(repr=False)      # G^(rho)_1..G^(rho)_rho
    w_rho: np.ndarray = field(repr=False)
    w_rho_next: np.ndarray = field(repr=False)
    w_cross: np.ndarray = field(repr=False)  # W_{rho,rho+1}
    pi_l: np.ndarray = field(repr=False)
    pi_r: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    u_hat: np.ndarray = field(repr=False)
    v_hat: np.ndarray = field(repr=False)
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

    def g_sub(self, i: int, j: int) -> np.ndarray:
        """G_{ij}: the s_i x s_j sub-block of G^(rho)_j for i > rho."""
        st = self.structure
        gj = self.g_blocks[j - 1]
        start = sum(st.s(p) for p in range(self.rho + 1, i))
        return gj[start : start + st.s(i), :]

    def u_hat_of(self, z: float) -> np.ndarray:
        return self.pi_l @ self.assembled.u_of(z) @ self.pi_r @ self.g

    def v_hat_of(self, z: float) -> np.ndarray:
        return self.pi_l @ self.assembled.v_of(z) @ self.pi_r @ self.g

    def hat_v1(self) -> np.ndarray:
        """First-order coefficient of V-hat(z): Pi_L V_1 Pi_R G."""
        v1 = self.assembled.ev_coeffs.get(1)
        if v1 is None:
            m = self.structure.dim
            return cl.zeros(m, m)
        return self.pi_l @ v1 @ self.pi_r @ self.g

    def hat_eu(self) -> np.ndarray:
        """Permuted mu-error block: Pi_L E_U Pi_R G."""
        return self.pi_l @ self.assembled.eu @ self.pi_r @ self.g

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
            bases.append(ClusterBasis(gamma=rep, count=r, q=q, s11=s11, qt=qt, tol=tol))
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
        st = self.structure
        raw = z * mu * cl.eye(st.dim) - (self.pair.nilpotent + (z**self.rho) * self.pair.d11)
        sc = self.assembled.scaling
        lhs = self.pi_l @ (sc.l_matrix(z) @ raw @ sc.r_matrix(z)) @ self.pi_r @ self.g
        rhs = mu * self.u_hat_of(z) - self.v_hat_of(z)
        return cl.frob(lhs - rhs) / max(1.0, cl.frob(lhs))


def _permutations(structure: JordanStructure, rho: int) -> tuple[np.ndarray, np.ndarray]:
    """Row order: blocks 1..rho, then sub-row i of each block i > rho, then
    sub-rows 1..i-1 of each block i > rho.  Column order: blocks 1..rho, then
    sub-column 1 of each block j > rho, then sub-columns 2..j."""
    from .structure import BlockIndex

    idx = BlockIndex(structure)
    mdim = structure.dim

    def expand(groups):
        out = []
        for sl in groups:
            out.extend(range(sl.start, sl.stop))
        return np.array(out, dtype=np.int64)

    row_groups = [idx.rows(i, ell) for i in range(1, rho + 1) for ell in range(1, i + 1)]
    row_groups += [idx.rows(i, i) for i in range(rho + 1, structure.k + 1)]
    row_groups += [
        idx.rows(i, ell) for i in range(rho + 1, structure.k + 1) for ell in range(1, i)
    ]
    col_groups = [idx.cols(j, m) for j in range(1, rho + 1) for m in range(1, j + 1)]
    col_groups += [idx.cols(j, 1) for j in range(rho + 1, structure.k + 1)]
    col_groups += [
        idx.cols(j, m) for j in range(rho + 1, structure.k + 1) for m in range(2, j + 1)
    ]
    row_order = expand(row_groups)
    col_order = expand(col_groups)
    assert row_order.size == mdim and col_order.size == mdim
    pi_l = np.eye(mdim, dtype=np.complex128)[row_order, :]
    pi_r = np.eye(mdim, dtype=np.complex128)[:, col_order]
    return pi_l, pi_r


def reduce_pencil(
    p: AssembledPencil, pair: CanonicalPair | None = None, threshold: float = GENERIC_THRESHOLD
) -> ReducedPencil:
    """Permute and eliminate the z = 0 pencil, extracting Theta_rho and S_i.

    Requires W_{rho+1} to be invertible (vacuous when rho = k); raises
    :class:`SingularW` otherwise.  The eliminated pencil splits into zero
    eigenvalues (V11 nilpotent), Lambda(Theta_rho), and infinite eigenvalues.
    """
    if pair is None:
        pair = p.pair
    st = pair.structure
    rho = p.rho
    k = st.k
    mdim = st.dim
    shat_next = st.shat(rho + 1)

    if rho < k and shat_next > 0:
        w_next = w_matrix(pair, rho + 1)
        sigma = cl.smallest_singular_value(w_next)
        scale = max(cl.frob(pair.d11), 1e-300)
        if sigma <= threshold * scale:
            raise SingularW(
                f"W_{rho + 1} has sigma_min {sigma:.3e} <= {threshold:.1e} * ||D11||; "
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

    pi_l, pi_r = _permutations(st, rho)
    n1 = sum(i * st.s(i) for i in range(1, rho))
    n2 = rho * st.s(rho)
    g = cl.eye(mdim)
    for j in range(1, rho + 1):
        start = pair.index.offset(j, 1)
        g[n1 + n2 : n1 + n2 + shat_next, start : start + st.s(j)] = g_blocks[j - 1]

    u_hat = pi_l @ p.u0 @ pi_r  # G does not touch the mu-constant part
    v_hat = pi_l @ p.v0 @ pi_r @ g

    w_cross = (
        np.hstack([block(pair, rho, q, rho, 1) for q in range(rho + 1, k + 1)])
        if rho < k
        else cl.zeros(st.s(rho), 0)
    )
    s_blocks = tuple(
        block(pair, rho, i, rho, 1) + w_cross @ g_blocks[i - 1] for i in range(1, rho + 1)
    )

    theta = v_hat[n1 : n1 + n2, n1 : n1 + n2]
    return ReducedPencil(
        assembled=p,
        rho=rho,
        theta=theta,
        s_rho=s_blocks[rho - 1],
        s_blocks=s_blocks,
        g_blocks=g_blocks,
        w_rho=w_matrix(pair, rho),
        w_rho_next=w_next,
        w_cross=w_cross,
        pi_l=pi_l,
        pi_r=pi_r,
        g=g,
        u_hat=u_hat,
        v_hat=v_hat,
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
