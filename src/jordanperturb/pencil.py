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
The assembled pencil keeps only the exponent maps of L(z) and R(z); the
reduced pencil Pi_L (mu U(z) - V(z)) Pi_R G is held once per
``ReducedPencil``, as its z-coefficients hatted straight from N and D11,
read by the series and, at z, by Newton.

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

from . import core_linalg as cl
from .errors import ClusterNotSeparated, MatrixRootFailure, SingularW
from .structure import GENERIC_THRESHOLD, BlockIndex, CanonicalPair, JordanStructure, block, w_matrix

__all__ = [
    "AssembledPencil",
    "ClusterBasis",
    "BranchTable",
    "ReducedPencil",
    "scalar_roots",
    "sort_complex",
    "assemble_pencil",
    "eliminate",
    "reduce_pencil",
    "theta_spectrum",
    "check_separated",
    "CLUSTER_GAP_REL",
]

# Relative gap (times the spectral radius of S_rho) below which two
# eigenvalues of S_rho are treated as one cluster.
CLUSTER_GAP_REL = 1e-6
# Imaginary part (times the largest modulus) that the package's one ordering
# reads as rounding, i.e. as zero; far below any gap the package resolves.
REAL_AXIS_REL = 1e-12


def check_separated(a, b, what: str) -> None:
    """Raise :class:`ClusterNotSeparated` when the eigenvalue sets a and b come
    within ``CLUSTER_GAP_REL`` times the largest modulus in either; an empty
    set is separated from any other."""
    a, b = np.ravel(a), np.ravel(b)
    if a.size and b.size:
        gap = np.abs(a[:, None] - b[None, :]).min()
        if gap <= CLUSTER_GAP_REL * max(np.abs(a).max(), np.abs(b).max(), 1e-300):
            raise ClusterNotSeparated(f"{what} separated by only {gap:.3e}")


def _arguments(vals: np.ndarray) -> np.ndarray:
    """The arguments in (-pi, pi] the package's one ordering reads: an imaginary
    part within ``REAL_AXIS_REL`` max|vals| counts as zero, so a value on the
    negative real axis has argument pi whatever the sign of its rounding."""
    tol = REAL_AXIS_REL * float(np.abs(vals).max(initial=0.0))
    return np.angle(np.where(np.abs(vals.imag) <= tol, vals.real + 0j, vals))


def _argsort_complex(vals: np.ndarray) -> np.ndarray:
    """Indices that order vals by :func:`_arguments`, then modulus, then real part."""
    return np.lexsort((vals.real, np.abs(vals), _arguments(vals)))


def sort_complex(values) -> np.ndarray:
    """Deterministic eigenvalue ordering: argument, then modulus (:func:`_argsort_complex`)."""
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

    Ordered by increasing argument in (-pi, pi] (:func:`_argsort_complex`); the
    root read at argument pi has a nonnegative imaginary part, so its own
    argument is the largest too.  ``root_index`` arguments elsewhere in the
    package index into this ordering.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    principal, rotations = _branch_rotations(gamma, rho)
    roots = principal * rotations
    return np.where(_arguments(roots) == np.pi, roots.real + 1j * np.abs(roots.imag), roots)


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
class AssembledPencil:
    """The scaling exponent maps of the polynomial pencil mu U(z) - V(z) for one rho.

    ``left_exponents`` and ``right_exponents`` hold, per row and per column,
    the z-exponents L_p, R_q of the diagonal scalings L(z) and R(z)
    (:func:`left_exponent`, :func:`right_exponent`).  With N and D11 of
    ``pair`` they fix the pencil; its coefficients are formed only in reduced
    coordinates (:attr:`ReducedPencil.u_coeffs`, :attr:`ReducedPencil.v_coeffs`).
    """

    pair: CanonicalPair
    rho: int
    left_exponents: np.ndarray = field(repr=False)
    right_exponents: np.ndarray = field(repr=False)


def assemble_pencil(pair: CanonicalPair, rho: int) -> AssembledPencil:
    """The scaling exponent vectors for the given rho: L_p = ``left_exponents[p]``
    and R_q = ``right_exponents[q]``, from :func:`left_exponent` and
    :func:`right_exponent` at each sub-row and sub-column of the block index.

    Entry (p, q) of D11 scales to the z-exponent rho + L_p + R_q, the mu
    diagonal to 1 + L_p + R_p and N to 0, so the pencil identity holds by
    construction for any D11 (the test suite checks it densely).
    """
    st = pair.structure
    if not 1 <= rho <= st.k:
        raise ValueError(f"rho={rho} outside 1..{st.k}")
    left = np.zeros(st.dim, dtype=np.int64)
    right = np.zeros(st.dim, dtype=np.int64)
    for j in range(1, st.k + 1):
        for m in range(1, j + 1):
            left[pair.index.rows(j, m)] = left_exponent(j, m, rho)
            right[pair.index.cols(j, m)] = right_exponent(j, m, rho)
    return AssembledPencil(pair=pair, rho=rho, left_exponents=left, right_exponents=right)


@dataclass(frozen=True)
class ClusterBasis:
    """Schur data of one eigenvalue cluster of S_rho."""

    gamma: complex
    count: int
    q: np.ndarray = field(repr=False)     # right basis: S q = q s11
    s11: np.ndarray = field(repr=False)
    qt: np.ndarray = field(repr=False)    # left basis: qt S = s11 qt, qt q = I


@dataclass(frozen=True)
class BranchTable:
    """The biorthogonal basis of Theta_rho over every root branch.

    Branch (i, b), with omega = w_b R, R the principal rho-th root of the S11
    block of cluster i and w_b the rotation that takes R's eigenvalues to
    root b of :func:`scalar_roots` of gamma_i, owns the columns
    ``columns[(i, b)]``, in (cluster, branch) order, of phi_ib = [Q_i omega^j]_j
    (j = 0..rho-1) and the same rows of psi_ib = M_ib^-1 [omega^(rho-1-j) Qt_i]_j,
    with M_ib = sum_j omega^(rho-1-j) Qt_i Q_i omega^j.  ``omega`` is block
    diagonal, ``lam`` holds Lambda(omega) under the same columns and
    ``sigma[(i, b)]`` = (sigma_min(M_ib), ||M_ib||_F); M_ib and Qt_i enter
    through psi alone.  The table is built whole by :meth:`build`.
    """

    columns: dict = field(repr=False)
    phi: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    sigma: dict = field(repr=False)

    @classmethod
    def build(cls, clusters, rho: int, s_dim: int) -> "BranchTable":
        """Every cluster's branches from one power sequence of the principal
        root R of its S11, a triangular block of an ordered Schur form, by
        Smith's recurrence (:func:`core_linalg.triangular_root`; the scalar
        principal root for a 1x1 block): branch b has omega = w_b R with
        |w_b| = 1, so phi_b = [w_b^j Q R^j]_j, M_b = w_b^(rho-1) M_0 and
        psi_b = M_0^-1 [w_b^-j R^(rho-1-j) Qt]_j (the Lidskii branch structure;
        Moro, Burke & Overton, SIMAX 18, 1997).  Raises
        :class:`MatrixRootFailure` when some S11 has no invertible rho-th root."""
        n = rho * s_dim
        phi, psi, omega = cl.zeros(n, n), cl.zeros(n, n), cl.zeros(n, n)
        lam = np.zeros(n, dtype=np.complex128)
        columns, sigma, start = {}, {}, 0
        for ci, cb in enumerate(clusters):
            s11 = cb.s11
            if cl.smallest_singular_value(s11) < 1e-14 * max(1.0, cl.frob(s11)):
                raise MatrixRootFailure("S11 is numerically singular; no invertible rho-th root")
            root = cl.triangular_root(s11, rho)
            res = cl.frob(np.linalg.matrix_power(root, rho) - s11) / max(1.0, cl.frob(s11))
            if res > 1e-10:
                raise MatrixRootFailure(f"matrix root residual {res:.3e} too large")
            pw = [np.linalg.matrix_power(root, j) for j in range(rho)]
            mm = sum(pw[-1 - j] @ cb.qt @ cb.q @ pw[j] for j in range(rho))
            norms = (cl.smallest_singular_value(mm), cl.frob(mm))
            phi0 = np.vstack([cb.q @ p for p in pw])
            psi0 = np.linalg.inv(mm) @ np.hstack([p @ cb.qt for p in pw[::-1]])
            for b, w in enumerate(_branch_rotations(cb.gamma, rho)[1]):
                c = columns[(ci, b)] = np.arange(start, start + cb.count)
                start += cb.count
                wj = np.repeat(w ** np.arange(rho), s_dim)  # w_b^j on block j
                omega[np.ix_(c, c)] = w * root
                phi[:, c], psi[c] = wj[:, None] * phi0, psi0 / wj
                lam[c] = w * np.diag(root)  # Lambda(R): R is triangular
                sigma[(ci, b)] = norms
        return cls(columns=columns, phi=phi, psi=psi, omega=omega, lam=lam, sigma=sigma)

    def cols(self, pairs) -> np.ndarray:
        """The columns of the branches ``pairs``, in their given order."""
        try:
            cols = [self.columns[p] for p in pairs]
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]} is not a (cluster, branch) of Theta_rho") from None
        return np.concatenate(cols + [np.zeros(0, dtype=np.intp)])

    def split(self, chosen) -> tuple[np.ndarray, np.ndarray, list]:
        """The columns of the ``chosen`` branches, then those of every other
        branch in table order, and those other branches."""
        taken = set(chosen)
        comp = [p for p in self.columns if p not in taken]
        return self.cols(chosen), self.cols(comp), comp


def _cluster(vals: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of nearly-equal eigenvalues (union-find by distance), ordered by first member."""
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
    rank = np.argsort(_argsort_complex(vals))  # each index's place in that order
    return sorted(groups.values(), key=lambda g: rank[g[0]])


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
    kept.  What derives from the pencil alone (its z-coefficients ``u_coeffs``,
    ``v_coeffs``, ``x0``, ``clusters``, ``branches``, ``series`` and its
    first-order terms ``theta_perturbation``) is computed once, on first use.
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
    def u_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """(U-hat_0, U-hat_1): U-hat(z) = U-hat_0 + z U-hat_1, with U_0 the
        0/1 diagonal where 1 + L_p + R_p = 0 and U_1 = I - U_0."""
        ap = self.assembled
        u0 = np.diag((1 + ap.left_exponents + ap.right_exponents == 0).astype(np.complex128))
        return self.hat(u0), self.hat(cl.eye(self.structure.dim) - u0)

    @cached_property
    def v_coeffs(self) -> tuple[np.ndarray, ...]:
        """V-hat_e, e = 0..e_max: the hat of N plus D11 at z-exponent 0, then of
        D11 at each exponent e = rho + L_p + R_q (zero at an exponent with no
        entry), e_max the largest exponent of a nonzero entry of D11.  V-hat_0
        is [[V11, 0, 0], [V21, Theta, V23], [0, 0, V33]]."""
        ap, d = self.assembled, self.pair.d11
        exps = self.rho + ap.left_exponents[:, None] + ap.right_exponents[None, :]
        top = exps[d != 0].max(initial=0)
        v0 = self.hat(self.pair.nilpotent + np.where(exps == 0, d, 0))
        return (v0, *(self.hat(np.where(exps == e, d, 0)) for e in range(1, top + 1)))

    def at(self, z: complex) -> tuple[np.ndarray, np.ndarray]:
        """(U-hat(z), V-hat(z)) from the coefficients, V-hat by Horner's rule."""
        *rest, vz = self.v_coeffs
        for coeff in reversed(rest):
            vz = coeff + z * vz
        return self.u_coeffs[0] + z * self.u_coeffs[1], vz

    @property
    def theta(self) -> np.ndarray:
        """Theta_rho, the g2 x g2 block of V-hat_0."""
        return self.v_coeffs[0][self.g2, self.g2]

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
        x0[self.assembled.right_exponents != 0] = 0.0
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
            bases.append(ClusterBasis(gamma=rep, count=r, q=q, s11=s11, qt=qt))
        return tuple(bases)

    @cached_property
    def branches(self) -> BranchTable:
        """The biorthogonal branch basis of Theta_rho over every (cluster,
        branch) of :attr:`clusters`, built whole once per pencil; raises
        :class:`MatrixRootFailure` when some cluster has no rho-th root."""
        return BranchTable.build(self.clusters, self.rho, self.s_rho.shape[0])

    @cached_property
    def theta_perturbation(self):
        """The first-order terms, from the k = 1 term of :meth:`series`
        (:func:`jordanperturb.first_order.theta_perturbation`), computed once
        per pencil and shared by every expansion built on it."""
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
    return expand(row_groups), expand(col_groups)


def eliminate(pair: CanonicalPair, rho: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``g_block`` and ``s_rho`` of :class:`ReducedPencil`, from the W blocks
    of the pair alone: G^(rho)_j = -W_{rho+1}^-1 Z_{rho+1,j} (j = 1..rho) and
    S_rho = B^(rho rho)_{rho 1} + W_{rho,rho+1} G^(rho)_rho.  Raises
    :class:`SingularW` when W_{rho+1} is numerically singular (never at rho = k)."""
    st, k = pair.structure, pair.structure.k
    if rho < k:
        w_next = w_matrix(pair, rho + 1)
        sigma = cl.smallest_singular_value(w_next)
        scale = max(cl.frob(pair.d11), 1e-300)
        if sigma <= GENERIC_THRESHOLD * scale:
            raise SingularW(
                f"W_{rho + 1} has sigma_min {sigma:.3e} <= {GENERIC_THRESHOLD:.1e} * ||D11||; "
                "the generic condition fails"
            )

    g_block = cl.zeros(st.shat(rho + 1), pair.index.cols(rho, rho).stop)  # the columns of blocks 1..rho
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
    return g_block, block(pair, rho, rho, rho, 1) + cross @ g


def reduce_pencil(p: AssembledPencil) -> ReducedPencil:
    """Permute and eliminate the z = 0 pencil, extracting Theta_rho and S_rho
    (:func:`eliminate`, which raises :class:`SingularW` when W_{rho+1} is
    numerically singular).  The eliminated pencil splits into zero
    eigenvalues (V11 nilpotent), Lambda(Theta_rho), and infinite eigenvalues.
    """
    st, rho = p.pair.structure, p.rho
    g_block, s_rho = eliminate(p.pair, rho)
    row_order, col_order = _permutations(st, rho)
    return ReducedPencil(
        assembled=p,
        rho=rho,
        s_rho=s_rho,
        row_order=row_order,
        col_order=col_order,
        g_block=g_block,
        n1=sum(i * st.s(i) for i in range(1, rho)),
        n2=rho * st.s(rho),
    )


def theta_spectrum(r: ReducedPencil) -> np.ndarray:
    """Eigenvalues of Theta_rho, sorted by argument then modulus.

    As a multiset this equals all rho-th roots of the eigenvalues of S_rho.
    """
    return sort_complex(cl.eig(r.theta))
