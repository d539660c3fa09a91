"""Closed-form displays, kept as a test oracle.

The library computes the first-order X blocks, C-hat and the Theta
perturbation by the structured Sylvester recursion at every rho
(``first_order.theta_perturbation``).  For rho >= 2 the same objects have
closed forms in the elimination-corrected blocks B-hat of D11; they are
transcribed here, sharing no code with the recursion, so the tests can assert
that both agree.

The pencil's exponent map is kept here in the same way:
``assemble_pencil_blocks`` walks every sub-block position and files each
scaled entry under its z-exponent, where the library masks D11 by one
exponent matrix built from the scaling vectors.

Likewise the library forms every constant subspace term as X0 Phi from the
pencil's constant basis ``ReducedPencil.x0``; the displayed form
``XiTilde_rho [I; G_rho] Q1`` and the block layout of X0 are built here from
the block index map alone.

The reduced pencil keeps G only as one block of G - I and S_rho only as
the core; the display objects are built here from ``structure.w_matrix`` and
``structure.block``: W_rho, W_{rho+1} and W_{rho,rho+1} (``w_blocks``), each
G^(rho)_j from its own solve with W_{rho+1} (``g_blocks``, with sub-blocks
G_ij in ``g_sub``) and S_i = B_{rho,i} + W_{rho,rho+1} G_i (``s_blocks``).
The residual of the reduced pencil identity (``reduced_identity_residual``)
is read only here.

The verifier reads the exact subspace basis off one ordered Schur form of
Theta-hat(z); ``fixed_point_subspace_basis`` finds the same invariant
subspace by a Stewart-type fixed point, with no Schur reordering.

The pencil's branch table derives every branch of a cluster from one power
sequence and one normalizer; ``branch_table_by_branch`` forms each branch
from its own root (``branch_root``: the principal root of S11 by
``principal_root`` and a root of unity read off ``scalar_roots``), powers and
normalizer.  ``principal_root`` is scipy's ``fractional_matrix_power``, a
Schur-Pade method that shares no code with the library's Smith recurrence
(``core_linalg.triangular_root``).
``first_order_expansion`` reads H1 off lifted bases cached per pencil;
``h1_by_lift`` lifts each selection's basis directly.  The complement's
right and left Schur bases Q2, Qt and the power-sum normalizers M and M_c
of a selection are formed only in ``complement_pair_union``.

``oracle_eigs`` is the tests' dense eigenvalue filter: the eigenvalues of
A + tD near lambda0, from ``numpy.linalg.eigvals``.

The library reads Lambda(S_rho) as the eigenvalues of its S_rho, the Schur
complement of W_{rho+1} in W_rho.  ``finite_pencil_eigs`` finds the same
numbers as the finite eigenvalues of the pencil gamma diag(I, 0) - W_rho,
by QZ (scipy's ``eig`` of the pair), with no elimination.
"""

import numpy as np
import scipy.linalg as la

from jordanperturb import core_linalg as cl
from jordanperturb.errors import NoConvergence, SingularW
from jordanperturb.pencil import left_exponent, right_exponent, scalar_roots, sort_complex
from jordanperturb.structure import GENERIC_THRESHOLD, block, w_matrix


def oracle_eigs(a, d, t, lambda0, radius_exponent):
    """Eigenvalues of a + t*d within 10 t^radius_exponent of lambda0, sorted by
    argument of (lambda - lambda0), then modulus.  A radius of at least
    100 eps (1 + ||a||_F) keeps the t = 0 case meaningful."""
    a, d = np.asarray(a, dtype=complex), np.asarray(d, dtype=complex)
    w = np.linalg.eigvals(a + t * d)
    radius = 10.0 * t**radius_exponent if t > 0 else 0.0
    radius = max(radius, 100.0 * np.finfo(float).eps * (1.0 + np.linalg.norm(a)))
    keep = w[np.abs(w - lambda0) <= radius] - lambda0
    return keep[np.lexsort((np.abs(keep), np.angle(keep)))] + lambda0


def w_blocks(reduced):
    """(W_rho, W_{rho+1}, W_{rho,rho+1}) for the pencil's rho, so that
    W_rho = [[B_{rho,rho}, W_{rho,rho+1}], [Z_{rho+1,rho}, W_{rho+1}]];
    at rho = k, W_{rho+1} is 0 x 0 and W_{rho,rho+1} is s_rho x 0."""
    pair, rho = reduced.pair, reduced.rho
    st = pair.structure
    if rho == st.k:
        return w_matrix(pair, rho), cl.zeros(0, 0), cl.zeros(st.s(rho), 0)
    cross = np.hstack([block(pair, rho, q, rho, 1) for q in range(rho + 1, st.k + 1)])
    return w_matrix(pair, rho), w_matrix(pair, rho + 1), cross


def finite_pencil_eigs(pair, rho):
    """The s_rho finite eigenvalues of gamma diag(I_{s_rho}, 0) - W_rho, sorted
    by argument then modulus: the s_rho eigenvalues of largest relative weight
    |beta| / (|alpha| + |beta|) of the homogeneous pair (alpha, beta).  Raises
    :class:`SingularW` when one of them weighs less than ``GENERIC_THRESHOLD``."""
    st = pair.structure
    s_rho, w = st.s(rho), w_matrix(pair, rho)
    if s_rho == 0:
        return np.zeros(0, dtype=np.complex128)
    if rho == st.k:
        return sort_complex(np.linalg.eigvals(w))
    e = np.diag(np.concatenate([np.ones(s_rho), np.zeros(st.shat(rho + 1))])).astype(np.complex128)
    alpha, beta = la.eig(w, e, right=False, homogeneous_eigvals=True)
    weight = np.abs(beta) / (np.abs(alpha) + np.abs(beta) + 1e-300)
    take = np.argsort(weight)[::-1][:s_rho]
    if np.any(weight[take] < GENERIC_THRESHOLD):
        raise SingularW("the pencil has fewer than s_rho finite eigenvalues")
    return sort_complex(alpha[take] / beta[take])


def g_blocks(reduced):
    """[G^(rho)_1, ..., G^(rho)_rho]: G_j = -W_{rho+1}^-1 Z_{rho+1,j}, one LAPACK
    ``gesv`` per j, with Z_{rho+1,j} = [B^{(pj)}_{p1}]_{p > rho}; each has no
    rows at rho = k.  The library calls the same driver on the same operands,
    so the displays built from these blocks match its constant terms bit for
    bit."""
    pair, rho = reduced.pair, reduced.rho
    st = pair.structure
    if rho == st.k:
        return [cl.zeros(0, st.s(j)) for j in range(1, rho + 1)]
    w_next = w_blocks(reduced)[1]
    return [
        -np.linalg.solve(w_next, np.vstack([block(pair, p, j, p, 1) for p in range(rho + 1, st.k + 1)]))
        for j in range(1, rho + 1)
    ]


def s_blocks(reduced):
    """[S_1, ..., S_rho]: S_i = B_{rho,i} + W_{rho,rho+1} G^(rho)_i, with
    B_{rho,i} = B^{(rho i)}_{rho 1}; S_rho is the core of the pencil."""
    pair, rho = reduced.pair, reduced.rho
    cross = w_blocks(reduced)[2]
    return [block(pair, rho, i, rho, 1) + cross @ g for i, g in enumerate(g_blocks(reduced), start=1)]


def xi_tilde(pair, rho, xi=None, col=1):
    """Columns [Xi_{rho,col} Xi_{rho+1,col} ... Xi_{k,col}] of xi.

    ``col = 1`` gives the eigenvector columns; ``col = 2`` the first
    generalized eigenvectors (blocks of size 1 contribute nothing).
    """
    st = pair.structure
    if xi is None:
        xi = cl.eye(st.dim)
    parts = [xi[:, pair.index.cols(i, col)] for i in range(rho, st.k + 1) if col <= i]
    return np.hstack(parts) if parts else cl.zeros(xi.shape[0], 0)


def g_sub(reduced, i, j):
    """G_{ij}: the s_i x s_j sub-block of G^(rho)_j for i > rho."""
    st = reduced.structure
    start = sum(st.s(p) for p in range(reduced.rho + 1, i))
    return g_blocks(reduced)[j - 1][start : start + st.s(i), :]


def reduced_identity_residual(reduced, z, mu):
    """Residual of Pi_L L (z mu I - (N + z^rho D)) R Pi_R G = mu U-hat(z) - V-hat(z)."""
    ap = reduced.assembled
    lhs = reduced.hat(ap.scaled_problem(z, mu))
    rhs = reduced.hat(mu * ap.u_of(z) - ap.v_of(z))
    return cl.frob(lhs - rhs) / max(1.0, cl.frob(lhs))


def eigvec_stack(reduced):
    """[I_{s_rho}; G_rho^(rho)]: pencil eigenvector coordinates over XiTilde_rho."""
    s_rho = reduced.structure.s(reduced.rho)
    return np.vstack([cl.eye(s_rho), g_blocks(reduced)[reduced.rho - 1]])


def gtilde_matrix(reduced):
    """Constant term of the full invariant-subspace basis: m x (rho s_rho), with I_{s_rho}
    (resp. G_{i rho}) in the first column block of each row group i >= rho."""
    st = reduced.structure
    rho = reduced.rho
    s_rho = st.s(rho)
    out = cl.zeros(st.dim, rho * s_rho)
    idx = reduced.pair.index
    if s_rho == 0:
        return out
    out[idx.rows(rho, 1), :s_rho] = np.eye(s_rho)
    for i in range(rho + 1, st.k + 1):
        out[idx.rows(i, 1), :s_rho] = g_sub(reduced, i, rho)
    return out


def bhat(reduced, j, ell, i):
    """B-hat_{i1}^{(j,ell)}: the leading-column block corrected by the
    elimination, B_{i1}^{(j,ell)} + [B_{i1}^{(j,rho+1)} .. B_{i1}^{(j,k)}] G_ell."""
    pair = reduced.pair
    st = pair.structure
    rho, k = reduced.rho, st.k
    b = block(pair, j, ell, i, 1)
    if k > rho and st.shat(rho + 1) > 0:
        tail = np.hstack([block(pair, j, q, i, 1) for q in range(rho + 1, k + 1)])
        b = b + tail @ g_blocks(reduced)[ell - 1]
    return b


def _solve_right_s_rho(reduced, mat):
    """mat @ inv(S_rho)."""
    if not mat.size:
        return mat.reshape(mat.shape[0], reduced.s_rho.shape[0])
    return la.solve(reduced.s_rho.T, mat.T).T


def closed_form_x_blocks(reduced):
    """Closed-form first-order solutions of the two reduced Sylvester systems
    (rho >= 2); returns (X1_1, X2_1, c_tilde, c_hat, c_cor), with X1_1 and
    X2_1 the row blocks of the series term X_1."""
    pair = reduced.pair
    st = pair.structure
    rho, k = reduced.rho, st.k
    s = st.s
    s_rho = s(rho)
    n2 = rho * s_rho
    shat = st.shat(rho + 1)
    s_rho_mat = reduced.s_rho

    # --- X1: only the superdiagonal of block rho-1 survives at first order.
    x1_parts = []
    for i in range(1, rho):
        blk_i = cl.zeros(i * s(i), n2)
        if i == rho - 1 and s(i) > 0 and s_rho > 0:
            cpr = _solve_right_s_rho(reduced, bhat(reduced, rho - 1, rho, rho - 1))
            for ell in range(1, rho):
                blk_i[(ell - 1) * s(i) : ell * s(i), ell * s_rho : (ell + 1) * s_rho] = cpr
        x1_parts.append(blk_i)
    x1c = np.vstack(x1_parts) if x1_parts else cl.zeros(0, n2)

    # --- C-tilde, C-hat and the corrected C.
    ct_rows = []
    for i in range(rho + 1, k + 1):
        ci = cl.zeros(s(i), s_rho)
        if s(i) and s_rho:
            if i == rho + 1:
                ci += g_sub(reduced, rho + 1, rho) @ s_rho_mat
            ci -= bhat(reduced, i, rho, i - 1)
            ci -= block(pair, i, rho, i, 2)
            for j in range(rho + 1, k + 1):
                ci -= block(pair, i, j, i, 2) @ g_sub(reduced, j, rho)
        ct_rows.append(ci)
    c_tilde = np.vstack(ct_rows) if ct_rows else cl.zeros(0, s_rho)
    c_hat = la.solve(w_blocks(reduced)[1], c_tilde) if shat else cl.zeros(0, s_rho)
    c_cor = c_hat
    if s(rho - 1) > 0 and shat:
        c_cor = c_hat + g_blocks(reduced)[rho - 2] @ _solve_right_s_rho(
            reduced, bhat(reduced, rho - 1, rho, rho - 1)
        )

    # --- X2: eigenvector-row group then the remaining rows of blocks > rho.
    x_w = cl.zeros(shat, n2)
    if shat and s_rho:
        x_w[:, s_rho : 2 * s_rho] = c_hat
    x2_parts = [x_w]
    for i in range(rho + 1, k + 1):
        blk_i = cl.zeros((i - 1) * s(i), n2)
        if s(i) and s_rho:
            gi = g_sub(reduced, i, rho)
            if i == rho + 1:
                for ell in range(1, rho):
                    blk_i[(ell - 1) * s(i) : ell * s(i), ell * s_rho : (ell + 1) * s_rho] = gi
                blk_i[(rho - 1) * s(i) : rho * s(i), :s_rho] = (
                    gi @ s_rho_mat - bhat(reduced, rho + 1, rho, rho)
                )
            else:
                blk_i[: s(i), s_rho : 2 * s_rho] = gi
                blk_i[(i - 2) * s(i) : (i - 1) * s(i), :s_rho] = -bhat(reduced, i, rho, i - 1)
        x2_parts.append(blk_i)
    x2c = np.vstack(x2_parts)
    return x1c, x2c, c_tilde, c_hat, c_cor


def closed_form_delta_coef(reduced, x1c, x2c):
    """delta_coef = E22 + V21 X1 + V23 X2 from given first-order X blocks."""
    g1, g2, g3 = reduced.g1, reduced.g2, reduced.g3
    m = reduced.structure.dim
    e22 = reduced.hat(reduced.assembled.ev_coeffs.get(1, cl.zeros(m, m)))[g2, g2]
    return e22 + reduced.v_hat[g2, g1] @ x1c + reduced.v_hat[g2, g3] @ x2c


def hatb_terms(reduced):
    """The B-hat blocks the first-order displays are written in (rho >= 2):

    - ``b_prev1_rho_rho``: B-hat_{rho-1,1}^{(rho,rho)}, block (rho-1, 1) of delta_coef;
    - ``b_rho2_rho_rho``: the composite B-hat_{rho,2}^{(rho,rho)}, block (rho, 2)
      of delta_coef;
    - ``b_prev1_prev_rho``: B-hat_{rho-1,1}^{(rho-1,rho)}, present when s_{rho-1} > 0.
    """
    pair = reduced.pair
    st = pair.structure
    rho, k = reduced.rho, st.k
    terms = {"b_prev1_rho_rho": bhat(reduced, rho, rho, rho - 1)}
    b2 = block(pair, rho, rho, rho, 2).astype(complex)
    if st.s(rho - 1):
        bh = bhat(reduced, rho - 1, rho, rho - 1)
        terms["b_prev1_prev_rho"] = bh
        b2 = b2 + s_blocks(reduced)[rho - 2] @ _solve_right_s_rho(reduced, bh)
    if k > rho:
        c_hat = closed_form_x_blocks(reduced)[3]
        tail = np.hstack([block(pair, rho, q, rho, 2) for q in range(rho + 1, k + 1)])
        b2 = b2 + w_blocks(reduced)[2] @ c_hat + tail @ g_blocks(reduced)[rho - 1]
    terms["b_rho2_rho_rho"] = b2
    return terms


def semisimple_delta11(reduced, cluster, mu):
    """Delta11 = (rho mu^(rho-2))^{-1} Qt (Bhat_{rho-1,1} + Bhat_{rho,2}) Q for a
    semi-simple cluster of S_rho with Omega = mu I (rho >= 2)."""
    rho = reduced.rho
    terms = hatb_terms(reduced)
    b = terms["b_prev1_rho_rho"] + terms["b_rho2_rho_rho"]
    return (cluster.qt @ b @ cluster.q) / (rho * mu ** (rho - 2))


def kron_newton_step(ap, reduced, z, x1, x2):
    """Newton update (dX1, dX2) of the coupling equations

        R1 = V(z)[g1,:] S - X1 Theta-hat,   R3 = V(z)[g3,:] S - U(z)[g3,:] S Theta-hat,

    with S = [X1; I; X2] and Theta-hat = V(z)[g2,:] S, linearized at (x1, x2)
    and solved as one dense system with the Jacobian in Kronecker form
    (vec stacks columns)."""
    uz = reduced.hat(ap.u_of(z))
    vz = reduced.hat(ap.v_of(z))
    eu = uz - reduced.u_hat
    g1, g2, g3 = reduced.g1, reduced.g2, reduced.g3
    n1, n2 = x1.shape
    eye2 = np.eye(n2)
    stack = np.vstack([x1, eye2, x2])
    theta_hat = vz[g2, :] @ stack
    p3 = uz[g3, :] @ stack
    r1 = vz[g1, :] @ stack - x1 @ theta_hat
    r3 = vz[g3, :] @ stack - p3 @ theta_hat
    th_t = theta_hat.T
    j11 = (
        np.kron(eye2, vz[g1, g1])
        - np.kron(th_t, np.eye(n1))
        - np.kron(eye2, x1 @ vz[g2, g1])
    )
    j13 = np.kron(eye2, vz[g1, g3]) - np.kron(eye2, x1 @ vz[g2, g3])
    j31 = (
        np.kron(eye2, vz[g3, g1])
        - np.kron(th_t, eu[g3, g1])
        - np.kron(eye2, p3 @ vz[g2, g1])
    )
    j33 = (
        np.kron(eye2, vz[g3, g3])
        - np.kron(th_t, uz[g3, g3])
        - np.kron(eye2, p3 @ vz[g2, g3])
    )
    jmat = np.block([[j11, j13], [j31, j33]])
    rhs = -np.concatenate([r1.flatten(order="F"), r3.flatten(order="F")])
    sol = la.solve(jmat, rhs)
    return (
        sol[: n1 * n2].reshape((n1, n2), order="F"),
        sol[n1 * n2 :].reshape(x2.shape, order="F"),
    )


def kron_riccati(ap, reduced, z, max_iter=200, start=None):
    """The Newton iteration of ``solve_riccati`` (start at zero, or at the
    (X1, X2) pair ``start``; same tolerance and divergence test) driven by
    ``kron_newton_step``.

    Returns (theta_hat, iterations, iterates), the iterates being the
    (X1, X2) pairs visited; raises :class:`NoConvergence` as the library does.
    """
    vz = reduced.hat(ap.v_of(z))
    uz = reduced.hat(ap.u_of(z))
    g1, g2, g3 = reduced.g1, reduced.g2, reduced.g3
    n1, n2 = reduced.n1, reduced.n2
    tol = 1e-12 * max(1.0, np.linalg.norm(vz))
    x1 = np.zeros((n1, n2), dtype=complex)
    x2 = np.zeros((reduced.structure.dim - n1 - n2, n2), dtype=complex)
    if start is not None:
        x1, x2 = start
    iterates, first = [], None
    for it in range(max_iter + 1):
        iterates.append((x1, x2))
        stack = np.vstack([x1, np.eye(n2), x2])
        theta_hat = vz[g2, :] @ stack
        r1 = vz[g1, :] @ stack - x1 @ theta_hat
        r3 = vz[g3, :] @ stack - (uz[g3, :] @ stack) @ theta_hat
        resid = np.sqrt(np.linalg.norm(r1) ** 2 + np.linalg.norm(r3) ** 2)
        if resid <= tol:
            return theta_hat, it, iterates
        first = resid if first is None else first
        if not np.isfinite(resid) or resid > 1e6 * first or it == max_iter:
            raise NoConvergence(f"oracle Newton iteration fails at z={z:.3e}")
        dx1, dx2 = kron_newton_step(ap, reduced, z, x1, x2)
        x1, x2 = x1 + dx1, x2 + dx2


def fixed_point_subspace_basis(ric, sel, comp, tol_rel=1e-13, max_iter=100):
    """(H, rep) of ``verify.exact_subspace_basis`` by the fixed point
    Y <- sylv(t22, t11 + t12 Y, t21) on tt = [psi; psi_c] Theta-hat [phi, phi_c]
    (Stewart 1973, SIAM Review 15), stopped once the Riccati residual
    t21 + t22 Y - Y (t11 + t12 Y) is below tol_rel max(1, ||tt||_F); raises
    :class:`NoConvergence` when max_iter steps do not get there."""
    tt = np.vstack([comp.psi, comp.psi_c]) @ ric.theta_hat @ np.hstack([sel.phi, comp.phi_c])
    r = sel.r
    t11, t12, t21, t22 = tt[:r, :r], tt[:r, r:], tt[r:, :r], tt[r:, r:]
    y = cl.zeros(t22.shape[0], r)
    scale = max(1.0, cl.frob(tt))
    for _ in range(max_iter):
        if cl.frob(t21 + t22 @ y - y @ (t11 + t12 @ y)) <= tol_rel * scale:
            return ric.invariant_matrix() @ (sel.phi + comp.phi_c @ y), t11 + t12 @ y
        y = cl.solve_sylvester(t22, t11 + t12 @ y, t21)
    raise NoConvergence("subspace coupling iteration did not converge")


def assemble_pencil_blocks(pair, rho):
    """(u0, eu, v0, ev_coeffs) of the pencil for rho, filed block by
    block: the z-exponent of sub-block (i, l; j, m) of D11 is
    rho + left_exponent(i, l) + right_exponent(j, m)."""
    st = pair.structure
    idx = pair.index
    mdim = st.dim

    u_diag = np.zeros(mdim)
    for i in range(1, st.k + 1):
        for ell in range(1, i + 1):
            if 1 + left_exponent(i, ell, rho) + right_exponent(i, ell, rho) == 0:
                u_diag[idx.rows(i, ell)] = 1.0
    u0 = np.diag(u_diag).astype(np.complex128)
    eu = cl.eye(mdim) - u0

    v0 = cl.zeros(mdim, mdim)
    # every superdiagonal identity block of N scales to exponent 0
    for i in range(1, st.k + 1):
        si = st.s(i)
        for ell in range(1, i if si else 1):
            assert left_exponent(i, ell, rho) + right_exponent(i, ell + 1, rho) == 0
            v0[idx.rows(i, ell), idx.cols(i, ell + 1)] += np.eye(si)

    ev_coeffs = {}
    for i in range(1, st.k + 1):
        for j in range(1, st.k + 1):
            if st.s(i) == 0 or st.s(j) == 0:
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
                        ev_coeffs.setdefault(e, cl.zeros(mdim, mdim))[rows, cols] += b

    ev_coeffs = {e: c for e, c in ev_coeffs.items() if cl.frob(c) > 0.0}
    return u0, eu, v0, ev_coeffs


def complement_pair_union(reduced, sel):
    """(q2, omega_c, q1t, q2t, m, m_c, psi, psi_c, phi_c) of the complement of
    ``sel``, each from one power-sum normalizer over the whole union of its
    branches, cross terms between branches included:
    M = sum_j Omega^(rho-1-j) Qt Q Omega^j, psi = M^-1 [Omega^(rho-1-j) Qt]_j."""
    rho = reduced.rho
    s_dim = reduced.s_rho.shape[0]
    chosen = set(sel.chosen)
    comp = [(ci, b) for ci in range(len(reduced.clusters)) for b in range(rho) if (ci, b) not in chosen]

    def bases(pairs):
        if not pairs:
            return cl.zeros(s_dim, 0), cl.zeros(0, 0), cl.zeros(0, s_dim)
        cbs = [reduced.clusters[ci] for ci, _ in pairs]
        return (
            np.hstack([cb.q for cb in cbs]),
            la.block_diag(*[branch_root(reduced, ci, b) for ci, b in pairs]),
            np.vstack([cb.qt for cb in cbs]),
        )

    def pw(om, j):
        return np.linalg.matrix_power(om, j)

    def normalizer_inv(om, qt, q):
        if not om.shape[0]:
            return cl.zeros(0, 0)
        return np.linalg.inv(sum(pw(om, rho - 1 - j) @ qt @ q @ pw(om, j) for j in range(rho)))

    def left_rows(m, om, qt):
        if not om.shape[0]:
            return cl.zeros(0, rho * s_dim)
        return m @ np.hstack([pw(om, rho - 1 - j) @ qt for j in range(rho)])

    q1, omega, q1t = bases(sel.chosen)
    q2, omega_c, q2t = bases(comp)
    m, m_c = normalizer_inv(omega, q1t, q1), normalizer_inv(omega_c, q2t, q2)
    phi_c = np.vstack([q2 @ pw(omega_c, j) for j in range(rho)])
    return {
        "q2": q2, "omega_c": omega_c, "q1t": q1t, "q2t": q2t, "m": m, "m_c": m_c,
        "psi": left_rows(m, omega, q1t), "psi_c": left_rows(m_c, omega_c, q2t), "phi_c": phi_c,
    }


def principal_root(m, p):
    """The principal p-th root of m, scipy's ``fractional_matrix_power``."""
    return la.fractional_matrix_power(m, 1.0 / p).astype(np.complex128)


def branch_root(reduced, ci, b):
    """The rho-th root omega of S11 on branch b of cluster ci: the principal
    root R (``principal_root``; the scalar principal root of a 1x1 block,
    which the matrix function can miss by a last bit) times the rho-th root
    of unity w that takes Lambda(R) to root b of ``scalar_roots(gamma, rho)``."""
    cb, rho = reduced.clusters[ci], reduced.rho
    if cb.count == 1:
        root = np.array([[complex(cb.s11[0, 0]) ** (1.0 / rho)]])
    else:
        root = principal_root(cb.s11, rho)
    units = scalar_roots(1.0, rho)
    target = scalar_roots(cb.gamma, rho)[b]
    return units[np.argmin(np.abs(units * np.linalg.eigvals(root)[0] - target))] * root


def branch_table_by_branch(reduced):
    """{(cluster, branch): {"omega", "phi", "psi", "lam", "sigma"}}, the
    entries of ``ReducedPencil.branches``, each branch from its own root
    omega = ``branch_root``: phi = [Q omega^j]_j, the power-sum
    normalizer M = sum_j omega^(rho-1-j) Qt Q omega^j, psi = M^-1
    [omega^(rho-1-j) Qt]_j, lam = Lambda(omega) and sigma = (sigma_min(M),
    ||M||_F)."""
    out, rho = {}, reduced.rho
    for ci, cb in enumerate(reduced.clusters):
        for b in range(rho):
            om = branch_root(reduced, ci, b)
            pw = [np.linalg.matrix_power(om, j) for j in range(rho)]
            mm = sum(pw[-1 - j] @ cb.qt @ cb.q @ pw[j] for j in range(rho))
            out[(ci, b)] = {
                "omega": om,
                "phi": np.vstack([cb.q @ p for p in pw]),
                "psi": np.linalg.inv(mm) @ np.hstack([p @ cb.qt for p in pw[::-1]]),
                "lam": np.linalg.eigvals(om),
                "sigma": (la.svdvals(mm)[-1], np.linalg.norm(mm)),
            }
    return out


def h1_by_lift(reduced, sel, comp, y):
    """H1 of ``first_order_expansion`` from two lifts of the selection's own
    basis: the z^1 rows of Pi_R G [0; Phi; 0] plus the z^0 rows of
    Pi_R G [X1_1 Phi; Phi_c Y; X2_1 Phi], X_1 the first-order coupling term."""
    x1 = reduced.series(1)[0][1]
    r, n1 = sel.r, reduced.n1
    n3 = reduced.structure.dim - n1 - reduced.n2
    f0 = reduced.lift(np.vstack([cl.zeros(n1, r), sel.phi, cl.zeros(n3, r)]))
    f1 = reduced.lift(np.vstack([x1[:n1] @ sel.phi, comp.phi_c @ y, x1[n1:] @ sel.phi]))
    exps = reduced.assembled.right_exponents[:, None]
    return np.where(exps == 1, f0, 0.0) + np.where(exps == 0, f1, 0.0)
