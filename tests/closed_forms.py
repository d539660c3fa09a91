"""Closed-form first-order displays, kept as a test oracle.

The library computes the first-order X blocks, C-hat and the Theta
perturbation by the structured Sylvester recursion at every rho
(``first_order.theta_perturbation``).  For rho >= 2 the same objects have
closed forms in the elimination-corrected blocks B-hat of D11; they are
transcribed here, sharing no code with the recursion, so the tests can assert
that both agree.
"""

import numpy as np
import scipy.linalg as la

from jordanperturb import core_linalg as cl
from jordanperturb.structure import block


def bhat(reduced, j, ell, i):
    """B-hat_{i1}^{(j,ell)}: the leading-column block corrected by the
    elimination, B_{i1}^{(j,ell)} + [B_{i1}^{(j,rho+1)} .. B_{i1}^{(j,k)}] G_ell."""
    pair = reduced.pair
    st = pair.structure
    rho, k = reduced.rho, st.k
    b = block(pair, j, ell, i, 1)
    if k > rho and st.shat(rho + 1) > 0:
        tail = np.hstack([block(pair, j, q, i, 1) for q in range(rho + 1, k + 1)])
        b = b + tail @ reduced.g_blocks[ell - 1]
    return b


def _solve_right_s_rho(reduced, mat):
    """mat @ inv(S_rho)."""
    if not mat.size:
        return mat.reshape(mat.shape[0], reduced.s_rho.shape[0])
    return la.solve(reduced.s_rho.T, mat.T).T


def closed_form_x_blocks(reduced):
    """Closed-form first-order solutions of the two reduced Sylvester systems
    (rho >= 2); returns (x1_coef, x2_coef, c_tilde, c_hat, c_cor)."""
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
                ci += reduced.g_sub(rho + 1, rho) @ s_rho_mat
            ci -= bhat(reduced, i, rho, i - 1)
            ci -= block(pair, i, rho, i, 2)
            for j in range(rho + 1, k + 1):
                ci -= block(pair, i, j, i, 2) @ reduced.g_sub(j, rho)
        ct_rows.append(ci)
    c_tilde = np.vstack(ct_rows) if ct_rows else cl.zeros(0, s_rho)
    c_hat = la.solve(reduced.w_rho_next, c_tilde) if shat else cl.zeros(0, s_rho)
    c_cor = c_hat
    if s(rho - 1) > 0 and shat:
        c_cor = c_hat + reduced.g_blocks[rho - 2] @ _solve_right_s_rho(
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
            gi = reduced.g_sub(i, rho)
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
    e22 = reduced.hat_v1()[g2, g2]
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
        b2 = b2 + reduced.s_blocks[rho - 2] @ _solve_right_s_rho(reduced, bh)
    if k > rho:
        c_hat = closed_form_x_blocks(reduced)[3]
        tail = np.hstack([block(pair, rho, q, rho, 2) for q in range(rho + 1, k + 1)])
        b2 = b2 + reduced.w_cross @ c_hat + tail @ reduced.g_blocks[rho - 1]
    terms["b_rho2_rho_rho"] = b2
    return terms


def semisimple_delta11(reduced, cluster, mu):
    """Delta11 = (rho mu^(rho-2))^{-1} Qt (Bhat_{rho-1,1} + Bhat_{rho,2}) Q for a
    semi-simple cluster of S_rho with Omega = mu I (rho >= 2)."""
    rho = reduced.rho
    terms = hatb_terms(reduced)
    b = terms["b_prev1_rho_rho"] + terms["b_rho2_rho_rho"]
    return (cluster.qt @ b @ cluster.q) / (rho * mu ** (rho - 2))
