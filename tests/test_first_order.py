import functools
import weakref

import numpy as np
import pytest
import scipy.linalg

from jordanperturb import (
    CanonicalPair,
    CaseSpec,
    JordanStructure,
    assemble_pencil,
    complement_pair,
    eigenvalue_expansions,
    first_order_expansion,
    generate,
    reduce_pencil,
    select_subspace,
    solve_riccati,
    theta_perturbation,
    verify_all,
)
import jordanperturb.core_linalg
import jordanperturb.first_order
import jordanperturb.pencil
from jordanperturb.errors import MatrixRootFailure, NoConvergence, SingularNormalizer
from jordanperturb.expansion import subspace_expansion
from jordanperturb.verify import _oracle_sweep

from closed_forms import (
    closed_form_delta_coef,
    closed_form_x_blocks,
    complement_pair_union,
    eigvec_stack,
    gtilde_matrix,
    h1_by_lift,
    hatb_terms,
    hatted_dense_pencil,
    hatted_pencil_blocks,
    kron_newton_step,
    kron_riccati,
    semisimple_delta11,
    xi_tilde,
)
from conftest import SUITE_SIZES, fit_slope, random_pair
from known_cases import example1_pair


def example1():
    pair = example1_pair()
    ap = assemble_pencil(pair, 4)
    return pair, ap, reduce_pencil(ap)


def pick_cluster(rp, which=0, root=0):
    exps = eigenvalue_expansions(rp)
    uniq = []
    for e in exps:
        if not any(e is u for u in uniq):
            uniq.append(e)
    g = uniq[which].gamma
    sel = select_subspace(rp, lambda lam: abs(lam - g) < 1e-6 * max(1.0, abs(g)), root)
    comp = complement_pair(rp, sel)
    return sel, comp


def branch_expansion(rp, gamma, root):
    """First-order expansion of root branch ``root`` of the S_rho cluster
    nearest ``gamma``, through the general selection path; for a semi-simple
    cluster, Omega = mu I."""
    cb = min(rp.clusters, key=lambda cb: abs(cb.gamma - gamma))
    sel = select_subspace(rp, lambda g: g == cb.gamma, root)
    return first_order_expansion(rp, sel, complement_pair(rp, sel))


class TestComplementPair:
    def test_example1_quarter_normalizer(self):
        pair, ap, rp = example1()
        sel = select_subspace(rp, lambda g: True, 1)  # mu = 1
        comp = complement_pair(rp, sel)
        assert np.allclose(comp.phi_c[:1], [[1.0, 1.0, 1.0]])  # Q2, the first block row
        mus_c = np.diag(comp.omega_c)
        assert sorted(np.round(mus_c, 10), key=lambda z: np.angle(z)) == [
            pytest.approx(-1.0j),
            pytest.approx(1.0j),
            pytest.approx(-1.0),
        ]
        # M^-1 = M^-1 Qt Q, the last block column of psi times Q (Qt Q = I)
        assert np.allclose(comp.psi[:, -1:] @ sel.phi[:1], [[0.25]], atol=1e-12)
        assert np.allclose(complement_pair_union(rp, sel)["m"], [[0.25]], atol=1e-12)

    def test_whole_space_complement_empty(self):
        pair, ap, rp = example1()
        sel = select_subspace(rp, lambda g: True, [(0, 1, 2, 3)])
        comp = complement_pair(rp, sel)
        assert comp.phi_c.shape == (4, 0) and comp.omega_c.shape == (0, 0)
        # psi rows are then the exact inverse of phi
        assert np.allclose(comp.psi, np.linalg.inv(sel.phi))

    def test_diag_rho1(self):
        st = JordanStructure(0.0, (2,))
        pair = CanonicalPair(st, np.diag([1.0, 4.0]))
        rp = reduce_pencil(assemble_pencil(pair, 1))
        sel = select_subspace(rp, lambda g: abs(g - 1) < 0.5, 0)
        comp = complement_pair(rp, sel)
        assert np.allclose(np.abs(comp.phi_c.ravel()), [0.0, 1.0])  # Q2 at rho = 1
        assert np.allclose(comp.omega_c, [[4.0]])
        # at rho = 1, psi = M^-1 Qt, so M^-1 = psi Q
        assert np.allclose(comp.psi @ sel.phi, [[1.0]]) and np.allclose(comp.psi_c @ comp.phi_c, [[1.0]])
        ref = complement_pair_union(rp, sel)
        assert np.allclose(ref["m"], [[1.0]]) and np.allclose(ref["m_c"], [[1.0]])

    @pytest.mark.parametrize("sizes", SUITE_SIZES)
    def test_biorthogonality(self, sizes):
        pair = random_pair(sizes, seed=1)
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            sel, comp = pick_cluster(rp)
            big = np.vstack([comp.psi, comp.psi_c]) @ np.hstack([sel.phi, comp.phi_c])
            n = big.shape[0]
            assert np.linalg.norm(big - np.eye(n)) <= 1e-10

    @pytest.mark.parametrize(
        "sizes, seed",
        [pytest.param(sizes, 1, id=str(sizes)) for sizes in SUITE_SIZES]
        + [pytest.param((4, 4, 4, 4, 4), 102, id="102-sizes44444")],
    )
    def test_branch_table_against_union_normalizer(self, sizes, seed):
        """Every ComplementPair field and Delta11, for every (cluster, branch)
        at every rho, against one normalizer over the whole union of branches
        (cross terms included, ``closed_forms.complement_pair_union``).

        Both routes form the same exact quantities from the same Q_i, Qt_i
        and omega blocks (Q2, the first block row of phi_c, and omega_c are
        equal bit for bit).
        The rest takes at most rho products of matrices of order at most
        n = rho s_rho, each with a relative rounding of about n eps, and one
        inverse.  Psi = Phi^-1, and M^-1 is the last block column of psi
        times Q, so an inverse turns a relative perturbation of Phi into one
        at most kappa(Phi) times larger.  Each route is therefore within
        rho n eps kappa(Phi) of the exact value, relative to the field's
        norm: tol = 2 rho n eps kappa(Phi).  Delta11 is a block of
        Psi Theta_1 Phi, so its bound is tol ||Psi|| ||Theta_1|| ||Phi||.
        """
        pair = random_pair(sizes, seed=seed)
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            tab = rp.branches
            n = tab.phi.shape[0]
            tol = 2 * rho * n * np.finfo(float).eps * np.linalg.cond(tab.phi)
            dc = rp.theta_perturbation.delta_coef
            d_scale = np.linalg.norm(tab.psi) * np.linalg.norm(dc) * np.linalg.norm(tab.phi)
            for ci, cb in enumerate(rp.clusters):
                for b in range(rho):
                    pick = lambda g, cb=cb: abs(g - cb.gamma) < 1e-6 * max(1.0, abs(cb.gamma))
                    sel = select_subspace(rp, pick, b)
                    assert sel.chosen == ((ci, b),)
                    comp = complement_pair(rp, sel)
                    ref = complement_pair_union(rp, sel)
                    assert np.array_equal(comp.phi_c[: rp.s_rho.shape[0]], ref["q2"])
                    for name in ("omega_c", "psi", "psi_c", "phi_c"):
                        got, want = getattr(comp, name), ref[name]
                        assert got.shape == want.shape, name
                        if name == "omega_c":
                            assert np.array_equal(got, want), name
                        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want), name
                    left = np.vstack([ref["psi"], ref["psi_c"]])
                    right = np.hstack([sel.phi, ref["phi_c"]])
                    want = (left @ dc @ right)[: sel.r, : sel.r]
                    got = first_order_expansion(rp, sel, comp).delta11
                    assert np.linalg.norm(got - want) <= tol * d_scale

    def test_singular_normalizer(self):
        # S_2 = [[a, 1], [0, a]] (+) [10] with a = 2e-7: S11 of the small
        # cluster passes the root test (sigma_min about a^2 = 4e-14), but its
        # branch normalizers M_ib = 2 omega have sigma_min about 4 a^1.5 = 4e-10,
        # below 1e-12 ||M||_F (||M||_F about 1/sqrt(a) = 2.2e3); whichever
        # side of a selection holds those branches is reported singular
        st = JordanStructure(0.0, (0, 3))
        d = np.zeros((6, 6), dtype=complex)
        d[3:, :3] = [[2e-7, 1.0, 0.0], [0.0, 2e-7, 0.0], [0.0, 0.0, 10.0]]
        rp = reduce_pencil(assemble_pencil(CanonicalPair(st, d), 2))
        assert [cb.count for cb in rp.clusters] == [2, 1]
        for pick, name in ((lambda g: abs(g) < 1, "M"), (lambda g: abs(g) > 1, "M_c")):
            sel = select_subspace(rp, pick, 0)
            with pytest.raises(SingularNormalizer, match=f"normalizer {name} is"):
                complement_pair(rp, sel)

    def test_left_relations(self):
        pair = random_pair((1, 2), seed=2)
        rp = reduce_pencil(assemble_pencil(pair, 2))
        sel, comp = pick_cluster(rp)
        ref = complement_pair_union(rp, sel)
        q2, q1t, q2t = comp.phi_c[: rp.s_rho.shape[0]], ref["q1t"], ref["q2t"]
        rho = 2
        om_r = np.linalg.matrix_power(sel.omega, rho)
        omc_r = np.linalg.matrix_power(comp.omega_c, rho)
        assert np.linalg.norm(rp.s_rho @ q2 - q2 @ omc_r) < 1e-10
        assert np.linalg.norm(q1t @ rp.s_rho - om_r @ q1t) < 1e-10
        assert np.linalg.norm(q2t @ rp.s_rho - omc_r @ q2t) < 1e-10


def assert_matches_closed_form(rp, tol=1e-12):
    """The recursion's first-order data equals the closed-form displays (rho >= 2)."""
    if rp.rho < 2:
        return
    tp = theta_perturbation(rp)
    x1 = rp.series(1)[0][1]
    x1c, x2c, _, c_hat, _ = closed_form_x_blocks(rp)
    expected = {
        "x1": (x1[: rp.n1], x1c),
        "x2": (x1[rp.n1 :], x2c),
        "c_hat": (tp.c_hat, c_hat),
        "delta_coef": (tp.delta_coef, closed_form_delta_coef(rp, x1c, x2c)),
    }
    for name, (got, ref) in expected.items():
        assert got.shape == ref.shape, name
        assert np.linalg.norm(got - ref) <= tol * max(1.0, np.linalg.norm(ref)), name


class TestFirstOrderClosedForms:
    def kron_first_order(self, rp):
        """Independent route: solve both first-order Sylvester systems densely,
        on the hats of the block-by-block pencil."""
        uh, euh, vh, evh = hatted_pencil_blocks(rp)
        v1h = evh.get(1, np.zeros_like(vh))
        g1, g2, g3 = rp.g1, rp.g2, rp.g3
        theta = rp.theta
        n2 = theta.shape[0]
        v11 = vh[g1, g1]
        v33 = vh[g3, g3]
        u33 = uh[g3, g3]
        e12 = v1h[g1, g2]
        e32 = v1h[g3, g2]
        eu32 = euh[g3, g2]
        n1, n3 = v11.shape[0], v33.shape[0]
        if n1:
            k1 = np.kron(np.eye(n2), v11) - np.kron(theta.T, np.eye(n1))
            x1 = np.linalg.solve(k1, -e12.flatten(order="F")).reshape((n1, n2), order="F")
        else:
            x1 = np.zeros((0, n2), dtype=complex)
        rhs = -(e32 - eu32 @ theta)
        k3 = np.kron(np.eye(n2), v33) - np.kron(theta.T, u33)
        x2 = np.linalg.solve(k3, rhs.flatten(order="F")).reshape((n3, n2), order="F")
        return x1, x2

    @pytest.mark.parametrize(
        "sizes, seed",
        [
            pytest.param(sizes, seed, id=f"{seed}-sizes{i}")
            for seed in (0, 3)
            for i, sizes in enumerate(SUITE_SIZES)
        ]
        # the expand-batch pencil of seed 102, m = 60: at rho = 1 ||X2_1||
        # is about 2e5 and ||delta_coef|| about 4e5, against ||Delta11|| near 10
        # for three of its four clusters
        + [pytest.param((4, 4, 4, 4, 4), 102, id="102-sizes44444")],
    )
    def test_x_blocks_against_kronecker(self, sizes, seed):
        pair = random_pair(sizes, seed=seed)
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            x1 = rp.series(1)[0][1]
            x1o, x2o = self.kron_first_order(rp)
            scale = max(1.0, np.linalg.norm(x2o))
            assert np.linalg.norm(x1[: rp.n1] - x1o) <= 1e-10 * scale
            assert np.linalg.norm(x1[rp.n1 :] - x2o) <= 1e-10 * scale
            assert_matches_closed_form(rp)

    @pytest.mark.parametrize("sizes", [(1, 2), (2, 1), (1, 0, 1), (1, 1)])
    def test_delta_display_structure(self, sizes):
        # for rho >= 2, delta_coef has nonzeros only at blocks (rho-1, 1)
        # and (rho, 2) of Theta coordinates, and those equal the corrected
        # B-hat blocks of the closed-form oracle.
        pair = random_pair(sizes, seed=2)
        st = pair.structure
        for rho in [r for r in st.valid_rhos() if r >= 2]:
            rp = reduce_pencil(assemble_pencil(pair, rho))
            tp = theta_perturbation(rp)
            s_r = st.s(rho)
            dc = tp.delta_coef
            mask = np.zeros_like(dc.real, dtype=bool)
            mask[(rho - 2) * s_r : (rho - 1) * s_r, :s_r] = True
            mask[(rho - 1) * s_r :, s_r : 2 * s_r] = True
            outside = dc.copy()
            outside[mask] = 0.0
            assert np.linalg.norm(outside) <= 1e-12 * max(1.0, np.linalg.norm(dc))
            terms = hatb_terms(rp)
            # (rho-1, 1) block is B-hat_{rho-1,1}^{(rho,rho)}
            b1 = dc[(rho - 2) * s_r : (rho - 1) * s_r, :s_r]
            assert np.allclose(b1, terms["b_prev1_rho_rho"], atol=1e-12)
            # (rho, 2) block is the composite B-hat_{rho,2}^{(rho,rho)}
            b2 = dc[(rho - 1) * s_r :, s_r : 2 * s_r]
            assert np.allclose(b2, terms["b_rho2_rho_rho"], atol=1e-10)

    def test_zero_d11_gives_zero_perturbation(self):
        st = JordanStructure(0.0, (0, 0, 0, 1))
        pair = CanonicalPair(st, np.zeros((4, 4)))
        rp = reduce_pencil(assemble_pencil(pair, 4))  # rho = k needs no inversion
        # Theta_1 and X_1, of which C-hat is a block, vanish; S_4 = 0 has no
        # invertible root, so the branch-basis terms cannot be formed
        x, theta = rp.series(1)
        assert np.all(theta[1] == 0) and np.all(x[1] == 0)
        with pytest.raises(MatrixRootFailure):
            theta_perturbation(rp)


class TestFirstOrderExpansion:
    def test_example1_h1_columns(self):
        pair, ap, rp = example1()
        for idx, mu in [(1, 1.0), (2, 1.0j), (3, -1.0)]:
            sel = select_subspace(rp, lambda g: True, idx)
            comp = complement_pair(rp, sel)
            fo = first_order_expansion(rp, sel, comp)
            assert np.allclose(fo.h0.ravel(), [1, 0, 0, 0])
            assert np.allclose(fo.h1.ravel(), [0, mu, 0, 0], atol=1e-12)
            assert np.allclose(fo.delta11, [[0.0]], atol=1e-14)
            assert np.all(fo.y == 0)

    def test_example1_three_branch_basis(self):
        # selecting three root branches of the single gamma at once gives the
        # 4x3 basis whose columns pair with mu = 1, i, -1
        pair, ap, rp = example1()
        sel = select_subspace(rp, lambda g: True, [(1, 2, 3)])
        comp = complement_pair(rp, sel)
        fo = first_order_expansion(rp, sel, comp)
        h0_expect = np.zeros((4, 3), dtype=complex)
        h0_expect[0, :] = 1.0
        h1_expect = np.zeros((4, 3), dtype=complex)
        h1_expect[1, :] = [1.0, 1.0j, -1.0]
        assert np.abs(fo.h0 - h0_expect).max() <= 1e-12
        assert np.abs(fo.h1 - h1_expect).max() <= 1e-12
        assert np.abs(fo.delta11).max() <= 1e-13
        # residual of the combined basis decays at t^(2/4)
        a, d = pair.a_matrix(), pair.d11
        for t in (1e-4, 1e-8):
            z = t**0.25
            h = fo.h0 + z * fo.h1
            c = z * sel.omega + z * z * fo.delta11
            resid = np.linalg.norm((a + t * d) @ h - h @ c)
            assert resid <= 2.0 * t**0.5

    def test_h1_display_formula(self):
        # H1 = XiT_{rho-1} [Bhat S^-1; 0; C] Q1 Om + XiT_rho [I;G] Q2 Y
        #      + XiT_{rho,2} [I;G] Q1 Om           (rho >= 2)
        for sizes in [(1, 2), (2, 1), (1, 0, 1)]:
            pair = random_pair(sizes, seed=5)
            st = pair.structure
            for rho in [r for r in st.valid_rhos() if r >= 2]:
                rp = reduce_pencil(assemble_pencil(pair, rho))
                sel, comp = pick_cluster(rp)
                fo = first_order_expansion(rp, sel, comp)
                stack = eigvec_stack(rp)
                term23 = (
                    xi_tilde(pair, rho, col=1) @ stack @ complement_pair_union(rp, sel)["q2"] @ fo.y
                    + xi_tilde(pair, rho, col=2) @ stack @ sel.q1 @ sel.omega
                )
                mid_parts = []
                if st.s(rho - 1):
                    bh = hatb_terms(rp)["b_prev1_prev_rho"]
                    mid_parts.append(np.linalg.solve(rp.s_rho.T, bh.T).T)
                mid_parts.append(np.zeros((st.s(rho), st.s(rho)), dtype=complex))
                shat = st.shat(rho + 1)
                if shat:
                    mid_parts.append(closed_form_x_blocks(rp)[4])  # C-cor
                mid = np.vstack(mid_parts)
                term1 = xi_tilde(pair, rho - 1, col=1) @ mid @ sel.q1 @ sel.omega
                h1_display = term1 + term23
                assert np.linalg.norm(h1_display - fo.h1) <= 1e-10 * max(
                    1.0, np.linalg.norm(fo.h1)
                )

    @pytest.mark.parametrize("sizes", SUITE_SIZES)
    def test_subspace_residual_slope(self, sizes):
        pair = random_pair(sizes, seed=1)
        a, d = pair.a_matrix(), pair.d11
        xi = np.random.default_rng(1).normal(size=(pair.structure.dim + 2, pair.structure.dim))
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            sel, comp = pick_cluster(rp)
            fo = first_order_expansion(rp, sel, comp)
            # every constant term X0 Phi equals the display XiTilde_rho [I; G_rho] Q1
            assert np.array_equal(rp.x0, gtilde_matrix(rp))
            display = xi_tilde(pair, rho) @ eigvec_stack(rp)
            cb = rp.clusters[0]
            for h0, ref in [
                (fo.h0, display @ sel.q1),
                (subspace_expansion(rp, sel).h0, display @ sel.q1),
                (subspace_expansion(rp, select_subspace(rp, lambda g: g == cb.gamma, 0)).h0, display @ cb.q),
                (xi @ subspace_expansion(rp, sel).h0, xi_tilde(pair, rho, xi) @ eigvec_stack(rp) @ sel.q1),
            ]:
                assert h0.shape == ref.shape
                assert np.linalg.norm(h0 - ref) <= 1e-14 * max(1.0, np.linalg.norm(ref))
            ts = np.geomspace(1e-2, 1e-8, 13)
            errs = []
            for t in ts:
                z = t ** (1.0 / rho)
                h = fo.h0 + z * fo.h1
                c = z * sel.omega + z * z * fo.delta11
                errs.append(np.linalg.norm((a + t * d) @ h - h @ c))
            slope = fit_slope(ts, errs)
            assert slope is None or slope >= 2.0 / rho - 0.1

    def test_simplified_relation(self):
        # A H1 = lambda0 H1 + H0 Omega holds identically for rho >= 2;
        # at rho = 1 the t-coefficient keeps D H0:  A H1 + D H0 = l0 H1 + H0 Om.
        for sizes in [(1, 2), (1, 1), (1, 0, 1)]:
            pair = random_pair(sizes, seed=4)
            a, d = pair.a_matrix(), pair.d11
            lam0 = pair.structure.lambda0
            for rho in pair.structure.valid_rhos():
                rp = reduce_pencil(assemble_pencil(pair, rho))
                sel, comp = pick_cluster(rp)
                fo = first_order_expansion(rp, sel, comp)
                scale = max(1.0, np.linalg.norm(fo.h0 @ sel.omega))
                resid = a @ fo.h1 - lam0 * fo.h1 - fo.h0 @ sel.omega
                if rho >= 2:
                    assert np.linalg.norm(resid) <= 1e-10 * scale
                else:
                    assert np.linalg.norm(resid + d @ fo.h0) <= 1e-10 * scale

    def test_eigvector_structure_containment(self):
        # columns of H0 lie in range(XiT_rho); columns of H1 in
        # range([XiT_{rho-1} XiT_rho XiT_{rho,2}])
        for sizes in [(1, 2), (2, 1)]:
            pair = random_pair(sizes, seed=6)
            for rho in pair.structure.valid_rhos():
                rp = reduce_pencil(assemble_pencil(pair, rho))
                sel, comp = pick_cluster(rp)
                fo = first_order_expansion(rp, sel, comp)

                def proj_resid(space, vecs):
                    if vecs.size == 0:
                        return 0.0
                    q, _ = np.linalg.qr(space)
                    return np.linalg.norm(vecs - q @ (q.conj().T @ vecs))

                assert proj_resid(xi_tilde(pair, rho, col=1), fo.h0) <= 1e-10
                parts = [xi_tilde(pair, rho, col=1), xi_tilde(pair, rho, col=2)]
                if rho >= 2:
                    parts.insert(0, xi_tilde(pair, rho - 1, col=1))
                space = np.hstack([p for p in parts if p.size])
                assert proj_resid(space, fo.h1) <= 1e-10 * max(1.0, np.linalg.norm(fo.h1))

    @pytest.mark.parametrize(
        "sizes", [(2, 2, 2), (3, 3, 3, 3), (2, 3, 2, 3, 2), (4, 4, 4, 4, 4)], ids=str
    )
    def test_h1_against_per_selection_lift(self, sizes):
        # the expand-batch structures, seed 1: H1 read off the pencil's lifted
        # bases equals the lift of each selection's own basis
        pair = generate(CaseSpec(JordanStructure(0.0, sizes), seed=1, ensure_distinct_gammas=True))
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            for ci, cb in enumerate(rp.clusters):
                for b in range(rho):
                    pick = lambda g, cb=cb: abs(g - cb.gamma) < 1e-6 * max(1.0, abs(cb.gamma))
                    sel = select_subspace(rp, pick, b)
                    assert sel.chosen == ((ci, b),)
                    comp = complement_pair(rp, sel)
                    fo = first_order_expansion(rp, sel, comp)
                    want = h1_by_lift(rp, sel, comp, fo.y)
                    assert np.linalg.norm(fo.h1 - want) <= 1e-12 * np.linalg.norm(want)

    def test_pencil_data_computed_once(self, monkeypatch):
        # repeated expansions on one pencil compute the Theta perturbation
        # once and the S_rho clusters once: one Schur form of S_rho, reordered
        # once per cluster.  Each order of the coupling series is one kernel
        # solve, made once; the cluster bases and Y are triangular Sylvester
        # solves, which take no Schur form and do not use that kernel.  Each
        # z-coefficient of the reduced pencil is hatted once, when it is first
        # read (the two of U-hat(z), then every V-hat_e), and never again by
        # an expansion, a resumed series or a Newton solve.
        cl = jordanperturb.core_linalg
        calls = {"theta": 0, "schur": 0, "reorder": 0, "sylvester": 0, "hat": 0}
        lapack, schur_args = cl._lapack(), []
        zgees = lapack.zgees

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def counted_zgees(select, a, *args, lwork, **kwargs):
            if lwork != -1:  # a Schur form, not its workspace query
                schur_args.append(np.array(a))
            return zgees(select, a, *args, lwork=lwork, **kwargs)

        monkeypatch.setattr(
            jordanperturb.first_order, "theta_perturbation", counted("theta", theta_perturbation)
        )
        monkeypatch.setattr(cl, "ordered_schur", counted("schur", cl.ordered_schur))
        monkeypatch.setattr(lapack, "ztrsen", counted("reorder", lapack.ztrsen))
        monkeypatch.setattr(lapack, "zgees", counted_zgees)
        monkeypatch.setattr(cl, "schur_sylvester", counted("sylvester", cl.schur_sylvester))
        rp_cls = jordanperturb.pencil.ReducedPencil
        monkeypatch.setattr(rp_cls, "hat", counted("hat", rp_cls.hat))
        pair = random_pair((0, 2), seed=1)
        rp = reduce_pencil(assemble_pencil(pair, 2))
        assert calls["hat"] == 0
        u_coeffs = rp.u_coeffs
        assert calls["hat"] == len(u_coeffs) == 2
        v_coeffs = rp.v_coeffs
        n_coeffs = 2 + len(v_coeffs)
        assert calls["hat"] == n_coeffs
        for _ in range(2):
            for e in eigenvalue_expansions(rp):
                for root in range(2):
                    sel = select_subspace(rp, lambda g, e=e: abs(g - e.gamma) < 1e-9, root)
                    first_order_expansion(rp, sel, complement_pair(rp, sel))
        assert calls["theta"] == 1
        assert calls["schur"] == calls["reorder"] == len(rp.clusters) == 2
        # S_rho, then Theta_rho for the coupling series
        assert [a.shape for a in schur_args] == [rp.s_rho.shape, rp.theta.shape]
        assert np.array_equal(schur_args[0], rp.s_rho)
        assert calls["sylvester"] == 1
        rp.series(1)
        assert calls["sylvester"] == 1
        x, theta = rp.series(4)
        assert calls["sylvester"] == 4 and len(x) == len(theta) == 5
        # the resume reuses the z = 0 Jacobian and the Schur form of Theta_rho
        assert [a.shape for a in schur_args] == [rp.s_rho.shape, rp.theta.shape]
        rp.series(1)
        rp.series(4)
        assert calls["sylvester"] == 4 and calls["theta"] == 1
        # the resumed series keeps the terms already solved
        assert theta[1] is rp.theta_perturbation.delta_coef
        assert calls["hat"] == n_coeffs
        solve_riccati(rp.assembled, rp, 1e-2)
        assert calls["hat"] == n_coeffs
        assert rp.u_coeffs is u_coeffs and rp.v_coeffs is v_coeffs

    def test_theta_perturbation_holds_plain_fields(self):
        # the first-order terms are formed whole by theta_perturbation: plain
        # fields, no reference back to the pencil, nothing computed on read
        pair = random_pair((1, 2), seed=1)
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            tp = rp.theta_perturbation
            assert list(vars(tp)) == ["delta_coef", "c_hat", "delta", "lift"]
            assert not any(isinstance(v, weakref.ref) for v in vars(tp).values())
            assert not any(isinstance(v, functools.cached_property) for v in vars(type(tp)).values())
            n, m = rp.branches.phi.shape[0], pair.structure.dim
            assert tp.delta.shape == (n, n)
            assert [a.shape for a in tp.lift] == [(m, n), (m, n)]

    def test_branch_table_split_once_per_selection(self, monkeypatch):
        # (4,4,4,4,4) seed 1 over every rho: 60 selections on 5 pencils.  The
        # complement splits the table once per selection and the expansion
        # reuses its columns.  The first-order terms Delta and the lift read
        # the whole table and split nothing: 60 calls, where two more per
        # pencil (70) were made when they split the table.
        tab_cls = jordanperturb.pencil.BranchTable
        split, calls = tab_cls.split, []

        def counted(self, chosen):
            calls.append(chosen)
            return split(self, chosen)

        monkeypatch.setattr(tab_cls, "split", counted)
        pair = generate(CaseSpec(JordanStructure(0.0, (4, 4, 4, 4, 4)), seed=1, ensure_distinct_gammas=True))
        selections = 0
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            for cb in rp.clusters:
                for b in range(rho):
                    sel = select_subspace(rp, lambda g, cb=cb: g == cb.gamma, b)
                    first_order_expansion(rp, sel, complement_pair(rp, sel))
                    selections += 1
        assert selections == 60 and len(calls) == 60

    def test_two_block_mixed_delta11_against_oracle(self):
        # sizes (1,2), rho=2: lambda(t) - l0 - t^(1/2) mu ~ t * delta
        pair = random_pair((1, 2), seed=3)
        rp = reduce_pencil(assemble_pencil(pair, 2))
        sel, comp = pick_cluster(rp, which=0, root=0)
        fo = first_order_expansion(rp, sel, comp)
        mu = sel.omega[0, 0]
        delta_pred = fo.delta11[0, 0]
        a, d = pair.a_matrix(), pair.d11
        ests = []
        for t in (1e-8, 1e-7, 1e-6):
            w = np.linalg.eigvals(a + t * d)
            pred = t**0.5 * mu
            lam = w[np.argmin(np.abs(w - pred))]
            ests.append((lam - pred) / t)
        est = np.mean(ests)
        assert abs(est - delta_pred) <= 0.05 * max(abs(delta_pred), 1e-12)


class TestSemisimple:
    def test_r1_reduces_to_first_order(self):
        pair = random_pair((1, 1), seed=3)
        for rho in (1, 2):
            rp = reduce_pencil(assemble_pencil(pair, rho))
            g = np.linalg.eigvals(rp.s_rho)[0]
            fo_ss = branch_expansion(rp, g, 0)
            sel, comp = pick_cluster(rp, which=0, root=0)
            fo = first_order_expansion(rp, sel, comp)
            # a simple gamma is the r = 1 semi-simple case; selecting it by its
            # value or by a tolerance predicate takes the same (single) cluster
            assert fo_ss.omega.shape == (1, 1)
            assert np.allclose(fo_ss.h1, fo.h1)
            assert np.allclose(fo_ss.delta11, fo.delta11, atol=1e-10)

    def test_example1_exact_eigenvalue(self):
        pair, ap, rp = example1()
        fo = branch_expansion(rp, 1.0, 1)
        assert np.allclose(fo.delta11, [[0.0]], atol=1e-14)
        # so lambda = t^(1/4) mu is exact through t^(3/4): check vs oracle
        t = 1e-4
        w = np.linalg.eigvals(pair.perturbed(t))
        mu = fo.omega[0, 0]
        assert np.min(np.abs(w - t**0.25 * mu)) < 1e-13

    def test_y_closed_form(self):
        pair = random_pair((1, 1), seed=8)
        rp = reduce_pencil(assemble_pencil(pair, 2))
        g = np.linalg.eigvals(rp.s_rho)[0]
        fo = branch_expansion(rp, g, 0)
        sel, comp = pick_cluster(rp)
        mu = sel.omega[0, 0]
        y_closed = np.linalg.solve(
            mu * np.eye(comp.omega_c.shape[0]) - comp.omega_c, fo.delta21
        )
        assert np.allclose(fo.y, y_closed, atol=1e-10)

    @pytest.mark.parametrize("sizes", SUITE_SIZES + [None])
    def test_delta11_closed_form(self, sizes):
        # on every branch of every cluster, Delta11 equals the scalar closed
        # form (rho mu^(rho-2))^{-1} Qt (Bhat_{rho-1,1} + Bhat_{rho,2}) Q;
        # sizes None forces S_2 = 9 I, one gamma of multiplicity two
        if sizes is None:
            d = np.zeros((4, 4), dtype=complex)
            d[2:4, 0:2] = 9.0 * np.eye(2)
            pair = CanonicalPair(JordanStructure(0.0, (0, 2)), d)
        else:
            pair = random_pair(sizes, seed=1)
        checked = 0
        for rho in [r for r in pair.structure.valid_rhos() if r >= 2]:
            rp = reduce_pencil(assemble_pencil(pair, rho))
            for cb in rp.clusters:
                for root in range(rho):
                    fo = branch_expansion(rp, cb.gamma, root)
                    closed = semisimple_delta11(rp, cb, fo.omega[0, 0])
                    assert np.linalg.norm(closed - fo.delta11) <= 1e-12 * max(
                        1.0, np.linalg.norm(closed)
                    )
                    checked += 1
        assert checked

    def test_fully_semisimple_classical_second_order(self):
        # force S_1 = gamma*I on sizes (2,1); Delta11 eigenvalues must match
        # the oracle's t^2 coefficients to 5%
        pair0 = random_pair((2, 1), seed=9)
        st = pair0.structure
        rp0 = reduce_pencil(assemble_pencil(pair0, 1))
        gamma = 1.0 + 0.5j
        d = pair0.d11.copy()
        d[0:2, 0:2] += gamma * np.eye(2) - rp0.s_rho  # S_1 at rho = 1
        pair = CanonicalPair(st, d)
        rp = reduce_pencil(assemble_pencil(pair, 1))
        assert np.linalg.norm(rp.s_rho - gamma * np.eye(2)) < 1e-12
        fo = branch_expansion(rp, gamma, 0)
        a = pair.a_matrix()
        t = 1e-6
        w = np.linalg.eigvals(a + t * d)
        near = sorted(w, key=lambda lam: abs(lam - t * gamma))[:2]
        est = np.sort_complex((np.array(near) - t * gamma) / t**2)
        pred = np.sort_complex(np.linalg.eigvals(fo.delta11))
        assert np.abs(est - pred).max() <= 0.05 * max(1.0, np.abs(pred).max())


class TestCouplingSeries:
    @pytest.mark.parametrize("sizes", SUITE_SIZES + [(3, 3, 3, 3)])
    def test_against_cauchy_integral(self, sizes):
        """Theta_1..Theta_4 of ``series`` against a Cauchy integral of ``solve_riccati``.

        R = min(|Theta_2|/|Theta_3|, (|Theta_2|/|Theta_4|)^(1/2)) is the
        series' own estimate of its radius of convergence (Frobenius norms).
        On the circle z_j = r e^(2 pi i j/N), r = R/8, N = 32, the trapezoidal
        rule T_k = (1/N) sum_j Theta-hat(z_j) z_j^(-k) of the Newton solutions
        Theta-hat(z_j) has two errors (Trefethen & Weideman 2014, SIAM Rev. 56):

        - aliasing, T_k - Theta_k = sum_{l >= 1} Theta_{k+lN} r^(lN); with
          |Theta_j| ~ |Theta_k| R^(k-j) it is |Theta_k| (r/R)^N = 8^-32
          |Theta_k|, about 1e-29 |Theta_k|;
        - the Newton error u of each Theta-hat(z_j): the mean does not
          amplify it and the factor z_j^(-k) scales it by r^(-k), so it adds
          at most u r^(-k), that is u / (r^k |Theta_k|) relative.  Newton
          stops at a residual of 1e-12 ||V-hat(z)||_F; with a Jacobian of
          unit condition the error of Theta-hat(z) is of that size, so
          u = 1e4 eps max(1, ||V-hat(z)||_F) (1e4 eps = 2.2e-12 >= 1e-12).

        The bound asserted is |T_k - Theta_k| <= (r/R)^N |Theta_k| + u r^(-k),
        fixed by this argument before any run.  A pencil whose R is not
        finite and positive fails: the window of the oracle is undefined.
        The one exception has no coupling unknowns at all (m = n2, as for
        sizes (0, 2) at rho = 2): there Theta-hat(z) is the polynomial
        V-hat(z), R is infinite, and the series must return its coefficients.
        """
        pair = random_pair(sizes, seed=1)
        for rho in pair.structure.valid_rhos():
            ap = assemble_pencil(pair, rho)
            rp = reduce_pencil(ap)
            _, theta = rp.series(4)
            assert_series_matches_cauchy(ap, rp, theta, (sizes, rho))

    @pytest.mark.parametrize("rho", [4, 5])
    def test_fresh_and_resumed_at_m60(self, rho):
        # (4,4,4,4,4), m = 60: V-hat_e S_(k-e) is 60x60 @ 60x20 at rho = 5 as
        # a full product; series(4) computed at once and resumed after
        # series(1) both meet the Cauchy-integral bound
        ap = assemble_pencil(random_pair((4, 4, 4, 4, 4), seed=1), rho)
        fresh, resumed = reduce_pencil(ap), reduce_pencil(ap)
        resumed.series(1)
        for name, rp in (("fresh", fresh), ("resumed", resumed)):
            _, theta = rp.series(4)
            assert_series_matches_cauchy(ap, rp, theta, (name, rho))


def assert_series_matches_cauchy(ap, rp, theta, label, n_pts=32):
    """The bound of ``TestCouplingSeries.test_against_cauchy_integral`` on
    Theta_1..Theta_4 of one pencil."""
    if rp.n2 == rp.structure.dim:
        _, _, v0h, evh = hatted_pencil_blocks(rp)
        for k in range(1, 5):
            ref = evh.get(k, np.zeros_like(v0h))
            assert np.linalg.norm(theta[k] - ref) <= 1e-14 * np.linalg.norm(ref)
        return
    norms = [np.linalg.norm(t) for t in theta]
    with np.errstate(divide="ignore", invalid="ignore"):
        big_r = min(norms[2] / norms[3], np.sqrt(norms[2] / norms[4]))
    assert np.isfinite(big_r) and big_r > 0, (label, norms)
    r = big_r / 8
    zs = r * np.exp(2j * np.pi * np.arange(n_pts) / n_pts)
    sols = [solve_riccati(ap, rp, z).theta_hat for z in zs]
    u = 1e4 * np.finfo(float).eps * max(
        max(1.0, np.linalg.norm(hatted_dense_pencil(rp, z)[1])) for z in zs
    )
    for k in range(1, 5):
        t_k = sum(s * z ** (-k) for s, z in zip(sols, zs)) / n_pts
        bound = (r / big_r) ** n_pts * norms[k] + u * r ** (-k)
        assert np.linalg.norm(t_k - theta[k]) <= bound, (label, k)


class TestRiccati:
    def test_zero_d11_immediate(self):
        st = JordanStructure(0.0, (0, 2))
        pair = CanonicalPair(st, np.zeros((4, 4)))
        ap = assemble_pencil(pair, 2)
        rp = reduce_pencil(ap)
        ric = solve_riccati(ap, rp, 1e-3)
        assert ric.iterations == 0
        assert np.all(ric.x1 == 0) and np.all(ric.x2 == 0)
        assert np.allclose(ric.theta_hat, rp.theta)

    def test_example1_exact(self):
        pair, ap, rp = example1()
        ric = solve_riccati(ap, rp, 0.1)
        w = np.linalg.eigvals(0.1 * ric.theta_hat)
        t = 0.1**4
        w_oracle = np.linalg.eigvals(pair.perturbed(t))
        from scipy.optimize import linear_sum_assignment

        cost = np.abs(w[:, None] - w_oracle[None, :])
        r, c = linear_sum_assignment(cost)
        assert cost[r, c].max() < 1e-10

    def test_invariant_matrix_relation(self):
        pair = random_pair((1, 2), seed=1)
        for rho in (1, 2):
            ap = assemble_pencil(pair, rho)
            rp = reduce_pencil(ap)
            z = 1e-2
            ric = solve_riccati(ap, rp, z)
            xt = ric.invariant_matrix()
            t = z**rho
            lhs = (pair.nilpotent + t * pair.d11) @ xt
            rhs = xt @ (z * ric.theta_hat)
            assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(1.0, np.linalg.norm(xt))

    def test_x_blocks_order_z(self):
        pair = random_pair((1, 1), seed=4)
        ap = assemble_pencil(pair, 1)
        rp = reduce_pencil(ap)
        zs = np.array([4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4])
        norms = []
        for z in zs:
            ric = solve_riccati(ap, rp, z)
            norms.append(np.linalg.norm(ric.x1) + np.linalg.norm(ric.x2))
        slope = fit_slope(zs, norms)
        assert slope is not None and slope >= 1.0 - 0.05

    @pytest.mark.parametrize("sizes", SUITE_SIZES)
    def test_first_order_consistency_slope_two(self, sizes):
        pair = random_pair(sizes, seed=2)
        for rho in pair.structure.valid_rhos():
            ap = assemble_pencil(pair, rho)
            rp = reduce_pencil(ap)
            tp = theta_perturbation(rp)
            zs = np.geomspace(1e-2, 1e-4, 7)
            errs = []
            for z in zs:
                ric = solve_riccati(ap, rp, z)
                errs.append(np.linalg.norm(ric.theta_hat - rp.theta - z * tp.delta_coef))
            slope = fit_slope(zs, errs)
            assert slope is None or slope >= 2.0 - 0.1

    def test_iteration_budget_enforced(self, monkeypatch):
        pair = random_pair((1, 1), seed=0)
        ap = assemble_pencil(pair, 1)
        rp = reduce_pencil(ap)
        monkeypatch.setattr(jordanperturb.first_order, "RICCATI_MAX_ITER", 1)
        with pytest.raises(NoConvergence, match="after 1 sweeps"):
            solve_riccati(ap, rp, 1e-2)

    def test_rejects_a_pencil_not_its_own(self):
        # the rho = 2 pencil with the rho = 3 reduction of (2,2,2) used to
        # converge to a wrong Theta-hat; an equal but distinct pencil is
        # rejected too
        pair = random_pair((2, 2, 2), seed=1)
        rp = reduce_pencil(assemble_pencil(pair, 3))
        for ap in (assemble_pencil(pair, 2), assemble_pencil(pair, 3)):
            with pytest.raises(ValueError, match="p must be the assembled pencil"):
                solve_riccati(ap, rp, 1e-2)
        assert solve_riccati(rp.assembled, rp, 1e-2).reduced is rp

    def test_rejects_zero_z(self):
        pair = random_pair((1, 1), seed=0)
        ap = assemble_pencil(pair, 1)
        rp = reduce_pencil(ap)
        with pytest.raises(ValueError):
            solve_riccati(ap, rp, 0.0)

    @pytest.mark.parametrize(
        "sizes, rhos",
        [(s, None) for s in SUITE_SIZES] + [((3, 3, 3, 3), (4,))],
        ids=[str(s) for s in SUITE_SIZES + [(3, 3, 3, 3)]],
    )
    def test_newton_step_against_kronecker(self, sizes, rhos):
        # from every iterate of the Kronecker-driven Newton path, the Schur
        # column solve gives the same update as the dense Kronecker Jacobian
        pair = random_pair(sizes, seed=1)
        for rho in rhos or pair.structure.valid_rhos():
            ap = assemble_pencil(pair, rho)
            rp = reduce_pencil(ap)
            # U(z)[g3,g1], which the Kronecker form reads, is z E_U there alone
            assert not np.any(rp.u_coeffs[0][rp.g3, rp.g1])
            z = 1e-3 ** (1.0 / rho)
            # both sides read the same dense pencil at z: this checks the step
            newton_terms = jordanperturb.first_order._coupling(rp, *hatted_dense_pencil(rp, z))
            for x1, x2 in kron_riccati(rp, z)[2][:-1]:
                ref = np.vstack(kron_newton_step(rp, z, x1, x2))
                theta_hat, res, a, b = newton_terms(np.vstack([x1, x2]))
                t, q = scipy.linalg.schur(theta_hat, output="complex")
                step = -jordanperturb.core_linalg.schur_sylvester(a, b, t, q, res)
                assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_iterations_match_kronecker_loop(self):
        # over the default sweep, solve_riccati takes the same Newton steps as
        # the Kronecker-driven loop, and diverges where it diverges.  A path of
        # more than 30 steps wanders outside Newton's quadratic basin from
        # X = 0 and depends on rounding (with one BLAS thread the Kronecker
        # loop diverges at the one such point); only that known point may differ
        wandering = []
        for sizes in [(1, 2), (2, 2, 2), (3, 3, 3, 3)]:
            pair = random_pair(sizes, seed=1)
            for rho in pair.structure.valid_rhos():
                ap = assemble_pencil(pair, rho)
                rp = reduce_pencil(ap)
                for t in _oracle_sweep(rho):
                    z = t ** (1.0 / rho)
                    try:
                        theta_ref, its, _ = kron_riccati(rp, z)
                    except NoConvergence:
                        with pytest.raises(NoConvergence):
                            solve_riccati(ap, rp, z)
                        continue
                    if its > 30:
                        wandering.append((sizes, rho, t))
                        continue
                    ric = solve_riccati(ap, rp, z)
                    assert ric.iterations == its
                    assert np.linalg.norm(ric.theta_hat - theta_ref) <= 1e-12 * np.linalg.norm(
                        theta_ref
                    )
        assert set(wandering) <= {((3, 3, 3, 3), 4, 1e-2)}

    @pytest.mark.parametrize(
        "sizes", [(1, 2), (2, 2, 2), (1, 1, 1, 1, 1), (3, 3, 3, 3), (4, 4, 4, 4, 4)], ids=str
    )
    def test_continuation_matches_kronecker_loop(self, sizes):
        # on the seed-1 ladder at rho = k, the default t-sweep's z swept in
        # ascending z: started from the last converged [X1; X2], solve_riccati takes
        # the same Newton steps as the Kronecker-driven loop from that start,
        # reaches the same Theta-hat, and diverges where it diverges
        pair = generate(CaseSpec(JordanStructure(0.0, sizes), seed=1, ensure_distinct_gammas=True))
        rho = len(sizes)
        ap = assemble_pencil(pair, rho)
        rp = reduce_pencil(ap)
        prev, solved = None, 0
        for t in reversed(_oracle_sweep(rho)):
            z = t ** (1.0 / rho)
            pair_start = None if prev is None else (prev.x1, prev.x2)
            start = None if prev is None else np.vstack(pair_start)
            try:
                theta_ref, its, _ = kron_riccati(rp, z, start=pair_start)
            except NoConvergence:
                with pytest.raises(NoConvergence):
                    solve_riccati(ap, rp, z, start=start)
                continue
            ric = solve_riccati(ap, rp, z, start=start)
            assert ric.iterations == its, z
            assert np.linalg.norm(ric.theta_hat - theta_ref) <= 1e-12 * np.linalg.norm(theta_ref)
            prev, solved = ric, solved + 1
        assert solved >= 12

    def test_start_from_own_solution_is_immediate(self):
        # a converged solution's stacked [X1; X2] is a fixed point of the
        # iteration; a start of the wrong shape is rejected
        pair = random_pair((1, 2), seed=1)
        ap = assemble_pencil(pair, 2)
        rp = reduce_pencil(ap)
        ric = solve_riccati(ap, rp, 1e-2)
        stacked = np.vstack([ric.x1, ric.x2])
        again = solve_riccati(ap, rp, 1e-2, start=stacked)
        assert ric.iterations > 0 and again.iterations == 0
        assert np.array_equal(again.theta_hat, ric.theta_hat)
        with pytest.raises(ValueError, match="start must be"):
            solve_riccati(ap, rp, 1e-2, start=stacked[1:])

    @pytest.mark.parametrize("sizes", SUITE_SIZES)
    def test_complex_z_invariant_relation(self, sizes):
        # off the real axis: (N + z^rho D11) X-tilde = X-tilde (z Theta-hat),
        # relative to ||N + z^rho D11||_2 ||X-tilde||
        pair = random_pair(sizes, seed=1)
        z = 1e-2 * np.exp(1j * np.pi / 3)
        for rho in pair.structure.valid_rhos():
            ap = assemble_pencil(pair, rho)
            rp = reduce_pencil(ap)
            ric = solve_riccati(ap, rp, z)
            assert ric.z == z
            xt = ric.invariant_matrix()
            m = pair.nilpotent + z**rho * pair.d11
            resid = np.linalg.norm(m @ xt - xt @ (z * ric.theta_hat))
            assert resid <= 1e-11 * np.linalg.norm(m, 2) * np.linalg.norm(xt)


DEEP_SIZES = [(0, 1, 0, 1), (1, 1, 1), (1, 1, 0, 1), (0, 1, 1)]


class TestDeepStructures:
    """Structures with k >= rho + 2 and s_{rho-1} > 0 at rho >= 3 exercise
    every branch of the closed-form first-order blocks."""

    @pytest.mark.parametrize("sizes", DEEP_SIZES)
    def test_closed_forms_against_kronecker(self, sizes):
        pair = random_pair(sizes, seed=1)
        helper = TestFirstOrderClosedForms()
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            x1 = rp.series(1)[0][1]
            x1o, x2o = helper.kron_first_order(rp)
            scale = max(1.0, np.linalg.norm(x2o))
            assert np.linalg.norm(x1[: rp.n1] - x1o) <= 1e-10 * scale
            assert np.linalg.norm(x1[rp.n1 :] - x2o) <= 1e-10 * scale
            assert_matches_closed_form(rp)

    @pytest.mark.parametrize("sizes", DEEP_SIZES)
    def test_delta_consistency_slope_two(self, sizes):
        pair = random_pair(sizes, seed=1)
        for rho in pair.structure.valid_rhos():
            ap = assemble_pencil(pair, rho)
            rp = reduce_pencil(ap)
            tp = theta_perturbation(rp)
            zs = np.geomspace(1e-2, 1e-4, 6)
            errs = [
                np.linalg.norm(solve_riccati(ap, rp, z).theta_hat - rp.theta - z * tp.delta_coef)
                for z in zs
            ]
            slope = fit_slope(zs, errs)
            assert slope is None or slope >= 1.9

    def test_ill_margined_case_deep_regime(self):
        # sizes (1,1,1,1) with a small sigma_min(W_2) has series coefficients
        # growing ~500x per order; the first-order model is only visible for
        # z well below the coefficient ratio, where the slope-2 law and the
        # derivative identity still hold
        from jordanperturb import CaseSpec, JordanStructure, generate

        st = JordanStructure(0.1 + 0.9j, (1, 1, 1, 1))
        pair = generate(CaseSpec(st, seed=0, ensure_generic=True, ensure_distinct_gammas=True))
        ap = assemble_pencil(pair, 1)
        rp = reduce_pencil(ap)
        tp = theta_perturbation(rp)
        zs = np.geomspace(3e-6, 1e-8, 7)
        errs = [
            np.linalg.norm(solve_riccati(ap, rp, z).theta_hat - rp.theta - z * tp.delta_coef)
            for z in zs
        ]
        slope = fit_slope(zs, errs, floor=1e-15)
        assert slope is not None and slope >= 1.9
        ric = solve_riccati(ap, rp, zs[-1])
        fd = (ric.theta_hat - rp.theta) / zs[-1]
        rel = np.linalg.norm(fd - tp.delta_coef) / np.linalg.norm(tp.delta_coef)
        assert rel < 1e-2

    @pytest.mark.parametrize("sizes", DEEP_SIZES)
    def test_subspace_residual_slope(self, sizes):
        pair = random_pair(sizes, seed=1)
        a, d = pair.a_matrix(), pair.d11
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            sel, comp = pick_cluster(rp)
            fo = first_order_expansion(rp, sel, comp)
            ts = np.geomspace(1e-2, 1e-8, 13)
            errs = []
            for t in ts:
                z = t ** (1.0 / rho)
                h = fo.h0 + z * fo.h1
                c = z * sel.omega + z * z * fo.delta11
                errs.append(np.linalg.norm((a + t * d) @ h - h @ c))
            slope = fit_slope(ts, errs)
            assert slope is None or slope >= 2.0 / rho - 0.1


class TestX1X2Tolerance:
    def test_x_full_least_squares_rep(self):
        # constant term of the full basis: residual of the best C in
        # (A + tD) X = X C decays at the slowest table order (1/rho)
        pair = random_pair((1, 2), seed=1)
        for rho in (1, 2):
            rp = reduce_pencil(assemble_pencil(pair, rho))
            x0 = rp.x0
            a, d = pair.a_matrix(), pair.d11
            ts = np.geomspace(1e-2, 1e-8, 13)
            errs = []
            for t in ts:
                m = pair.perturbed(t)
                c, *_ = np.linalg.lstsq(x0, m @ x0, rcond=None)
                errs.append(np.linalg.norm(m @ x0 - x0 @ c))
            slope = fit_slope(ts, errs)
            assert slope is None or slope >= 1.0 / rho - 0.1


class TestCallingThreadOnly:
    def test_no_threaded_scipy_drivers(self, monkeypatch):
        # scipy.linalg.solve and scipy.linalg.svdvals wake a BLAS worker thread
        # even at 4x4; the closed-form path and verify_all call the LAPACK
        # drivers directly instead
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.solve or svdvals called")

        monkeypatch.setattr(scipy.linalg, "solve", refuse)
        monkeypatch.setattr(scipy.linalg, "svdvals", refuse)
        pair = generate(CaseSpec(JordanStructure(0.0, (4, 4, 4, 4, 4)), seed=1, ensure_distinct_gammas=True))
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            for cb in rp.clusters:
                for b in range(rho):
                    sel = select_subspace(rp, lambda g, cb=cb: g == cb.gamma, b)
                    first_order_expansion(rp, sel, complement_pair(rp, sel))
        for sizes, rho in (((1, 2), 2), ((2, 2, 2), 3)):
            assert verify_all(random_pair(sizes, seed=1), rho)
