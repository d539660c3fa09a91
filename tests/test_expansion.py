import numpy as np
import pytest
from fractions import Fraction
from types import SimpleNamespace

from jordanperturb import (
    CanonicalPair,
    JordanStructure,
    assemble_pencil,
    eigenvalue_expansions,
    match_eigenvalues,
    reduce_pencil,
    select_subspace,
    subspace_expansion,
)
from jordanperturb import core_linalg as cl
from jordanperturb.errors import ClusterNotSeparated, MatrixRootFailure
from jordanperturb.expansion import h_order_table
from jordanperturb.first_order import complement_pair, theta_perturbation
from jordanperturb.pencil import sort_complex
from jordanperturb.verify import exact_subspace_basis

from closed_forms import eigvec_stack, gtilde_matrix, w_blocks, xi_tilde
from conftest import SUITE_SIZES, random_pair
from known_cases import example1_pair, rho1_diagonal_pair, two_block_mixed_pair


def example1_reduced():
    pair = example1_pair()
    return pair, reduce_pencil(assemble_pencil(pair, 4))


def pair_with_s2(w2mat):
    """sizes (0, 2): S_2 = W_2 is freely prescribable."""
    w2mat = np.asarray(w2mat, dtype=complex)
    st = JordanStructure(0.0, (0, 2))
    d = np.zeros((4, 4), dtype=complex)
    d[2:4, 0:2] = w2mat
    return CanonicalPair(st, d)


def eigenvector_term(rp, which, root):
    """Constant term of root branch ``root`` of the simple cluster ``which``
    of S_rho: the eigenvector case of the general selection."""
    cb = rp.clusters[which]
    assert cb.count == 1
    return subspace_expansion(rp, select_subspace(rp, lambda g: g == cb.gamma, root))


class TestEigenvalueExpansions:
    def test_example1(self):
        _, rp = example1_reduced()
        exps = eigenvalue_expansions(rp)
        assert len(exps) == 1
        e = exps[0]
        assert abs(e.gamma - 1.0) < 1e-12 and e.simple
        expected = {1.0, 1.0j, -1.0, -1.0j}
        assert all(min(abs(m - x) for x in expected) < 1e-12 for m in e.mus)
        # lambda ~ t^(1/4) e^{i pi (j-1)/2}
        lam = e.predict(1e-4)
        assert np.allclose(sorted(np.abs(lam)), [1e-1] * 4)

    def test_explicit_roots_diag(self):
        pair = pair_with_s2(np.diag([1.0, 4.0]))
        rp = reduce_pencil(assemble_pencil(pair, 2))
        exps = eigenvalue_expansions(rp)
        gammas = sorted(e.gamma.real for e in exps)
        assert np.allclose(gammas, [1.0, 4.0])
        by_gamma = {round(e.gamma.real): e for e in exps}
        assert np.allclose(sorted(by_gamma[1].mus, key=lambda z: z.real), [-1, 1])
        assert np.allclose(sorted(by_gamma[4].mus, key=lambda z: z.real), [-2, 2])

    def test_multiplicity_and_o_flag(self):
        pair = pair_with_s2(9.0 * np.eye(2))
        rp = reduce_pencil(assemble_pencil(pair, 2))
        exps = eigenvalue_expansions(rp)
        assert len(exps) == 2 and exps[0] is exps[1]
        assert not exps[0].simple

    def test_rho1_coefficient_against_oracle(self):
        pair = random_pair((1, 1), seed=11)
        rp = reduce_pencil(assemble_pencil(pair, 1))
        e = eigenvalue_expansions(rp)[0]
        a, d = pair.a_matrix(), pair.d11
        t = 1e-6
        w = np.linalg.eigvals(a + t * d)
        err = np.min(np.abs(w - e.predict(t)[0]))
        assert err < 10 * t**2 * max(1.0, abs(e.gamma)) ** 2

    def test_rho1_diagonal_classical(self):
        # A = lambda0 I: the gammas are Lambda(D11) and lambda0 + t gamma is exact
        pair = rho1_diagonal_pair()
        exps = eigenvalue_expansions(reduce_pencil(assemble_pencil(pair, 1)))
        gammas = sort_complex([e.gamma for e in exps])
        assert np.abs(gammas - sort_complex(np.linalg.eigvals(pair.d11))).max() <= 1e-12
        t = 1e-3
        w = np.linalg.eigvals(pair.a_matrix() + t * pair.d11)
        _, err = match_eigenvalues(np.concatenate([e.predict(t) for e in exps]), w)
        assert err <= 1e-12

    def test_two_block_mixed_all_orders(self):
        # sizes (1, 2): the rho = 1 and rho = 2 expansions together predict
        # all five eigenvalues of A + tD, to O(t) (the t^(2/rho) term at rho = 2)
        pair = two_block_mixed_pair()
        for t in (1e-4, 1e-6, 1e-8):
            preds = [
                lam
                for rho in pair.structure.valid_rhos()
                for e in eigenvalue_expansions(reduce_pencil(assemble_pencil(pair, rho)))
                for lam in e.predict(t)
            ]
            _, err = match_eigenvalues(np.array(preds), np.linalg.eigvals(pair.a_matrix() + t * pair.d11))
            assert err <= 2 * t

    def test_root_residual_invariant(self):
        for sizes in SUITE_SIZES:
            pair = random_pair(sizes, seed=1)
            for rho in pair.structure.valid_rhos():
                rp = reduce_pencil(assemble_pencil(pair, rho))
                for e in eigenvalue_expansions(rp):
                    assert np.abs(e.mus**rho - e.gamma).max() <= 1e-12 * max(1.0, abs(e.gamma))


class TestSelectSubspace:
    def test_example1_roots(self):
        _, rp = example1_reduced()
        # sorted roots of gamma=1 for rho=4: -i, 1, i, -1
        expected = [-1.0j, 1.0, 1.0j, -1.0]
        for idx, mu in enumerate(expected):
            sel = select_subspace(rp, lambda g: True, idx)
            assert np.allclose(sel.q1, [[1.0]])
            assert abs(sel.omega[0, 0] - mu) < 1e-12
            phi_expected = np.array([[mu**j] for j in range(4)])
            assert np.abs(sel.phi - phi_expected).max() < 1e-12

    def test_trivial_diag_selection(self):
        st = JordanStructure(0.0, (2,))
        pair = CanonicalPair(st, np.diag([1.0, 4.0]))
        rp = reduce_pencil(assemble_pencil(pair, 1))
        sel = select_subspace(rp, lambda g: abs(g - 4) < 1, 0)
        assert np.allclose(np.abs(sel.q1.ravel()), [0.0, 1.0])
        assert np.allclose(sel.omega, [[4.0]])

    def test_semisimple_9I_omega_3I(self):
        pair = pair_with_s2(9.0 * np.eye(2))
        rp = reduce_pencil(assemble_pencil(pair, 2))
        sel = select_subspace(rp, lambda g: True, 0)
        assert np.allclose(sel.omega, 3.0 * np.eye(2), atol=1e-12)
        resid = rp.s_rho @ sel.q1 - sel.q1 @ (sel.omega @ sel.omega)
        assert np.linalg.norm(resid) < 1e-10

    def test_invariant_relation(self):
        for sizes in SUITE_SIZES:
            pair = random_pair(sizes, seed=2)
            for rho in pair.structure.valid_rhos():
                rp = reduce_pencil(assemble_pencil(pair, rho))
                sel = select_subspace(rp, lambda g: True, 0)
                om_rho = np.linalg.matrix_power(sel.omega, rho)
                assert np.linalg.norm(rp.s_rho @ sel.q1 - sel.q1 @ om_rho) < 1e-10
                assert cl.smallest_singular_value(sel.phi) > 1e-8
                # theta invariance of phi
                resid = rp.theta @ sel.phi - sel.phi @ sel.omega
                assert np.linalg.norm(resid) < 1e-10

    def test_empty_selection(self):
        _, rp = example1_reduced()
        sel = select_subspace(rp, lambda g: False, 0)
        assert sel.r == 0 and sel.q1.shape == (1, 0) and sel.omega.shape == (0, 0)

    def test_near_gammas_fail_schur_reordering(self):
        # two gammas 1.8e-6 apart, within 10 CLUSTER_GAP_REL max|gamma| of
        # each other: the per-cluster reordering takes both, before the
        # selection's own separation check is reached
        pair = pair_with_s2(np.diag([1.0, 1.0 + 1.8e-6]))
        rp = reduce_pencil(assemble_pencil(pair, 2))
        with pytest.raises(ClusterNotSeparated, match="^Schur reordering selected 2 eigenvalues for a cluster of 1"):
            select_subspace(rp, lambda g: abs(g - 1.0) < 5e-7, 0)

    def test_separation_message_at_each_call_site(self):
        # S_2 = diag(1e-13, 1): the two branches +-3.2e-7 of cluster 0 lie
        # within CLUSTER_GAP_REL max|mu| = 1e-6 of each other
        rp = reduce_pencil(assemble_pencil(pair_with_s2(np.diag([1.0, 1e-13])), 2))
        gap = "separated by only 6.325e-07"
        with pytest.raises(ClusterNotSeparated, match="^selected and unselected Theta eigenvalues " + gap):
            select_subspace(rp, lambda g: g == rp.clusters[0].gamma, 0)
        # the selection makes the one separation test: complement_pair, handed
        # branches no selection would give, checks only the normalizers
        assert complement_pair(rp, SimpleNamespace(chosen=((0, 0),))).omega_c.shape == (3, 3)
        # Theta-hat = diag(1, 1 + 9e-7) in the basis [e1, e2], e1 selected
        eye = np.eye(2, dtype=complex)
        ric = SimpleNamespace(theta_hat=np.diag([1.0, 1.0 + 9e-7]).astype(complex))
        sel = SimpleNamespace(phi=eye[:, :1], r=1)
        comp = SimpleNamespace(psi=eye[:1], psi_c=eye[1:], phi_c=eye[:, 1:])
        prefix = "^Theta-hat eigenvalues continuing Omega separated by only 9.000e-07"
        with pytest.raises(ClusterNotSeparated, match=prefix):
            exact_subspace_basis(ric, sel, comp)

    def test_matrix_root_failure_on_singular(self):
        # S_1 = diag(0, 1): cluster 0 has no root, so the branch table, built
        # whole, fails, and with it every call on a branch basis, whichever
        # cluster it names; the roots mu and the coupling series need none
        st = JordanStructure(0.0, (2,))
        pair = CanonicalPair(st, np.diag([0.0, 1.0]))
        rp = reduce_pencil(assemble_pencil(pair, 1))
        with pytest.raises(MatrixRootFailure, match="^S11 is numerically singular"):
            rp.branches
        for target in (0.0, 1.0):
            with pytest.raises(MatrixRootFailure):
                select_subspace(rp, lambda g, target=target: abs(g - target) < 0.5, 0)
        with pytest.raises(MatrixRootFailure):
            complement_pair(rp, SimpleNamespace(chosen=((1, 0),)))
        with pytest.raises(MatrixRootFailure):
            theta_perturbation(rp)
        exps = eigenvalue_expansions(rp)
        assert [e.mus.tolist() for e in exps] == [[0j], [1 + 0j]]
        x, theta = rp.series(1)
        assert theta[1].shape == (2, 2) and np.all(np.isfinite(theta[1])) and len(x) == 2

    def test_cluster_roots_computed_once(self, monkeypatch):
        # selecting and complementing every (cluster, branch) of one pencil
        # takes each cluster's matrix root once; S_2 = diag(9, 9, 4, 4) makes
        # both clusters 2 x 2, so every root is a 2 x 2 triangular_root.
        # Branch b's power-sum normalizer is w_b^(rho-1) M_0, so the branch
        # table inverts M_0 and takes its sigma_min once per cluster; a
        # complement_pair call inverts nothing.
        calls, inverses, sigmas = [], [], []
        tri_root, inv, smin = cl.triangular_root, np.linalg.inv, cl.smallest_singular_value

        def counted(a, p):
            calls.append((np.shape(a), p))
            return tri_root(a, p)

        def counted_inv(a):
            inverses.append(a.shape)
            return inv(a)

        def counted_smin(a):
            sigmas.append(np.array(a))
            return smin(a)

        monkeypatch.setattr(cl, "triangular_root", counted)
        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        monkeypatch.setattr(cl, "smallest_singular_value", counted_smin)
        st = JordanStructure(0.0, (0, 4))
        d = np.zeros((8, 8), dtype=complex)
        d[4:8, 0:4] = np.diag([9.0, 9.0, 4.0, 4.0])
        rp = reduce_pencil(assemble_pencil(CanonicalPair(st, d), 2))
        assert [cb.count for cb in rp.clusters] == [2, 2]
        for cb in rp.clusters:
            for root in range(2):
                sel = select_subspace(rp, lambda g, cb=cb: abs(g - cb.gamma) < 1e-9, root)
                comp = complement_pair(rp, sel)
                assert np.allclose(np.abs(np.diag(sel.omega)), np.sqrt(abs(cb.gamma)))
                assert comp.omega_c.shape == (6, 6)
        assert calls == [((2, 2), 2)] * len(rp.clusters)
        assert inverses == [(2, 2)] * len(rp.clusters)
        # two sigma_min per cluster: the singularity check of S11 before its
        # root is taken, then M_0 = rho R (Qt Q = I, R = S11^(1/2) = 3 I or 2 I)
        expected = [a for cb in rp.clusters for a in (cb.s11, 2 * tri_root(cb.s11, 2))]
        assert len(sigmas) == len(expected)
        assert all(np.allclose(a, e, rtol=0, atol=1e-13) for a, e in zip(sigmas, expected))
        tab = rp.branches
        assert all(tab.sigma[(ci, 0)] is tab.sigma[(ci, 1)] for ci in range(len(rp.clusters)))
        assert rp.branches is rp.branches

    def test_multi_branch_selection(self):
        _, rp = example1_reduced()
        sel = select_subspace(rp, lambda g: True, [(1, 2, 3)])
        assert sel.r == 3
        mus = np.diag(sel.omega)
        assert np.allclose(mus, [1.0, 1.0j, -1.0], atol=1e-12)

    @pytest.mark.parametrize("sizes", SUITE_SIZES)
    def test_selection_invariants(self, sizes):
        # S_rho Q1 = Q1 Omega^rho and a full-column-rank phi with psi as its
        # left inverse, for every single branch and for all branches at once;
        # the first two at the bounds select_subspace once asserted per call
        pair = random_pair(sizes, seed=1)
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            s, tab = rp.s_rho, rp.branches
            sels = [
                select_subspace(rp, lambda g, cb=cb: g == cb.gamma, b)
                for cb in rp.clusters
                for b in range(rho)
            ]
            sels.append(select_subspace(rp, lambda g: True, [tuple(range(rho))] * len(rp.clusters)))
            assert sels[-1].r == s.shape[0] * rho
            for sel in sels:
                res = np.linalg.norm(s @ sel.q1 - sel.q1 @ np.linalg.matrix_power(sel.omega, rho))
                assert res <= 1e-8 * max(1.0, np.linalg.norm(s))
                assert cl.smallest_singular_value(sel.phi) > 1e-8
                psi = tab.psi[tab.cols(sel.chosen)]
                assert np.linalg.norm(psi @ sel.phi - np.eye(sel.r)) <= 1e-10

    def test_pencil_eigenvector_relation(self):
        # W_rho [I; G] Q1 = diag(I, 0) [I; G] Q1 Omega^rho
        for sizes in [(1, 1), (1, 2), (1, 0, 1)]:
            pair = random_pair(sizes, seed=4)
            for rho in pair.structure.valid_rhos():
                rp = reduce_pencil(assemble_pencil(pair, rho))
                sel = select_subspace(rp, lambda g: True, 0)
                st = pair.structure
                stack = eigvec_stack(rp) @ sel.q1
                lhs = w_blocks(rp)[0] @ stack
                proj = np.zeros_like(lhs)
                proj[: st.s(rho), :] = stack[: st.s(rho), :] @ np.linalg.matrix_power(
                    sel.omega, rho
                )
                assert np.linalg.norm(lhs - proj) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


@pytest.mark.parametrize(
    "call",
    [
        lambda rp: select_subspace(rp, lambda g: g == rp.clusters[0].gamma, -1),
        lambda rp: select_subspace(rp, lambda g: g == rp.clusters[0].gamma, rp.rho),
        lambda rp: select_subspace(rp, lambda g: True, [(0, rp.rho)]),
        lambda rp: select_subspace(rp, lambda g: True, [(0, 0)]),
    ],
    ids=["eigenvector_negative", "eigenvector_rho", "semisimple_rho", "select_repeated"],
)
def test_bad_root_index_rejected(call):
    # every branch index is checked: no silent wrap-around, IndexError or
    # internal assertion
    _, rp = example1_reduced()
    with pytest.raises(ValueError, match="root_index"):
        call(rp)


class TestSubspaceExpansion:
    def test_example1_h0(self):
        pair, rp = example1_reduced()
        for idx in range(4):
            sel = select_subspace(rp, lambda g: True, idx)
            sub = subspace_expansion(rp, sel)
            assert np.allclose(sub.h0.ravel(), [1.0, 0.0, 0.0, 0.0])

    def test_empty_selection_empty_h0(self):
        pair, rp = example1_reduced()
        sel = select_subspace(rp, lambda g: False, 0)
        sub = subspace_expansion(rp, sel)
        assert sub.h0.shape == (4, 0)

    def test_rho1_against_oracle_subspace(self):
        pair = random_pair((1, 1), seed=6)
        rp = reduce_pencil(assemble_pencil(pair, 1))
        sel = select_subspace(rp, lambda g: True, 0)
        sub = subspace_expansion(rp, sel)
        t = 1e-6
        a = pair.perturbed(t)
        e = eigenvalue_expansions(rp)[0]
        target = e.predict(t)[0]
        q, _, r = cl.ordered_schur(a, lambda diag: np.abs(diag - target) < 1e-4)
        assert r == 1
        v = q[:, 0]
        h = sub.h0.ravel()
        cosang = abs(np.vdot(v, h)) / (np.linalg.norm(v) * np.linalg.norm(h))
        assert np.arccos(min(cosang, 1.0)) < 1e-4

    def test_x_full_constant(self):
        # the full constant basis X0 of the pencil
        pair, rp = example1_reduced()
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(rp.x0.real, expected)

    def test_c_of(self):
        pair, rp = example1_reduced()
        sel = select_subspace(rp, lambda g: True, 1)
        sub = subspace_expansion(rp, sel)
        t = 1e-4
        assert np.allclose(sub.c_of(t), [[t**0.25 * sel.omega[0, 0]]])


class TestEigenvectorExpansion:
    def test_example1_constant(self):
        pair, rp = example1_reduced()
        for idx in range(4):
            ev = eigenvector_term(rp, 0, idx)
            assert np.allclose(ev.h0.ravel(), [1.0, 0.0, 0.0, 0.0])

    def test_rho1_matches_oracle_direction(self):
        pair = random_pair((1, 1), seed=3)
        rp = reduce_pencil(assemble_pencil(pair, 1))
        ev = eigenvector_term(rp, 0, 0)
        t = 1e-8
        w, v = np.linalg.eig(pair.perturbed(t))
        e = eigenvalue_expansions(rp)[0]
        j = int(np.argmin(np.abs(w - e.predict(t)[0])))
        vec = v[:, j]
        h = ev.h0.ravel()
        cosang = abs(np.vdot(vec, h)) / (np.linalg.norm(vec) * np.linalg.norm(h))
        assert 1.0 - cosang < 1e-6  # angle O(t)

    def test_homogeneity_of_constant_map(self):
        pair = random_pair((1, 1), seed=3)
        rp = reduce_pencil(assemble_pencil(pair, 1))
        phi = np.array([[0.3 - 0.7j]])
        stack = eigvec_stack(rp)
        xt = xi_tilde(pair, 1)
        assert np.allclose(xt @ stack @ (2 * phi), 2 * (xt @ stack @ phi))


class TestOrderTables:
    def test_h_table_rho2_k2(self):
        st = JordanStructure(0.0, (1, 2))
        tab = h_order_table(st, 2)
        entries = {(e.block, e.subrow): e.exponent for e in tab}
        assert entries[(1, 1)] == Fraction(1, 2)  # i < rho: 1 - 1/2
        assert entries[(2, 1)] == Fraction(1, 2)  # i = rho row 1 (after explicit)
        assert entries[(2, 2)] == Fraction(1)

    def test_h_table_rho1(self):
        st = JordanStructure(0.0, (1, 2))
        tab = h_order_table(st, 1)
        entries = {(e.block, e.subrow): e.exponent for e in tab}
        assert entries[(1, 1)] == Fraction(1)
        assert entries[(2, 1)] == Fraction(1)
        assert entries[(2, 2)] == Fraction(1)

    def test_x_table_skips_exact_zero_row(self):
        st = JordanStructure(0.0, (0, 0, 0, 1))
        tab = h_order_table(st, 4, full=True)
        rows = [(e.block, e.subrow) for e in tab]
        assert (4, 1) not in rows  # identically zero row
        entries = {(e.block, e.subrow): e.exponent for e in tab}
        assert entries[(4, 2)] == Fraction(1, 4)
        assert entries[(4, 4)] == Fraction(3, 4)

    def test_void_blocks_absent(self):
        st = JordanStructure(0.0, (1, 0, 1))
        tab = h_order_table(st, 3)
        assert all(e.block != 2 for e in tab)

    def test_gtilde_shape(self):
        pair = random_pair((1, 2), seed=0)
        rp = reduce_pencil(assemble_pencil(pair, 2))
        g = rp.x0
        assert np.array_equal(g, gtilde_matrix(rp))
        assert g.shape == (5, 4)
        # I_{s_rho} sits in the leading sub-row of the rho block group
        assert g[1, 0] == 1.0 and g[2, 1] == 1.0
        assert np.count_nonzero(g) == 2
