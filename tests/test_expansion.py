import numpy as np
import pytest
from fractions import Fraction

from jordanperturb import (
    CanonicalPair,
    JordanStructure,
    assemble_pencil,
    eigenvalue_expansions,
    eigenvector_expansion,
    reduce_pencil,
    select_subspace,
    subspace_expansion,
)
from jordanperturb import core_linalg as cl
from jordanperturb.errors import ClusterNotSeparated, MatrixRootFailure, NotSimple
from jordanperturb.expansion import h_order_table
from jordanperturb.first_order import complement_pair

from closed_forms import eigvec_stack, gtilde_matrix, xi_tilde
from conftest import SUITE_SIZES, random_pair


def example1_reduced():
    d11 = np.zeros((4, 4), dtype=complex)
    d11[3, 0] = 1.0
    pair = CanonicalPair(JordanStructure(0.0, (0, 0, 0, 1)), d11)
    return pair, reduce_pencil(assemble_pencil(pair, 4))


def pair_with_s2(w2mat):
    """sizes (0, 2): S_2 = W_2 is freely prescribable."""
    w2mat = np.asarray(w2mat, dtype=complex)
    st = JordanStructure(0.0, (0, 2))
    d = np.zeros((4, 4), dtype=complex)
    d[2:4, 0:2] = w2mat
    return CanonicalPair(st, d)


class TestEigenvalueExpansions:
    def test_example1(self):
        _, rp = example1_reduced()
        exps = eigenvalue_expansions(rp)
        assert len(exps) == 1
        e = exps[0]
        assert abs(e.gamma - 1.0) < 1e-12 and e.simple
        assert e.order_next == Fraction(2, 4) and not e.little_o
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
        assert not exps[0].simple and exps[0].little_o
        assert exps[0].order_next == Fraction(1, 2)

    def test_rho1_coefficient_against_oracle(self):
        pair = random_pair((1, 1), seed=11)
        rp = reduce_pencil(assemble_pencil(pair, 1))
        e = eigenvalue_expansions(rp)[0]
        a, d = pair.a_matrix(), pair.d11
        t = 1e-6
        w = np.linalg.eigvals(a + t * d)
        err = np.min(np.abs(w - e.predict(t)[0]))
        assert err < 10 * t**2 * max(1.0, abs(e.gamma)) ** 2

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

    def test_cluster_not_separated_at_root_level(self):
        # two gammas whose square roots nearly collide
        pair = pair_with_s2(np.diag([1.0, 1.0 + 1.8e-6]))
        rp = reduce_pencil(assemble_pencil(pair, 2))
        with pytest.raises(ClusterNotSeparated):
            select_subspace(rp, lambda g: abs(g - 1.0) < 5e-7, 0)

    def test_matrix_root_failure_on_singular(self):
        st = JordanStructure(0.0, (2,))
        pair = CanonicalPair(st, np.diag([0.0, 1.0]))
        rp = reduce_pencil(assemble_pencil(pair, 1))
        with pytest.raises(MatrixRootFailure):
            select_subspace(rp, lambda g: abs(g) < 0.5, 0)

    def test_cluster_roots_computed_once(self, monkeypatch):
        # selecting and complementing every (cluster, branch) of one pencil
        # takes each cluster's matrix root once; S_2 = diag(9, 9, 4, 4) makes
        # both clusters 2 x 2, so every root goes through fractional_matrix_power
        import scipy.linalg

        calls = []
        power = scipy.linalg.fractional_matrix_power

        def counted(a, t):
            calls.append(t)
            return power(a, t)

        monkeypatch.setattr(scipy.linalg, "fractional_matrix_power", counted)
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
        assert len(calls) == len(rp.clusters)

    def test_multi_branch_selection(self):
        _, rp = example1_reduced()
        sel = select_subspace(rp, lambda g: True, [(1, 2, 3)])
        assert sel.r == 3
        mus = np.diag(sel.omega)
        assert np.allclose(mus, [1.0, 1.0j, -1.0], atol=1e-12)

    def test_pencil_eigenvector_relation(self):
        # W_rho [I; G] Q1 = diag(I, 0) [I; G] Q1 Omega^rho
        for sizes in [(1, 1), (1, 2), (1, 0, 1)]:
            pair = random_pair(sizes, seed=4)
            for rho in pair.structure.valid_rhos():
                rp = reduce_pencil(assemble_pencil(pair, rho))
                sel = select_subspace(rp, lambda g: True, 0)
                st = pair.structure
                stack = eigvec_stack(rp) @ sel.q1
                lhs = rp.w_rho @ stack
                proj = np.zeros_like(lhs)
                proj[: st.s(rho), :] = stack[: st.s(rho), :] @ np.linalg.matrix_power(
                    sel.omega, rho
                )
                assert np.linalg.norm(lhs - proj) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


class TestSubspaceExpansion:
    def test_example1_h0(self):
        pair, rp = example1_reduced()
        for idx in range(4):
            sel = select_subspace(rp, lambda g: True, idx)
            sub = subspace_expansion(rp, sel, pair)
            assert np.allclose(sub.h0.ravel(), [1.0, 0.0, 0.0, 0.0])

    def test_empty_selection_empty_h0(self):
        pair, rp = example1_reduced()
        sel = select_subspace(rp, lambda g: False, 0)
        sub = subspace_expansion(rp, sel, pair)
        assert sub.h0.shape == (4, 0)

    def test_rho1_against_oracle_subspace(self):
        pair = random_pair((1, 1), seed=6)
        rp = reduce_pencil(assemble_pencil(pair, 1))
        sel = select_subspace(rp, lambda g: True, 0)
        sub = subspace_expansion(rp, sel, pair)
        t = 1e-6
        a = pair.perturbed(t)
        e = eigenvalue_expansions(rp)[0]
        target = e.predict(t)[0]
        q, _, r = cl.ordered_schur(a, lambda lam: abs(lam - target) < 1e-4)
        assert r == 1
        v = q[:, 0]
        h = sub.h0.ravel()
        cosang = abs(np.vdot(v, h)) / (np.linalg.norm(v) * np.linalg.norm(h))
        assert np.arccos(min(cosang, 1.0)) < 1e-4

    def test_x_full_constant(self):
        pair, rp = example1_reduced()
        sel = select_subspace(rp, lambda g: True, 1)
        sub = subspace_expansion(rp, sel, pair)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(sub.x_full.real, expected)

    def test_c_of(self):
        pair, rp = example1_reduced()
        sel = select_subspace(rp, lambda g: True, 1)
        sub = subspace_expansion(rp, sel, pair)
        t = 1e-4
        assert np.allclose(sub.c_of(t), [[t**0.25 * sel.omega[0, 0]]])


class TestEigenvectorExpansion:
    def test_example1_constant(self):
        pair, rp = example1_reduced()
        for idx in range(4):
            ev = eigenvector_expansion(rp, 0, idx, pair)
            assert np.allclose(ev.constant.ravel(), [1.0, 0.0, 0.0, 0.0])

    def test_not_simple(self):
        pair = pair_with_s2(9.0 * np.eye(2))
        rp = reduce_pencil(assemble_pencil(pair, 2))
        with pytest.raises(NotSimple):
            eigenvector_expansion(rp, 0, 0, pair)

    def test_rho1_matches_oracle_direction(self):
        pair = random_pair((1, 1), seed=3)
        rp = reduce_pencil(assemble_pencil(pair, 1))
        ev = eigenvector_expansion(rp, 0, 0, pair)
        t = 1e-8
        w, v = np.linalg.eig(pair.perturbed(t))
        e = eigenvalue_expansions(rp)[0]
        j = int(np.argmin(np.abs(w - e.predict(t)[0])))
        vec = v[:, j]
        h = ev.constant.ravel()
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
