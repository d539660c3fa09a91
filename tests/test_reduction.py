import numpy as np
import pytest
import scipy.linalg as la

from jordanperturb import (
    CanonicalPair,
    JordanStructure,
    SpectralTransformation,
    assemble_pencil,
    build_nilpotent,
    effective_d11,
    reduce,
    reduce_pencil,
)
from jordanperturb.errors import InvalidTransformation

from conftest import fit_slope, kron_sylvester


def j2_plus_scalar():
    """a = diag(J2(0), 5), identity transformation."""
    st = JordanStructure(0.0, (0, 1))
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1] = 1.0
    a[2, 2] = 5.0
    xi = np.zeros((3, 2), dtype=complex)
    xi[0, 0] = xi[1, 1] = 1.0
    xi_c = np.array([[0.0], [0.0], [1.0]], dtype=complex)
    trans = SpectralTransformation(xi=xi, xi_c=xi_c, a22=[[5.0]], structure=st)
    return a, trans


def random_transformed(sizes, lambda0, n_extra, seed):
    st = JordanStructure(lambda0, sizes)
    rng = np.random.default_rng(seed)
    m = st.dim
    n = m + n_extra
    a11 = lambda0 * np.eye(m) + build_nilpotent(st)
    a22 = np.diag(rng.normal(size=n_extra) + 3.0 + 1j * rng.normal(size=n_extra))
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    t = q @ (np.eye(n) + 0.2 * rng.normal(size=(n, n)))
    a = t @ la.block_diag(a11, a22) @ np.linalg.inv(t)
    d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    trans = SpectralTransformation(xi=t[:, :m], xi_c=t[:, m:], a22=a22, structure=st)
    return a, d, trans


class TestReduce:
    def test_identity_transformation_blocks_literal(self):
        a, trans = j2_plus_scalar()
        rng = np.random.default_rng(0)
        d = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        red = reduce(a, d, trans)
        assert np.allclose(red.pair.d11, d[:2, :2])
        assert np.allclose(red.d12, d[:2, 2:])
        assert np.allclose(red.d21, d[2:, :2])

    def test_zero_d(self):
        a, trans = j2_plus_scalar()
        red = reduce(a, np.zeros((3, 3)), trans)
        assert np.all(red.pair.d11 == 0) and np.all(red.p1 == 0)

    def test_worked_3x3_p1(self):
        a, trans = j2_plus_scalar()
        d = np.ones((3, 3), dtype=complex)
        red = reduce(a, d, trans)
        # 5*P1 - P1*J2(0) = -[1 1]  =>  P1 = [-1/5, -6/25]... with the sign
        # convention A22 P1 - P1 A11 + D21 = 0 and D21 = [1 1]:
        assert np.allclose(red.p1, [[-1.0 / 5.0, -6.0 / 25.0]])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_similarity_exactness(self, seed):
        a, d, trans = random_transformed((1, 1), 0.4 + 0.3j, 3, seed)
        t = trans.full
        st = trans.structure
        a11 = st.lambda0 * np.eye(st.dim) + build_nilpotent(st)
        rebuilt = t @ la.block_diag(a11, trans.a22) @ np.linalg.inv(t)
        assert np.linalg.norm(rebuilt - a) / np.linalg.norm(a) <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_p1_against_kronecker_oracle(self, seed):
        a, d, trans = random_transformed((1, 1), 0.0, 3, seed)
        red = reduce(a, d, trans)
        st = trans.structure
        a11 = st.lambda0 * np.eye(st.dim) + build_nilpotent(st)
        p1_oracle = kron_sylvester(trans.a22, a11, red.d21)
        assert np.linalg.norm(red.p1 - p1_oracle) <= 1e-10 * max(1, np.linalg.norm(p1_oracle))

    def test_no_threaded_scipy_drivers(self, monkeypatch):
        # the validation and the split of D call the LAPACK drivers directly:
        # scipy.linalg.solve and svdvals wake a BLAS worker thread
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.solve or svdvals called")

        a, d, trans = random_transformed((1, 2), 0.3 - 0.2j, 2, 0)
        monkeypatch.setattr(la, "solve", refuse)
        monkeypatch.setattr(la, "svdvals", refuse)
        red = reduce(a, d, trans)
        # D Xi = T [D11; D21], and D12 is the top of T^-1 D Xi_c
        t, scale = trans.full, np.linalg.norm(d @ trans.full)
        assert np.linalg.norm(t @ np.vstack([red.pair.d11, red.d21]) - d @ trans.xi) <= 1e-12 * scale
        m = trans.structure.dim
        dc = np.linalg.solve(t, d @ trans.xi_c)[:m]
        assert np.linalg.norm(dc - red.d12) <= 1e-12 * max(1.0, np.linalg.norm(red.d12))

    def test_invalid_singular_basis(self):
        a, trans = j2_plus_scalar()
        bad = SpectralTransformation(
            xi=trans.xi, xi_c=np.zeros((3, 1)), a22=trans.a22, structure=trans.structure
        )
        with pytest.raises(InvalidTransformation, match="singular"):
            reduce(a, np.zeros((3, 3)), bad)

    def test_invalid_similarity(self):
        a, trans = j2_plus_scalar()
        with pytest.raises(InvalidTransformation, match="similarity"):
            reduce(a + 0.1, np.zeros((3, 3)), trans)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)], ids=["3x2", "2x3"])
    def test_invalid_d_shape(self, shape):
        # a d that does not match the transformation is named, not a matmul error
        a, trans = j2_plus_scalar()
        with pytest.raises(InvalidTransformation, match=r"^d must be 3x3 to match the transformation$"):
            reduce(a, np.zeros(shape), trans)

    def test_structure_is_required(self):
        # the structure fixes the shapes checked on construction: it has no default
        _, trans = j2_plus_scalar()
        with pytest.raises(TypeError, match="structure"):
            SpectralTransformation(xi=trans.xi, xi_c=trans.xi_c, a22=trans.a22)

    def test_invalid_lambda0_in_a22(self):
        st = JordanStructure(5.0, (1,))
        a = np.diag([5.0, 5.0 + 1e-9]).astype(complex)
        trans = SpectralTransformation(
            xi=[[1.0], [0.0]], xi_c=[[0.0], [1.0]], a22=[[5.0 + 1e-9]], structure=st
        )
        with pytest.raises(InvalidTransformation, match="Lambda\\(A22\\)"):
            reduce(a, np.zeros((2, 2)), trans)


class TestEffectiveD11:
    def test_t_zero(self):
        a, trans = j2_plus_scalar()
        d = np.ones((3, 3), dtype=complex)
        red = reduce(a, d, trans)
        assert np.array_equal(effective_d11(red, 0.0), red.pair.d11)

    def test_zero_coupling(self):
        a, trans = j2_plus_scalar()
        d = np.zeros((3, 3), dtype=complex)
        d[:2, :2] = np.arange(4).reshape(2, 2)
        red = reduce(a, d, trans)
        for t in (0.0, 1e-3, 0.5):
            assert np.array_equal(effective_d11(red, t), red.pair.d11)

    def test_first_order_term(self):
        a, trans = j2_plus_scalar()
        d = np.ones((3, 3), dtype=complex)
        red = reduce(a, d, trans)
        t = 1e-3
        expected = red.pair.d11 + t * np.outer([1.0, 1.0], red.p1.ravel())
        assert np.allclose(effective_d11(red, t), expected)

    def test_general_problem_end_to_end(self):
        # full pipeline on a general (a, d) with a nontrivial basis: the
        # subspace relation and the eigenvalue predictions hold at the
        # claimed orders in the original coordinates (rho >= 2)
        from jordanperturb import (
            complement_pair,
            eigenvalue_expansions,
            first_order_expansion,
            select_subspace,
        )

        a, d, trans = random_transformed((1, 2), 0.3 - 0.2j, 2, seed=10)
        red = reduce(a, d, trans)
        rho = 2
        rp = reduce_pencil(assemble_pencil(red.pair, rho))
        g0 = np.linalg.eigvals(rp.s_rho)[0]
        sel = select_subspace(rp, lambda lam: abs(lam - g0) < 1e-6 * max(1, abs(g0)), 0)
        comp = complement_pair(rp, sel)
        fo = first_order_expansion(rp, sel, comp)
        lam0 = trans.structure.lambda0
        ts = np.geomspace(1e-2, 1e-8, 13)
        errs, eig_errs = [], []
        exps = {id(e): e for e in eigenvalue_expansions(rp)}.values()
        for t in ts:
            z = t ** (1.0 / rho)
            h = trans.xi @ fo.h_of(t)  # canonical -> original coordinates
            c = lam0 * np.eye(sel.r) + z * sel.omega + z * z * fo.delta11
            errs.append(np.linalg.norm((a + t * d) @ h - h @ c))
            w = np.linalg.eigvals(a + t * d)
            eig_errs.append(
                max(np.abs(w - p).min() for e in exps for p in e.predict(t))
            )
        assert fit_slope(ts, errs) >= 2.0 / rho - 0.1
        assert fit_slope(ts, eig_errs) >= 2.0 / rho - 0.1

    @pytest.mark.parametrize(
        "claimed",
        [
            1.0,
            pytest.param(2.0, marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="at rho = 1 H1 lacks xi_c P1 H0 and Delta11 the share of D12 P1; "
                "ROADMAP item 4 (general problems in their own coordinates) adds them",
            )),
        ],
    )
    def test_general_problem_rho1_relation_through_t(self, claimed):
        # at rho = 1 the cross-block coupling is first order, so the subspace
        # relation in the original coordinates holds through t only: the
        # residual falls like t, not like the t^2 the canonical pair claims
        from jordanperturb import complement_pair, first_order_expansion, select_subspace
        from jordanperturb.verify import _oracle_sweep

        a, d, trans = random_transformed((1, 2), 0.3 - 0.2j, 2, seed=10)
        rp = reduce_pencil(assemble_pencil(reduce(a, d, trans).pair, 1))
        ts = _oracle_sweep(1)
        for cb in rp.clusters:
            sel = select_subspace(rp, lambda g, cb=cb: g == cb.gamma, 0)
            fo = first_order_expansion(rp, sel, complement_pair(rp, sel))
            hs = [trans.xi @ fo.h_of(t) for t in ts]  # canonical -> original coordinates
            errs = [np.linalg.norm((a + t * d) @ h - h @ fo.c_of(t)) for t, h in zip(ts, hs)]
            assert fit_slope(ts, errs) >= claimed - 0.1

    @pytest.mark.parametrize("rho", [1, 2])
    def test_effective_changes_predictions_at_higher_order(self, rho):
        # the mu-level predictions with D11 and with effective_d11(t) differ
        # by O(t^((rho+1)/rho)) at the lambda level
        a, d, trans = random_transformed((1, 1), 0.0, 3, seed=4)
        red = reduce(a, d, trans)
        base = reduce_pencil(assemble_pencil(red.pair, rho))
        mus_b = np.linalg.eigvals(base.theta)
        ts = np.geomspace(1e-2, 1e-7, 9)
        errs = []
        for t in ts:
            eff = CanonicalPair(red.pair.structure, effective_d11(red, t))
            rp = reduce_pencil(assemble_pencil(eff, rho))
            mus_e = np.linalg.eigvals(rp.theta)
            cost = np.abs(mus_b[:, None] - mus_e[None, :])
            from scipy.optimize import linear_sum_assignment

            r, c = linear_sum_assignment(cost)
            errs.append(t ** (1.0 / rho) * cost[r, c].max())
        slope = fit_slope(ts, errs)
        assert slope is not None and slope >= (rho + 1) / rho - 0.1
