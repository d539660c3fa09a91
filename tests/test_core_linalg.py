import numpy as np
import pytest
import scipy.linalg

from jordanperturb import CanonicalPair, JordanStructure, assemble_pencil, reduce_pencil
from jordanperturb import core_linalg as cl
from jordanperturb.errors import NoConvergence, SpectraOverlap

from closed_forms import principal_root
from conftest import failing_zgees, kron_sylvester


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def refuse(*args, **kwargs):
    """Stand-in for a LAPACK wrapper the code under test must not call."""
    raise AssertionError("unexpected call")


class TestEig:
    def test_identity(self):
        w = cl.eig(np.eye(2))
        assert np.allclose(sorted(w.real), [1, 1]) and np.allclose(w.imag, 0)

    def test_diagonal(self):
        w = cl.eig(np.diag([2.0, 3.0j]))
        assert np.allclose(sorted(w, key=lambda z: z.real), [3.0j, 2.0])

    def test_example1_cyclic(self):
        # 4x4 cyclic shift with corner t: eigenvalues t^(1/4) * 4th roots of unity
        from jordanperturb import match_eigenvalues

        t = 1e-4
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = m[1, 2] = m[2, 3] = 1.0
        m[3, 0] = t
        w = cl.eig(m)
        expected = np.array([1e-1 * np.exp(0.5j * np.pi * j) for j in range(4)])
        _, err = match_eigenvalues(expected, w)
        assert err < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_residual_bound(self, n):
        # numpy's eigenvalues, and each one a backward-stable root:
        # sigma_min(m - lambda I) <= 100 n eps ||m||
        from jordanperturb import match_eigenvalues

        rng = np.random.default_rng(n)
        m = rand_complex(rng, n)
        w = cl.eig(m)
        assert w.shape == (n,) and w.dtype == np.complex128
        _, err = match_eigenvalues(np.linalg.eigvals(m), w)
        assert err <= 1e-12 * np.linalg.norm(m)
        for lam in w:
            resid = cl.smallest_singular_value(m - lam * np.eye(n)) / np.linalg.norm(m)
            assert resid <= 100 * n * cl.EPS

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            cl.eig(np.array([[np.nan, 0], [0, 1]]))


    def test_stack_rows_bit_identical(self):
        # one call on a (k, n, n) stack: row i is eig(stack[i]) bit for bit
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(13, 20, 20)) + 1j * rng.normal(size=(13, 20, 20))
        w = cl.eig(stack)
        assert w.shape == (13, 20) and w.dtype == np.complex128
        for wk, mk in zip(w, stack):
            assert np.array_equal(wk, cl.eig(mk))

    def test_stack_empty_dimensions(self):
        assert cl.eig(np.zeros((3, 0, 0))).shape == (3, 0)
        assert cl.eig(np.zeros((0, 4, 4))).shape == (0, 4)

    def test_stack_rejects_nan_and_non_square(self):
        stack = np.zeros((2, 3, 3))
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            cl.eig(stack)
        with pytest.raises(ValueError, match="square"):
            cl.eig(np.zeros((2, 3, 4)))


class TestSchurWorkspace:
    def test_queried_once_per_order(self, monkeypatch):
        # zgees' workspace depends only on n: two Schur forms of one size make
        # one query and two factorizations, and a new size queries again
        lapack, calls = cl._lapack(), []
        zgees = lapack.zgees

        def counted(select, a, *args, lwork, **kwargs):
            calls.append((len(a), lwork == -1))
            return zgees(select, a, *args, lwork=lwork, **kwargs)

        monkeypatch.setattr(cl, "_ZGEES_LWORK", {})
        monkeypatch.setattr(lapack, "zgees", counted)
        rng = np.random.default_rng(2)
        cl.schur(rand_complex(rng, 7))
        cl.schur(rand_complex(rng, 7))
        assert calls == [(7, True), (7, False), (7, False)]
        cl.schur(rand_complex(rng, 9))
        assert calls[3:] == [(9, True), (9, False)]

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33, 60])
    def test_cached_workspace_bit_identical_to_scipy(self, n):
        # every Schur form after the first of its size reuses the workspace
        # and still equals scipy.linalg.schur's, which queries each time
        rng = np.random.default_rng(n)
        for _ in range(3):
            m = rand_complex(rng, n)
            t, q = cl.schur(m)
            t_ref, q_ref = scipy.linalg.schur(m, output="complex")
            assert np.array_equal(t, t_ref) and np.array_equal(q, q_ref)


class TestOrderedSchur:
    def test_qr_failure_raises_no_convergence(self, monkeypatch):
        monkeypatch.setattr(cl._lapack(), "zgees", failing_zgees)
        m = rand_complex(np.random.default_rng(0), 4)
        with pytest.raises(NoConvergence, match="zgees info 1"):
            cl.schur(m)
        with pytest.raises(NoConvergence):
            cl.ordered_schur(m, lambda diag: diag.real > 0)

    def test_select_all(self):
        rng = np.random.default_rng(0)
        m = rand_complex(rng, 4)
        q, t, r = cl.ordered_schur(m, lambda diag: np.ones(diag.size, dtype=bool))
        assert r == 4
        assert np.linalg.norm(q @ q.conj().T - np.eye(4)) < 40 * cl.EPS
        assert np.linalg.norm(m @ q - q @ t) < 1e-12 * np.linalg.norm(m)

    def test_diagonal_selection(self):
        q, t, r = cl.ordered_schur(np.diag([1.0, 5.0]), lambda diag: np.abs(diag - 5) < 1)
        assert r == 1
        assert abs(t[0, 0] - 5.0) < 1e-14
        # leading Schur vector spans e2
        assert abs(abs(q[1, 0]) - 1.0) < 1e-14

    def test_theta4_positive_real_part(self):
        # brute-force oracle: the 4th roots of unity with Re > 0.5 is exactly {1}
        roots = [np.exp(0.5j * np.pi * j) for j in range(4)]
        expected = [z for z in roots if z.real > 0.5]
        assert expected == [1.0]
        theta = np.zeros((4, 4), dtype=complex)
        theta[0, 1] = theta[1, 2] = theta[2, 3] = 1.0
        theta[3, 0] = 1.0
        q, t, r = cl.ordered_schur(theta, lambda diag: diag.real > 0.5)
        assert r == 1
        assert abs(t[0, 0] - 1.0) < 1e-12

    def test_diag_multiset_matches_eig(self):
        rng = np.random.default_rng(7)
        m = rand_complex(rng, 6)
        _, t, _ = cl.ordered_schur(m, lambda diag: diag.real > 0)
        w = np.sort_complex(cl.eig(m))
        assert np.abs(np.sort_complex(np.diag(t)) - w).max() < 1e-10

    def test_reorders_given_schur_form(self, monkeypatch):
        # a Schur form at hand, passed as (t, q), is reordered with no new
        # Schur form computed, to the same bits as reordering m from scratch
        rng = np.random.default_rng(3)
        m = rand_complex(rng, 5)
        t, q = cl.schur(m)
        assert np.linalg.norm(q @ t @ q.conj().T - m) < 1e-13 * np.linalg.norm(m)
        want = cl.ordered_schur(m, lambda diag: diag.real > 0)
        monkeypatch.setattr(cl._lapack(), "zgees", refuse)
        got = cl.ordered_schur(t, lambda diag: diag.real > 0, q)
        assert got[2] == want[2] > 0
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestSolveSylvester:
    def test_scalar(self):
        x = cl.solve_sylvester([[2.0]], [[1.0]], [[-1.0]])
        assert abs(x[0, 0] - 1.0) < 1e-14

    def test_zero_rhs(self):
        x = cl.solve_sylvester(np.diag([2.0, 3.0]), [[1.0]], np.zeros((2, 1)))
        assert np.all(x == 0)

    def test_diag_case(self):
        x = cl.solve_sylvester(np.diag([3.0, 4.0]), [[1.0]], [[-1.0], [-1.0]])
        assert np.allclose(x.ravel(), [0.5, 1.0 / 3.0])

    def test_overlap_rejected(self):
        with pytest.raises(SpectraOverlap):
            cl.solve_sylvester([[1.0]], [[1.0]], [[1.0]])
        # a dense non-normal b, similar to [[2, 10], [0, 5]], sharing the eigenvalue 2 with a
        s = np.array([[1.0, 2.0], [0.5, 3.0]])
        b = s @ np.array([[2.0, 10.0], [0.0, 5.0]]) @ np.linalg.inv(s)
        with pytest.raises(SpectraOverlap):
            cl.solve_sylvester(np.diag([2.0, 7.0]), b, np.ones((2, 2)))

    # the last case has a defective b, one Jordan block like the A11 = lambda0 I + N
    # that reduction passes; its Schur form is b itself
    SYLVESTER_CASES = [(2, 3, 0, False), (4, 4, 1, False), (6, 5, 2, False), (1, 6, 3, False),
                       (4, 5, 4, True)]

    @pytest.mark.parametrize(
        "na,nb,seed,jordan", SYLVESTER_CASES,
        ids=["-".join(map(str, c[:3])) + ("-jordan" if c[3] else "") for c in SYLVESTER_CASES],
    )
    def test_against_kronecker_oracle(self, na, nb, seed, jordan):
        rng = np.random.default_rng(seed)
        a = rand_complex(rng, na) + 3 * np.eye(na)
        b = rand_complex(rng, nb) - 3 * np.eye(nb)
        if jordan:
            b = (-3.0 + 0.5j) * np.eye(nb) + np.eye(nb, k=1)
        c = rand_complex(rng, na, nb)
        x = cl.solve_sylvester(a, b, c)
        x_oracle = kron_sylvester(a, b, c)
        assert np.linalg.norm(x - x_oracle) <= 1e-10 * max(1.0, np.linalg.norm(x_oracle))
        assert np.linalg.norm(a @ x - x @ b + c) < 1e-10 * max(1.0, np.linalg.norm(c))

    # the shapes (Omega_c, Omega) and (S11, T22) take on the closed-form path
    @pytest.mark.parametrize("kind", ["triangular", "dense"])
    @pytest.mark.parametrize("na,nb", [(19, 1), (11, 1), (1, 3), (1, 1)])
    def test_shapes_against_kronecker_oracle(self, monkeypatch, na, nb, kind):
        # Separation is read off the Schur diagonals (no eig call), and a
        # triangular side is its own Schur form (no Schur call at all).
        rng = np.random.default_rng(100 * na + nb)
        a = rand_complex(rng, na) + 3 * np.eye(na)
        b = rand_complex(rng, nb) - 3 * np.eye(nb)
        if kind == "triangular":
            a, b = np.triu(a), np.triu(b)
            monkeypatch.setattr(cl._lapack(), "zgees", refuse)
        c = rand_complex(rng, na, nb)
        monkeypatch.setattr(cl, "eig", refuse)
        x = cl.solve_sylvester(a, b, c)
        x_oracle = kron_sylvester(a, b, c)
        assert np.linalg.norm(x - x_oracle) <= 1e-12 * max(1.0, np.linalg.norm(x_oracle))

    def test_touching_triangular_diagonals_rejected(self, monkeypatch):
        monkeypatch.setattr(cl, "eig", refuse)
        rng = np.random.default_rng(5)
        a = np.triu(rand_complex(rng, 4))
        b = np.triu(rand_complex(rng, 3))
        b[2, 2] = a[1, 1]
        with pytest.raises(SpectraOverlap):
            cl.solve_sylvester(a, b, rand_complex(rng, 4, 3))
        b[2, 2] = a[1, 1] + 1e-3  # separated, though barely
        x = cl.solve_sylvester(a, b, np.ones((4, 3)))
        assert np.linalg.norm(x - kron_sylvester(a, b, np.ones((4, 3)))) <= 1e-9 * np.linalg.norm(x)

    def test_empty(self):
        x = cl.solve_sylvester(np.zeros((0, 0)), [[1.0]], np.zeros((0, 1)))
        assert x.shape == (0, 1)
        for na, nb in [(3, 0), (0, 0)]:
            x = cl.solve_sylvester(np.eye(na), np.zeros((nb, nb)), np.zeros((na, nb)))
            assert x.shape == (na, nb) and x.dtype == np.complex128


class TestSchurSylvester:
    # the (N, n2) shapes of the ladder's Newton steps, and empty sides
    @pytest.mark.parametrize("n,n2", [(40, 20), (18, 12), (6, 6), (5, 0), (0, 4)])
    def test_identity_e_against_kronecker_oracle(self, n, n2):
        # a X - X theta = f, with e = None and with an explicit identity e
        rng = np.random.default_rng(100 * n + n2)
        a = rand_complex(rng, n) / max(n, 1) ** 0.5 + 3 * np.eye(n)
        theta = rand_complex(rng, n2) / max(n2, 1) ** 0.5 - 3 * np.eye(n2)
        t, q = scipy.linalg.schur(theta, output="complex") if n2 else (theta, theta)
        f = rand_complex(rng, n, n2)
        x_none = cl.schur_sylvester(a, None, t, q, f)
        x_eye = cl.schur_sylvester(a, np.eye(n, dtype=complex), t, q, f)
        assert x_none.shape == x_eye.shape == (n, n2)
        if n and n2:
            x_oracle = kron_sylvester(a, theta, -f)
            for x in (x_none, x_eye):
                assert np.linalg.norm(x - x_oracle) <= 1e-13 * np.linalg.norm(x_oracle)

    @pytest.mark.parametrize("e", [None, np.eye(2)], ids=["none", "identity"])
    def test_singular_column_rejected(self, e):
        # a - t_11 e is exactly singular
        a, one = np.diag([1.0, 2.0]).astype(complex), np.ones((1, 1))
        with pytest.raises(np.linalg.LinAlgError):
            cl.schur_sylvester(a, e, one, one, np.ones((2, 1), dtype=complex))


class TestSmallestSingularValue:
    def test_identity(self):
        assert cl.smallest_singular_value(np.eye(3)) == pytest.approx(1.0)

    def test_zero(self):
        assert cl.smallest_singular_value(np.zeros((2, 2))) == 0.0

    def test_diag(self):
        assert cl.smallest_singular_value(np.diag([1.0, 1e-6])) == pytest.approx(1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cl.smallest_singular_value(np.zeros((0, 2)))


class TestTriangularRoot:
    # closed_forms.principal_root (scipy's fractional_matrix_power) is the oracle

    @staticmethod
    def cluster_blocks():
        """The S11 blocks of the clusters of S_2 = diag(9, 9, 4, 4) (sizes (0, 4))
        and of the non-normal S_2 = [[a, 1], [0, a]] (sizes (0, 2))."""
        d = np.zeros((8, 8), dtype=complex)
        d[4:8, 0:4] = np.diag([9.0, 9.0, 4.0, 4.0])
        pairs = [CanonicalPair(JordanStructure(0.0, (0, 4)), d)]
        for a in (2.0, -1 + 2j, 0.3 - 0.7j, 1e-3 + 1e-3j):
            d = np.zeros((4, 4), dtype=complex)
            d[2:4, 0:2] = [[a, 1.0], [0.0, a]]
            pairs.append(CanonicalPair(JordanStructure(0.0, (0, 2)), d))
        return [cb.s11 for pair in pairs for cb in reduce_pencil(assemble_pencil(pair, 2)).clusters]

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_clustered_s_rho_against_oracle(self, p):
        blocks = self.cluster_blocks()
        assert [b.shape for b in blocks] == [(2, 2)] * 6
        assert all(b[0, 1] == 1.0 for b in blocks[2:])  # non-normal: the Jordan block itself
        for s11 in blocks:
            got = cl.triangular_root(s11, p)
            want = principal_root(s11, p)
            assert np.array_equal(got, np.triu(got))
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            assert np.linalg.norm(np.linalg.matrix_power(got, p) - s11) <= 1e-13 * np.linalg.norm(s11)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_triangular_against_oracle(self, p, seed):
        # 5 x 5 with a triple eigenvalue and a distinct pair, off the branch cut
        rng = np.random.default_rng(seed)
        t = np.triu(rand_complex(rng, 5))
        np.fill_diagonal(t, [1 + 1j, 1 + 1j, 1 + 1j, 2 - 0.5j, 0.5 + 2j])
        got = cl.triangular_root(t, p)
        want = principal_root(t, p)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_scalar_is_the_principal_complex_power(self):
        for x in (4.0, -1 + 2j, 0.3 - 0.7j):
            for p in (1, 2, 5):
                assert cl.triangular_root([[x]], p)[0, 0] == complex(x) ** (1.0 / p)

    def test_rejects_non_triangular_or_singular(self):
        with pytest.raises(ValueError):
            cl.triangular_root([[1.0, 0.0], [1.0, 1.0]], 2)
        with pytest.raises(ValueError):
            cl.triangular_root([[1.0, 1.0], [0.0, 0.0]], 2)
