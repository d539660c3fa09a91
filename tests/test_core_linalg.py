import numpy as np
import pytest

from jordanperturb import core_linalg as cl
from jordanperturb.errors import SpectraOverlap

from conftest import kron_sylvester


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


class TestEig:
    def test_identity(self):
        w, _ = cl.eig(np.eye(2))
        assert np.allclose(sorted(w.real), [1, 1]) and np.allclose(w.imag, 0)

    def test_diagonal(self):
        w, _ = cl.eig(np.diag([2.0, 3.0j]))
        assert np.allclose(sorted(w, key=lambda z: z.real), [3.0j, 2.0])

    def test_example1_cyclic(self):
        # 4x4 cyclic shift with corner t: eigenvalues t^(1/4) * 4th roots of unity
        from jordanperturb import match_eigenvalues

        t = 1e-4
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = m[1, 2] = m[2, 3] = 1.0
        m[3, 0] = t
        w, _ = cl.eig(m)
        expected = np.array([1e-1 * np.exp(0.5j * np.pi * j) for j in range(4)])
        _, err = match_eigenvalues(expected, w)
        assert err < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_residual_bound(self, n):
        rng = np.random.default_rng(n)
        m = rand_complex(rng, n)
        w, v = cl.eig(m)
        resid = np.linalg.norm(m @ v - v * w) / np.linalg.norm(m)
        assert resid <= cl.EIG_RESIDUAL_KAPPA * n * cl.EPS

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            cl.eig(np.array([[np.nan, 0], [0, 1]]))


class TestOrderedSchur:
    def test_select_all(self):
        rng = np.random.default_rng(0)
        m = rand_complex(rng, 4)
        q, t, r = cl.ordered_schur(m, lambda lam: True)
        assert r == 4
        assert np.linalg.norm(q @ q.conj().T - np.eye(4)) < 40 * cl.EPS
        assert np.linalg.norm(m @ q - q @ t) < 1e-12 * np.linalg.norm(m)

    def test_diagonal_selection(self):
        q, t, r = cl.ordered_schur(np.diag([1.0, 5.0]), lambda lam: abs(lam - 5) < 1)
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
        q, t, r = cl.ordered_schur(theta, lambda lam: lam.real > 0.5)
        assert r == 1
        assert abs(t[0, 0] - 1.0) < 1e-12

    def test_diag_multiset_matches_eig(self):
        rng = np.random.default_rng(7)
        m = rand_complex(rng, 6)
        _, t, _ = cl.ordered_schur(m, lambda lam: lam.real > 0)
        w = np.sort_complex(cl.eig(m)[0])
        assert np.abs(np.sort_complex(np.diag(t)) - w).max() < 1e-10


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

    @pytest.mark.parametrize("na,nb,seed", [(2, 3, 0), (4, 4, 1), (6, 5, 2), (1, 6, 3)])
    def test_against_kronecker_oracle(self, na, nb, seed):
        rng = np.random.default_rng(seed)
        a = rand_complex(rng, na) + 3 * np.eye(na)
        b = rand_complex(rng, nb) - 3 * np.eye(nb)
        c = rand_complex(rng, na, nb)
        x = cl.solve_sylvester(a, b, c)
        x_oracle = kron_sylvester(a, b, c)
        assert np.linalg.norm(x - x_oracle) <= 1e-10 * max(1.0, np.linalg.norm(x_oracle))
        assert np.linalg.norm(a @ x - x @ b + c) < 1e-10 * max(1.0, np.linalg.norm(c))

    def test_empty(self):
        x = cl.solve_sylvester(np.zeros((0, 0)), [[1.0]], np.zeros((0, 1)))
        assert x.shape == (0, 1)


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
