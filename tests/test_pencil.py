import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from jordanperturb import (
    CanonicalPair,
    CaseSpec,
    JordanStructure,
    assemble_pencil,
    generate,
    reduce_pencil,
    theta_spectrum,
)
from jordanperturb.errors import ClusterNotSeparated, SingularW
from jordanperturb.pencil import CLUSTER_GAP_REL, _cluster, check_separated, scalar_roots, sort_complex

from closed_forms import (
    branch_table_by_branch,
    finite_pencil_eigs,
    g_blocks,
    hatted_dense_pencil,
    hatted_pencil_blocks,
    reduced_identity_residual,
    s_blocks,
    w_blocks,
)
from conftest import SUITE_SIZES, random_pair
from known_cases import example1_pair

# the verify-ladder structures (seed 1), and two with void size groups
LADDER_SIZES = [(1, 2), (2, 2, 2), (1, 1, 1, 1, 1), (3, 3, 3, 3), (4, 4, 4, 4, 4)]
# the expand-batch structures
EXPAND_SIZES = [(2, 2, 2), (3, 3, 3, 3), (2, 3, 2, 3, 2), (4, 4, 4, 4, 4)]


def distinct_gammas_pair(sizes, seed):
    return generate(CaseSpec(JordanStructure(0.0, sizes), seed=seed, ensure_distinct_gammas=True))


def s2_diag_pair():
    """sizes (0, 4) with S_2 = diag(9, 9, 4, 4): two non-simple 2 x 2 clusters."""
    d = np.zeros((8, 8), dtype=complex)
    d[4:8, 0:4] = np.diag([9.0, 9.0, 4.0, 4.0])
    return CanonicalPair(JordanStructure(0.0, (0, 4)), d)


def s2_jordan_pair(a):
    """sizes (0, 2) with S_2 = [[a, 1], [0, a]]: one non-normal 2 x 2 cluster."""
    d = np.zeros((4, 4), dtype=complex)
    d[2:4, 0:2] = [[a, 1.0], [0.0, a]]
    return CanonicalPair(JordanStructure(0.0, (0, 2)), d)


def rel_err(got, want) -> float:
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-300)


class TestScalarRoots:
    def test_square_roots_of_4(self):
        roots = scalar_roots(4.0, 2)
        assert np.allclose(sorted(roots, key=lambda z: z.real), [-2.0, 2.0])

    @given(
        hst.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                            allow_nan=False, allow_infinity=False),
        hst.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_roots_property(self, gamma, rho):
        roots = scalar_roots(gamma, rho)
        assert roots.size == rho
        assert np.abs(roots**rho - gamma).max() <= 1e-10 * max(1.0, abs(gamma))
        # distinct branches and sorted by argument
        args = np.angle(roots)
        assert np.all(np.diff(args) > 0) or rho == 1

    def test_fourth_roots_of_unity(self):
        roots = scalar_roots(1.0, 4)
        expected = {1.0, 1.0j, -1.0, -1.0j}
        assert all(min(abs(r - e) for e in expected) < 1e-14 for r in roots)

    def test_power_property(self):
        for gamma in (2.0 - 1.5j, -3.0, 1e-4j):
            for rho in (1, 2, 3, 5):
                for mu in scalar_roots(gamma, rho):
                    assert abs(mu**rho - gamma) <= 1e-12 * max(1.0, abs(gamma))


class TestAssemble:
    @pytest.mark.parametrize("sizes", [(1, 2), (2, 2, 2), (1, 0, 3)])
    def test_holds_only_exponent_maps(self, sizes):
        # the assembled pencil keeps no m x m array: its only array fields
        # are the per-row and per-column scaling exponents
        pair = random_pair(sizes, seed=1)
        for rho in pair.structure.valid_rhos():
            ap = assemble_pencil(pair, rho)
            assert list(vars(ap)) == ["pair", "rho", "left_exponents", "right_exponents"]
            arrays = {name: v for name, v in vars(ap).items() if isinstance(v, np.ndarray)}
            assert list(arrays) == ["left_exponents", "right_exponents"]
            assert all(v.shape == (pair.structure.dim,) and v.dtype == np.int64 for v in arrays.values())

    def test_example1(self):
        # one Jordan block at rho = k: Pi_L, Pi_R and G are the identity
        rp = reduce_pencil(assemble_pencil(example1_pair(), 4))
        assert np.array_equal(rp.u_coeffs[0], np.eye(4))
        assert np.all(rp.u_coeffs[1] == 0)
        v_expected = np.zeros((4, 4))
        v_expected[0, 1] = v_expected[1, 2] = v_expected[2, 3] = 1.0
        v_expected[3, 0] = 1.0
        assert np.array_equal(rp.v_coeffs[0], v_expected)
        assert len(rp.v_coeffs) == 1  # E_V(z) identically zero here

    def test_zero_d11_shift_only(self):
        st = JordanStructure(0.0, (0, 2))
        pair = CanonicalPair(st, np.zeros((4, 4)))
        rp = reduce_pencil(assemble_pencil(pair, 2))
        assert len(rp.v_coeffs) == 1
        assert int(rp.v_coeffs[0].real.sum()) == 2  # just the N superdiagonal

    def test_sizes_1_1_rho1_u_split(self):
        pair = random_pair((1, 1), seed=0)
        ap = assemble_pencil(pair, 1)
        assert np.array_equal(1 + ap.left_exponents + ap.right_exponents == 0, [True, False, True])
        rp = reduce_pencil(ap)
        assert np.array_equal(rp.u_coeffs[0], rp.hat(np.diag([1.0, 0.0, 1.0])))
        assert np.array_equal(rp.u_coeffs[1], rp.hat(np.diag([0.0, 1.0, 0.0])))

    def test_u_plus_eu_is_identity(self):
        for sizes in SUITE_SIZES:
            pair = random_pair(sizes, seed=1)
            for rho in pair.structure.valid_rhos():
                rp = reduce_pencil(assemble_pencil(pair, rho))
                u0, u1 = rp.u_coeffs
                assert np.array_equal(u0 + u1, rp.hat(np.eye(pair.structure.dim)))

    @pytest.mark.parametrize(
        "pair",
        [pytest.param(random_pair(s, seed=1), id=f"suite-{s}") for s in SUITE_SIZES]
        + [
            pytest.param(
                generate(CaseSpec(JordanStructure(0.0, s), seed=1, ensure_distinct_gammas=True)),
                id=f"ladder-{s}",
            )
            for s in LADDER_SIZES + [(0, 1, 0, 2), (1, 0, 3)]
        ],
    )
    def test_against_block_oracle(self, pair):
        # the exponent-matrix masks, hatted, give bit for bit the hats of the
        # block-by-block filing; an exponent with no entry gets a zero
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            u0, eu, v0, ev_coeffs = hatted_pencil_blocks(rp)
            for got, ref in zip((*rp.u_coeffs, rp.v_coeffs[0]), (u0, eu, v0)):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert len(rp.v_coeffs) == 1 + max(ev_coeffs, default=0)
            for e, coeff in enumerate(rp.v_coeffs[1:], start=1):
                ref = ev_coeffs.get(e, np.zeros_like(v0))
                assert coeff.dtype == ref.dtype and np.array_equal(coeff, ref), (rho, e)

    def test_ev_orders_at_least_one(self):
        pair = random_pair((1, 2), seed=2)
        rp = reduce_pencil(assemble_pencil(pair, 1))
        assert len(rp.v_coeffs) > 1 and np.any(rp.v_coeffs[-1] != 0)


class TestReduce:
    def test_example1_theta(self):
        pair = example1_pair()
        rp = reduce_pencil(assemble_pencil(pair, 4))
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 2] = expected[2, 3] = 1.0
        expected[3, 0] = 1.0
        assert np.array_equal(rp.theta.real, expected)
        assert np.array_equal(rp.s_rho, [[1.0]])
        assert rp.g_block.shape == (0, 4)  # rho = k: G is the identity

    def test_sizes_1_1_rho2_companion(self):
        pair = random_pair((1, 1), seed=0)
        rp = reduce_pencil(assemble_pencil(pair, 2))
        w2 = pair.d11[2, 1]
        assert np.allclose(rp.theta, [[0.0, 1.0], [w2, 0.0]])
        assert rp.s_rho[0, 0] == w2

    def test_sizes_1_1_rho1_schur_complement(self):
        pair = random_pair((1, 1), seed=0)
        d = pair.d11
        rp = reduce_pencil(assemble_pencil(pair, 1))
        expected = d[0, 0] - d[0, 1] * d[2, 0] / d[2, 1]
        assert abs(rp.s_rho[0, 0] - expected) < 1e-12

    def test_singular_w_raises(self):
        pair = random_pair((1, 1), seed=3)
        d = pair.d11.copy()
        d[2, 1] = 0.0  # kills W_2
        bad = CanonicalPair(pair.structure, d)
        with pytest.raises(SingularW):
            reduce_pencil(assemble_pencil(bad, 1))

    @pytest.mark.parametrize("sizes", SUITE_SIZES + [(4, 4, 4, 4, 4)])
    def test_permutation_sanity(self, sizes):
        # the row and column orders are permutations, and hat / lift agree with
        # the dense products Pi_L M Pi_R G and Pi_R G Y built from them
        pair = random_pair(sizes, seed=2)
        st = pair.structure
        m = st.dim
        rng = np.random.default_rng(0)
        for rho in st.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            for order in (rp.row_order, rp.col_order):
                assert np.array_equal(np.sort(order), np.arange(m))
            pi_l = np.eye(m)[rp.row_order, :]
            pi_r = np.eye(m)[:, rp.col_order]
            g = np.eye(m, dtype=complex)
            e0 = rp.n1 + rp.n2
            for j, gj in enumerate(g_blocks(rp), start=1):
                start = pair.index.offset(j, 1)
                g[e0 : e0 + st.shat(rho + 1), start : start + st.s(j)] = gj
            mat = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            y = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
            scale = np.linalg.norm(mat) * max(1.0, np.linalg.norm(g))
            assert np.linalg.norm(rp.hat(mat) - pi_l @ mat @ pi_r @ g) <= 1e-14 * scale
            assert np.linalg.norm(rp.lift(y) - pi_r @ g @ y) <= 1e-14 * scale

    @pytest.mark.parametrize("sizes", SUITE_SIZES)
    def test_w_factorization(self, sizes):
        pair = random_pair(sizes, seed=0)
        st = pair.structure
        for rho in range(1, st.k):  # rho < k
            rp = reduce_pencil(assemble_pencil(pair, rho))
            w_rho, w_next, cross = w_blocks(rp)
            s_r = st.s(rho)
            shat = st.shat(rho + 1)
            top = np.block(
                [
                    [rp.s_rho, cross],
                    [np.zeros((shat, s_r)), w_next],
                ]
            )
            low = np.block(
                [
                    [np.eye(s_r), np.zeros((s_r, shat))],
                    [-g_blocks(rp)[rho - 1], np.eye(shat)],
                ]
            )
            resid = np.linalg.norm(w_rho - top @ low)
            assert resid <= 1e-12 * max(1.0, np.linalg.norm(w_rho))

    @pytest.mark.parametrize("sizes", SUITE_SIZES + LADDER_SIZES)
    def test_oracle_g_and_s_match_library(self, sizes):
        # the oracle's own solves for G^(rho)_j and S_rho agree with the
        # library's g_block column slices and s_rho at every valid rho
        pair = distinct_gammas_pair(sizes, 1)
        st = pair.structure
        for rho in st.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            for j, want in enumerate(g_blocks(rp), start=1):
                start = pair.index.offset(j, 1)
                got = rp.g_block[:, start : start + st.s(j)]
                assert got.shape == want.shape and rel_err(got, want) <= 1e-13, (rho, j)
            want = s_blocks(rp)[rho - 1]
            assert rp.s_rho.shape == want.shape and rel_err(rp.s_rho, want) <= 1e-13, rho

    @pytest.mark.parametrize("sizes", LADDER_SIZES)
    def test_evaluation_against_dense_pencil(self, sizes):
        # the hatted z-coefficients, summed by Horner's rule at real and
        # complex z, give the hat of the dense block-by-block U(z) and V(z);
        # each coefficient is the hat of its oracle block, zero where E_V(z)
        # has no z^e term
        pair = distinct_gammas_pair(sizes, 1)
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            u0, eu, v0, ev = hatted_pencil_blocks(rp)
            assert len(rp.v_coeffs) == 1 + max(ev) and max(ev) <= 2 * rho - 1
            assert np.array_equal(rp.u_coeffs[0], u0) and np.array_equal(rp.u_coeffs[1], eu)
            for e, coeff in enumerate(rp.v_coeffs):
                assert np.array_equal(coeff, v0 if e == 0 else ev.get(e, np.zeros_like(v0))), (rho, e)
            for z in (0.3, 1e-2, 0.2 * np.exp(0.7j), 1e-3j):
                for got, want in zip(rp.at(z), hatted_dense_pencil(rp, z)):
                    assert rel_err(got, want) <= 1e-14, (rho, z)

    @pytest.mark.parametrize("sizes", SUITE_SIZES)
    def test_final_identity(self, sizes):
        pair = random_pair(sizes, seed=1)
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            for z, mu in [(1e-1, 0.37 + 0.21j), (1e-2, -0.53 + 0.11j)]:
                assert reduced_identity_residual(rp, z, mu) <= 1e-12

    def test_void_rho_block(self):
        # rho with s_rho = 0: Theta is empty but the reduction still holds
        pair = random_pair((1, 0, 1), seed=0)
        rp = reduce_pencil(assemble_pencil(pair, 2))
        assert rp.theta.shape == (0, 0) and rp.s_rho.shape == (0, 0)
        assert reduced_identity_residual(rp, 1e-1, 0.2 + 0.1j) <= 1e-12
        st = pair.structure
        shat = st.shat(3)
        w_rho, w_next, cross = w_blocks(rp)
        top = np.block(
            [[rp.s_rho, cross], [np.zeros((shat, 0)), w_next]]
        )
        low = np.block([[np.eye(0), np.zeros((0, shat))], [-g_blocks(rp)[1], np.eye(shat)]])
        assert np.linalg.norm(w_rho - top @ low) <= 1e-12
        assert finite_pencil_eigs(pair, 2).size == 0

    def test_vhat_block_structure(self):
        # V-hat is [[V11, 0, 0], [V21, Theta, V23], [0, 0, V33]] with V11 nilpotent
        pair = random_pair((1, 2), seed=0)
        for rho in (1, 2):
            rp = reduce_pencil(assemble_pencil(pair, rho))
            g1, g2, g3 = rp.g1, rp.g2, rp.g3
            v_hat = rp.v_coeffs[0]
            scale = max(1.0, np.linalg.norm(v_hat))
            assert np.all(v_hat[g1, g2] == 0)
            assert np.all(v_hat[g1, g3] == 0)
            assert np.all(v_hat[g3, g1] == 0)
            # the eliminated Z block vanishes only to roundoff
            assert np.linalg.norm(v_hat[g3, g2]) <= 1e-13 * scale
            v11 = v_hat[g1, g1]
            if v11.shape[0]:
                assert np.linalg.norm(np.linalg.matrix_power(v11, v11.shape[0])) == 0
            v33 = v_hat[g3, g3]
            if v33.shape[0]:
                assert np.linalg.cond(v33) < 1e8


class TestOrderKey:
    @pytest.mark.parametrize("im", [1e-17, -1e-17, 0.0])
    def test_negative_real_sorts_last(self, im):
        # a value on the negative real axis has argument pi whatever the sign
        # of a rounding-level imaginary part, in every ordering of the package
        vals = np.array([-2.0 + im * 1j, 1.0, 0.5j])
        assert np.array_equal(sort_complex(vals).real, [1.0, 0.0, -2.0])
        assert _cluster(vals, CLUSTER_GAP_REL * 2.0) == [[1], [2], [0]]

    @pytest.mark.parametrize("gamma, rho", [(-2.0, 7), (-8.0, 3), (-1.0, 5)])
    def test_roots_of_negative_real_gamma(self, gamma, rho):
        # the root branches of gamma +- a rounding-level imaginary part come
        # in one order, ending with the root on the negative real axis
        above, below = (scalar_roots(complex(gamma, s * 1e-15), rho) for s in (1, -1))
        assert np.abs(above - below).max() <= 1e-14 * abs(gamma)
        assert abs(above[-1] + abs(gamma) ** (1.0 / rho)) <= 1e-14 * abs(gamma)

    def test_complex_values_keep_their_order(self):
        # away from the negative real axis the key is argument, then modulus
        vals = np.array([-1.0 - 1e-3j, 2.0, -1.0 + 1e-3j, 1.0, 1.0j])
        assert sort_complex(vals).tolist() == [-1.0 - 1e-3j, 1.0, 2.0, 1.0j, -1.0 + 1e-3j]


class TestSpectra:
    def test_example1_theta_spectrum(self):
        pair = example1_pair()
        rp = reduce_pencil(assemble_pencil(pair, 4))
        spec = theta_spectrum(rp)
        expected = sort_complex([1.0, 1.0j, -1.0, -1.0j])
        assert np.abs(spec - expected).max() < 1e-10

    def test_nongeneric_zero_s(self):
        st = JordanStructure(0.0, (0, 1))
        pair = CanonicalPair(st, np.zeros((2, 2)))
        rp = reduce_pencil(assemble_pencil(pair, 2))  # rho = k: no inversion
        assert np.abs(theta_spectrum(rp)).max() == 0.0

    def test_square_roots(self):
        st = JordanStructure(0.0, (0, 1))
        d = np.zeros((2, 2), dtype=complex)
        d[1, 0] = 4.0  # W_2 = B^{(22)}_{21} = 4
        pair = CanonicalPair(st, d)
        rp = reduce_pencil(assemble_pencil(pair, 2))
        spec = theta_spectrum(rp)
        assert np.allclose(sorted(spec, key=lambda z: z.real), [-2.0, 2.0])

    def test_example1_finite_pencil(self):
        assert np.allclose(finite_pencil_eigs(example1_pair(), 4), [1.0])

    def test_decoupled_block_diagonal(self):
        # W_rho block diagonal (cross/Z blocks zero): finite eigenvalues are
        # those of the leading s_rho x s_rho block
        pair = random_pair((1, 1), seed=5)
        d = pair.d11.copy()
        d[0, 1] = 0.0  # W_{1,2}
        d[2, 0] = 0.0  # Z_{2,1}
        pair = CanonicalPair(pair.structure, d)
        vals = finite_pencil_eigs(pair, 1)
        assert np.allclose(vals, [d[0, 0]])

    @pytest.mark.parametrize("sizes", SUITE_SIZES)
    def test_epen_spectrum_split(self, sizes):
        pair = random_pair(sizes, seed=3)
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            pen = finite_pencil_eigs(pair, rho)
            s_eigs = sort_complex(np.linalg.eigvals(rp.s_rho))
            assert np.abs(pen - s_eigs).max() <= 1e-10 * max(1.0, np.abs(s_eigs).max())

    @pytest.mark.parametrize("sizes", SUITE_SIZES)
    def test_root_property(self, sizes):
        pair = random_pair(sizes, seed=2)
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            spec = theta_spectrum(rp)
            roots = np.concatenate(
                [scalar_roots(g, rho) for g in np.linalg.eigvals(rp.s_rho)]
            )
            cost = np.abs(spec[:, None] - roots[None, :])
            from scipy.optimize import linear_sum_assignment

            r, c = linear_sum_assignment(cost)
            assert cost[r, c].max() <= 1e-10 * max(1.0, np.abs(roots).max())


class TestBranchTable:
    @pytest.mark.parametrize(
        "pair",
        [pytest.param(distinct_gammas_pair(s, 1), id=f"ladder-{s}") for s in LADDER_SIZES]
        + [
            pytest.param(distinct_gammas_pair(s, seed), id=f"expand-{seed}-{s}")
            for seed in (1, 102)
            for s in EXPAND_SIZES
        ]
        + [pytest.param(s2_diag_pair(), id="s2-diag-9-9-4-4")]
        + [pytest.param(s2_jordan_pair(a), id=f"s2-jordan-{a}") for a in (2.0, -1 + 2j)],
    )
    def test_matches_per_branch_oracle(self, pair):
        # one power sequence, normalizer and inverse per cluster give every
        # branch's entries as each branch's own root, powers and inverse do
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            tab = rp.branches
            oracle = branch_table_by_branch(rp)
            assert oracle.keys() == tab.columns.keys() == tab.sigma.keys()
            for key, want in oracle.items():
                c = tab.columns[key]
                got = {
                    "omega": tab.omega[np.ix_(c, c)], "phi": tab.phi[:, c], "psi": tab.psi[c],
                    "lam": np.sort_complex(tab.lam[c]),
                    "sigma": np.array(tab.sigma[key]),
                }
                want = dict(want, lam=np.sort_complex(want["lam"]), sigma=np.array(want["sigma"]))
                for name in got:
                    assert rel_err(got[name], want[name]) <= 1e-13, (rho, key, name)
            n = tab.phi.shape[0]
            assert np.linalg.norm(tab.psi @ tab.phi - np.eye(n)) <= 1e-13 * n

    @pytest.mark.parametrize("sizes", [(1, 2), (2, 2, 2), (0, 4)])
    def test_built_whole(self, sizes):
        # the pencil's first read builds every (cluster, branch); the table
        # keeps only its arrays and index maps, and reading columns writes
        # nothing
        pair = distinct_gammas_pair(sizes, 1)
        for rho in pair.structure.valid_rhos():
            rp = reduce_pencil(assemble_pencil(pair, rho))
            tab = rp.branches
            assert list(vars(tab)) == ["columns", "phi", "psi", "omega", "lam", "sigma"]
            every = [(ci, b) for ci in range(len(rp.clusters)) for b in range(rho)]
            assert list(tab.columns) == list(tab.sigma) == every
            before = {name: getattr(tab, name).copy() for name in ("phi", "psi", "omega", "lam")}
            tab.split(every[:1])
            assert all(np.array_equal(getattr(tab, name), a) for name, a in before.items())


class TestCheckSeparated:
    def test_empty_sets_pass(self):
        for a, b in (([], []), ([], [1.0, 1.0]), ([2.0, 2.0], [])):
            check_separated(np.array(a, dtype=complex), np.array(b, dtype=complex), "x")

    def test_boundary_is_not_separated(self):
        # the largest modulus is 4, a power of two, so the threshold
        # 4 CLUSTER_GAP_REL is exact, and so is the gap from 0 to it
        limit = CLUSTER_GAP_REL * 4.0
        with pytest.raises(ClusterNotSeparated, match=r"^x and y separated by only "):
            check_separated(np.array([0.0, 4.0]), np.array([limit]), "x and y")
        check_separated(np.array([0.0, 4.0]), np.array([np.nextafter(limit, np.inf)]), "x and y")

    def test_message_names_the_gap(self):
        with pytest.raises(ClusterNotSeparated) as exc:
            check_separated(np.array([1.0]), np.array([1.0 + 1e-9j]), "two sets")
        assert str(exc.value) == f"two sets separated by only {1e-9:.3e}"
