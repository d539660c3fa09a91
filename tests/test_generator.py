import numpy as np
import pytest

from jordanperturb import (
    CanonicalPair,
    CaseSpec,
    JordanStructure,
    check_generic,
    generate,
    known_case,
)
from jordanperturb.errors import UnknownCase


class TestGenerate:
    def test_determinism(self):
        spec = CaseSpec(JordanStructure(0.0, (1, 1)), seed=7)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.d11, b.d11)

    def test_different_seeds_differ(self):
        st = JordanStructure(0.0, (1, 1))
        a = generate(CaseSpec(st, seed=1))
        b = generate(CaseSpec(st, seed=2))
        assert not np.array_equal(a.d11, b.d11)

    def test_ensure_generic(self):
        pair = generate(CaseSpec(JordanStructure(0.0, (1, 1)), seed=0, ensure_generic=True))
        rep = check_generic(pair)
        assert rep.generic and min(rep.sigma_min) > rep.threshold * np.linalg.norm(pair.d11)

    def test_scale_zero(self):
        pair = generate(
            CaseSpec(JordanStructure(0.0, (1, 1)), seed=0, scale=0.0, ensure_generic=False)
        )
        assert np.all(pair.d11 == 0)

    def test_scale_zero_generic_conflict(self):
        with pytest.raises(ValueError):
            generate(CaseSpec(JordanStructure(0.0, (1, 1)), seed=0, scale=0.0))

    def test_distinct_gammas(self):
        pair = generate(
            CaseSpec(JordanStructure(0.0, (1, 2)), seed=5, ensure_distinct_gammas=True)
        )
        from jordanperturb import assemble_pencil, reduce_pencil

        for rho in (1, 2):
            rp = reduce_pencil(assemble_pencil(pair, rho))
            vals = np.linalg.eigvals(rp.s_rho)
            if vals.size >= 2:
                gaps = [
                    abs(vals[i] - vals[j])
                    for i in range(vals.size)
                    for j in range(i + 1, vals.size)
                ]
                assert min(gaps) > 1e-3 * np.abs(vals).max()


class TestKnownCase:
    def test_example1(self):
        case = known_case("example1")
        assert case.structure.sizes == (0, 0, 0, 1)
        t = 1e-4
        w = np.linalg.eigvals(case.a + t * case.d)
        expected = case.expected["eigenvalues"](t)
        from jordanperturb import match_eigenvalues

        _, err = match_eigenvalues(expected, w)
        assert err < 1e-12
        assert case.expected["h0_columns"].shape == (4, 3)
        assert case.expected["h1_columns"][1, 1] == 1.0j

    def test_rho1_diagonal(self):
        case = known_case("rho1-diagonal")
        t = 1e-3
        w = np.linalg.eigvals(case.a + t * case.d)
        expected = case.expected["eigenvalues"](t)
        from jordanperturb import match_eigenvalues

        _, err = match_eigenvalues(expected, w)
        assert err < 1e-12  # exact: A = lambda0 I

    def test_two_block_mixed(self):
        case = known_case("two-block-mixed")
        assert case.structure.sizes == (1, 2)
        assert case.expected["valid_rhos"] == [1, 2]
        t = case.expected["t_ref"]
        w = np.sort_complex(np.linalg.eigvals(case.a + t * case.d))
        assert np.abs(w - case.expected["eigenvalues_at_t_ref"]).max() < 1e-14
        pair = CanonicalPair(case.structure, case.d)
        assert check_generic(pair).generic

    def test_unknown(self):
        with pytest.raises(UnknownCase):
            known_case("no-such-case")
