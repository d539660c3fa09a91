import numpy as np
import pytest

from jordanperturb import (
    CanonicalPair,
    CaseSpec,
    JordanStructure,
    check_generic,
    generate,
)


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
        # the benchmark's ladder and expand-batch structures among them; the
        # gaps are measured on the S_rho of the reduced pencil, not on the
        # W_rho pencil eigenvalues the generator tests
        from jordanperturb import assemble_pencil, reduce_pencil

        cases = [((1, 2), 5)] + [
            (sizes, seed)
            for sizes in [(1, 2), (2, 2, 2), (1, 1, 1, 1, 1), (3, 3, 3, 3), (4, 4, 4, 4, 4), (2, 3, 2, 3, 2)]
            for seed in (1, 33, 102)
        ]
        for sizes, seed in cases:
            pair = generate(
                CaseSpec(JordanStructure(0.0, sizes), seed=seed, ensure_distinct_gammas=True)
            )
            for rho in pair.structure.valid_rhos():
                rp = reduce_pencil(assemble_pencil(pair, rho))
                vals = np.linalg.eigvals(rp.s_rho)
                if vals.size >= 2:
                    gaps = [
                        abs(vals[i] - vals[j])
                        for i in range(vals.size)
                        for j in range(i + 1, vals.size)
                    ]
                    assert min(gaps) > 1e-3 * np.abs(vals).max(), (sizes, seed, rho)

    def test_distinct_gammas_rule(self):
        # sizes (2,): S_1 = D11; sizes (0, 2): S_2 = W_2 = D11[2:4, 0:2]
        from jordanperturb.generator import _distinct_gammas

        def pair(sizes, s):
            st = JordanStructure(0.0, sizes)
            d = np.zeros((st.dim, st.dim), dtype=complex)
            d[st.dim - 2 :, :2] = np.diag(s)
            return CanonicalPair(st, d)

        for sizes in [(2,), (0, 2)]:
            assert _distinct_gammas(pair(sizes, [1.0, 1.01j]))
            assert _distinct_gammas(pair(sizes, [1.0, 1.0011]))
            assert not _distinct_gammas(pair(sizes, [1.0, 1.0009]))
            assert not _distinct_gammas(pair(sizes, [2.0, 2.0]))
