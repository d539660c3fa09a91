import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from jordanperturb import CanonicalPair, JordanStructure, build_nilpotent, check_generic, w_matrix
from jordanperturb.errors import IndexOutOfRange
from jordanperturb.structure import BlockIndex, block

from conftest import random_pair


def make_pair(sizes, seed=0, scale=1.0):
    st = JordanStructure(0.0, sizes)
    rng = np.random.default_rng(seed)
    m = st.dim
    d11 = scale * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return CanonicalPair(st, d11)


class TestJordanStructure:
    def test_basic(self):
        st = JordanStructure(1.0 + 2.0j, (1, 2))
        assert st.k == 2 and st.dim == 5 and st.shat(1) == 3 and st.shat(2) == 2
        assert st.shat(3) == 0

    def test_sk_positive_required(self):
        with pytest.raises(ValueError):
            JordanStructure(0.0, (1, 0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            JordanStructure(0.0, (-1, 2))

    @given(hst.lists(hst.integers(min_value=0, max_value=3), min_size=0, max_size=4),
           hst.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_offsets_consistent(self, head, sk):
        sizes = tuple(head) + (sk,)
        st = JordanStructure(0.0, sizes)
        idx = BlockIndex(st)
        assert idx.total == st.dim == sum(j * s for j, s in enumerate(sizes, start=1))
        # offsets strictly increasing over nonvoid groups, widths = s_j
        prev_end = 0
        for j in range(1, st.k + 1):
            for m in range(1, j + 1):
                sl = idx.cols(j, m)
                assert sl.start == prev_end
                prev_end = sl.stop
        assert prev_end == st.dim


class TestBuildNilpotent:
    def test_single_1x1(self):
        n = build_nilpotent(JordanStructure(0.0, (1,)))
        assert n.shape == (1, 1) and n[0, 0] == 0

    def test_example1_block(self):
        n = build_nilpotent(JordanStructure(0.0, (0, 0, 0, 1)))
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 2] = expected[2, 3] = 1
        assert np.array_equal(n.real, expected) and np.all(n.imag == 0)

    def test_sizes_1_2(self):
        st = JordanStructure(0.0, (1, 2))
        n = build_nilpotent(st)
        assert n.shape == (5, 5)
        # N2 = [[0, I2], [0, 0]] sits in the trailing 4x4 block
        assert np.array_equal(n[1:3, 3:5].real, np.eye(2))
        assert np.linalg.norm(n @ n) == 0  # index 2

    @pytest.mark.parametrize("sizes", [(1,), (2, 1), (0, 0, 2), (1, 0, 1)])
    def test_ones_count_and_index(self, sizes):
        st = JordanStructure(0.0, sizes)
        n = build_nilpotent(st)
        expected_ones = sum((j - 1) * s for j, s in enumerate(sizes, start=1))
        assert int(n.real.sum()) == expected_ones
        k = st.k
        assert np.linalg.norm(np.linalg.matrix_power(n, k)) == 0
        if expected_ones:
            assert np.linalg.norm(np.linalg.matrix_power(n, k - 1)) > 0


class TestBlock:
    def test_example1_corner(self):
        d11 = np.zeros((4, 4), dtype=complex)
        d11[3, 0] = 1.0
        pair = CanonicalPair(JordanStructure(0.0, (0, 0, 0, 1)), d11)
        assert block(pair, 4, 4, 4, 1) == pytest.approx(1.0)
        assert block(pair, 4, 4, 1, 1) == pytest.approx(0.0)

    def test_sizes_1_1_offsets(self):
        pair = make_pair((1, 1), seed=5)
        # Sigma_{2,2} is row 2, Xi_{1,1} is column 0
        assert block(pair, 2, 1, 2, 1)[0, 0] == pair.d11[2, 0]

    def test_index_bounds(self):
        pair = make_pair((1, 1))
        with pytest.raises(IndexOutOfRange):
            block(pair, 1, 1, 2, 1)
        with pytest.raises(IndexOutOfRange):
            block(pair, 2, 3, 1, 1)

    def test_void_block_empty(self):
        pair = make_pair((1, 0, 1))
        assert block(pair, 2, 3, 1, 1).shape == (0, 1)


class TestWMatrix:
    def test_example1(self):
        d11 = np.zeros((4, 4), dtype=complex)
        d11[3, 0] = 1.0
        pair = CanonicalPair(JordanStructure(0.0, (0, 0, 0, 1)), d11)
        assert np.array_equal(w_matrix(pair, 4), [[1.0]])

    def test_zero_d11(self):
        pair = make_pair((1, 1), scale=0.0)
        assert np.all(w_matrix(pair, 1) == 0) and w_matrix(pair, 1).shape == (2, 2)

    def test_sizes_1_1_layout(self):
        pair = make_pair((1, 1), seed=9)
        d = pair.d11
        expected = np.array([[d[0, 0], d[0, 1]], [d[2, 0], d[2, 1]]])
        assert np.array_equal(w_matrix(pair, 1), expected)

    @pytest.mark.parametrize("sizes,seed", [((1, 1), 0), ((2, 1), 1), ((1, 0, 1), 2), ((1, 2), 3)])
    def test_nesting(self, sizes, seed):
        pair = make_pair(sizes, seed)
        st = pair.structure
        for i in range(1, st.k):
            wi = w_matrix(pair, i)
            wnext = w_matrix(pair, i + 1)
            si = st.s(i)
            assert np.array_equal(wi[si:, si:], wnext)
            assert wi.shape == (st.shat(i), st.shat(i))


class TestCheckGeneric:
    def test_example1_generic(self):
        d11 = np.zeros((4, 4), dtype=complex)
        d11[3, 0] = 1.0
        pair = CanonicalPair(JordanStructure(0.0, (0, 0, 0, 1)), d11)
        rep = check_generic(pair)
        assert rep.generic
        assert rep.sigma_min == (1.0, 1.0, 1.0, 1.0)

    def test_zero_not_generic(self):
        pair = make_pair((1, 1), scale=0.0)
        assert not check_generic(pair).generic

    def test_constructed_singular_w2(self):
        pair = make_pair((1, 1), seed=3)
        d = pair.d11.copy()
        d[2, 1] = 0.0  # W_2 = B^{(22)}_{21} = d[2,1]
        rep = check_generic(CanonicalPair(pair.structure, d))
        assert not rep.generic
        assert rep.sigma_min[1] == 0.0

    def test_random_generic(self):
        pair = random_pair((1, 2), seed=0)
        assert check_generic(pair).generic
