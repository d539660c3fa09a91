"""Known-answer cases, kept as test fixtures.

- Example 1: the 4x4 single Jordan block with a bottom-left t perturbation.
  A + tD has characteristic polynomial lambda^4 = t, so its eigenvalues are
  exactly t^(1/4) times the 4th roots of unity, S_4 = [1], and the subspace
  coefficients H0, H1 of the branches mu = 1, i, -1 are known entrywise.
- ``rho1_diagonal_pair``: sizes (3,), so A = lambda0 I is semi-simple and
  classical first-order theory holds: the eigenvalues of A + tD are exactly
  lambda0 + t Lambda(D11).
- ``two_block_mixed_pair``: sizes (1, 2) with a fixed seeded D11.
"""

import numpy as np

from jordanperturb import CanonicalPair, CaseSpec, JordanStructure, generate


def example1_pair():
    d11 = np.zeros((4, 4), dtype=complex)
    d11[3, 0] = 1.0
    return CanonicalPair(JordanStructure(0.0, (0, 0, 0, 1)), d11)


def example1_eigenvalues(t):
    """lambda_j(t) = t^(1/4) e^{i pi (j-1)/2}, j = 1..4."""
    return t**0.25 * np.exp(0.5j * np.pi * np.arange(4))


# The columns of H0 and H1 for the roots mu = 1, i, -1.
EXAMPLE1_H0 = np.zeros((4, 3), dtype=complex)
EXAMPLE1_H0[0, :] = 1.0
EXAMPLE1_H1 = np.zeros((4, 3), dtype=complex)
EXAMPLE1_H1[1, :] = [1.0, 1.0j, -1.0]


def rho1_diagonal_pair():
    st = JordanStructure(0.7 - 0.2j, (3,))
    rng = np.random.Generator(np.random.Philox(key=11))
    d = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
    return CanonicalPair(st, d)


def two_block_mixed_pair():
    st = JordanStructure(0.0, (1, 2))
    return generate(CaseSpec(st, seed=20240229, ensure_generic=True, ensure_distinct_gammas=True))
