import numpy as np
import pytest

from jordanperturb import CaseSpec, JordanStructure, generate

# The seeded generic suite: 5 structures x 4 seeds = 20 cases.
SUITE_SIZES = [(1, 1), (0, 2), (2, 1), (1, 0, 1), (1, 2)]
SUITE_SEEDS = [0, 1, 2, 3]


def suite_pairs():
    out = []
    for sizes in SUITE_SIZES:
        st = JordanStructure(0.0, sizes)
        for seed in SUITE_SEEDS:
            out.append(
                generate(
                    CaseSpec(st, seed=seed, ensure_generic=True, ensure_distinct_gammas=True)
                )
            )
    return out


@pytest.fixture(scope="session")
def suite():
    return suite_pairs()


def kron_sylvester(a, b, c):
    """Independent dense oracle for a X - X b + c = 0 via Kronecker products."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    na, nb = a.shape[0], b.shape[0]
    k = np.kron(np.eye(nb), a) - np.kron(b.T, np.eye(na))
    x = np.linalg.solve(k, -c.flatten(order="F"))
    return x.reshape((na, nb), order="F")


def failing_zgees(select, a, lwork, **kwargs):
    """Stand-in for zgees whose QR iteration fails (info = 1) after a valid
    workspace query; scipy.linalg.schur raises LinAlgError on it."""
    work = np.array([2.0 * len(a) + 0j])
    return a, 0, np.diag(a), np.eye(len(a)), work, 0 if lwork == -1 else 1


def random_pair(sizes, seed, scale=1.0):
    st = JordanStructure(0.0, sizes)
    return generate(CaseSpec(st, seed=seed, scale=scale, ensure_generic=True,
                             ensure_distinct_gammas=True))


def fit_slope(ts, errs, floor=1e-13):
    ts = np.asarray(ts, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > floor
    if keep.sum() < 4:
        return None
    return float(np.polyfit(np.log(ts[keep]), np.log(errs[keep]), 1)[0])
