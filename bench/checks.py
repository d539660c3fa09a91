"""Output checks that share no code with the path that produced the output.

Every check recomputes its reference with plain numpy from the problem
data (``pair.a_matrix()``, ``pair.d11``) or tests a property the method
must have. Each returns a list of failure messages; an empty list passes.
Nothing here calls the library. The one library object used as a reference,
the exact basis given to :func:`exact_basis_series`, is first validated
there against the dense matrix.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)

# Second-order remainders (H - H0 - z H1 and rep - Omega - z Delta11) are
# sampled on this z grid; scaled by z^-2 they must settle to a constant as z
# falls. A coefficient wrong by delta adds delta / z instead, which the small
# end of the grid resolves even when the true z^2 coefficient is a hundred
# times larger. The large end may sit outside the asymptotic range, where
# z^3 terms can cancel z^2 ones.
SERIES_Z = tuple(np.geomspace(3e-2, 1e-4, 6))
# How much the scaled remainder may grow over the last three grid points (a
# factor of 10 in z) and still count as settled; a 1/z term grows 10x there.
SERIES_GROWTH = 3.0


def _fro(m) -> float:
    return float(np.linalg.norm(m)) if np.size(m) else 0.0


def _nearest_distinct(pred, obs) -> np.ndarray:
    """Distance from each predicted value to its own observed value,
    pairing closest first, without reusing an observed value."""
    pred = np.asarray(pred, dtype=complex).ravel()
    obs = np.asarray(obs, dtype=complex).ravel()
    dist = np.abs(pred[:, None] - obs[None, :])
    out = np.full(pred.size, np.inf)
    used_p, used_o = set(), set()
    for flat in np.argsort(dist, axis=None):
        i, j = divmod(int(flat), obs.size)
        if i in used_p or j in used_o:
            continue
        out[i] = dist[i, j]
        used_p.add(i)
        used_o.add(j)
        if len(used_p) == pred.size:
            break
    return out


def theta_roots(theta, s_rho, rho: int, label: str) -> list[str]:
    """Lambda(Theta_rho) is the multiset of rho-th roots of Lambda(S_rho)."""
    if np.size(theta) == 0:
        return []
    gammas = np.linalg.eigvals(s_rho)
    roots = np.concatenate(
        [g ** (1.0 / rho) * np.exp(2j * np.pi * np.arange(rho) / rho) for g in gammas.astype(complex)]
    )
    mus = np.linalg.eigvals(theta)
    if mus.size != roots.size:
        return [f"{label}: Theta has {mus.size} eigenvalues, S_rho roots {roots.size}"]
    err = float(_nearest_distinct(roots, mus).max())
    scale = max(1.0, float(np.abs(mus).max()))
    if err > 1e-10 * scale:
        return [f"{label}: Lambda(Theta) misses a root of Lambda(S_rho) by {err:.3e}"]
    return []


def riccati_solution(pair, rho: int, z: float, x_tilde, theta_hat, label: str) -> list[str]:
    """(A + z^rho D) X = X (lambda0 I + z Theta-hat), and lambda0 + z Lambda(Theta-hat)
    lies in the dense spectrum of A + z^rho D."""
    a = np.asarray(pair.a_matrix())
    d = np.asarray(pair.d11)
    lam0 = complex(pair.structure.lambda0)
    n2 = theta_hat.shape[0]
    if n2 == 0:
        return []
    m = a + z**rho * d
    c = lam0 * np.eye(n2) + z * theta_hat
    scale = (_fro(m) + _fro(c)) * _fro(x_tilde)
    resid = _fro(m @ x_tilde - x_tilde @ c) / scale
    out = []
    if resid > 1e-12:
        out.append(f"{label}: invariant-subspace residual {resid:.3e} at z={z:.3e}")
    pred = lam0 + z * np.linalg.eigvals(theta_hat)
    miss = float(_nearest_distinct(pred, np.linalg.eigvals(m)).max())
    # An eigenvalue of a matrix near a size-rho Jordan block moves by about
    # eps ||M|| / (rho t^(1 - 1/rho)) under a backward error of eps ||M||.
    tol = 1e3 * EPS * _fro(m) / (rho * (z**rho) ** (1.0 - 1.0 / rho))
    if miss > tol:
        out.append(
            f"{label}: lambda0 + z Lambda(Theta-hat) misses the dense spectrum by {miss:.3e} "
            f"(tolerance {tol:.3e}) at z={z:.3e}"
        )
    return out


def first_order_identities(pair, rho: int, h0, h1, omega, label: str) -> list[str]:
    """The z^0 and z^1 coefficients of the polynomial residual
    (A + z^rho D)(H0 + z H1) - (H0 + z H1)(lambda0 I + z Omega + z^2 Delta11)
    vanish: (A - lambda0 I) H0 = 0 and (A - lambda0 I) H1 + [rho = 1] D H0 = H0 Omega."""
    a = np.asarray(pair.a_matrix())
    d = np.asarray(pair.d11)
    lam0 = complex(pair.structure.lambda0)
    if omega.shape[0] == 0:
        return []
    n = a - lam0 * np.eye(a.shape[0])
    c0 = n @ h0
    c1 = n @ h1 - h0 @ omega + (d @ h0 if rho == 1 else 0.0)
    scale = (_fro(n) + _fro(d) + _fro(omega)) * (_fro(h0) + _fro(h1))
    err = max(_fro(c0), _fro(c1)) / scale
    if err > 1e-10:
        return [f"{label}: z^0 or z^1 coefficient of the subspace residual is {err:.3e}, not 0"]
    return []


def _bounded(scaled, what: str) -> list[str]:
    if not np.all(np.isfinite(scaled)) or scaled[-1] > SERIES_GROWTH * max(scaled[-3], 1e-300):
        vals = ", ".join(f"{v:.3e}" for v in scaled)
        return [f"{what} grows as z falls: [{vals}] over z={SERIES_Z[0]:.0e}..{SERIES_Z[-1]:.0e}"]
    return []


def exact_basis_series(pair, rho: int, bases, h0, h1, omega, delta11, label: str) -> list[str]:
    """The exact basis H(z) and block rep C(z), given as ``bases`` =
    [(z, H, rep), ...] on SERIES_Z, satisfy (A + z^rho D) H = H (lambda0 I + z rep);
    then ||H - H0 - z H1|| / z^2 and ||rep - Omega - z Delta11|| / z^2 stay bounded."""
    a = np.asarray(pair.a_matrix())
    d = np.asarray(pair.d11)
    lam0 = complex(pair.structure.lambda0)
    out = []
    h_scaled, rep_scaled = [], []
    for z, h, rep in bases:
        m = a + z**rho * d
        c = lam0 * np.eye(rep.shape[0]) + z * rep
        resid = _fro(m @ h - h @ c) / ((_fro(m) + _fro(c)) * _fro(h))
        if resid > 1e-12:
            out.append(f"{label}: exact basis residual {resid:.3e} at z={z:.3e}")
        h_scaled.append(_fro(h - h0 - z * h1) / z**2)
        rep_scaled.append(_fro(rep - omega - z * delta11) / z**2)
    out += _bounded(h_scaled, f"{label}: ||H - H0 - z H1|| / z^2")
    out += _bounded(rep_scaled, f"{label}: ||rep - Omega - z Delta11|| / z^2")
    return out


def eig_samples(pair, rho: int, mus, samples, label: str) -> list[str]:
    """Recompute each (t, error) of an eigenvalue report: the largest
    distance from lambda0 + t^(1/rho) mu to its own dense eigenvalue."""
    a = np.asarray(pair.a_matrix())
    d = np.asarray(pair.d11)
    lam0 = complex(pair.structure.lambda0)
    mus = np.asarray(mus, dtype=complex)
    out = []
    for t, err in samples:
        m = a + t * d
        mine = float(_nearest_distinct(lam0 + t ** (1.0 / rho) * mus, np.linalg.eigvals(m)).max())
        # two eigensolvers agree to the conditioning bound of riccati_solution
        tol = 1e-6 * err + 1e3 * EPS * _fro(m) / (rho * t ** (1.0 - 1.0 / rho))
        if abs(mine - err) > tol:
            out.append(f"{label}: error {err:.6e} at t={t:.3e}, recomputed {mine:.6e}")
    return out


def cli_reports(cli_doc, reports, label: str) -> list[str]:
    """The CLI's JSON reports equal an in-process verify_all run on the same file."""
    if len(cli_doc) != len(reports):
        return [f"{label}: CLI wrote {len(cli_doc)} reports, in-process run made {len(reports)}"]
    out = []
    for got, rep in zip(cli_doc, reports):
        want = rep.to_dict()
        for key in ("quantity", "passed", "floor_limited", "claimed_slope"):
            if got[key] != want[key]:
                out.append(f"{label}: {want['quantity']} {key} {got[key]!r} != {want[key]!r}")
        got_s = np.asarray(got["samples"], dtype=float).reshape(-1, 2)
        want_s = np.asarray(want["samples"], dtype=float).reshape(-1, 2)
        if got_s.shape != want_s.shape or not np.allclose(got_s, want_s, rtol=1e-6, atol=1e-300):
            out.append(f"{label}: {want['quantity']} samples differ from the in-process run")
    return out
