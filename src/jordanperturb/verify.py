"""Brute-force verification of every claimed fractional order.

The oracle is a dense eigensolve of ``A + tD`` over a geometric t-sweep.
Each theoretical claim is operationalized as a log-log slope fit: a claim
``error = O(t^c)`` passes when the fitted slope is at least ``c - slack``
with a tight linear fit.  Samples at the numerical noise floor are dropped;
claims whose every sample sits at the floor are reported as floor-limited
passes rather than fitted.

Order-table claims (the per-block decay rates of the invariant-subspace
bases) are measured against the exact small-z solutions from
:func:`jordanperturb.first_order.solve_riccati`, whose output is itself
validated against the oracle to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core_linalg as cl
from .errors import CardinalityMismatch, InsufficientSamples, NoConvergence
from .expansion import eigenvalue_expansions, h_order_table, select_subspace
from .first_order import complement_pair, first_order_expansion, solve_riccati
from .pencil import assemble_pencil, reduce_pencil, sort_complex
from .structure import CanonicalPair

__all__ = [
    "SweepPlan",
    "ConvergenceReport",
    "oracle_eigs",
    "match_eigenvalues",
    "slope_fit",
    "verify_all",
    "exact_subspace_basis",
]

DEFAULT_SLACK = 0.1
DEFAULT_R2 = 0.98
FLOOR_FACTOR = 100.0


@dataclass(frozen=True)
class SweepPlan:
    """Geometric t-sweep for one splitting order rho."""

    t_values: tuple
    rho: int
    cluster: str = "all"

    def __post_init__(self):
        ts = tuple(float(t) for t in self.t_values)
        object.__setattr__(self, "t_values", ts)
        if any(b >= a for a, b in zip(ts, ts[1:])):
            raise ValueError("t_values must be strictly decreasing")
        floor = 10.0 * cl.EPS ** (self.rho / (self.rho + 1))
        if any(t <= floor for t in ts):
            raise ValueError(
                f"t values below {floor:.3e} cannot resolve t^(1/{self.rho}) effects"
            )

    @classmethod
    def default(cls, rho: int, tmax: float = 1e-2, tmin: float = 1e-8, points: int = 13):
        """13 geometric points from 1e-2 down to 1e-8, with tmin clamped to
        the resolvability floor for the given rho."""
        floor = 10.0 * cl.EPS ** (rho / (rho + 1))
        tmin = max(tmin, 1.01 * floor)
        ts = np.geomspace(tmax, tmin, points)
        return cls(t_values=tuple(ts), rho=rho)


@dataclass(frozen=True)
class ConvergenceReport:
    """Result of fitting one claimed decay order."""

    quantity: str
    claimed_slope: float
    fitted_slope: float
    r_squared: float
    passed: bool
    samples: tuple = field(repr=False)
    floor_limited: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        def num(x):
            return None if x != x else float(x)

        return {
            "quantity": self.quantity,
            "claimed_slope": self.claimed_slope,
            "fitted_slope": num(self.fitted_slope),
            "r_squared": num(self.r_squared),
            "passed": self.passed,
            "floor_limited": self.floor_limited,
            "note": self.note,
            "samples": [[t, e] for t, e in self.samples],
        }


def oracle_eigs(a, d, t: float, lambda0: complex, radius_exponent: float) -> np.ndarray:
    """Eigenvalues of a + t*d within 10 t^radius_exponent of lambda0.

    Sorted by argument of (lambda - lambda0), then modulus.  A small
    eps-level floor keeps the t = 0 case meaningful.
    """
    a = cl.as_matrix(a, "a")
    d = cl.as_matrix(d, "d")
    w = cl.eig(a + t * d)[0]
    radius = 10.0 * t**radius_exponent if t > 0 else 0.0
    radius = max(radius, FLOOR_FACTOR * cl.EPS * (1.0 + cl.frob(a)))
    keep = w[np.abs(w - lambda0) <= radius]
    return sort_complex(keep - lambda0) + lambda0


def match_eigenvalues(predicted, observed):
    """Minimum-cost matching of every predicted eigenvalue to a distinct
    observed one; the observed list may be longer.

    Returns (pairs, max_error) with pairs as (predicted_index,
    observed_index) tuples.  Raises :class:`CardinalityMismatch` when there
    are fewer observations than predictions.
    """
    p = np.asarray(predicted, dtype=np.complex128).ravel()
    o = np.asarray(observed, dtype=np.complex128).ravel()
    if p.size > o.size:
        raise CardinalityMismatch(f"{p.size} predictions vs only {o.size} observations")
    if p.size == 0:
        return [], 0.0
    # scipy.optimize costs about a third of the package import; load it on use.
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(p[:, None] - o[None, :])
    rows, cols = linear_sum_assignment(cost)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    return pairs, float(cost[rows, cols].max())


def slope_fit(
    samples,
    claimed: float,
    scale: float = 1.0,
    slack: float = DEFAULT_SLACK,
    r2_min: float = DEFAULT_R2,
    quantity: str = "quantity",
    note: str = "",
) -> ConvergenceReport:
    """Least-squares fit of log error against log t.

    Samples with error below ``100 * eps * scale`` are dropped as
    floor-limited; at least five must survive or
    :class:`InsufficientSamples` is raised.
    """
    samples = [(float(t), float(e)) for t, e in samples]
    floor = FLOOR_FACTOR * cl.EPS * scale
    usable = [(t, e) for t, e in samples if e > floor]
    if len(usable) < 5:
        raise InsufficientSamples(
            f"{quantity}: only {len(usable)} samples above the noise floor {floor:.3e}"
        )
    lt = np.log(np.array([t for t, _ in usable]))
    le = np.log(np.array([e for _, e in usable]))
    slope, intercept = np.polyfit(lt, le, 1)
    pred = slope * lt + intercept
    ss_res = float(np.sum((le - pred) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    passed = bool(slope >= claimed - slack and r2 >= r2_min)
    return ConvergenceReport(
        quantity=quantity,
        claimed_slope=float(claimed),
        fitted_slope=float(slope),
        r_squared=r2,
        passed=passed,
        samples=tuple(samples),
        note=note,
    )


def _fit_or_floor(samples, claimed, scale, quantity, note="", slack=DEFAULT_SLACK):
    try:
        return slope_fit(samples, claimed, scale=scale, quantity=quantity, note=note, slack=slack)
    except InsufficientSamples:
        return ConvergenceReport(
            quantity=quantity,
            claimed_slope=float(claimed),
            fitted_slope=float("nan"),
            r_squared=float("nan"),
            passed=True,
            samples=tuple((float(t), float(e)) for t, e in samples),
            floor_limited=True,
            note=(note + "; " if note else "") + "floor-limited",
        )


def _subspace_coupling(theta_hat, sel, comp, tol_rel=1e-13, max_iter=100):
    """Exact invariant-subspace continuation of the selected block inside
    Theta-hat: returns (y, rep) with Theta-hat (phi + phi_c y) =
    (phi + phi_c y) rep."""
    left = np.vstack([comp.psi, comp.psi_c])
    right = np.hstack([sel.phi, comp.phi_c])
    tt = left @ theta_hat @ right
    r = sel.r
    t11, t12 = tt[:r, :r], tt[:r, r:]
    t21, t22 = tt[r:, :r], tt[r:, r:]
    y = cl.zeros(t22.shape[0], r)
    if r == 0 or t22.shape[0] == 0:
        return y, t11
    scale = max(1.0, cl.frob(tt))
    for _ in range(max_iter):
        resid = cl.frob(t21 + t22 @ y - y @ (t11 + t12 @ y))
        if resid <= tol_rel * scale:
            return y, t11 + t12 @ y
        y = cl.solve_sylvester(t22, t11 + t12 @ y, t21)
    raise NoConvergence("subspace coupling iteration did not converge")


def exact_subspace_basis(ric, sel, comp):
    """Exact perturbed basis H(z) = X-tilde(z) (phi + phi_c Y(z)) and the
    block rep with (A + tD) H = H (lambda0 I + z rep), t = z^rho."""
    y, rep = _subspace_coupling(ric.theta_hat, sel, comp)
    xt = ric.invariant_matrix()
    h = xt @ (sel.phi + comp.phi_c @ y)
    return h, rep


def verify_all(
    pair: CanonicalPair,
    rho: int,
    plan: SweepPlan | None = None,
    *,
    perturb_h1: float = 0.0,
    swap_root: bool = False,
) -> list[ConvergenceReport]:
    """Run every verifiable claim for one (pair, rho) over a t-sweep.

    Emits one report per claim: eigenvalue errors against
    ``lambda0 + t^(1/rho) mu`` (slope 2/rho for simple gamma), the
    first-order subspace relation residual (slope 2/rho), the per-block
    order tables of the exact bases, and the consistency of the exact
    Theta-hat(z) with its first-order model (slope 2 in z).

    ``perturb_h1`` and ``swap_root`` are negative-control hooks: they
    corrupt H1 with noise of the given relative norm, or pair the subspace
    with a rotated root branch, and are expected to make the first-order
    residual fit fail.
    """
    st = pair.structure
    lam0 = st.lambda0
    if plan is None:
        plan = SweepPlan.default(rho)
    ts = list(plan.t_values)
    scale = 1.0 + cl.frob(pair.d11)

    if cl.frob(pair.d11) == 0.0:
        return [
            ConvergenceReport(
                quantity=f"degenerate-zero-perturbation[rho={rho}]",
                claimed_slope=0.0,
                fitted_slope=float("nan"),
                r_squared=float("nan"),
                passed=True,
                samples=tuple((t, 0.0) for t in ts),
                floor_limited=True,
                note="D11 = 0: all claims vacuous",
            )
        ]

    assembled = assemble_pencil(pair, rho)
    reduced = reduce_pencil(assembled)
    a_mat = pair.a_matrix()
    d_mat = pair.d11

    observed = [cl.eig(a_mat + t * d_mat)[0] for t in ts]

    reports: list[ConvergenceReport] = []

    # --- (i) eigenvalue splitting against the oracle, one report per cluster.
    exps = eigenvalue_expansions(reduced)
    clusters = []
    for e in exps:
        if not any(e is c for c, _ in clusters):
            clusters.append((e, sum(1 for x in exps if x is e)))

    for ci, (exp, count) in enumerate(clusters):
        samples = []
        for t, obs in zip(ts, observed):
            preds = np.repeat(exp.predict(t), count)
            samples.append((t, match_eigenvalues(preds, obs)[1]))
        if exp.simple:
            claimed, note = 2.0 / rho, ""
        else:
            claimed, note = 1.0 / rho + 0.02, "weakly verified o(t^(1/rho)) bound"
        reports.append(
            _fit_or_floor(
                samples, claimed, scale,
                f"eig[rho={rho},cluster={ci}]", note,
                slack=0.0 if not exp.simple else DEFAULT_SLACK,
            )
        )

    # --- (ii) first-order subspace relation residual per cluster.
    rng = np.random.default_rng(0)
    for ci, (exp, _) in enumerate(clusters):
        gamma = exp.gamma
        sel = select_subspace(reduced, lambda lam, g=gamma: abs(lam - g) < 1e-6 * max(1.0, abs(g)), 0)
        comp = complement_pair(reduced, sel)
        fo = first_order_expansion(reduced, sel, comp)
        h0, h1 = fo.h0, fo.h1
        omega, delta11 = sel.omega, fo.delta11
        note = ""
        if perturb_h1:
            noise = rng.normal(size=h1.shape) + 1j * rng.normal(size=h1.shape)
            noise *= perturb_h1 * max(1.0, cl.frob(h1)) / cl.frob(noise)
            h1 = h1 + noise
            note = f"H1 corrupted by {perturb_h1:.1e} noise"
        if swap_root:
            if rho == 1:
                raise ValueError("swap_root needs rho >= 2 (a single branch cannot be swapped)")
            sel2 = select_subspace(
                reduced, lambda lam, g=gamma: abs(lam - g) < 1e-6 * max(1.0, abs(g)), 1
            )
            omega = sel2.omega
            note = (note + "; " if note else "") + "Omega swapped to root branch 1"
        samples = []
        for t in ts:
            z = t ** (1.0 / rho)
            h = h0 + z * h1
            c = lam0 * cl.eye(sel.r) + z * omega + z * z * delta11
            samples.append((t, cl.frob((a_mat + t * d_mat) @ h - h @ c)))
        reports.append(
            _fit_or_floor(samples, 2.0 / rho, scale, f"subspace-resid[rho={rho},cluster={ci}]", note)
        )

    # --- (iii) per-block order tables from the exact small-z solutions.
    sel0 = select_subspace(
        reduced,
        lambda lam, g=clusters[0][0].gamma: abs(lam - g) < 1e-6 * max(1.0, abs(g)),
        0,
    )
    comp0 = complement_pair(reduced, sel0)

    def solve_point(t):
        z = t ** (1.0 / rho)
        try:
            ric = solve_riccati(assembled, reduced, z)
            h, _ = exact_subspace_basis(ric, sel0, comp0)
        except NoConvergence:
            return None
        return z, ric, h

    points = [p for p in map(solve_point, ts) if p is not None]
    if not points:
        return reports

    base = reduced.x0
    idx = pair.index
    q1, om = sel0.q1, sel0.omega
    xdev, hdev = [], []
    for z, ric, h in points:
        xdev.append(ric.invariant_matrix() - base)
        hrow = h - base @ sel0.phi
        for ell in range(2, rho + 1):
            rows = idx.rows(rho, ell)
            hrow[rows, :] -= z ** (ell - 1) * (q1 @ np.linalg.matrix_power(om, ell - 1))
        hdev.append(hrow)
    for entry in h_order_table(st, rho, full=True):
        rows = idx.rows(entry.block, entry.subrow)
        samples = [(z**rho, cl.frob(dev[rows, :])) for (z, _, _), dev in zip(points, xdev)]
        reports.append(
            _fit_or_floor(
                samples, float(entry.exponent), scale,
                f"X[rho={rho},i={entry.block},l={entry.subrow}]", entry.note,
            )
        )
    if sel0.r:
        for entry in h_order_table(st, rho):
            rows = idx.rows(entry.block, entry.subrow)
            samples = [(z**rho, cl.frob(dev[rows, :])) for (z, _, _), dev in zip(points, hdev)]
            reports.append(
                _fit_or_floor(
                    samples, float(entry.exponent), scale,
                    f"H[rho={rho},i={entry.block},l={entry.subrow}]", entry.note,
                )
            )

    # --- (iv) exact Theta-hat vs its first-order model, slope 2 in z.
    delta_coef = reduced.theta_perturbation.delta_coef
    samples = [
        (z, cl.frob(ric.theta_hat - reduced.theta - z * delta_coef)) for z, ric, _ in points
    ]
    reports.append(
        _fit_or_floor(samples, 2.0, scale, f"riccati-delta[rho={rho}]", "error measured against z")
    )
    return reports
