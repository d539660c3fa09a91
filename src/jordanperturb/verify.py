"""Brute-force verification of every claimed fractional order.

The oracle is a dense eigensolve of ``A + tD`` over a geometric t-sweep.
Each theoretical claim ``error = O(t^c)`` is one row of error samples, and
:func:`slope_fit` is the one rule that turns a row into a report: failed,
floor-limited or fitted.  :func:`verify_all` gathers the rows of three
claim families: the eigenvalues and the first-order subspace residuals, on
the oracle's t-sweep, and the claims on the Riccati sweep points.

Order-table claims (the per-block decay rates of the invariant-subspace
bases) are measured against the exact small-z solutions from
:func:`jordanperturb.first_order.solve_riccati`, whose output is itself
validated against the oracle to machine precision.  Their sweep is a
z-window set a priori inside the disc |z| < R where the exact coupling is
analytic along the branch (the Lidskii branch structure; Moro, Burke &
Overton, SIAM J. Matrix Anal. Appl. 18, 1997): R is estimated from the
coupling series' own coefficients, and each Newton solve starts from the
series summed at its z (:func:`_riccati_window`).  Each solved point is
logged at DEBUG on this module's logger with its start, Newton iterations
and residual, and each pencil's window with R, its ends, the total Newton
iterations and the dropped count.  A sweep point where the Riccati solve
raises :class:`NoConvergence` is left out of those fits, logged at INFO,
and counted in the note of each report fitted without it.

Each sweep is evaluated as arrays over its points.  A + tD is one
(points, m, m) stack, whose eigenvalues are one ``eig`` call and whose
residual claims are stacked products; the exact bases of the kept Riccati
points are formed together (:func:`_exact_bases`), after one Riccati solve
per point, with one ordered Schur form per point.  Each sample is the one a
loop over the points would give, bit for bit: numpy runs the same LAPACK
and BLAS call on each matrix of a stack, and the Frobenius norms are still
taken one matrix at a time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import core_linalg as cl
from .errors import CardinalityMismatch, NoConvergence
from .expansion import eigenvalue_expansions, h_order_table, select_subspace
from .first_order import complement_pair, first_order_expansion, solve_riccati
from .pencil import assemble_pencil, check_separated, reduce_pencil
from .structure import CanonicalPair

__all__ = [
    "SweepPlan",
    "ConvergenceReport",
    "match_eigenvalues",
    "slope_fit",
    "verify_all",
    "exact_subspace_basis",
]

_log = logging.getLogger(__name__)

DEFAULT_SLACK = 0.1
DEFAULT_R2 = 0.98
FLOOR_FACTOR = 100.0
MIN_SAMPLES = 5

# The Riccati window, derived here and not tuned to verdicts.  Ratios of the
# coupling series' coefficients estimate the radius R of its disc.  At
# |z| <= c R the terms the series start leaves out, after z^K, are about
# c^(K+1) = 1e-5 of the leading one, well inside Newton's quadratic basin, so
# a step or two meets the residual test; K = 4 is the order the estimate of
# R already reads, so the start costs no further series term.  The cap 0.1
# bounds t = z^rho by 0.1^rho when R is large.  Two decades of z are 2 rho
# decades of t, and 13 points (the oracle's default count) leave 8 to drop
# before a claim has fewer than MIN_SAMPLES.
WINDOW_FRACTION = 0.1
WINDOW_CAP = 0.1
WINDOW_DECADES = 2
WINDOW_POINTS = 13
START_ORDER = 4


def _resolvable_floor(rho: int) -> float:
    """The least t at which t^(1/rho) effects stand clear of rounding:
    10 eps^(rho/(rho+1))."""
    return 10.0 * cl.EPS ** (rho / (rho + 1))


@dataclass(frozen=True)
class SweepPlan:
    """Geometric t-sweep of the oracle claims for one splitting order rho: at
    least ``MIN_SAMPLES`` finite, strictly decreasing t values, all above the
    resolvability floor."""

    t_values: tuple
    rho: int

    def __post_init__(self):
        ts = tuple(float(t) for t in self.t_values)
        object.__setattr__(self, "t_values", ts)
        if len(ts) < MIN_SAMPLES:
            raise ValueError(f"a sweep needs at least {MIN_SAMPLES} t values, got {len(ts)}")
        if not all(np.isfinite(ts)):  # NaN passes every comparison below
            raise ValueError("t values must be finite")
        if any(b >= a for a, b in zip(ts, ts[1:])):
            raise ValueError("t_values must be strictly decreasing")
        floor = _resolvable_floor(self.rho)
        if any(t <= floor for t in ts):
            raise ValueError(
                f"t values below {floor:.3e} cannot resolve t^(1/{self.rho}) effects"
            )

    @classmethod
    def default(cls, rho: int, tmax: float = 1e-2, tmin: float = 1e-8, points: int = 13):
        """13 geometric points from 1e-2 down to 1e-8, with tmin clamped to
        the resolvability floor for the given rho."""
        tmin = max(tmin, 1.01 * _resolvable_floor(rho))
        with np.errstate(invalid="ignore"):  # a non-finite bound gives t values that __post_init__ rejects
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
        """JSON-ready fields, with every non-finite number (NaN or inf) as None."""

        def num(x):
            return float(x) if np.isfinite(x) else None

        return {
            "quantity": self.quantity,
            "claimed_slope": self.claimed_slope,
            "fitted_slope": num(self.fitted_slope),
            "r_squared": num(self.r_squared),
            "passed": self.passed,
            "floor_limited": self.floor_limited,
            "note": self.note,
            "samples": [[num(t), num(e)] for t, e in self.samples],
        }


def match_eigenvalues(predicted, observed):
    """Minimum-cost matching of every predicted eigenvalue to a distinct
    observed one; the observed list may be longer.

    Returns (pairs, max_error): pairs are (predicted_index, observed_index)
    tuples sorted by predicted index, and max_error is the largest distance
    |predicted - observed| in an assignment whose distances have the least
    sum.  Raises :class:`CardinalityMismatch` when there are fewer
    observations than predictions, and ``ValueError`` when a value is NaN or
    a prediction can only be matched at infinite distance.  An infinite
    observed value is left unmatched when a finite assignment exists.

    Several assignments can attain the least sum, and which one is returned
    is unspecified.  The repeated predictions of a cluster in
    :func:`verify_all` (``np.repeat`` of its branches' values) are such a
    tie: the copies of a value can trade their observed partners, which
    permutes the distances among them and leaves their multiset, and so
    max_error, the same.
    """
    p = np.asarray(predicted, dtype=np.complex128).ravel()
    o = np.asarray(observed, dtype=np.complex128).ravel()
    if p.size > o.size:
        raise CardinalityMismatch(f"{p.size} predictions vs only {o.size} observations")
    if p.size == 0:
        return [], 0.0
    cols, dist = _matched_distances(p, o)
    return list(enumerate(cols.tolist())), float(dist.max())


def _matched_distances(p, o):
    """(columns, distances) of a minimum-sum assignment of predictions p to
    observations o, 1-D or stacked row by row as (k, p) against (k, o)."""
    cost = np.abs(p[..., :, None] - o[..., None, :])
    if np.isnan(cost).any():
        raise ValueError("eigenvalue matching got a NaN value")
    cols = _min_sum_assignment(cost)
    return cols, np.take_along_axis(cost, cols[..., None], axis=-1)[..., 0]


def _min_sum_assignment(cost) -> np.ndarray:
    """Distinct column of each row in a minimum-sum assignment of a (p, o)
    cost matrix with nonnegative entries and p <= o, or of each matrix of a
    (k, p, o) stack.

    Finite row minima in distinct columns are optimal at once: no sum is lower
    (JV's row reduction).  A matrix whose minima collide goes to
    :func:`_augmenting_paths`.
    """
    col = cost.argmin(axis=-1)
    least = np.take_along_axis(cost, col[..., None], axis=-1)[..., 0]
    ordered = np.sort(col, axis=-1)
    collide = ~np.isfinite(least).all(axis=-1) | (ordered[..., 1:] == ordered[..., :-1]).any(axis=-1)
    flat_cost, flat_col = cost.reshape(-1, *cost.shape[-2:]), col.reshape(-1, cost.shape[-2])
    for i in np.flatnonzero(collide):
        flat_col[i] = _augmenting_paths(flat_cost[i])
    return col


def _augmenting_paths(cost) -> np.ndarray:
    """Minimum-sum assignment of a (p, o) cost matrix, p <= o: each row in
    turn is added by a shortest augmenting path over reduced costs, with row
    and column potentials u and v kept so that u_i + v_j <= cost_ij, with
    equality on assigned pairs and v_j = 0 on free columns (Jonker & Volgenant
    1987, Computing 38; the rectangular form of Crouse 2016, IEEE Trans.
    Aerosp. Electron. Syst. 52), each step of the path search vectorised over
    the columns.
    """
    p, o = cost.shape
    u, v = np.zeros(p), np.zeros(o)
    col = np.full(p, -1)
    owner = np.full(o, -1)  # row assigned to each column
    for i in range(p):
        dist = np.full(o, np.inf)  # reduced length of the shortest path from row i
        via = np.empty(o, dtype=int)  # the row before each column on that path
        done = np.zeros(o, dtype=bool)
        rows, r, reach = [i], i, 0.0
        while True:
            d = reach + cost[r] - u[r] - v
            shorter = (d < dist) & ~done
            dist[shorter] = d[shorter]
            via[shorter] = r
            j = int(np.argmin(np.where(done, np.inf, dist)))
            reach = dist[j]
            if reach == np.inf:
                raise ValueError("no assignment of finite cost exists")
            done[j] = True
            if owner[j] < 0:
                break
            r = owner[j]
            rows.append(r)
        u[i] += reach
        u[rows[1:]] += reach - dist[col[rows[1:]]]
        v[done] -= reach - dist[done]
        while True:  # flip the path: each row on it takes the next column
            r = via[j]
            owner[j] = r
            col[r], j = j, col[r]
            if r == i:
                break
    return col


def slope_fit(
    samples,
    claimed: float,
    scale: float = 1.0,
    slack: float = DEFAULT_SLACK,
    quantity: str = "quantity",
    note: str = "",
) -> ConvergenceReport:
    """The one rule that turns a claim's error samples into its report.

    In this order: fewer than ``MIN_SAMPLES`` samples fail, with NaN slope
    and r^2 and the note as given; a non-finite sample fails, with NaN slope
    and r^2 and a note that names those samples; fewer than ``MIN_SAMPLES``
    samples above the noise floor ``100 * eps * scale`` make a floor-limited
    pass, with NaN slope and r^2; otherwise the least-squares fit of log
    error against log t over the samples above the floor passes at slope >=
    ``claimed - slack`` and r^2 >= ``DEFAULT_R2``.
    """
    samples = tuple((float(t), float(e)) for t, e in samples)
    nan = float("nan")

    def report(slope, r2, passed, floor_limited=False, extra=""):
        return ConvergenceReport(
            quantity, float(claimed), slope, r2, passed, samples, floor_limited, _notes(note, extra)
        )

    if len(samples) < MIN_SAMPLES:
        return report(nan, nan, False)
    bad = [f"{e} at t={t:.3e}" for t, e in samples if not math.isfinite(e)]
    if bad:
        return report(nan, nan, False, extra="non-finite error " + ", ".join(bad))
    floor = FLOOR_FACTOR * cl.EPS * scale
    usable = [(t, e) for t, e in samples if e > floor]
    if len(usable) < MIN_SAMPLES:
        return report(nan, nan, True, True, "floor-limited")
    lt = np.log(np.array([t for t, _ in usable]))
    le = np.log(np.array([e for _, e in usable]))
    slope, intercept = np.polyfit(lt, le, 1)
    pred = slope * lt + intercept
    ss_res = float(np.sum((le - pred) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return report(float(slope), r2, bool(slope >= claimed - slack and r2 >= DEFAULT_R2))


def _notes(*parts) -> str:
    return "; ".join(p for p in parts if p)


def exact_subspace_basis(ric, sel, comp):
    """Exact perturbed basis H(z) = X-tilde(z) (phi + phi_c Y(z)) and the
    block rep with (A + tD) H = H (lambda0 I + z rep), t = z^rho.

    range [I; Y] is the invariant subspace of tt = [psi; psi_c] Theta-hat
    [phi, phi_c] for the r eigenvalues that a minimum-sum assignment matches
    to Lambda(t11) rather than Lambda(t22); with them leading in one ordered
    Schur form tt U = U T, Y = U2 U1^-1 and rep = t11 + t12 Y.  Raises
    :class:`ClusterNotSeparated` when a selected and an unselected eigenvalue
    of tt lie within ``CLUSTER_GAP_REL`` max|Lambda(tt)|
    (:func:`jordanperturb.pencil.check_separated`).  The one-point entry of
    :func:`_exact_bases`, which gives the same bits at each of its points.
    """
    _, h, rep = _exact_bases([ric], sel, comp)
    return h[0], rep[0]


def _exact_bases(sols, sel, comp):
    """(X-tilde, H, rep) of :func:`exact_subspace_basis` at each of the
    Riccati solutions ``sols``, as (points, ., .) stacks: tt, its diagonal
    blocks' eigenvalues, Y's solve and the products over all points at
    once, and one ordered Schur form per point."""
    r, left, right = sel.r, np.vstack([comp.psi, comp.psi_c]), np.hstack([sel.phi, comp.phi_c])
    tt = left @ np.array([ric.theta_hat for ric in sols]) @ right
    blocks = np.concatenate([cl.eig(tt[:, :r, :r]), cl.eig(tt[:, r:, r:])], axis=1)
    us = []
    for tk, bk in zip(tt, blocks):
        def continues_omega(diag, bk=bk):
            mask = np.zeros(diag.size, dtype=bool)
            mask[_min_sum_assignment(np.abs(bk[:, None] - diag[None, :]))[:r]] = True
            return mask

        u, t, _ = cl.ordered_schur(tk, continues_omega)
        w = np.diag(t)
        check_separated(w[:r], w[r:], "Theta-hat eigenvalues continuing Omega")
        us.append(u)
    u = np.array(us)
    y = np.linalg.solve(u[:, :r, :r].mT, u[:, r:, :r].mT).mT  # U2 U1^-1
    xt = np.array([ric.invariant_matrix() for ric in sols])
    return xt, xt @ (sel.phi + comp.phi_c @ y), tt[:, :r, :r] + tt[:, :r, r:] @ y


def verify_all(
    pair: CanonicalPair,
    rho: int,
    plan: SweepPlan | None = None,
    *,
    perturb_h1: float = 0.0,
    swap_root: bool = False,
) -> list[ConvergenceReport]:
    """Run every verifiable claim for one (pair, rho): one :func:`slope_fit`
    report per claim, in this order: per cluster, the eigenvalue errors
    against ``lambda0 + t^(1/rho) mu``; per cluster, the first-order subspace
    relation residual; the per-block order tables of the exact bases; the
    exact Theta-hat(z) against its first-order model.  The first two families
    run on ``plan``'s t-values (``SweepPlan.default(rho)`` when None), the
    last two on the Riccati z-window of :func:`_riccati_window`, which no
    argument sets.  An order rho with s_rho = 0 splits no eigenvalue and has
    no claims: the list is empty.  A ``plan`` built for another order raises
    ``ValueError``: its t-values are bounded by that order's floor.

    ``perturb_h1`` and ``swap_root`` are negative-control hooks: they
    corrupt H1 with noise of the given relative norm, or pair the subspace
    with a rotated root branch, and are expected to make the first-order
    residual fit fail.
    """
    if plan is None:
        plan = SweepPlan.default(rho)
    if plan.rho != rho:
        raise ValueError(f"the sweep plan was built for rho={plan.rho}, not for rho={rho}")
    ts = plan.t_values
    scale = 1.0 + cl.frob(pair.d11)

    if cl.frob(pair.d11) == 0.0:
        nan, samples = float("nan"), tuple((t, 0.0) for t in ts)
        quantity = f"degenerate-zero-perturbation[rho={rho}]"
        return [ConvergenceReport(quantity, 0.0, nan, nan, True, samples, True, "D11 = 0: all claims vacuous")]

    reduced = reduce_pencil(assemble_pencil(pair, rho))
    if not reduced.clusters:  # s_rho = 0
        return []
    a_mat = pair.a_matrix()
    oracle = np.array([a_mat + t * pair.d11 for t in ts])  # A + tD, one stacked matrix per t
    rows = _eig_claims(reduced, ts, oracle)
    resid_rows, sel0, comp0 = _residual_claims(reduced, ts, oracle, perturb_h1, swap_root)
    rows += resid_rows + _riccati_claims(reduced, sel0, comp0)
    return [
        slope_fit(samples, claimed, scale, slack, quantity, note)
        for samples, claimed, quantity, note, slack in rows
    ]


def _eig_claims(reduced, ts, oracle):
    """Per cluster of S_rho, the largest distance from its predicted to its
    matched eigenvalues of A + tD (``oracle``, stacked over ``ts``, whose
    eigenvalues are one ``eig`` call for every t and cluster): slope 2/rho
    for a simple gamma, else only o(t^(1/rho))."""
    rho = reduced.rho
    observed = cl.eig(oracle)
    exps, first, rows = eigenvalue_expansions(reduced), 0, []
    for ci, cb in enumerate(reduced.clusters):
        exp, first = exps[first], first + cb.count
        predicted = np.repeat([exp.predict(t) for t in ts], cb.count, axis=1)
        samples = list(zip(ts, _matched_distances(predicted, observed)[1].max(axis=1).tolist()))
        quantity = f"eig[rho={rho},cluster={ci}]"
        if exp.simple:
            rows.append((samples, 2.0 / rho, quantity, "", DEFAULT_SLACK))
        else:
            rows.append((samples, 1.0 / rho + 0.02, quantity, "weakly verified o(t^(1/rho)) bound", 0.0))
    return rows


def _residual_claims(reduced, ts, oracle, perturb_h1, swap_root):
    """Per cluster of S_rho, its root branch 0's first-order subspace
    relation residual ||(A + tD) H - H C|| (``oracle``, A + tD stacked over
    ``ts``), slope 2/rho, under the negative controls of :func:`verify_all`;
    also cluster 0's selection and complement, the subspace of the order
    tables."""
    rho = reduced.rho
    rng = np.random.default_rng(0) if perturb_h1 else None  # one stream across the clusters
    rows = []
    for ci, cb in enumerate(reduced.clusters):
        near = lambda lam, target=cb.gamma: lam == target  # the cluster's representative
        sel = select_subspace(reduced, near, 0)
        comp = complement_pair(reduced, sel)
        if ci == 0:
            sel0, comp0 = sel, comp
        fo = first_order_expansion(reduced, sel, comp)
        note = ""
        if perturb_h1:
            noise = rng.normal(size=fo.h1.shape) + 1j * rng.normal(size=fo.h1.shape)
            noise *= perturb_h1 * max(1.0, cl.frob(fo.h1)) / cl.frob(noise)
            fo = replace(fo, h1=fo.h1 + noise)
            note = f"H1 corrupted by {perturb_h1:.1e} noise"
        if swap_root:
            if rho == 1:
                raise ValueError("swap_root needs rho >= 2 (a single branch cannot be swapped)")
            fo = replace(fo, omega=select_subspace(reduced, near, 1).omega)
            note = _notes(note, "Omega swapped to root branch 1")
        h = np.array([fo.h_of(t) for t in ts])
        resid = oracle @ h - h @ np.array([fo.c_of(t) for t in ts])
        samples = [(t, cl.frob(e)) for t, e in zip(ts, resid)]
        rows.append((samples, 2.0 / rho, f"subspace-resid[rho={rho},cluster={ci}]", note, DEFAULT_SLACK))
    return rows, sel0, comp0


def _riccati_window(reduced) -> tuple[float, np.ndarray]:
    """(R, z-points) of the Riccati claims: with Theta_j the first nonzero of
    Theta_2..Theta_4 (Frobenius norms, from ``series(4)``), R is the least
    (|Theta_j|/|Theta_k|)^(1/(k-j)) over the nonzero Theta_k, k > j, and
    infinite when there is none; then ``WINDOW_POINTS`` geometric points from
    z_top = min(c R, 0.1) down ``WINDOW_DECADES`` decades, in descending z."""
    n = [cl.frob(th) for th in reduced.series(START_ORDER)[1][2:5]]
    j = next((i for i in range(3) if n[i]), 3)  # k - j below is 1 or 2
    ratios = (n[j] / n[k] if k == j + 1 else np.sqrt(n[j] / n[k]) for k in range(j + 1, 3) if n[k])
    radius = min(ratios, default=np.inf)
    top = min(WINDOW_FRACTION * radius, WINDOW_CAP)
    return radius, np.geomspace(top, top / 10.0**WINDOW_DECADES, WINDOW_POINTS)


def _riccati_claims(reduced, sel, comp):
    """The per-block order tables of the exact bases X-tilde and H of the
    selection, and the exact Theta-hat(z) against its first-order model
    (slope 2 in z), on the points of the Riccati window
    (:func:`_riccati_window`) where the Riccati refinement converged.  Each
    Newton solve starts from the coupling series sum_{k=1..4} X_k z^k; every
    note counts the dropped points."""
    rho, idx = reduced.rho, reduced.pair.index
    radius, window = _riccati_window(reduced)
    xs = reduced.series(START_ORDER)[0]
    points, iterations = [], 0
    for z in window:
        start = sum(xs[k] * z**k for k in range(1, START_ORDER + 1))
        try:
            ric = solve_riccati(reduced.assembled, reduced, z, start=start)
        except NoConvergence as exc:
            _log.info("rho=%d: sweep point z=%.6g dropped, solve_riccati raised NoConvergence: %s", rho, z, exc)
            continue
        _log.debug(
            "rho=%d: sweep point z=%.6g solved from start series in %d Newton iterations, residual %.3e",
            rho, z, ric.iterations, ric.residual,
        )
        iterations += ric.iterations
        points.append((z, ric))
    dropped = len(window) - len(points)
    _log.debug(
        "rho=%d: Riccati window R=%.6g, z from %.6g down to %.6g, %d Newton iterations, %d of %d points dropped",
        rho, radius, window[0], window[-1], iterations, dropped, len(window),
    )
    drop_note = f"{dropped} of {len(window)} sweep points dropped (NoConvergence)" if dropped else ""
    devs = {"X": (), "H": ()}
    if points:  # the exact bases of all kept points at once, X-tilde formed once per point
        base = reduced.x0
        xt, h, _ = _exact_bases([ric for _, ric in points], sel, comp)
        devs = {"X": xt - base, "H": h - base @ sel.phi}
        # the explicit terms Q1 Omega^(l-1) of block rho, subtracted from H at z^(l-1)
        for ell in range(2, rho + 1):
            term = sel.q1 @ np.linalg.matrix_power(sel.omega, ell - 1)
            powers = np.array([z ** (ell - 1) for z, _ in points])[:, None, None]
            devs["H"][:, idx.rows(rho, ell), :] -= powers * term
    claims, ts = [], [z**rho for z, _ in points]
    for name, full in (("X", True), ("H", False)):
        for entry in h_order_table(reduced.structure, rho, full=full):
            rows = idx.rows(entry.block, entry.subrow)
            samples = [(t, cl.frob(dev[rows, :])) for t, dev in zip(ts, devs[name])]
            quantity = f"{name}[rho={rho},i={entry.block},l={entry.subrow}]"
            note = _notes(entry.note, drop_note)
            claims.append((samples, float(entry.exponent), quantity, note, DEFAULT_SLACK))
    delta_coef = reduced.theta_perturbation.delta_coef
    samples = [(z, cl.frob(ric.theta_hat - reduced.theta - z * delta_coef)) for z, ric in points]
    note = _notes("error measured against z", drop_note)
    return claims + [(samples, 2.0, f"riccati-delta[rho={rho}]", note, DEFAULT_SLACK)]
