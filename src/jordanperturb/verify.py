"""Brute-force verification of every claimed fractional order.

The oracle is a dense eigensolve of ``A + tD`` over a geometric t-sweep.
Each theoretical claim ``error = O(t^c)`` becomes a report by one rule,
``_verdict``, in this order: a claim on the Riccati sweep points fails, with
NaN slope and r^2, when points were dropped and fewer than ``MIN_SAMPLES``
remain; a claim with a non-finite error sample fails; a claim with fewer
than ``MIN_SAMPLES`` samples above the noise floor ``100 eps scale`` is a
floor-limited pass; any other claim is a log-log slope fit of the samples
above the floor (:func:`slope_fit`), which passes when the fitted slope is
at least ``c - slack`` and r^2 at least ``DEFAULT_R2``.

Order-table claims (the per-block decay rates of the invariant-subspace
bases) are measured against the exact small-z solutions from
:func:`jordanperturb.first_order.solve_riccati`, whose output is itself
validated against the oracle to machine precision.  The sweep points are
solved as one continuation path along the branch: in ascending z, each
Newton solve starting from the last converged solution and the first from
zero (natural-parameter continuation; Allgower & Georg, Introduction to
Numerical Continuation Methods, SIAM 2003).  Each solved point is logged at
DEBUG on this module's logger with its start, Newton iterations and
residual.  A sweep point where the Riccati solve raises
:class:`NoConvergence` is left out of those fits, logged at INFO, and
counted in the note of each report fitted without it; the reports keep the
plan's order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import core_linalg as cl
from .errors import CardinalityMismatch, InsufficientSamples, NoConvergence
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


def _resolvable_floor(rho: int) -> float:
    """The least t at which t^(1/rho) effects stand clear of rounding:
    10 eps^(rho/(rho+1))."""
    return 10.0 * cl.EPS ** (rho / (rho + 1))


@dataclass(frozen=True)
class SweepPlan:
    """Geometric t-sweep for one splitting order rho: at least ``MIN_SAMPLES``
    strictly decreasing t values, all above the resolvability floor."""

    t_values: tuple
    rho: int

    def __post_init__(self):
        ts = tuple(float(t) for t in self.t_values)
        object.__setattr__(self, "t_values", ts)
        if len(ts) < MIN_SAMPLES:
            raise ValueError(f"a sweep needs at least {MIN_SAMPLES} t values, got {len(ts)}")
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
    is unspecified.  The repeated predictions of
    ``np.repeat(exp.predict(t), count)`` in :func:`verify_all` are such a
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
    cost = np.abs(p[:, None] - o[None, :])
    if np.isnan(cost).any():
        raise ValueError("eigenvalue matching got a NaN value")
    cols = _min_sum_assignment(cost)
    return list(enumerate(cols.tolist())), float(cost[np.arange(p.size), cols].max())


def _min_sum_assignment(cost) -> np.ndarray:
    """Distinct column of each row in a minimum-sum assignment of a (p, o)
    cost matrix with nonnegative entries and p <= o.

    Finite row minima in distinct columns are optimal at once: no sum is lower
    (JV's row reduction).  Otherwise each row in turn is added by a shortest
    augmenting path over reduced costs, with row and column potentials u and v
    kept so that u_i + v_j <= cost_ij, with equality on assigned pairs and
    v_j = 0 on free columns (Jonker & Volgenant 1987, Computing 38; the
    rectangular form of Crouse 2016, IEEE Trans. Aerosp. Electron. Syst. 52),
    each step of the path search vectorised over the columns.
    """
    p, o = cost.shape
    col = cost.argmin(axis=1)
    if np.isfinite(cost[np.arange(p), col]).all() and np.unique(col).size == p:
        return col
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
    """Least-squares fit of log error against log t.

    A claim with a non-finite error sample fails, with NaN slope and r^2 and
    a note that names those samples.  Otherwise samples with error below
    ``100 * eps * scale`` are dropped as floor-limited; at least
    ``MIN_SAMPLES`` must survive or :class:`InsufficientSamples` is raised.
    The fit passes at slope >= ``claimed - slack`` and r^2 >= ``DEFAULT_R2``.
    """
    samples = [(float(t), float(e)) for t, e in samples]
    bad = [f"{e} at t={t:.3e}" for t, e in samples if not np.isfinite(e)]
    if bad:
        note = "; ".join(n for n in (note, "non-finite error " + ", ".join(bad)) if n)
        nan = float("nan")
        return ConvergenceReport(quantity, float(claimed), nan, nan, False, tuple(samples), note=note)
    floor = FLOOR_FACTOR * cl.EPS * scale
    usable = [(t, e) for t, e in samples if e > floor]
    if len(usable) < MIN_SAMPLES:
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
    passed = bool(slope >= claimed - slack and r2 >= DEFAULT_R2)
    return ConvergenceReport(quantity, float(claimed), float(slope), r2, passed, tuple(samples), note=note)


def _verdict(samples, claimed, scale, quantity, note="", slack=DEFAULT_SLACK, short=False):
    """The one rule that turns a claim's error samples into a report.

    ``short`` (sweep points were dropped and fewer than ``MIN_SAMPLES``
    remain) fails the claim with NaN slope and r^2.  Otherwise the claim is
    the :func:`slope_fit` of its samples, or, when fewer than ``MIN_SAMPLES``
    lie above the noise floor, a floor-limited pass with NaN slope and r^2.
    """
    samples = tuple((float(t), float(e)) for t, e in samples)
    nan = float("nan")
    if short:
        return ConvergenceReport(quantity, float(claimed), nan, nan, False, samples, note=note)
    try:
        return slope_fit(samples, claimed, scale=scale, quantity=quantity, note=note, slack=slack)
    except InsufficientSamples:
        note = (note + "; " if note else "") + "floor-limited"
        return ConvergenceReport(quantity, float(claimed), nan, nan, True, samples, True, note)


def exact_subspace_basis(ric, sel, comp):
    """Exact perturbed basis H(z) = X-tilde(z) (phi + phi_c Y(z)) and the
    block rep with (A + tD) H = H (lambda0 I + z rep), t = z^rho.

    range [I; Y] is the invariant subspace of tt = [psi; psi_c] Theta-hat
    [phi, phi_c] for the r eigenvalues that a minimum-sum assignment matches
    to Lambda(t11) rather than Lambda(t22); with them leading in one ordered
    Schur form tt U = U T, Y = U2 U1^-1 and rep = t11 + t12 Y.  Raises
    :class:`ClusterNotSeparated` when a selected and an unselected eigenvalue
    of tt lie within ``CLUSTER_GAP_REL`` max|Lambda(tt)|
    (:func:`jordanperturb.pencil.check_separated`).
    """
    tt = np.vstack([comp.psi, comp.psi_c]) @ ric.theta_hat @ np.hstack([sel.phi, comp.phi_c])
    r = sel.r

    def continues_omega(diag):
        blocks = np.concatenate([cl.eig(tt[:r, :r]), cl.eig(tt[r:, r:])])
        mask = np.zeros(diag.size, dtype=bool)
        mask[_min_sum_assignment(np.abs(blocks[:, None] - diag[None, :]))[:r]] = True
        return mask

    u, t, _ = cl.ordered_schur(tt, continues_omega)
    w = np.diag(t)
    check_separated(w[:r], w[r:], "Theta-hat eigenvalues continuing Omega")
    y = np.linalg.solve(u[:r, :r].T, u[r:, :r].T).T  # U2 U1^-1
    h = ric.invariant_matrix() @ (sel.phi + comp.phi_c @ y)
    return h, tt[:r, :r] + tt[:r, r:] @ y


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
    Theta-hat(z) with its first-order model (slope 2 in z).  The last two
    rest on the sweep points where the Riccati refinement converged, solved
    in ascending z with each Newton solve started from the last converged
    solution (see the module docstring); when
    points were dropped and fewer than ``MIN_SAMPLES`` remain, each of those
    claims is reported failed, with NaN slope and r^2.

    ``perturb_h1`` and ``swap_root`` are negative-control hooks: they
    corrupt H1 with noise of the given relative norm, or pair the subspace
    with a rotated root branch, and are expected to make the first-order
    residual fit fail.
    """
    st = pair.structure
    if plan is None:
        plan = SweepPlan.default(rho)
    ts = list(plan.t_values)
    scale = 1.0 + cl.frob(pair.d11)

    if cl.frob(pair.d11) == 0.0:
        nan, samples = float("nan"), tuple((t, 0.0) for t in ts)
        quantity = f"degenerate-zero-perturbation[rho={rho}]"
        return [ConvergenceReport(quantity, 0.0, nan, nan, True, samples, True, "D11 = 0: all claims vacuous")]

    assembled = assemble_pencil(pair, rho)
    reduced = reduce_pencil(assembled)
    a_mat = pair.a_matrix()
    d_mat = pair.d11

    observed = [cl.eig(a_mat + t * d_mat) for t in ts]

    reports: list[ConvergenceReport] = []

    # --- (i) eigenvalue splitting against the oracle, one report per cluster.
    exps = eigenvalue_expansions(reduced)
    clusters = []
    for e in exps:
        if not any(e is c for c, _ in clusters):
            clusters.append((e, sum(1 for x in exps if x is e)))

    for ci, (exp, count) in enumerate(clusters):
        samples = [
            (t, match_eigenvalues(np.repeat(exp.predict(t), count), obs)[1]) for t, obs in zip(ts, observed)
        ]
        if exp.simple:
            claimed, note, slack = 2.0 / rho, "", DEFAULT_SLACK
        else:
            claimed, note, slack = 1.0 / rho + 0.02, "weakly verified o(t^(1/rho)) bound", 0.0
        reports.append(_verdict(samples, claimed, scale, f"eig[rho={rho},cluster={ci}]", note, slack))

    # --- (ii) first-order subspace relation residual per cluster.
    rng = np.random.default_rng(0)
    for ci, (exp, _) in enumerate(clusters):
        near = lambda lam, target=exp.gamma: lam == target  # the cluster's representative
        sel = select_subspace(reduced, near, 0)
        comp = complement_pair(reduced, sel)
        if ci == 0:  # the subspace of the order tables in (iii)
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
            note = (note + "; " if note else "") + "Omega swapped to root branch 1"
        samples = []
        for t in ts:
            h = fo.h_of(t)
            samples.append((t, cl.frob((a_mat + t * d_mat) @ h - h @ fo.c_of(t))))
        reports.append(_verdict(samples, 2.0 / rho, scale, f"subspace-resid[rho={rho},cluster={ci}]", note))

    # --- (iii) per-block order tables from the exact small-z solutions.  The
    # points are solved in ascending z along the branch, each Newton solve
    # starting from the last converged one (the first from zero), and kept in
    # plan order.
    points, prev = [], None
    for t in reversed(ts):
        z = t ** (1.0 / rho)
        try:
            ric = solve_riccati(assembled, reduced, z, start=prev)
        except NoConvergence as exc:
            _log.info("rho=%d: sweep point z=%.6g dropped, solve_riccati raised NoConvergence: %s", rho, z, exc)
            continue
        _log.debug(
            "rho=%d: sweep point z=%.6g solved from start %s in %d Newton iterations, residual %.3e",
            rho, z, "zero" if prev is None else prev.z, ric.iterations, ric.residual,
        )
        points.append((z, ric, exact_subspace_basis(ric, sel0, comp0)[0]))
        prev = ric
    points.reverse()
    dropped = len(ts) - len(points)
    drop_note = f"{dropped} of {len(ts)} sweep points dropped (NoConvergence)" if dropped else ""
    base, idx = reduced.x0, pair.index
    # the explicit terms Q1 Omega^(l-1) of block rho, subtracted from H at z^(l-1)
    explicit = [
        (idx.rows(rho, ell), ell - 1, sel0.q1 @ np.linalg.matrix_power(sel0.omega, ell - 1))
        for ell in range(2, rho + 1)
    ]
    devs = {"X": [], "H": []}
    for z, ric, h in points:
        devs["X"].append(ric.invariant_matrix() - base)
        hrow = h - base @ sel0.phi
        for rows, power, term in explicit:
            hrow[rows, :] -= z**power * term
        devs["H"].append(hrow)
    claims = []  # (samples, claimed slope, quantity, note) of every claim on the Riccati points
    for name, full in (("X", True), ("H", False)):
        for entry in h_order_table(st, rho, full=full):
            rows = idx.rows(entry.block, entry.subrow)
            samples = [(z**rho, cl.frob(dev[rows, :])) for (z, _, _), dev in zip(points, devs[name])]
            quantity = f"{name}[rho={rho},i={entry.block},l={entry.subrow}]"
            claims.append((samples, float(entry.exponent), quantity, entry.note))

    # --- (iv) exact Theta-hat vs its first-order model, slope 2 in z.
    delta_coef = reduced.theta_perturbation.delta_coef
    samples = [(z, cl.frob(ric.theta_hat - reduced.theta - z * delta_coef)) for z, ric, _ in points]
    claims.append((samples, 2.0, f"riccati-delta[rho={rho}]", "error measured against z"))
    short = bool(dropped) and len(points) < MIN_SAMPLES  # too few points left to fit
    for samples, claimed, quantity, note in claims:
        note = "; ".join(n for n in (note, drop_note) if n)
        reports.append(_verdict(samples, claimed, scale, quantity, note, short=short))
    return reports
