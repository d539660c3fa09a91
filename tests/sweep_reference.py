"""Per-point reference of ``verify_all``: each sweep evaluated one point at a
time, one dense ``eig`` of A + tD, one residual product and one exact basis
per point.  ``verify_all`` evaluates the same sweeps as stacked arrays and
must give the same reports bit for bit (NaN-aware); this module is the test
oracle for that.

It reuses what the two share and is not per-point work: the expansions, the
selection, the window, ``match_eigenvalues`` and ``slope_fit``.  Each
Riccati solve goes through ``jordanperturb.verify.solve_riccati``, so a test
that patches it there patches both runs.
"""

from dataclasses import replace

import numpy as np

import jordanperturb.verify as jv
from jordanperturb import core_linalg as cl
from jordanperturb.errors import NoConvergence
from jordanperturb.expansion import eigenvalue_expansions, h_order_table, select_subspace
from jordanperturb.first_order import complement_pair, first_order_expansion
from jordanperturb.pencil import assemble_pencil, check_separated, reduce_pencil
from jordanperturb.verify import (
    DEFAULT_SLACK,
    START_ORDER,
    ConvergenceReport,
    SweepPlan,
    _min_sum_assignment,
    _notes,
    _riccati_window,
    match_eigenvalues,
    slope_fit,
)


def reference_exact_subspace_basis(ric, sel, comp):
    """(H, rep) of ``verify.exact_subspace_basis`` at one solution."""
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
    y = np.linalg.solve(u[:r, :r].T, u[r:, :r].T).T
    h = ric.invariant_matrix() @ (sel.phi + comp.phi_c @ y)
    return h, tt[:r, :r] + tt[:r, r:] @ y


def reference_verify_all(pair, rho, plan=None, *, perturb_h1=0.0, swap_root=False):
    """``verify_all`` with every sweep point evaluated on its own."""
    if plan is None:
        plan = SweepPlan.default(rho)
    ts = list(plan.t_values)
    scale = 1.0 + cl.frob(pair.d11)
    if cl.frob(pair.d11) == 0.0:
        nan, samples = float("nan"), tuple((t, 0.0) for t in ts)
        quantity = f"degenerate-zero-perturbation[rho={rho}]"
        return [ConvergenceReport(quantity, 0.0, nan, nan, True, samples, True, "D11 = 0: all claims vacuous")]
    reduced = reduce_pencil(assemble_pencil(pair, rho))
    if not reduced.clusters:
        return []
    a_mat = pair.a_matrix()
    oracle = {t: a_mat + t * pair.d11 for t in ts}
    rows = _eig_claims(reduced, oracle)
    resid_rows, sel0, comp0 = _residual_claims(reduced, oracle, perturb_h1, swap_root)
    rows += resid_rows + _riccati_claims(reduced, sel0, comp0)
    return [
        slope_fit(samples, claimed, scale, slack, quantity, note)
        for samples, claimed, quantity, note, slack in rows
    ]


def _eig_claims(reduced, oracle):
    rho, ts = reduced.rho, list(oracle)
    observed = [cl.eig(a_plus_td) for a_plus_td in oracle.values()]
    exps, first, rows = eigenvalue_expansions(reduced), 0, []
    for ci, cb in enumerate(reduced.clusters):
        exp, first = exps[first], first + cb.count
        samples = [
            (t, match_eigenvalues(np.repeat(exp.predict(t), cb.count), obs)[1]) for t, obs in zip(ts, observed)
        ]
        quantity = f"eig[rho={rho},cluster={ci}]"
        if exp.simple:
            rows.append((samples, 2.0 / rho, quantity, "", DEFAULT_SLACK))
        else:
            rows.append((samples, 1.0 / rho + 0.02, quantity, "weakly verified o(t^(1/rho)) bound", 0.0))
    return rows


def _residual_claims(reduced, oracle, perturb_h1, swap_root):
    rho = reduced.rho
    rng = np.random.default_rng(0) if perturb_h1 else None
    rows = []
    for ci, cb in enumerate(reduced.clusters):
        near = lambda lam, target=cb.gamma: lam == target
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
        samples = []
        for t, a_plus_td in oracle.items():
            h = fo.h_of(t)
            samples.append((t, cl.frob(a_plus_td @ h - h @ fo.c_of(t))))
        rows.append((samples, 2.0 / rho, f"subspace-resid[rho={rho},cluster={ci}]", note, DEFAULT_SLACK))
    return rows, sel0, comp0


def _riccati_claims(reduced, sel, comp):
    rho, idx = reduced.rho, reduced.pair.index
    _, window = _riccati_window(reduced)
    xs = reduced.series(START_ORDER)[0]
    points = []
    for z in window:
        start = sum(xs[k] * z**k for k in range(1, START_ORDER + 1))
        try:
            ric = jv.solve_riccati(reduced.assembled, reduced, z, start=start)
        except NoConvergence:
            continue
        points.append((z, ric, reference_exact_subspace_basis(ric, sel, comp)[0]))
    dropped = len(window) - len(points)
    drop_note = f"{dropped} of {len(window)} sweep points dropped (NoConvergence)" if dropped else ""
    base = reduced.x0
    explicit = [
        (idx.rows(rho, ell), ell - 1, sel.q1 @ np.linalg.matrix_power(sel.omega, ell - 1))
        for ell in range(2, rho + 1)
    ]
    devs = {"X": [], "H": []}
    for z, ric, h in points:
        devs["X"].append(ric.invariant_matrix() - base)
        hrow = h - base @ sel.phi
        for rows, power, term in explicit:
            hrow[rows, :] -= z**power * term
        devs["H"].append(hrow)
    claims = []
    for name, full in (("X", True), ("H", False)):
        for entry in h_order_table(reduced.structure, rho, full=full):
            rows = idx.rows(entry.block, entry.subrow)
            samples = [(z**rho, cl.frob(dev[rows, :])) for (z, _, _), dev in zip(points, devs[name])]
            quantity = f"{name}[rho={rho},i={entry.block},l={entry.subrow}]"
            note = _notes(entry.note, drop_note)
            claims.append((samples, float(entry.exponent), quantity, note, DEFAULT_SLACK))
    delta_coef = reduced.theta_perturbation.delta_coef
    samples = [(z, cl.frob(ric.theta_hat - reduced.theta - z * delta_coef)) for z, ric, _ in points]
    note = _notes("error measured against z", drop_note)
    return claims + [(samples, 2.0, f"riccati-delta[rho={rho}]", note, DEFAULT_SLACK)]
