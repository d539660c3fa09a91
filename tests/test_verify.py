import logging
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import jordanperturb.verify
from jordanperturb import (
    CanonicalPair,
    CaseSpec,
    JordanStructure,
    SweepPlan,
    assemble_pencil,
    check_generic,
    complement_pair,
    generate,
    match_eigenvalues,
    reduce_pencil,
    select_subspace,
    slope_fit,
    solve_riccati,
    verify_all,
)
from jordanperturb.errors import CardinalityMismatch, JordanPerturbError, NoConvergence
from jordanperturb.verify import exact_subspace_basis

from closed_forms import fixed_point_subspace_basis, oracle_eigs
from conftest import random_pair
from known_cases import example1_pair, theta2_zero_pair


class TestSweepPlan:
    def test_default_geometric(self):
        plan = SweepPlan.default(2)
        assert len(plan.t_values) == 13
        assert plan.t_values[0] == pytest.approx(1e-2)
        assert plan.t_values[-1] == pytest.approx(1e-8)
        ratios = np.diff(np.log(plan.t_values))
        assert np.allclose(ratios, ratios[0])

    def test_default_clamps_rho1_floor(self):
        plan = SweepPlan.default(1)
        floor = 10 * np.finfo(float).eps ** 0.5
        assert all(t > floor for t in plan.t_values)

    @pytest.mark.parametrize(
        "t_values, rho, reason",
        [
            (np.geomspace(1e-8, 1e-2, 5), 2, "strictly decreasing"),
            (np.geomspace(1e-2, 1e-12, 5), 1, "cannot resolve"),
            (np.geomspace(1e-2, 1e-8, 4), 2, "at least 5"),
            ((1e-2, 1e-3, np.nan, 1e-5, 1e-6), 2, "finite"),
            ((np.inf, 1e-3, 1e-4, 1e-5, 1e-6), 2, "finite"),
        ],
        ids=["increasing", "below_floor", "too_few", "nan", "inf"],
    )
    def test_rejects(self, t_values, rho, reason):
        with pytest.raises(ValueError, match=reason):
            SweepPlan(t_values=tuple(t_values), rho=rho)

    @pytest.mark.parametrize(
        "bounds",
        [dict(tmax=np.nan), dict(tmax=np.inf), dict(tmin=np.nan), dict(tmin=np.inf)],
        ids=["tmax_nan", "tmax_inf", "tmin_nan", "tmin_inf"],
    )
    def test_default_rejects_non_finite_bounds(self, bounds):
        # a NaN passes every ordering and floor comparison, so it has to be
        # named; geomspace's own invalid-value warning is not raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                SweepPlan.default(2, **bounds)


class TestOracleEigs:
    def test_example1(self):
        pair = example1_pair()
        w = oracle_eigs(pair.a_matrix(), pair.d11, 1e-4, 0.0, radius_exponent=1 / 5)
        expected = np.array([1e-1 * np.exp(0.5j * np.pi * j) for j in range(4)])
        _, err = match_eigenvalues(expected, w)
        assert err <= 1e-9 * 1e-1

    def test_zero_d(self):
        a = np.diag([2.0, 2.0, 5.0]).astype(complex)
        w = oracle_eigs(a, np.zeros((3, 3)), 1e-4, 2.0, radius_exponent=0.5)
        assert len(w) == 2 and np.allclose(w, 2.0)

    def test_t_zero(self):
        a = np.diag([2.0, 5.0]).astype(complex)
        w = oracle_eigs(a, np.ones((2, 2)), 0.0, 2.0, radius_exponent=0.5)
        assert len(w) == 1 and abs(w[0] - 2.0) < 1e-12


class TestMatchEigenvalues:
    def test_identical(self):
        vals = np.array([1.0, 2.0j, -3.0])
        pairs, err = match_eigenvalues(vals, vals)
        assert err == 0.0 and sorted(pairs) == [(0, 0), (1, 1), (2, 2)]

    def test_order_invariant(self):
        a = np.array([1.0, 2.0j, -3.0])
        b = a[[2, 0, 1]]
        _, err = match_eigenvalues(a, b)
        assert err == 0.0

    def test_cardinality(self):
        # extra observations are allowed; too few are not
        pairs, err = match_eigenvalues([2.0], [1.0, 2.0])
        assert pairs == [(0, 1)] and err == 0.0
        with pytest.raises(CardinalityMismatch):
            match_eigenvalues([1.0, 2.0], [1.0])

    def test_optimality_vs_identity_pairing(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        b = a[rng.permutation(6)] + 1e-3 * rng.normal(size=6)
        pairs, err = match_eigenvalues(a, b)
        identity_cost = np.abs(a - b).max()
        assert err <= identity_cost + 1e-15

    @given(hst.permutations(list(range(5))))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, perm):
        vals = np.array([0.0, 1.0, 2.0j, -1.0 - 1.0j, 3.0 + 0.5j])
        _, err = match_eigenvalues(vals, vals[perm])
        assert err == 0.0

    @given(
        hst.lists(hst.integers(1, 4), min_size=1, max_size=8),
        hst.integers(0, 24),
        hst.integers(0, 8),
        hst.integers(0, 8),
        hst.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_assignment_against_scipy(self, repeats, extra, dup_obs, exact, seed):
        # scipy's linear_sum_assignment is the oracle.  Exact ties come from
        # repeated predictions (as np.repeat makes them), repeated
        # observations and predictions equal to an observation; the values
        # are otherwise generic, so every minimum-sum assignment has the
        # same multiset of costs and the max must agree too.
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(seed)
        base = rng.normal(size=len(repeats)) + 1j * rng.normal(size=len(repeats))
        pred = np.repeat(base, repeats)[:8]
        p = pred.size
        obs = rng.normal(size=p + extra) + 1j * rng.normal(size=p + extra)
        obs = np.concatenate([obs, obs[: min(dup_obs, obs.size)]])
        hits = rng.permutation(p)[: min(exact, p)]
        obs[rng.permutation(obs.size)[: hits.size]] = pred[hits]
        obs = obs[rng.permutation(obs.size)]  # at most 8 + 24 + 8 = 40 values

        pairs, err = match_eigenvalues(pred, obs)
        rows, cols = map(list, zip(*pairs))
        assert rows == list(range(p)) and len(set(cols)) == p
        cost = np.abs(pred[:, None] - obs[None, :])
        r, c = linear_sum_assignment(cost)
        total, total_ref = cost[rows, cols].sum(), cost[r, c].sum()
        assert abs(total - total_ref) <= 1e-12 * total_ref
        assert abs(err - cost[r, c].max()) <= 1e-12 * cost[r, c].max()

    @pytest.mark.parametrize("kind", ["distinct", "colliding", "tied", "infinite"])
    def test_min_sum_assignment_against_scipy(self, kind):
        # scipy's linear_sum_assignment is the oracle, on costs whose row
        # minima fall in distinct columns (answered by the row minima alone),
        # share a column, tie within a row, or are infinite in some entries
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(["distinct", "colliding", "tied", "infinite"].index(kind))
        for _ in range(50):
            p = int(rng.integers(1, 9))
            o = p + int(rng.integers(0, 5))
            cost = rng.random((p, o)) + 1.0
            perm = rng.permutation(o)[:p]
            if kind == "distinct":
                cost[np.arange(p), perm] = rng.random(p)
            elif kind == "colliding":
                cost[:, perm[0]] = rng.random(p)
            elif kind == "tied":
                cost = rng.integers(0, 3, size=(p, o)).astype(float)
            else:
                cost[rng.random((p, o)) < 0.5] = np.inf
                cost[np.arange(p), perm] = rng.random(p) + 2.0 * (rng.random(p) < 0.5)
            cols = jordanperturb.verify._min_sum_assignment(cost)
            assert len(set(cols.tolist())) == p
            if kind == "distinct":
                assert np.array_equal(cols, cost.argmin(axis=1))
            r, c = linear_sum_assignment(cost)
            total, total_ref = cost[np.arange(p), cols].sum(), cost[r, c].sum()
            assert abs(total - total_ref) <= 1e-12 * max(1.0, total_ref)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            match_eigenvalues([np.nan], [1.0, 2.0])
        with pytest.raises(ValueError):
            match_eigenvalues([1.0], [complex(np.nan, 0.0), 2.0])

    def test_only_infinite_match_rejected(self):
        with pytest.raises(ValueError):
            match_eigenvalues([np.inf], [1.0, 2.0])
        # each prediction alone has a finite match, both together do not
        with pytest.raises(ValueError):
            match_eigenvalues([0.0, 1.0], [np.inf, 0.5])

    def test_infinite_observation_left_unmatched(self):
        pairs, err = match_eigenvalues([0.0, 1.0], [np.inf, 1.0, 0.1, complex(0.0, np.inf)])
        assert pairs == [(0, 2), (1, 1)] and err == pytest.approx(0.1)


class TestSlopeFit:
    def test_exact_linear(self):
        ts = np.geomspace(1e-2, 1e-8, 8)
        rep = slope_fit([(t, t) for t in ts], claimed=1.0)
        assert rep.passed and rep.fitted_slope == pytest.approx(1.0)
        assert rep.r_squared == pytest.approx(1.0)

    def test_half_power(self):
        ts = np.geomspace(1e-2, 1e-8, 8)
        rep = slope_fit([(t, 3 * t**0.5) for t in ts], claimed=0.5)
        assert rep.passed and rep.fitted_slope == pytest.approx(0.5)

    def test_fail_when_slope_short(self):
        ts = np.geomspace(1e-2, 1e-8, 8)
        rep = slope_fit([(t, t**0.5) for t in ts], claimed=1.0)
        assert not rep.passed

    def test_insufficient_after_floor(self):
        # no sample above the noise floor: a floor-limited pass, not an error
        samples = [(1e-2, 1e-20), (1e-3, 1e-20), (1e-4, 1e-20), (1e-5, 1e-20), (1e-6, 1e-20)]
        rep = slope_fit(samples, claimed=1.0, scale=1.0)
        assert rep.passed and rep.floor_limited and rep.note == "floor-limited"
        assert np.isnan(rep.fitted_slope) and np.isnan(rep.r_squared)

    def test_floor_samples_excluded(self):
        ts = list(np.geomspace(1e-2, 1e-6, 6))
        samples = [(t, t) for t in ts] + [(1e-10, 1e-30), (1e-11, 1e-30)]
        rep = slope_fit(samples, claimed=1.0)
        assert rep.passed and rep.fitted_slope == pytest.approx(1.0, abs=1e-6)


    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sample_fails(self, bad):
        # a non-finite error is neither fitted nor floor-limited: the claim fails
        ts = np.geomspace(1e-2, 1e-8, 8)
        for samples in ([(t, t) for t in ts[:3]] + [(ts[3], bad)] + [(t, t) for t in ts[4:]],
                        [(t, bad) for t in ts]):
            rep = slope_fit(samples, claimed=1.0, note="n")
            assert not rep.passed and not rep.floor_limited
            assert np.isnan(rep.fitted_slope) and np.isnan(rep.r_squared)
            assert rep.note.startswith("n; non-finite error ") and f"t={ts[3]:.3e}" in rep.note
            assert len(rep.samples) == len(samples)


class TestVerdict:
    """``slope_fit``, the one rule from a claim's samples to a report."""

    ts = np.geomspace(1e-2, 1e-8, 8)

    def test_short_claim_fails_with_nan(self):
        samples = [(t, t) for t in self.ts[:3]]
        rep = slope_fit(samples, 1.0, 1.0, quantity="q", note="10 of 13 sweep points dropped (NoConvergence)")
        assert not rep.passed and not rep.floor_limited
        assert np.isnan(rep.fitted_slope) and np.isnan(rep.r_squared)
        assert rep.note == "10 of 13 sweep points dropped (NoConvergence)"
        assert rep.quantity == "q" and rep.claimed_slope == 1.0
        assert rep.samples == tuple((float(t), float(e)) for t, e in samples)

    def test_short_claim_rule_before_non_finite(self):
        # too few samples decides first: a NaN among them adds no "non-finite" note
        samples = [(self.ts[0], self.ts[0]), (self.ts[1], float("nan")), (self.ts[2], self.ts[2])]
        rep = slope_fit(samples, 1.0, 1.0, quantity="q", note="n")
        assert not rep.passed and not rep.floor_limited and rep.note == "n"

    def test_fit_is_the_slope_fit(self):
        samples = [(t, t**0.5) for t in self.ts]
        for slack in (0.1, 0.6):
            rep = slope_fit(samples, 1.0, 1.0, slack, "q", "n")
            assert rep.fitted_slope == pytest.approx(0.5) and rep.r_squared == pytest.approx(1.0)
            assert rep.passed == (slack == 0.6) and not rep.floor_limited and rep.note == "n"
        assert not slope_fit(samples, 1.0, 1.0, quantity="q").passed

    def test_floor_limited_pass(self):
        samples = [(t, 1e-20) for t in self.ts]
        for note, want in (("", "floor-limited"), ("exact", "exact; floor-limited")):
            rep = slope_fit(samples, 0.5, 1.0, quantity="q", note=note)
            assert rep.passed and rep.floor_limited and rep.note == want
            assert np.isnan(rep.fitted_slope) and np.isnan(rep.r_squared)
            assert rep.claimed_slope == 0.5 and len(rep.samples) == len(samples)


class TestVerifyAll:
    def test_example1_all_pass(self):
        pair = example1_pair()
        reports = verify_all(pair, 4)
        assert reports and all(r.passed for r in reports)
        eig_reports = [r for r in reports if r.quantity.startswith("eig")]
        # the prediction is exact here: the eigenvalue report is floor-limited
        assert eig_reports and all(r.floor_limited for r in eig_reports)

    def test_zero_perturbation_degenerate(self):
        st = JordanStructure(0.0, (0, 2))
        pair = CanonicalPair(st, np.zeros((4, 4)))
        reports = verify_all(pair, 2)
        assert len(reports) == 1
        assert reports[0].floor_limited and reports[0].passed

    def test_random_case_passes(self):
        pair = random_pair((1, 1), seed=2)
        for rho in (1, 2):
            reports = verify_all(pair, rho)
            assert all(r.passed for r in reports), [
                (r.quantity, r.fitted_slope, r.claimed_slope) for r in reports if not r.passed
            ]
            assert not any("dropped" in r.note for r in reports)

    def test_determinism(self):
        pair = random_pair((0, 2), seed=1)
        r1 = verify_all(pair, 2)
        r2 = verify_all(pair, 2)
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            assert a == b

    def test_negative_control_perturb_h1(self):
        pair = random_pair((0, 2), seed=2)
        reports = verify_all(pair, 2, perturb_h1=1e-3)
        resid = [r for r in reports if r.quantity.startswith("subspace-resid")]
        assert resid and all(not r.passed for r in resid)

    def test_non_finite_perturb_h1_fails(self):
        # NaN H1 gives NaN residuals, which must fail, not pass as floor-limited
        pair = random_pair((0, 2), seed=2)
        reports = verify_all(pair, 2, perturb_h1=float("nan"))
        resid = [r for r in reports if r.quantity.startswith("subspace-resid")]
        assert resid and all(not r.passed and not r.floor_limited for r in resid)
        assert all("non-finite error" in r.note for r in resid)

    def test_negative_control_swap_root(self):
        pair = random_pair((0, 2), seed=2)
        reports = verify_all(pair, 2, swap_root=True)
        resid = [r for r in reports if r.quantity.startswith("subspace-resid")]
        assert resid and all(not r.passed for r in resid)

    def test_swap_root_needs_multiple_branches(self):
        pair = random_pair((1, 1), seed=0)
        with pytest.raises(ValueError):
            verify_all(pair, 1, swap_root=True)

    def test_subspace_claim_takes_its_cluster_only(self, monkeypatch):
        # S_1 = diag(1e-3, 1e-3 + 5e-7): two clusters (CLUSTER_GAP_REL max|gamma|
        # is 1e-9) within 1e-6 of each other; each subspace claim selects its own
        selected = []
        select = jordanperturb.verify.select_subspace

        def recorded(reduced, cluster, root_index=0):
            sel = select(reduced, cluster, root_index)
            selected.append(sel.chosen)
            return sel

        monkeypatch.setattr(jordanperturb.verify, "select_subspace", recorded)
        pair = CanonicalPair(JordanStructure(0.0, (2,)), np.diag([1e-3, 1e-3 + 5e-7]))
        reports = verify_all(pair, 1)
        assert selected == [((0, 0),), ((1, 0),)]
        assert [r.quantity for r in reports if r.quantity.startswith("subspace-resid")] == [
            "subspace-resid[rho=1,cluster=0]", "subspace-resid[rho=1,cluster=1]"
        ]

    def test_exact_subspace_tracks_oracle(self):
        # the exact basis from the riccati route satisfies the invariant
        # relation against A + tD at solver precision
        pair = random_pair((1, 2), seed=1)
        rho = 2
        ap = assemble_pencil(pair, rho)
        rp = reduce_pencil(ap)
        g0 = np.linalg.eigvals(rp.s_rho)[0]
        sel = select_subspace(rp, lambda lam: abs(lam - g0) < 1e-6 * max(1, abs(g0)), 0)
        comp = complement_pair(rp, sel)
        z = 1e-2
        ric = solve_riccati(ap, rp, z)
        h, rep = exact_subspace_basis(ric, sel, comp)
        t = z**rho
        c = pair.structure.lambda0 * np.eye(sel.r) + z * rep
        resid = np.linalg.norm(pair.perturbed(t) @ h - h @ c)
        assert resid <= 1e-11 * max(1.0, np.linalg.norm(h))


def ladder_pair(sizes):
    return generate(CaseSpec(JordanStructure(0.0, sizes), seed=1, ensure_distinct_gammas=True))


class TestDroppedPoints:
    def test_dropped_point_logged(self, monkeypatch, caplog):
        # (4,4,4,4,4), rho=5: Newton is forced to fail at the top of the
        # window, z_top = min(0.1 R, 0.1); the point is logged at INFO and
        # counted in the notes
        calls = forced_solves(monkeypatch, fail={1})
        pair = ladder_pair((4, 4, 4, 4, 4))
        with caplog.at_level(logging.INFO, logger="jordanperturb.verify"):
            reports = verify_all(pair, 5)
        _, top = window_top(reduce_pencil(assemble_pencil(pair, 5)))
        assert calls[0][0] == pytest.approx(top, rel=1e-12)
        msgs = [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()]
        assert len(msgs) == 1
        assert f"z={top:.6g}" in msgs[0]
        assert "solve_riccati raised NoConvergence" in msgs[0]
        delta = next(r for r in reports if r.quantity == "riccati-delta[rho=5]")
        assert delta.note.endswith("1 of 13 sweep points dropped (NoConvergence)")

    @pytest.mark.parametrize("dropped", [0, 2, 9])
    def test_one_slope_fit_per_report(self, monkeypatch, dropped):
        # every report, dropped points or not, is the slope_fit of one claim
        fits, solves = [], []

        def counted(*args, **kwargs):
            fits.append(slope_fit(*args, **kwargs))
            return fits[-1]

        def fail_first(ap, rp, z, start=None):
            solves.append(z)
            if len(solves) <= dropped:
                raise NoConvergence("forced")
            return solve_riccati(ap, rp, z, start=start)

        monkeypatch.setattr(jordanperturb.verify, "slope_fit", counted)
        monkeypatch.setattr(jordanperturb.verify, "solve_riccati", fail_first)
        reports = verify_all(random_pair((1, 2), seed=1), 2)
        assert len(fits) == len(reports) == 10
        assert all(f is r for f, r in zip(fits, reports))
        assert sum(f"{dropped} of 13 sweep points dropped" in r.note for r in reports) == (6 if dropped else 0)

    @pytest.mark.parametrize("dropped", [13, 9, 8])
    def test_too_few_points_fail_riccati_claims(self, monkeypatch, dropped):
        # the largest `dropped` sweep points (the first solved) raise in
        # solve_riccati; with fewer than five points left the X, H and
        # riccati-delta claims are still reported, each failed with NaN slope
        # and r^2; five points fit
        calls = []

        def fail_first(ap, rp, z, start=None):
            calls.append(z)
            if len(calls) <= dropped:
                raise NoConvergence("forced")
            return solve_riccati(ap, rp, z, start=start)

        monkeypatch.setattr(jordanperturb.verify, "solve_riccati", fail_first)
        reports = verify_all(random_pair((1, 2), seed=1), 2)
        riccati = [r for r in reports if r.quantity.startswith(("X[", "H[", "riccati-delta["))]
        assert len(reports) == 10 and len(riccati) == 6
        tag = f"{dropped} of 13 sweep points dropped (NoConvergence)"
        for r in riccati:
            assert r.note.endswith(tag) and len(r.samples) == 13 - dropped, (r.quantity, r.note)
            if dropped > 8:
                assert not r.passed and not r.floor_limited, r.quantity
                assert np.isnan(r.fitted_slope) and np.isnan(r.r_squared)
            else:
                assert r.floor_limited or np.isfinite(r.fitted_slope), r.quantity

    def test_each_point_starts_from_the_series(self, monkeypatch, caplog):
        # solve_riccati runs once per point of the window, 13 geometric points
        # from z_top = min(0.1 R, 0.1) down to z_top/100, each Newton solve
        # started from sum_{k=1..4} X_k z^k (the 4th and 5th calls are forced
        # to fail); one DEBUG line per solved point names its start, and one
        # per pencil gives R, the window's ends, the Newton iterations and the
        # dropped count
        calls = forced_solves(monkeypatch, fail={4, 5})
        pair = random_pair((1, 2), seed=1)
        with caplog.at_level(logging.DEBUG, logger="jordanperturb.verify"):
            verify_all(pair, 2)
        rp = reduce_pencil(assemble_pencil(pair, 2))
        radius, top = window_top(rp)
        assert [z for z, _, _ in calls] == pytest.approx(np.geomspace(top, top / 100, 13), rel=1e-12)
        xs = rp.series(4)[0]
        for z, start, _ in calls:
            series = sum(xs[k] * z**k for k in range(1, 5))
            assert np.linalg.norm(start - series) <= 1e-15 * np.linalg.norm(series)
        solved = [ric for _, _, ric in calls if ric is not None]
        assert len(solved) == 11 and [ric is None for _, _, ric in calls].index(True) == 3
        msgs = [r.getMessage() for r in caplog.records if "solved from start" in r.getMessage()]
        assert len(msgs) == 11 and all("start series in" in m and "Newton iterations" in m for m in msgs)
        window = [r for r in caplog.records if "Riccati window" in r.getMessage()]
        assert len(window) == 1 and window[0].levelno == logging.DEBUG
        msg = window[0].getMessage()
        assert f"R={radius:.6g}" in msg and f"z from {top:.6g} down to {top / 100:.6g}" in msg
        assert f"{sum(ric.iterations for ric in solved)} Newton iterations" in msg
        assert msg.endswith("2 of 13 points dropped")

    def test_reports_count_dropped_points(self, monkeypatch):
        # (4,4,4,4,4), rho=5 keeps 12 of its 13 sweep points when the 7th
        # solve is forced to fail; each report fitted without it says so, and
        # only those reports do
        forced_solves(monkeypatch, fail={7})
        reports, kept = recorded_run(ladder_pair((4, 4, 4, 4, 4)), 5)
        assert len(kept) == 12
        tag = "1 of 13 sweep points dropped (NoConvergence)"
        for r in reports:
            on_riccati_points = r.quantity.startswith(("X[", "H[", "riccati-delta["))
            assert (tag in r.note) == on_riccati_points, (r.quantity, r.note)
        delta = next(r for r in reports if r.quantity == "riccati-delta[rho=5]")
        assert delta.note == "error measured against z; " + tag


def forced_solves(monkeypatch, fail=()):
    """Patch ``verify.solve_riccati`` to record (z, start, solution) per call,
    raising NoConvergence (solution None) on the 1-based calls in ``fail``."""
    calls = []

    def recording(ap, rp, z, start=None):
        calls.append((z, start, None))
        if len(calls) in fail:
            raise NoConvergence("forced")
        calls[-1] = (z, start, solve_riccati(ap, rp, z, start=start))
        return calls[-1][2]

    monkeypatch.setattr(jordanperturb.verify, "solve_riccati", recording)
    return calls


def window_top(reduced):
    """(R, z_top) of the Riccati window, restated from its definition: with
    Theta_j the first nonzero of Theta_2..Theta_4 in Frobenius norm, R =
    min over the nonzero Theta_k, k > j, of (|Theta_j|/|Theta_k|)^(1/(k-j)),
    infinite when there is none, and z_top = min(0.1 R, 0.1)."""
    th = reduced.series(4)[1]
    nonzero = [(k, np.linalg.norm(th[k])) for k in (2, 3, 4) if np.linalg.norm(th[k])]
    radius = min(((nonzero[0][1] / n) ** (1.0 / (k - nonzero[0][0])) for k, n in nonzero[1:]), default=np.inf)
    return radius, min(0.1 * radius, 0.1)


def recorded_run(pair, rho):
    """verify_all's reports and the (ric, sel, comp, (h, rep)) of every sweep
    point it keeps."""
    kept = []

    def recording(ric, sel, comp):
        out = exact_subspace_basis(ric, sel, comp)
        kept.append((ric, sel, comp, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jordanperturb.verify, "exact_subspace_basis", recording)
        reports = verify_all(pair, rho)
    return reports, kept


@pytest.fixture(scope="module")
def ladder_runs():
    # the verify-ladder cases (seed 1, up to m = 60), each at rho = k:
    # (pair, rho, reports, kept points) per case
    runs = {}
    for sizes in [(1, 2), (2, 2, 2), (1, 1, 1, 1, 1), (3, 3, 3, 3), (4, 4, 4, 4, 4)]:
        pair = ladder_pair(sizes)
        runs[sizes] = (pair, len(sizes), *recorded_run(pair, len(sizes)))
    return runs


@pytest.fixture(scope="module")
def largest_ladder_run(ladder_runs):
    # m = 60, rho = 5: the pair, verify_all's reports and every Riccati
    # solution it keeps
    pair, _, reports, kept = ladder_runs[(4, 4, 4, 4, 4)]
    return pair, reports, [ric for ric, *_ in kept]


def invariant_residual(pair, rho, ric, h, rep):
    # ||(A + z^rho D) H - H (lambda0 I + z rep)|| relative to ||A + z^rho D||_2 ||H||
    z = ric.z
    m = pair.a_matrix() + z**rho * pair.d11
    c = pair.structure.lambda0 * np.eye(h.shape[1]) + z * rep
    return np.linalg.norm(m @ h - h @ c) / (np.linalg.norm(m, 2) * np.linalg.norm(h))


class TestExactSubspaceBasis:
    def test_agrees_with_fixed_point_on_ladder(self, ladder_runs):
        # at every kept sweep point of the seed-1 ladder the ordered Schur
        # form gives the fixed point's basis and block
        for sizes, (pair, rho, _, kept) in ladder_runs.items():
            assert len(kept) == 13, sizes
            for ric, sel, comp, (h, rep) in kept:
                h_fp, rep_fp = fixed_point_subspace_basis(ric, sel, comp)
                assert np.linalg.norm(h - h_fp) <= 1e-10 * np.linalg.norm(h_fp), (sizes, ric.z)
                assert np.linalg.norm(rep - rep_fp) <= 1e-10 * np.linalg.norm(rep_fp), (sizes, ric.z)

    def test_solves_where_fixed_point_fails(self):
        # ladder seed 2, (2,2,2), rho=3, on the points z = t^(1/3) of the
        # default t-sweep, solved by continuation in ascending z: the fixed
        # point does not converge at the four largest, which the ordered Schur
        # form solves; the basis is verify_all's, cluster 0 on root branch 0
        pair = generate(CaseSpec(JordanStructure(0.0, (2, 2, 2)), seed=2, ensure_distinct_gammas=True))
        rp = reduce_pencil(assemble_pencil(pair, 3))
        gamma = rp.clusters[0].gamma
        sel = select_subspace(rp, lambda lam: lam == gamma, 0)
        comp = complement_pair(rp, sel)
        ts = SweepPlan.default(3).t_values
        start, solved = None, []
        for t in reversed(ts):
            ric = solve_riccati(rp.assembled, rp, t ** (1.0 / 3), start=start)
            start = np.vstack([ric.x1, ric.x2])
            solved.append(ric)
        for i, ric in enumerate(reversed(solved)):
            h, rep = exact_subspace_basis(ric, sel, comp)
            if i < 4:
                with pytest.raises(NoConvergence):
                    fixed_point_subspace_basis(ric, sel, comp)
            assert invariant_residual(pair, 3, ric, h, rep) <= 1e-12, ts[i]


LADDER_FAILED = {
    ((3, 3, 3, 3), "eig[rho=4,cluster=0]"),
    ((4, 4, 4, 4, 4), "eig[rho=5,cluster=2]"),
    ((4, 4, 4, 4, 4), "eig[rho=5,cluster=3]"),
}
LADDER_FLOOR_LIMITED = {((4, 4, 4, 4, 4), f"X[rho=5,i={i},l={i}]") for i in range(1, 6)} | {
    ((4, 4, 4, 4, 4), f"H[rho=5,i={i},l={ell}]")
    for i, ell in [(1, 1), (2, 2), (3, 3), (4, 4), (5, 4), (5, 5)]
}


class TestRiccatiWindow:
    def test_seed1_ladder_verdicts(self, ladder_runs):
        # on the Riccati window the seed-1 ladder fails three claims, all
        # eig, which an 80-digit oracle shows to be pre-asymptotic; 11 claims
        # of (4,4,4,4,4) at rho=5 are floor-limited and reported as such
        reports = {(sizes, r.quantity): r for sizes, (_, _, reps, _) in ladder_runs.items() for r in reps}
        assert len(reports) == 122
        assert {key for key, r in reports.items() if not r.passed} == LADDER_FAILED
        assert {key for key, r in reports.items() if r.floor_limited} == LADDER_FLOOR_LIMITED
        assert not any("dropped" in r.note for r in reports.values())

    @pytest.mark.parametrize("rho", [3, 4, 5])
    def test_points_stay_on_the_branch(self, monkeypatch, rho):
        # (4,4,4,4,4) seed 1, where the default window's top point left the
        # branch: every point of the window converges from the series start,
        # none is dropped, and Theta-hat(z) differs from the series to z^4 by
        # its next term, at most 2 |Theta_5| z^5 (at z <= R/10 the tail after
        # it is about a tenth of it), plus rounding
        calls = forced_solves(monkeypatch)
        pair = ladder_pair((4, 4, 4, 4, 4))
        reports = verify_all(pair, rho)
        assert not any("dropped" in r.note for r in reports)
        assert len(calls) == 13 and all(ric is not None for _, _, ric in calls)
        rp = calls[0][2].reduced
        th = rp.series(5)[1]
        n5, scale = np.linalg.norm(th[5]), max(1.0, np.linalg.norm(th[0]))
        for z, start, ric in calls:
            assert start is not None
            err = np.linalg.norm(ric.theta_hat - sum(th[k] * z**k for k in range(5)))
            assert err <= 2 * n5 * z**5 + 1e-13 * scale, (z, err)

    def test_m112_riccati_family(self):
        # (4,)x7, m = 112, rho = 5, seed 1: beyond the ladder the window keeps
        # every point and fails no Riccati claim; 7 are floor-limited
        reports = verify_all(ladder_pair((4,) * 7), 5)
        riccati = [r for r in reports if r.quantity.startswith(("X[", "H[", "riccati-delta["))]
        assert len(riccati) == 56
        assert sum(not r.passed for r in riccati) == 0
        assert sum(r.floor_limited for r in riccati) == 7
        assert not any("dropped" in r.note for r in riccati)

    @pytest.mark.parametrize("rho", [1, 2])
    def test_theta2_zero(self, monkeypatch, rho):
        # at rho = 2 the series has Theta_2 = 0: R is read from Theta_3 and
        # Theta_4 (|Theta_3|/|Theta_4| = 1), so the window runs from 0.1 down
        # two decades, and every claim passes at both orders
        calls = forced_solves(monkeypatch)
        reports = verify_all(theta2_zero_pair(), rho)
        radius, top = window_top(calls[0][2].reduced)
        if rho == 2:
            assert not np.linalg.norm(calls[0][2].reduced.series(4)[1][2])
            assert radius == pytest.approx(1.0, rel=1e-15) and top == pytest.approx(0.1, rel=1e-15)
        assert [z for z, _, _ in calls] == pytest.approx(np.geomspace(top, top / 100, 13), rel=1e-12)
        assert reports and all(r.passed for r in reports), [r.quantity for r in reports if not r.passed]

    @given(
        hst.lists(hst.integers(0, 2), min_size=1, max_size=4).filter(lambda s: s[-1] > 0),
        hst.integers(0, 2**16),
        hst.integers(0, 3),
    )
    @settings(max_examples=8, deadline=None)
    def test_window_inside_the_disc(self, sizes, seed, pick):
        # random structures with k <= 4: every Riccati sample lies in
        # [z_top/100, z_top] with z_top <= min(0.1 R, 0.1), and every point
        # either converges or is counted in the notes
        pair = generate(CaseSpec(JordanStructure(0.0, tuple(sizes)), seed=seed, ensure_distinct_gammas=True))
        rho = pair.structure.valid_rhos()[pick % len(pair.structure.valid_rhos())]
        with pytest.MonkeyPatch.context() as mp:
            calls = forced_solves(mp)
            reports = verify_all(pair, rho)
        _, top = window_top(reduce_pencil(assemble_pencil(pair, rho)))  # min(0.1 R, 0.1)
        assert len(calls) == 13 and all(top / 100 * (1 - 1e-12) <= z <= top * (1 + 1e-12) for z, _, _ in calls)
        solved = sum(ric is not None for _, _, ric in calls)
        dropped = 13 - solved
        riccati = [r for r in reports if r.quantity.startswith(("X[", "H[", "riccati-delta["))]
        assert riccati
        for r in riccati:
            assert (f"{dropped} of 13 sweep points dropped (NoConvergence)" in r.note) == (dropped > 0)
            assert len(r.samples) == solved
            for t, _ in r.samples:
                z = t if r.quantity.startswith("riccati-delta") else t ** (1.0 / rho)
                assert top / 100 * (1 - 1e-12) <= z <= top * (1 + 1e-12), (r.quantity, z, top)


INTEGER_SIZES = [(1, 1), (0, 2), (1, 2), (2, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (0, 0, 2)]


@hst.composite
def generic_integer_cases(draw):
    """(pair, rho): a generic pair on one of ``INTEGER_SIZES`` with D11
    entries in -2..2, and one of its valid rho."""
    st = JordanStructure(0.0, draw(hst.sampled_from(INTEGER_SIZES)))
    entries = draw(hst.lists(hst.integers(-2, 2), min_size=st.dim**2, max_size=st.dim**2))
    pair = CanonicalPair(st, np.reshape(entries, (st.dim, st.dim)).astype(float))
    assume(check_generic(pair).generic)
    return pair, draw(hst.sampled_from(st.valid_rhos()))


@given(generic_integer_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_integer_d11_raises_only_library_errors(case):
    # integer entries make exact zeros and ties common (a vanishing series
    # term, a repeated gamma, a singular root block): verify_all either
    # reports or raises one of the library's errors, and nothing else.  The
    # 200 derandomized examples include pairs with Theta_2 = 0 at rho = 2
    pair, rho = case
    try:
        verify_all(pair, rho)
    except JordanPerturbError:
        pass


def test_no_claims_where_no_eigenvalue_splits():
    # sizes (1, 0, 1): s_2 = 0, so rho = 2 splits nothing and has no claims
    pair = generate(CaseSpec(JordanStructure(0.0, (1, 0, 1)), seed=1, ensure_distinct_gammas=True))
    assert verify_all(pair, 2) == []
    assert verify_all(pair, 3)


def test_largest_ladder_case_invariant_relation(largest_ladder_run):
    # m = 60: every Riccati solution verify_all keeps satisfies
    # (A + z^rho D) X-tilde = X-tilde (lambda0 I + z Theta-hat), with the
    # residual relative to ||A + z^rho D||_2 ||X-tilde|| (a backward error)
    pair, reports, kept = largest_ladder_run
    rho = 5
    delta = [r for r in reports if r.quantity == f"riccati-delta[rho={rho}]"]
    assert len(delta) == 1 and len(delta[0].samples) == len(kept) > 0
    a, d = pair.a_matrix(), pair.d11
    for ric in kept:
        z = ric.z
        xt = ric.invariant_matrix()
        m = a + z**rho * d
        rhs = xt @ (pair.structure.lambda0 * np.eye(xt.shape[1]) + z * ric.theta_hat)
        assert np.linalg.norm(m @ xt - rhs) <= 1e-12 * np.linalg.norm(m, 2) * np.linalg.norm(xt)


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    # neither the import nor a whole `verify` run loads scipy.optimize: the
    # eigenvalue matching uses the package's own assignment solver.  Neither
    # the import, `generate` nor `analyze` (at rho = 1 < k too) loads scipy at
    # all; `verify` does, at its first Schur form, so the scipy check is not
    # vacuous.
    import jordanperturb

    src = os.path.dirname(os.path.dirname(os.path.abspath(jordanperturb.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    path = str(tmp_path / "case.json")
    code = (
        "import contextlib, io, sys, jordanperturb\n"
        "print('scipy.optimize' in sys.modules, 'scipy' in sys.modules)\n"
        "from jordanperturb.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    gen = main(['generate', '--sizes', '1,2', '--seed', '1', '--out', {path!r}])\n"
        "print(gen, 'scipy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    ana = main(['analyze', {path!r}])\n"
        "print(ana, 'scipy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['verify', {path!r}])\n"
        "print(code, 'scipy.optimize' in sys.modules, 'scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False", "0", "False", "0", "False", "0", "False", "True"]
