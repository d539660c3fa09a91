"""``verify_all`` evaluates each sweep as stacked arrays; the per-point
reference in ``sweep_reference`` gives the same reports bit for bit."""

import numpy as np
import pytest

import jordanperturb.verify as jv
from jordanperturb import (
    CaseSpec,
    JordanStructure,
    SweepPlan,
    assemble_pencil,
    complement_pair,
    generate,
    reduce_pencil,
    select_subspace,
    verify_all,
)
from jordanperturb.errors import NoConvergence

from sweep_reference import reference_exact_subspace_basis, reference_verify_all

LADDER = [(1, 2), (2, 2, 2), (1, 1, 1, 1, 1), (3, 3, 3, 3), (4, 4, 4, 4, 4)]
LADDER_CASES = [
    (sizes, seed, rho)
    for sizes in LADDER
    for seed in (1, 2, 3)
    for rho in JordanStructure(0.0, sizes).valid_rhos()
]


def ladder_pair(sizes, seed=1):
    return generate(CaseSpec(JordanStructure(0.0, sizes), seed=seed, ensure_distinct_gammas=True))


def bits(x):
    return np.asarray(x).tobytes()


def assert_same_reports(got, want):
    # every field, the floats compared by their bytes (NaN == NaN, 0.0 != -0.0)
    assert [r.quantity for r in got] == [r.quantity for r in want]
    for g, w in zip(got, want):
        assert (g.passed, g.floor_limited, g.note) == (w.passed, w.floor_limited, w.note), g.quantity
        assert bits([g.claimed_slope, g.fitted_slope, g.r_squared]) == bits(
            [w.claimed_slope, w.fitted_slope, w.r_squared]
        ), g.quantity
        assert bits(g.samples) == bits(w.samples), g.quantity


def test_ladder_cases_cover_every_valid_rho():
    assert len(LADDER_CASES) == 57


@pytest.mark.parametrize("sizes, seed, rho", LADDER_CASES)
def test_equals_per_point_reference(sizes, seed, rho):
    pair = ladder_pair(sizes, seed)
    assert_same_reports(verify_all(pair, rho), reference_verify_all(pair, rho))


@pytest.mark.parametrize("sizes, rho", [((1, 2), 2), ((3, 3, 3, 3), 4), ((4, 4, 4, 4, 4), 5)])
@pytest.mark.parametrize("control", [{"perturb_h1": 0.01}, {"swap_root": True}])
def test_negative_controls_equal_reference(sizes, rho, control):
    pair = ladder_pair(sizes)
    assert_same_reports(verify_all(pair, rho, **control), reference_verify_all(pair, rho, **control))


@pytest.mark.parametrize("fail", [(0, 6), tuple(range(9)), tuple(range(13))])
def test_dropped_points_equal_reference(monkeypatch, fail):
    # the window points at the given positions raise NoConvergence in both
    # runs; 13 dropped points leave the exact bases nothing to compute
    pair = ladder_pair((3, 3, 3, 3))
    _, window = jv._riccati_window(reduce_pencil(assemble_pencil(pair, 4)))
    bad = {float(window[i]) for i in fail}
    solve = jv.solve_riccati

    def failing(ap, rp, z, start=None):
        if float(z) in bad:
            raise NoConvergence("forced")
        return solve(ap, rp, z, start=start)

    monkeypatch.setattr(jv, "solve_riccati", failing)
    got = verify_all(pair, 4)
    riccati = [r for r in got if r.quantity.startswith(("X[", "H[", "riccati-delta["))]
    assert len(riccati) == 20 and all(f"{len(fail)} of 13 sweep points dropped" in r.note for r in riccati)
    assert_same_reports(got, reference_verify_all(pair, 4))


def test_no_complement_equals_reference():
    # (1, 2) at rho = 1: one cluster that is the whole of S_1, so the
    # selection has no complement and tt's lower diagonal block is 0 x 0
    pair = ladder_pair((1, 2))
    rp = reduce_pencil(assemble_pencil(pair, 1))
    sel = select_subspace(rp, lambda g: g == rp.clusters[0].gamma, 0)
    comp = complement_pair(rp, sel)
    assert comp.psi_c.shape[0] == 0 and comp.phi_c.shape[1] == 0
    sols = [jv.solve_riccati(rp.assembled, rp, z) for z in (1e-2, 1e-3, 1e-4)]
    xt, h, rep = jv._exact_bases(sols, sel, comp)
    for ric, hk, repk in zip(sols, h, rep):
        want = reference_exact_subspace_basis(ric, sel, comp)
        assert bits(hk) == bits(want[0]) and bits(repk) == bits(want[1])
    assert_same_reports(verify_all(pair, 1), reference_verify_all(pair, 1))


def test_one_point_entry_equals_the_sweep(monkeypatch):
    # the bench's one-point exact_subspace_basis(sol, sel, comp) gives the
    # sweep's bases bit for bit, and the per-point reference's as well
    kept = []
    exact_bases = jv._exact_bases

    def recording(sols, sel, comp):
        out = exact_bases(sols, sel, comp)
        kept.append((sols, sel, comp, out))
        return out

    monkeypatch.setattr(jv, "_exact_bases", recording)
    verify_all(ladder_pair((4, 4, 4, 4, 4)), 5)
    ((sols, sel, comp, (xt, h, rep)),) = kept
    assert len(sols) == 13
    for ric, xk, hk, repk in zip(sols, xt, h, rep):
        one = jv.exact_subspace_basis(ric, sel, comp)
        assert np.array_equal(one[0], hk) and np.array_equal(one[1], repk)
        assert np.array_equal(xk, ric.invariant_matrix())
        want = reference_exact_subspace_basis(ric, sel, comp)
        assert bits(hk) == bits(want[0]) and bits(repk) == bits(want[1])


def test_one_riccati_solve_per_window_point(monkeypatch):
    # the exact bases are stacked, the solves are not: verify.solve_riccati
    # runs once per window point, 13 per pencil on the seed-1 ladder, with the
    # assembled and reduced pencil, z and the series start as arguments
    calls = []
    solve = jv.solve_riccati

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    monkeypatch.setattr(jv, "solve_riccati", recording)
    for sizes in LADDER:
        calls.clear()
        verify_all(ladder_pair(sizes), len(sizes))
        assert len(calls) == 13, sizes
        rp = calls[0][0][1]
        _, window = jv._riccati_window(rp)
        xs = rp.series(jv.START_ORDER)[0]
        for ((ap, rpk, z), kwargs), zk in zip(calls, window):
            assert ap is rp.assembled and rpk is rp and z == zk
            assert set(kwargs) == {"start"}
            assert np.array_equal(kwargs["start"], sum(xs[k] * zk**k for k in range(1, 5)))


def test_plan_for_another_rho_is_refused():
    # SweepPlan.default(2) runs down to t = 1e-8, below rho = 1's resolvable
    # floor of 1.5e-7, which SweepPlan(rho=1) refuses
    pair = ladder_pair((1, 2))
    with pytest.raises(ValueError, match="rho=2, not for rho=1"):
        verify_all(pair, 1, SweepPlan.default(2))
    with pytest.raises(ValueError, match="rho=1, not for rho=2"):
        verify_all(pair, 2, SweepPlan.default(1))
    assert verify_all(pair, 1, SweepPlan.default(1))
