#!/usr/bin/env python3
"""The first fractional-order correction H1 and the eigenvalue coefficient Delta11.

With H = H0 + t^(1/rho) H1 and C = lambda0 I + t^(1/rho) Omega
+ t^(2/rho) Delta11, the residual of (A + tD) H = H C decays like
t^(2/rho).  Corrupting H1, or pairing the subspace with the wrong root
branch, destroys that decay - the verification sweep is sensitive enough to
serve as a regression oracle.
"""

import numpy as np

import jordanperturb as jp

st = jp.JordanStructure(0.0, (1, 2))
pair = jp.generate(jp.CaseSpec(st, seed=3, ensure_distinct_gammas=True))
rho = 2
reduced = jp.reduce_pencil(jp.assemble_pencil(pair, rho))
gamma = np.linalg.eigvals(reduced.s_rho)[0]
sel = jp.select_subspace(reduced, lambda g: abs(g - gamma) < 1e-6 * abs(gamma), 0)
comp = jp.complement_pair(reduced, sel)
fo = jp.first_order_expansion(reduced, sel, comp)

print(f"sizes = {st.sizes}, rho = {rho}, gamma = {gamma:.4f}, mu = {sel.omega[0,0]:.4f}")
print(f"\nH1 =\n{np.round(fo.h1, 4)}")
print(f"\nDelta11 = {fo.delta11.ravel()[0]:.6f}")
print(f"coupling Y (solves Omega_c Y - Y Omega + Delta21 = 0):\n{np.round(fo.y, 4)}")

a, d = pair.a_matrix(), pair.d11
print(f"\nresidual of (A+tD)(H0 + t^(1/2) H1) = (...)(l0 I + t^(1/2) Om + t Delta11):")
print(f"{'t':>10} {'residual':>12} {'residual/t':>12}")
for t in (1e-2, 1e-4, 1e-6, 1e-8):
    z = t**0.5
    h = fo.h0 + z * fo.h1
    c = z * sel.omega + z * z * fo.delta11
    r = np.linalg.norm((a + t * d) @ h - h @ c)
    print(f"{t:10.0e} {r:12.3e} {r / t:12.3f}")
print("residual/t levels off: the residual is O(t^(2/rho)) = O(t).")

print("\nsecond-order eigenvalue check: (lambda(t) - t^(1/2) mu)/t vs Delta11")
mu = sel.omega[0, 0]
for t in (1e-6, 1e-8):
    w = np.linalg.eigvals(a + t * d)
    lam = w[np.argmin(np.abs(w - t**0.5 * mu))]
    print(f"  t={t:.0e}:  oracle {(lam - t**0.5 * mu) / t:.6f}   predicted {fo.delta11[0,0]:.6f}")

print("\nnegative controls (the slope fit is the regression oracle):")
for kwargs, label in [
    (dict(), "clean"),
    (dict(perturb_h1=1e-3), "H1 + 1e-3 noise"),
    (dict(swap_root=True), "wrong root branch"),
]:
    reports = jp.verify_all(pair, rho, **kwargs)
    resid = [r for r in reports if r.quantity.startswith("subspace-resid")]
    slopes = ", ".join(f"{r.fitted_slope:.2f}" for r in resid)
    verdict = "pass" if all(r.passed for r in resid) else "FAIL"
    print(f"  {label:>18}: residual slopes [{slopes}] (claimed >= {2/rho - 0.1:.2f}) -> {verdict}")
