#!/usr/bin/env python3
"""Exact small-z refinement: solving the coupling equations at fixed z.

Instead of truncating the expansion, one can solve the exact deflation
equations of the scaled pencil at a given z = t^(1/rho).  The resulting
Theta-hat(z) reproduces the perturbed eigenvalues to machine precision, and
comparing it with Theta + z*Delta confirms the first-order model to O(z^2).
"""

import numpy as np

import jordanperturb as jp

st = jp.JordanStructure(0.0, (1, 0, 1))
pair = jp.generate(jp.CaseSpec(st, seed=0, ensure_distinct_gammas=True))
rho = 3
assembled = jp.assemble_pencil(pair, rho)
reduced = jp.reduce_pencil(assembled)

print(f"sizes = {st.sizes}, rho = {rho}")
print(f"Lambda(S_3) = {np.round(np.linalg.eigvals(reduced.s_rho), 4)}")

print("\nexact eigenvalues from Theta-hat(z) vs the dense oracle (t = z^3):")
print(f"{'z':>8} {'newton sweeps':>14} {'max eigenvalue gap':>20}")
for z in (1e-1, 1e-2, 1e-3):
    ric = jp.solve_riccati(assembled, reduced, z)
    w = np.linalg.eigvals(z * ric.theta_hat)
    w_oracle = np.linalg.eigvals(pair.perturbed(z**rho))
    _, gap = jp.match_eigenvalues(w, w_oracle)
    print(f"{z:8.0e} {ric.iterations:14d} {gap:20.3e}")

print("\nthe exact invariant relation (N + z^rho D) X = X (z Theta-hat):")
z = 1e-2
ric = jp.solve_riccati(assembled, reduced, z)
xt = ric.invariant_matrix()
resid = np.linalg.norm((pair.nilpotent + z**rho * pair.d11) @ xt - xt @ (z * ric.theta_hat))
print(f"  z = {z:.0e}: residual {resid:.3e}")

print("\nconsistency with the first-order model Theta + z*Delta (expect slope 2):")
tp = jp.theta_perturbation(reduced)
zs = np.geomspace(1e-2, 1e-4, 6)
errs = []
print(f"{'z':>10} {'|Theta-hat - Theta - z Delta|':>32}")
for z in zs:
    ric = jp.solve_riccati(assembled, reduced, z)
    err = np.linalg.norm(ric.theta_hat - reduced.theta - z * tp.delta_coef)
    errs.append(err)
    print(f"{z:10.0e} {err:32.3e}")
slope = np.polyfit(np.log(zs), np.log(errs), 1)[0]
print(f"\nfitted slope: {slope:.3f}")
