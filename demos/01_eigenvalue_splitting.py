#!/usr/bin/env python3
"""How a defective eigenvalue splits at fractional order t^(1/rho).

The running example is the 4x4 nilpotent Jordan block perturbed in its
bottom-left corner: A + tD has characteristic polynomial lambda^4 = t, so
its eigenvalues are exactly t^(1/4) times the 4th roots of unity.  The
pipeline predicts this splitting from the reduced pencil: the core S_4 is
the 1x1 matrix [1], and the companion block Theta_4 carries its four
quartic roots.
"""

import numpy as np

import jordanperturb as jp

case = jp.known_case("example1")
pair = jp.CanonicalPair(case.structure, case.d)

print("A (single 4x4 Jordan block at lambda0 = 0):")
print(pair.a_matrix().real)
print("\nD (bottom-left corner perturbation):")
print(case.d.real)

report = jp.check_generic(pair)
print(f"\ngeneric condition: {report.generic}  sigma_min(W_i) = {report.sigma_min}")

reduced = jp.reduce_pencil(jp.assemble_pencil(pair, rho=4))
print(f"\nS_4 = {reduced.s_rho.real.ravel()}  (the pencil's finite eigenvalue)")
print(f"Lambda(Theta_4) = {np.round(jp.theta_spectrum(reduced), 12)}")

print("\npredicted lambda ~ t^(1/4) * mu   vs   dense eigensolver:")
expansion = jp.eigenvalue_expansions(reduced)[0]
print(f"{'t':>10} {'max |predicted - oracle|':>28}")
for t in (1e-2, 1e-4, 1e-6, 1e-8):
    w = np.linalg.eigvals(pair.a_matrix() + t * pair.d11)
    observed = w[np.abs(w) <= 10 * t ** (1 / 5)]  # the eigenvalues that split off lambda0 = 0
    _, err = jp.match_eigenvalues(expansion.predict(t), observed)
    print(f"{t:10.0e} {err:28.3e}")

print("\nThe prediction here is exact: the error sits at the rounding floor.")
print("On a generic random case the error decays like t^(2/rho) instead:")

pair2 = jp.generate(jp.CaseSpec(jp.JordanStructure(0.0, (0, 2)), seed=1,
                                ensure_distinct_gammas=True))
reduced2 = jp.reduce_pencil(jp.assemble_pencil(pair2, rho=2))
a2 = pair2.a_matrix()
print(f"\nsizes = (0, 2): Lambda(S_2) = {np.round(np.linalg.eigvals(reduced2.s_rho), 4)}")
print(f"{'t':>10} {'error':>12} {'error / t':>12}")
for t in (1e-2, 1e-4, 1e-6):
    observed = np.linalg.eigvals(a2 + t * pair2.d11)
    errs = []
    for e in jp.eigenvalue_expansions(reduced2):
        preds = e.predict(t)
        errs.append(max(np.abs(observed - p).min() for p in preds))
    err = max(errs)
    print(f"{t:10.0e} {err:12.3e} {err / t:12.3f}")
print("\nerror / t is roughly constant: the first unmodelled term is t^(2/2) = t.")
