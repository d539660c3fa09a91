#!/usr/bin/env python3
"""Perturbed invariant subspaces and their per-block fractional orders.

Selecting a separated subset of the split eigenvalues pins down a perturbed
invariant subspace.  Its basis matrix H(t) has a known constant term built
from eigenvectors of A, and every block of the correction decays with a
known fractional power of t.  This script prints the claimed order table
and then measures each block with the exact small-z solver.
"""

import numpy as np

import jordanperturb as jp
from jordanperturb.verify import exact_subspace_basis

st = jp.JordanStructure(0.0, (1, 2))
pair = jp.generate(jp.CaseSpec(st, seed=1, ensure_distinct_gammas=True))
rho = 2
assembled = jp.assemble_pencil(pair, rho)
reduced = jp.reduce_pencil(assembled)

gamma = np.linalg.eigvals(reduced.s_rho)[0]
sel = jp.select_subspace(reduced, lambda g: abs(g - gamma) < 1e-6 * abs(gamma), 0)
sub = jp.subspace_expansion(reduced, sel)

print(f"structure sizes = {st.sizes}, rho = {rho}")
print(f"selected gamma = {gamma:.4f}, mu = {sel.omega[0, 0]:.4f}")
print("\nconstant term H0 (columns live in the eigenvector space of A):")
print(np.round(sub.h0, 4))

print("\nclaimed decay orders per (block i, sub-row l) of H:")
for e in sub.order_table:
    note = f"  [{e.note}]" if e.note else ""
    print(f"  H_{e.block}, row {e.subrow}:  O(t^{e.exponent}){note}")

comp = jp.complement_pair(reduced, sel)
idx = pair.index
base = reduced.x0  # the constant basis X0 of the reduced pencil

print("\nmeasured block norms of the exact basis (riccati route):")
ts = np.geomspace(1e-3, 1e-7, 5)
header = "".join(f"  t={t:.0e}" for t in ts)
print(f"{'block':>14}{header}")
rows = {}
for t in ts:
    z = t ** (1.0 / rho)
    ric = jp.solve_riccati(assembled, reduced, z)
    h, _ = exact_subspace_basis(ric, sel, comp)
    dev = h - base @ sel.phi
    for ell in range(2, rho + 1):
        dev[idx.rows(rho, ell), :] -= z ** (ell - 1) * (
            sel.q1 @ np.linalg.matrix_power(sel.omega, ell - 1)
        )
    for e in sub.order_table:
        rows.setdefault((e.block, e.subrow), []).append(
            np.linalg.norm(dev[idx.rows(e.block, e.subrow), :])
        )
for (i, ell), vals in rows.items():
    cells = "".join(f"  {v:8.1e}" for v in vals)
    print(f"  H_{i}, row {ell}: {cells}")

print("\nslopes of log(norm) vs log(t) against the claimed exponents:")
for e in sub.order_table:
    vals = np.array(rows[(e.block, e.subrow)])
    keep = vals > 1e-13
    if keep.sum() < 3:
        print(f"  H_{e.block}, row {e.subrow}:  at the rounding floor (claim O(t^{e.exponent}))")
        continue
    slope = np.polyfit(np.log(ts[keep]), np.log(vals[keep]), 1)[0]
    print(f"  H_{e.block}, row {e.subrow}:  fitted {slope:+.3f}   claimed {float(e.exponent):+.3f}")
