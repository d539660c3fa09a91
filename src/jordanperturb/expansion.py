"""Zeroth-order expansions: split eigenvalues, eigenvectors, invariant subspaces.

The eigenvalues of ``A + tD`` that split at order ``t^(1/rho)`` are
``lambda0 + t^(1/rho) mu`` where ``mu`` runs over the rho-th roots of the
eigenvalues ``gamma`` of S_rho.  Picking a subset of those roots that is
separated from the rest selects a perturbed invariant subspace; its basis
matrix has the constant term ``XiTilde_rho [I; G_rho] Q1`` where ``Q1`` spans
the S_rho-invariant subspace of the selected gammas and ``Omega`` is the
corresponding rho-th root of the triangular block.  The remaining blocks of
the basis decay with known fractional orders, recorded here as data so the
verification sweep can fit them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import core_linalg as cl
from .errors import ClusterNotSeparated, NotSimple
from .pencil import CLUSTER_GAP_REL, ReducedPencil, scalar_roots
from .structure import CanonicalPair, JordanStructure

__all__ = [
    "EigenvalueExpansion",
    "SubspaceSelection",
    "SubspaceExpansion",
    "EigenvectorExpansion",
    "OrderEntry",
    "eigenvalue_expansions",
    "select_subspace",
    "branch_bases",
    "subspace_expansion",
    "eigenvector_expansion",
    "h_order_table",
    "CLUSTER_GAP_REL",
]


@dataclass(frozen=True)
class EigenvalueExpansion:
    """One gamma of S_rho and its rho first-order eigenvalue branches."""

    rho: int
    gamma: complex
    mus: np.ndarray = field(repr=False)
    lambda0: complex = 0.0
    simple: bool = True
    # Exponent of the first unmodelled term: 2/rho for simple gamma (series
    # exists), else 1/rho with the bound only o(t^(1/rho)).
    order_next: Fraction = Fraction(1)
    little_o: bool = False

    def predict(self, t: float) -> np.ndarray:
        """lambda0 + t^(1/rho) * mu for each branch."""
        return self.lambda0 + t ** (1.0 / self.rho) * self.mus


@dataclass(frozen=True)
class SubspaceSelection:
    """A separated set of Theta_rho eigenvalues and its subspace data.

    ``phi`` stacks ``Q1 Omega^j`` for j = 0..rho-1 and spans the selected
    invariant subspace of Theta_rho; ``chosen`` records (cluster, branch)
    pairs into ``ReducedPencil.clusters``, one per diagonal block of Omega.
    """

    rho: int
    q1: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    chosen: tuple = ()                    # ((cluster_index, branch), ...)

    @property
    def r(self) -> int:
        return self.q1.shape[1]


@dataclass(frozen=True)
class OrderEntry:
    """Claimed fractional decay of one sub-row block of H (or of X)."""

    block: int       # Jordan size group i
    subrow: int      # 1-based sub-row within the group
    exponent: Fraction
    note: str = ""


@dataclass(frozen=True)
class SubspaceExpansion:
    """Constant term of the perturbed invariant-subspace basis H."""

    rho: int
    lambda0: complex
    h0: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)
    order_table: tuple = ()
    x_full: np.ndarray | None = field(default=None, repr=False)

    def c_of(self, t: float) -> np.ndarray:
        """lambda0 I + t^(1/rho) Omega, the leading block the subspace pairs with."""
        r = self.omega.shape[0]
        return self.lambda0 * cl.eye(r) + t ** (1.0 / self.rho) * self.omega


@dataclass(frozen=True)
class EigenvectorExpansion:
    gamma: complex
    mu: complex
    constant: np.ndarray = field(repr=False)
    order_table: tuple = ()


def eigenvalue_expansions(reduced: ReducedPencil) -> list[EigenvalueExpansion]:
    """One expansion per eigenvalue of S_rho, with multiplicity.

    Simple eigenvalues (cluster of size one) get the sharp next-order
    exponent 2/rho; multiple ones only the o(t^(1/rho)) bound.
    """
    rho = reduced.rho
    lam0 = reduced.structure.lambda0
    out = []
    for cb in reduced.clusters:
        simple = cb.count == 1
        exp = EigenvalueExpansion(
            rho=rho,
            gamma=cb.gamma,
            mus=scalar_roots(cb.gamma, rho),
            lambda0=lam0,
            simple=simple,
            order_next=Fraction(2, rho) if simple else Fraction(1, rho),
            little_o=not simple,
        )
        out.extend([exp] * cb.count)
    return out


def select_subspace(reduced: ReducedPencil, cluster, root_index=0) -> SubspaceSelection:
    """Select eigenvalues of Theta_rho that are separated from the rest.

    Parameters
    ----------
    reduced : ReducedPencil
    cluster : callable
        Predicate on an eigenvalue of S_rho; a whole near-equal cluster is
        selected when its representative satisfies the predicate.
    root_index : int or sequence
        Which rho-th root branch(es) to take, indexed into the
        argument-sorted root list.  An int applies to every selected
        cluster; a sequence gives one entry per selected cluster, where each
        entry may itself be an int or a tuple of branch indices.

    Returns
    -------
    SubspaceSelection
        With ``S_rho Q1 = Q1 Omega^rho`` and full-column-rank ``phi``.

    Raises
    ------
    ClusterNotSeparated
        If some selected root is too close to an unselected one.
    MatrixRootFailure
        If a triangular root cannot be formed (singular S11).
    """
    rho = reduced.rho
    bases = reduced.clusters
    selected = [i for i, cb in enumerate(bases) if cluster(cb.gamma)]

    if isinstance(root_index, (int, np.integer)):
        per_cluster = [(int(root_index),)] * len(selected)
    else:
        if len(root_index) != len(selected):
            raise ValueError(
                f"root_index has {len(root_index)} entries for {len(selected)} selected clusters"
            )
        per_cluster = [
            (int(e),) if isinstance(e, (int, np.integer)) else tuple(int(b) for b in e)
            for e in root_index
        ]

    chosen = []
    for ci, branches in zip(selected, per_cluster):
        for b in branches:
            chosen.append((ci, b))

    # Separation of the selected mu set from every other root of Theta_rho.
    sel_set = set(chosen)
    sel_vals, other_vals = [], []
    for ci, cb in enumerate(bases):
        roots = scalar_roots(cb.gamma, rho)
        for b in range(rho):
            (sel_vals if (ci, b) in sel_set else other_vals).append(roots[b])
    if sel_vals and other_vals:
        gap = np.abs(
            np.asarray(sel_vals)[:, None] - np.asarray(other_vals)[None, :]
        ).min()
        root_scale = max(max(abs(v) for v in sel_vals + other_vals), 1e-300)
        if gap <= CLUSTER_GAP_REL * root_scale:
            raise ClusterNotSeparated(
                f"selected and unselected Theta eigenvalues separated by only {gap:.3e}"
            )

    q1, omega, _ = branch_bases(reduced, chosen)
    phi = np.vstack([q1 @ np.linalg.matrix_power(omega, j) for j in range(rho)])
    sel = SubspaceSelection(rho=rho, q1=q1, omega=omega, phi=phi, chosen=tuple(chosen))
    _check_selection(reduced, sel)
    return sel


def branch_bases(reduced: ReducedPencil, pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q, Omega, Qt) of a list of (cluster, branch) pairs of S_rho.

    Each pair contributes its cluster's right basis Q_i, the triangular
    rho-th root of S11_i on that branch as a diagonal block of Omega, and
    its left basis Qt_i; so S_rho Q = Q Omega^rho and Qt S_rho = Omega^rho Qt.
    """
    s_dim = reduced.s_rho.shape[0]
    if not pairs:
        return cl.zeros(s_dim, 0), cl.zeros(0, 0), cl.zeros(0, s_dim)
    bases = [(reduced.clusters[ci], b) for ci, b in pairs]
    return (
        np.hstack([cb.q for cb, _ in bases]),
        blk_diag([cb.omega(b) for cb, b in bases]),
        np.vstack([cb.qt for cb, _ in bases]),
    )


def blk_diag(blocks) -> np.ndarray:
    """Block diagonal of square complex blocks (empty-safe)."""
    blocks = [cl.as_matrix(b) for b in blocks]
    n = sum(b.shape[0] for b in blocks)
    out = cl.zeros(n, n)
    pos = 0
    for b in blocks:
        w = b.shape[0]
        out[pos : pos + w, pos : pos + w] = b
        pos += w
    return out


def _check_selection(reduced: ReducedPencil, sel: SubspaceSelection):
    if sel.r == 0:
        return
    res = cl.frob(reduced.s_rho @ sel.q1 - sel.q1 @ np.linalg.matrix_power(sel.omega, reduced.rho))
    if res > 1e-8 * max(1.0, cl.frob(reduced.s_rho)):
        raise AssertionError(f"S_rho Q1 = Q1 Omega^rho violated: residual {res:.3e}")
    if cl.smallest_singular_value(sel.phi) <= 1e-8:
        raise AssertionError("phi lost full column rank")


def h_order_table(structure: JordanStructure, rho: int, full: bool = False) -> tuple[OrderEntry, ...]:
    """Claimed decay exponents for the blocks H_i of the subspace basis, or
    with ``full`` for the blocks of the full basis X.

    The two tables differ only in block i = rho.  For H its exponents bound
    the residual after subtracting the explicit terms Q1 (t^(1/rho)
    Omega)^(l-1).  For X that block is exactly diag(0, t^(1/rho) I, ...,
    t^(1-1/rho) I) on top of the constant part, so its rows from 2 on carry
    exact exponents.
    """
    entries = []
    for i in range(1, structure.k + 1):
        if structure.s(i) == 0:
            continue
        if i < rho:
            for ell in range(1, i + 1):
                entries.append(OrderEntry(i, ell, Fraction(rho - (i - ell + 1), rho)))
        elif i == rho and full:
            for ell in range(2, rho + 1):
                entries.append(OrderEntry(i, ell, Fraction(ell - 1, rho), note="exact"))
        elif i == rho:
            for ell in range(1, rho + 1):
                entries.append(OrderEntry(i, ell, Fraction(ell, rho), note="after explicit term"))
        else:
            for ell in range(1, i + 1):
                if ell <= 2:
                    e = Fraction(1, rho)
                elif ell <= rho:
                    e = Fraction(ell - 1, rho)
                else:
                    e = Fraction(1)
                entries.append(OrderEntry(i, ell, e))
    return tuple(entries)


def subspace_expansion(
    reduced: ReducedPencil,
    sel: SubspaceSelection,
    pair: CanonicalPair | None = None,
    xi: np.ndarray | None = None,
) -> SubspaceExpansion:
    """Constant term and order table of the perturbed invariant subspace.

    ``h0 = X0 Phi`` (``xi X0 Phi`` for a general problem), where X0 is the
    pencil's constant basis ``ReducedPencil.x0``; it equals
    ``XiTilde_rho [I; G_rho] Q1`` and may be column-rank deficient even
    though the exact perturbed basis has full rank, so no rank invariant is
    asserted on it.  ``pair`` is not read: the pencil carries its pair.
    """
    x_full = reduced.x0 if xi is None else cl.as_matrix(xi) @ reduced.x0
    return SubspaceExpansion(
        rho=reduced.rho,
        lambda0=reduced.structure.lambda0,
        h0=x_full @ sel.phi,
        omega=sel.omega,
        order_table=h_order_table(reduced.structure, reduced.rho),
        x_full=x_full,
    )


def eigenvector_expansion(
    reduced: ReducedPencil,
    which: int,
    root_index: int,
    pair: CanonicalPair | None = None,
    xi: np.ndarray | None = None,
) -> EigenvectorExpansion:
    """Constant eigenvector term for a simple gamma of S_rho.

    ``which`` indexes the argument-sorted eigenvalue clusters of S_rho; the
    chosen cluster must be simple.  Returns ``X0 Phi`` (``xi X0 Phi`` for a
    general problem), which equals ``XiTilde_rho [phi; G phi]``, and the
    fractional-order table of the correction blocks.  ``pair`` is not read:
    the pencil carries its pair.
    """
    bases = reduced.clusters
    if not 0 <= which < len(bases):
        raise ValueError(f"which={which} outside 0..{len(bases) - 1}")
    cb = bases[which]
    if cb.count != 1:
        raise NotSimple(f"gamma={cb.gamma:.6g} has multiplicity {cb.count}")
    mu = complex(scalar_roots(cb.gamma, reduced.rho)[root_index])
    phi = np.vstack([cb.q * mu**j for j in range(reduced.rho)])
    x_full = reduced.x0 if xi is None else cl.as_matrix(xi) @ reduced.x0
    return EigenvectorExpansion(
        gamma=cb.gamma,
        mu=mu,
        constant=x_full @ phi,
        order_table=h_order_table(reduced.structure, reduced.rho),
    )
