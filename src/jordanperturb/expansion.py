"""Zeroth-order expansions: split eigenvalues, eigenvectors, invariant subspaces.

The eigenvalues of ``A + tD`` that split at order ``t^(1/rho)`` are
``lambda0 + t^(1/rho) mu`` where ``mu`` runs over the rho-th roots of the
eigenvalues ``gamma`` of S_rho.  Picking a subset of those roots that is
separated from the rest selects a perturbed invariant subspace; its basis
matrix has the constant term ``XiTilde_rho [I; G_rho] Q1`` where ``Q1`` spans
the S_rho-invariant subspace of the selected gammas and ``Omega`` is the
corresponding rho-th root of the triangular block.  The remaining blocks of
the basis decay with known fractional orders, recorded here as data so the
verification sweep can fit them.  ``SubspaceExpansion`` is the one result
type for the basis, at order 0 here and at order 1 from ``first_order``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import core_linalg as cl
from .pencil import CLUSTER_GAP_REL, ReducedPencil, check_separated, scalar_roots
from .structure import JordanStructure

__all__ = [
    "EigenvalueExpansion",
    "SubspaceSelection",
    "SubspaceExpansion",
    "OrderEntry",
    "eigenvalue_expansions",
    "select_subspace",
    "subspace_expansion",
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
    # Simple gamma: the next term is O(t^(2/rho)); else only o(t^(1/rho)).
    simple: bool = True

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
    """The perturbed invariant-subspace basis H(t) = H0 + t^(1/rho) H1 + ... and
    its block C(t) = lambda0 I + t^(1/rho) Omega + t^(2/rho) Delta11 + ...

    The first-order fields, set by ``first_order.first_order_expansion``, are
    None on the constant term from :func:`subspace_expansion`.
    """

    rho: int
    lambda0: complex
    omega: np.ndarray = field(repr=False)
    h0: np.ndarray = field(repr=False)
    order_table: tuple = ()
    h1: np.ndarray | None = field(default=None, repr=False)
    delta11: np.ndarray | None = field(default=None, repr=False)
    delta21: np.ndarray | None = field(default=None, repr=False)
    y: np.ndarray | None = field(default=None, repr=False)
    c_hat: np.ndarray | None = field(default=None, repr=False)

    def h_of(self, t: float) -> np.ndarray:
        """H0 + t^(1/rho) H1, the basis through its first correction."""
        return self.h0 if self.h1 is None else self.h0 + t ** (1.0 / self.rho) * self.h1

    def c_of(self, t: float) -> np.ndarray:
        """lambda0 I + t^(1/rho) Omega + t^(2/rho) Delta11, the block H pairs with."""
        z = t ** (1.0 / self.rho)
        c = self.lambda0 * cl.eye(self.omega.shape[0]) + z * self.omega
        return c if self.delta11 is None else c + z * z * self.delta11


def eigenvalue_expansions(reduced: ReducedPencil) -> list[EigenvalueExpansion]:
    """One expansion per eigenvalue of S_rho, with multiplicity.

    Simple eigenvalues (cluster of size one) carry the sharp next-order
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
        With ``S_rho Q1 = Q1 Omega^rho`` (each Q_i is an ordered Schur basis and
        the branch table bounds its root's residual) and full-column-rank
        ``phi`` (the table's ``psi`` rows are its left inverse).

    Raises
    ------
    ClusterNotSeparated
        If Lambda(Omega) of the chosen branches comes too close to that of
        all the others (:func:`jordanperturb.pencil.check_separated`); the
        one separation test of a selection and its complement.
    MatrixRootFailure
        If some cluster of the pencil has no rho-th root (a singular S11),
        whether selected or not (:attr:`ReducedPencil.branches`).
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
            if not 0 <= b < rho:
                raise ValueError(f"root_index={b} outside 0..{rho - 1}")
            if (ci, b) in chosen:
                raise ValueError(f"root_index={b} repeated for cluster {ci}")
            chosen.append((ci, b))

    tab = reduced.branches
    c = tab.cols(chosen)
    check_separated(tab.lam[c], np.delete(tab.lam, c), "selected and unselected Theta eigenvalues")
    phi = tab.phi[:, c]
    q1, omega = phi[: reduced.s_rho.shape[0]], tab.omega[np.ix_(c, c)]
    return SubspaceSelection(rho=rho, q1=q1, omega=omega, phi=phi, chosen=tuple(chosen))


@lru_cache(maxsize=64)
def h_order_table(structure: JordanStructure, rho: int, full: bool = False) -> tuple[OrderEntry, ...]:
    """Claimed decay exponents for the blocks H_i of the subspace basis, or
    with ``full`` for the blocks of the full basis X; an immutable tuple,
    cached per (structure, rho, full).

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


def subspace_expansion(reduced: ReducedPencil, sel: SubspaceSelection) -> SubspaceExpansion:
    """Constant term and order table of the perturbed invariant subspace.

    ``h0 = X0 Phi``, where X0 is the pencil's constant basis
    ``ReducedPencil.x0``, in canonical coordinates (``Xi h0`` for a general
    problem); it equals ``XiTilde_rho [I; G_rho] Q1`` and may be column-rank
    deficient even though the exact perturbed basis has full rank, so no
    rank invariant is asserted on it.
    """
    return SubspaceExpansion(
        rho=reduced.rho,
        lambda0=reduced.structure.lambda0,
        omega=sel.omega,
        h0=reduced.x0 @ sel.phi,
        order_table=h_order_table(reduced.structure, reduced.rho),
    )
