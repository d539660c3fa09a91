"""First fractional-order corrections and the exact small-z refinement.

Given a selected, separated eigenvalue set Omega of Theta_rho, the perturbed
invariant-subspace basis and its eigenvalue block admit one more term:

    H(t) = H0 + t^(1/rho) H1 + O(t^(2/rho)),
    C(t) = lambda0 I + t^(1/rho) Omega + t^(2/rho) Delta11 + O(t^(3/rho)).

The coefficients come from the first-order solutions of two structured
Sylvester systems in the reduced pencil coordinates, followed by a
biorthogonal compression of the resulting Theta perturbation and one small
Sylvester solve for the complement coupling Y.

``solve_riccati`` keeps all orders instead: at a fixed z it solves the exact
coupling equations by Newton's method with the exact Jacobian, yielding the
exact perturbed block Theta-hat(z) and an exact invariant-subspace matrix,
which the verification module uses as ground truth for every claimed
fractional order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from . import core_linalg as cl
from .errors import ClusterNotSeparated, NoConvergence, NotSemisimple, SingularNormalizer
from .expansion import SubspaceSelection, branch_bases
from .pencil import CLUSTER_GAP_REL, AssembledPencil, ReducedPencil, scalar_roots
from .structure import CanonicalPair

__all__ = [
    "ComplementPair",
    "FirstOrderExpansion",
    "RiccatiSolution",
    "ThetaPerturbation",
    "complement_pair",
    "theta_perturbation",
    "first_order_expansion",
    "semisimple_expansion",
    "solve_riccati",
]


@dataclass(frozen=True)
class ComplementPair:
    """Right/left bases splitting Theta_rho into Omega and its complement.

    ``psi`` and ``psi_c`` stack to the exact inverse of [phi phi_c]; the
    normalizers m / m_c realize that inverse from the left Schur factors.
    """

    q2: np.ndarray = field(repr=False)
    omega_c: np.ndarray = field(repr=False)
    q1t: np.ndarray = field(repr=False)
    q2t: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    m_c: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    psi_c: np.ndarray = field(repr=False)
    phi_c: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class FirstOrderExpansion:
    """H0, H1, Delta11 = Omega_1 and the complement coupling behind H1."""

    rho: int
    lambda0: complex
    omega: np.ndarray = field(repr=False)
    h0: np.ndarray = field(repr=False)
    h1: np.ndarray = field(repr=False)
    delta11: np.ndarray = field(repr=False)
    delta21: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    c_hat: np.ndarray = field(repr=False)

    def c_of(self, t: float) -> np.ndarray:
        r = self.omega.shape[0]
        z = t ** (1.0 / self.rho)
        return self.lambda0 * cl.eye(r) + z * self.omega + z**2 * self.delta11

    def h_of(self, t: float) -> np.ndarray:
        return self.h0 + t ** (1.0 / self.rho) * self.h1


@dataclass(frozen=True)
class RiccatiSolution:
    """Exact deflation data of the scaled pencil at one fixed z."""

    z: float
    x1: np.ndarray = field(repr=False)
    x2: np.ndarray = field(repr=False)
    theta_hat: np.ndarray = field(repr=False)
    iterations: int = 0
    residual: float = 0.0
    reduced: ReducedPencil = field(default=None, repr=False)

    def invariant_matrix(self) -> np.ndarray:
        """X-tilde = R(z) Pi_R G [X1; I; X2], satisfying
        (N + z^rho D11) X-tilde = X-tilde (z Theta-hat)."""
        r = self.reduced
        n2 = r.n2
        stack = np.vstack([self.x1, cl.eye(n2), self.x2])
        return r.assembled.scaling.r_matrix(self.z) @ (r.pi_r @ r.g @ stack)


def complement_pair(reduced: ReducedPencil, sel: SubspaceSelection) -> ComplementPair:
    """Complementary invariant subspace of Theta_rho plus left factors.

    The complement collects, for every eigenvalue cluster of S_rho, the root
    branches not chosen by ``sel``; its basis reuses the same right Schur
    block Q_i for each branch.  Raises :class:`SingularNormalizer` when a
    power-sum normalizer M or M_c is numerically singular.
    """
    rho = reduced.rho
    chosen = set(sel.chosen)
    comp = [
        (ci, b) for ci in range(len(reduced.clusters)) for b in range(rho) if (ci, b) not in chosen
    ]

    s_dim = reduced.s_rho.shape[0]
    q1, omega, q1t = branch_bases(reduced, sel.chosen)
    q2, omega_c, q2t = branch_bases(reduced, comp)

    if omega.shape[0] and omega_c.shape[0]:
        w1 = cl.eig(omega)[0]
        w2 = cl.eig(omega_c)[0]
        gap = np.abs(w1[:, None] - w2[None, :]).min()
        scale = max(np.abs(w1).max(), np.abs(w2).max(), 1e-300)
        if gap <= CLUSTER_GAP_REL * scale:
            raise ClusterNotSeparated(
                f"Lambda(Omega) and Lambda(Omega_c) separated by only {gap:.3e}"
            )

    def normalizer(om, qt, q, name):
        r = om.shape[0]
        if r == 0:
            return cl.zeros(0, 0)
        acc = cl.zeros(r, r)
        for j in range(rho):
            acc += (
                np.linalg.matrix_power(om, rho - 1 - j)
                @ qt
                @ q
                @ np.linalg.matrix_power(om, j)
            )
        if cl.smallest_singular_value(acc) < 1e-12 * max(1.0, cl.frob(acc)):
            raise SingularNormalizer(f"power-sum normalizer {name} is singular")
        return np.linalg.inv(acc)

    m = normalizer(omega, q1t, q1, "M")
    m_c = normalizer(omega_c, q2t, q2, "M_c")

    def left_rows(mm, om, qt):
        r = om.shape[0]
        if r == 0:
            return cl.zeros(0, rho * s_dim)
        return mm @ np.hstack(
            [np.linalg.matrix_power(om, rho - 1 - j) @ qt for j in range(rho)]
        )

    psi = left_rows(m, omega, q1t)
    psi_c = left_rows(m_c, omega_c, q2t)
    phi_c = np.vstack([q2 @ np.linalg.matrix_power(omega_c, j) for j in range(rho)])
    return ComplementPair(
        q2=q2, omega_c=omega_c, q1t=q1t, q2t=q2t, m=m, m_c=m_c,
        psi=psi, psi_c=psi_c, phi_c=phi_c,
    )


def _nilpotent_sylvester_left(v, theta, rhs):
    """X with v X - X theta = -rhs, for nilpotent v and invertible theta."""
    if v.shape[0] == 0 or rhs.size == 0:
        return cl.zeros(v.shape[0], theta.shape[0])
    term = la.solve(theta.T, rhs.T).T
    acc = term.copy()
    for _ in range(v.shape[0] + 1):
        term = la.solve(theta.T, (v @ term).T).T
        if cl.frob(term) <= 1e-3 * cl.EPS * (cl.frob(acc) + 1.0):
            break
        acc += term
    return acc


def _nilpotent_sylvester_right(v33, u33, theta, rhs):
    """X with v33 X - u33 X theta = rhs; the pencil (u33, v33) has only
    infinite eigenvalues, so the Neumann series in v33^{-1} u33 terminates."""
    if v33.shape[0] == 0 or rhs.size == 0:
        return cl.zeros(v33.shape[0], theta.shape[0])
    term = la.solve(v33, rhs)
    acc = term.copy()
    for _ in range(v33.shape[0] + 1):
        term = la.solve(v33, u33 @ term) @ theta
        if cl.frob(term) <= 1e-3 * cl.EPS * (cl.frob(acc) + 1.0):
            break
        acc += term
    return acc


def _recursion_x_blocks(reduced: ReducedPencil):
    """First-order X blocks (X1, X2) at any rho, from the two structured
    Sylvester systems of the reduced pencil,

        V11 X1 - X1 Theta = -E12,      V33 X2 - U33 X2 Theta = F32 Theta - E32,

    where E = Pi_L V_1 Pi_R G is the z^1 coefficient of V-hat(z) and
    F = Pi_L E_U Pi_R G that of U-hat(z).  V11 is nilpotent and the pencil
    (U33, V33) has only infinite eigenvalues, so both Neumann series
    terminate."""
    v1h = reduced.hat_v1()
    euh = reduced.hat_eu()
    g1, g2, g3 = reduced.g1, reduced.g2, reduced.g3
    theta = reduced.theta
    v11 = reduced.v_hat[g1, g1]
    v33 = reduced.v_hat[g3, g3]
    u33 = reduced.u_hat[g3, g3]
    e12 = v1h[g1, g2]
    e32 = v1h[g3, g2]
    eu32 = euh[g3, g2]
    x1c = _nilpotent_sylvester_left(v11, theta, e12)
    x2c = _nilpotent_sylvester_right(v33, u33, theta, -(e32 - eu32 @ theta))
    return x1c, x2c


@dataclass(frozen=True)
class ThetaPerturbation:
    """Selection-independent first-order data: Theta-hat(z) = Theta + z*delta_coef + O(z^2),
    with X1(z) = z*x1_coef + O(z^2), X2(z) = z*x2_coef + O(z^2), and C-hat the
    first-order block of X2's eigenvector rows."""

    delta_coef: np.ndarray = field(repr=False)
    x1_coef: np.ndarray = field(repr=False)
    x2_coef: np.ndarray = field(repr=False)
    c_hat: np.ndarray = field(repr=False)


def theta_perturbation(reduced: ReducedPencil) -> ThetaPerturbation:
    """First-order perturbation of Theta_rho and the X blocks behind it.

    One path at every rho: X1 and X2 from the structured Sylvester solves,
    then delta_coef = E22 + V21 X1 + V23 X2.  ``ReducedPencil.theta_perturbation``
    holds the result computed once per pencil.
    """
    st = reduced.structure
    rho = reduced.rho
    s_rho = st.s(rho)
    x1c, x2c = _recursion_x_blocks(reduced)
    # C-hat sits in the eigenvector rows of X2, in the second column block of
    # Theta coordinates (the first and only one when rho = 1).
    col = min(rho - 1, 1) * s_rho
    c_hat = x2c[: st.shat(rho + 1), col : col + s_rho]

    v1h = reduced.hat_v1()
    g1, g2, g3 = reduced.g1, reduced.g2, reduced.g3
    e22 = v1h[g2, g2]
    v21 = reduced.v_hat[g2, g1]
    v23 = reduced.v_hat[g2, g3]
    delta_coef = e22 + v21 @ x1c + v23 @ x2c
    return ThetaPerturbation(delta_coef=delta_coef, x1_coef=x1c, x2_coef=x2c, c_hat=c_hat)


def first_order_expansion(
    reduced: ReducedPencil,
    sel: SubspaceSelection,
    comp: ComplementPair,
    pair: CanonicalPair | None = None,
    xi: np.ndarray | None = None,
) -> FirstOrderExpansion:
    """Assemble H1 and Delta11 for the selected subspace.

    The Theta perturbation is compressed through the biorthogonal pair and
    the complement coupling Y solves ``Omega_c Y - Y Omega + Delta21 = 0``.

    ``xi`` expresses H0 and H1 in the coordinates of a general problem
    (columns of the spectral transformation).  The cross-block coupling of a
    general problem enters the basis only at order t, so for rho >= 2 the
    returned pair still satisfies the subspace relation through t^(2/rho);
    at rho = 1 that coupling is itself first order and the relation then
    holds through t only (same truncation caveat as ``effective_d11``).
    """
    if pair is None:
        pair = reduced.pair
    st = pair.structure
    rho = reduced.rho
    n2 = reduced.n2
    r = sel.r

    tp = reduced.theta_perturbation
    x1c, x2c = tp.x1_coef, tp.x2_coef

    left = np.vstack([comp.psi, comp.psi_c])
    right = np.hstack([sel.phi, comp.phi_c])
    dd = left @ tp.delta_coef @ right
    delta11 = dd[:r, :r]
    delta21 = dd[r:, :r]

    if comp.omega_c.shape[0] and r:
        y = cl.solve_sylvester(comp.omega_c, sel.omega, delta21)
    else:
        y = cl.zeros(comp.omega_c.shape[0], r)

    # H0 and H1 as the exact z^0 and z^1 coefficients of Xi R(z) F(z) Phi-hat(z).
    mdim = st.dim
    f0 = reduced.pi_r @ reduced.g @ np.vstack(
        [cl.zeros(reduced.n1, n2), cl.eye(n2), cl.zeros(mdim - reduced.n1 - n2, n2)]
    )
    f1 = reduced.pi_r @ reduced.g @ np.vstack([x1c, cl.zeros(n2, n2), x2c])
    scaling = reduced.assembled.scaling
    p0 = scaling.right_power_selector(0)
    p1 = scaling.right_power_selector(1)
    h0_raw = p0 @ f0 @ sel.phi
    h1_raw = p1 @ f0 @ sel.phi + p0 @ (f1 @ sel.phi + f0 @ comp.phi_c @ y)
    if xi is not None:
        ximat = cl.as_matrix(xi)
        h0_raw = ximat @ h0_raw
        h1_raw = ximat @ h1_raw

    return FirstOrderExpansion(
        rho=rho,
        lambda0=st.lambda0,
        omega=sel.omega,
        h0=h0_raw,
        h1=h1_raw,
        delta11=delta11,
        delta21=delta21,
        y=y,
        c_hat=tp.c_hat,
    )


def semisimple_expansion(
    reduced: ReducedPencil,
    gamma: complex,
    root_index: int,
    pair: CanonicalPair | None = None,
    xi: np.ndarray | None = None,
) -> FirstOrderExpansion:
    """Special case: gamma semi-simple with multiplicity r, Omega = mu I_r.

    Delta11 is the general biorthogonal compression.  For rho >= 2 it
    coincides with the scalar closed form

        Delta11 = (rho mu^(rho-2))^{-1} Qt (Bhat_{rho-1,1} + Bhat_{rho,2}) Q,

    which the test suite asserts.  Raises :class:`NotSemisimple` when the
    geometric multiplicity falls short.
    """
    if pair is None:
        pair = reduced.pair
    rho = reduced.rho
    bases = reduced.clusters
    gaps = [abs(cb.gamma - gamma) for cb in bases]
    ci = int(np.argmin(gaps))
    cb = bases[ci]
    tol = cb.tol
    if gaps[ci] > max(10 * tol, 1e-8 * max(1.0, abs(gamma))):
        raise ValueError(f"gamma={gamma:.6g} is not an eigenvalue of S_rho")
    r = cb.count
    svals = la.svdvals(reduced.s_rho - cb.gamma * cl.eye(reduced.s_rho.shape[0]))
    geo = int(np.sum(svals < max(10 * tol, 1e-10 * max(1.0, float(svals[0])))))
    if geo != r:
        raise NotSemisimple(
            f"gamma={cb.gamma:.6g}: geometric multiplicity {geo} < algebraic {r}"
        )

    mu = complex(scalar_roots(cb.gamma, rho)[root_index])
    omega = mu * cl.eye(r)
    phi = np.vstack([cb.q * mu**j for j in range(rho)])
    sel = SubspaceSelection(
        rho=rho, q1=cb.q, omega=omega, phi=phi, chosen=((ci, int(root_index)),)
    )
    return first_order_expansion(reduced, sel, complement_pair(reduced, sel), pair, xi)


def solve_riccati(
    p: AssembledPencil,
    r: ReducedPencil,
    z: float,
    tol: float | None = None,
    max_iter: int = 200,
) -> RiccatiSolution:
    """Exact deflating-subspace coupling at a fixed z by Newton's method.

    Starting from X1 = X2 = 0, each step solves the coupling equations
    linearized at the current (X1, X2), with the exact Jacobian in Kronecker
    form, so convergence is quadratic once the iterate is close.  Raises
    :class:`NoConvergence` when the residual diverges or ``max_iter`` steps
    do not reach ``tol`` (z too large).
    """
    if z <= 0:
        raise ValueError("z must be positive")
    uz = r.u_hat_of(z)
    vz = r.v_hat_of(z)
    ev = vz - r.v_hat
    eu = uz - r.u_hat
    g1, g2, g3 = r.g1, r.g2, r.g3
    n1, n2 = r.n1, r.n2
    n3 = r.structure.dim - n1 - n2

    scale = max(1.0, cl.frob(vz))
    if tol is None:
        tol = 1e-12 * scale

    x1 = cl.zeros(n1, n2)
    x2 = cl.zeros(n3, n2)
    theta_hat = r.theta.copy()
    resid = np.inf
    first_resid = None
    eye2 = cl.eye(n2)
    for it in range(max_iter + 1):
        stack = np.vstack([x1, eye2, x2])
        theta_hat = vz[g2, :] @ stack
        r1 = vz[g1, :] @ stack - x1 @ theta_hat
        r3 = vz[g3, :] @ stack - (uz[g3, :] @ stack) @ theta_hat
        resid = np.sqrt(cl.frob(r1) ** 2 + cl.frob(r3) ** 2)
        if resid <= tol:
            return RiccatiSolution(
                z=z, x1=x1, x2=x2, theta_hat=theta_hat,
                iterations=it, residual=resid, reduced=r,
            )
        if first_resid is None:
            first_resid = resid
        if not np.isfinite(resid) or resid > 1e6 * first_resid:
            raise NoConvergence(
                f"riccati iteration diverges at z={z:.3e} (residual {resid:.3e}); z too large"
            )
        if it == max_iter:
            break
        # Newton step on the (quadratic) coupling system, with the exact
        # Jacobian in Kronecker form.  The quadratic term enters only through
        # Theta-hat = V(z)[g2,:] S, so every Jacobian block stays small.
        th_t = theta_hat.T
        p3 = uz[g3, :] @ stack
        j11 = (
            np.kron(eye2, vz[g1, g1])
            - np.kron(th_t, cl.eye(n1))
            - np.kron(eye2, x1 @ vz[g2, g1])
        )
        j13 = np.kron(eye2, vz[g1, g3]) - np.kron(eye2, x1 @ vz[g2, g3])
        j31 = (
            np.kron(eye2, vz[g3, g1])
            - np.kron(th_t, eu[g3, g1])
            - np.kron(eye2, p3 @ vz[g2, g1])
        )
        j33 = (
            np.kron(eye2, vz[g3, g3])
            - np.kron(th_t, uz[g3, g3])
            - np.kron(eye2, p3 @ vz[g2, g3])
        )
        jmat = np.block([[j11, j13], [j31, j33]])
        rhs = -np.concatenate([r1.flatten(order="F"), r3.flatten(order="F")])
        sol = la.solve(jmat, rhs)
        x1 = x1 + sol[: n1 * n2].reshape((n1, n2), order="F")
        x2 = x2 + sol[n1 * n2 :].reshape((n3, n2), order="F")
    raise NoConvergence(
        f"riccati iteration stalled at residual {resid:.3e} (tol {tol:.3e}) after {max_iter} sweeps; z may be too large"
    )
