"""First fractional-order corrections and the exact small-z refinement.

Given a selected, separated eigenvalue set Omega of Theta_rho, the perturbed
invariant-subspace basis and its eigenvalue block admit one more term:

    H(t) = H0 + t^(1/rho) H1 + O(t^(2/rho)),
    C(t) = lambda0 I + t^(1/rho) Omega + t^(2/rho) Delta11 + O(t^(3/rho)).

The coefficients come from the k = 1 term of the coupling series
(``coupling_series``, cached as ``ReducedPencil.series``): the Taylor
coefficients at z = 0 of the exact coupling below, one Sylvester solve per
order.  A biorthogonal compression of Theta_1 and one small Sylvester solve
for the complement coupling Y follow.

``solve_riccati`` keeps all orders instead: at a fixed, possibly complex z
it solves the exact coupling equations by Newton's method, yielding the
exact perturbed block Theta-hat(z) and an exact invariant-subspace matrix,
which the verification module uses as ground truth for every claimed
fractional order.  Both read the z-coefficients ``ReducedPencil`` holds.
Newton starts from zero or from a given first iterate [X1; X2], such as the
coupling series summed at z.  Each Newton step is a generalized Sylvester
equation, solved one column at a time in the complex Schur form of Theta-hat
by ``core_linalg.schur_sylvester``, the kernel of the generalized solves;
the ordinary ones (the complement coupling Y) use ``core_linalg.solve_sylvester``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import core_linalg as cl
from .errors import NoConvergence, SingularNormalizer
from .expansion import SubspaceExpansion, SubspaceSelection, subspace_expansion
from .pencil import AssembledPencil, ReducedPencil

__all__ = [
    "ComplementPair",
    "RiccatiSolution",
    "ThetaPerturbation",
    "complement_pair",
    "coupling_series",
    "theta_perturbation",
    "first_order_expansion",
    "solve_riccati",
]

RICCATI_MAX_ITER = 200


@dataclass(frozen=True)
class ComplementPair:
    """Right/left bases splitting Theta_rho into Omega and its complement.

    ``omega_c`` is the block-diagonal Omega_c of the unselected branches and
    ``phi_c`` their right basis; ``psi`` and ``psi_c`` stack to the exact
    inverse of [phi phi_c].  All are slices of the pencil's branch table
    ``ReducedPencil.branches``, taken at its columns ``cols`` of the selected
    branches and ``cols_c`` of the others; the normalizers M and M_c enter
    through psi.
    """

    omega_c: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    psi_c: np.ndarray = field(repr=False)
    phi_c: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    cols_c: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class RiccatiSolution:
    """Exact deflation data of the scaled pencil at one fixed, possibly complex z."""

    z: complex
    x1: np.ndarray = field(repr=False)
    x2: np.ndarray = field(repr=False)
    theta_hat: np.ndarray = field(repr=False)
    iterations: int
    residual: float
    reduced: ReducedPencil = field(repr=False)

    def invariant_matrix(self) -> np.ndarray:
        """X-tilde = R(z) Pi_R G [X1; I; X2], satisfying
        (N + z^rho D11) X-tilde = X-tilde (z Theta-hat)."""
        r = self.reduced
        stack = np.vstack([self.x1, cl.eye(r.n2), self.x2])
        zc = np.asarray(self.z, dtype=np.complex128)
        return (zc ** r.assembled.right_exponents)[:, None] * r.lift(stack)


def complement_pair(reduced: ReducedPencil, sel: SubspaceSelection) -> ComplementPair:
    """Complementary invariant subspace of Theta_rho plus left factors.

    The complement collects, in (cluster, branch) order, the root branches
    of S_rho's clusters not chosen by ``sel``; each reuses its cluster's
    right Schur block Q_i.  Every field is a slice of the pencil's branch
    table (``ReducedPencil.branches``): the power-sum normalizer
    M = sum_j Omega^(rho-1-j) Qt Q Omega^j of any union of branches is block
    diagonal, since its cross block between clusters i != k holds
    Qt_i Q_k = 0, and between branches b != b' of one cluster it is
    omega^(rho-1) sum_j zeta^j = 0 (omega' = zeta omega, zeta != 1 a rho-th
    root of unity).  So the table's psi rows stack to Phi^-1.

    Raises :class:`SingularNormalizer` when M or M_c is numerically
    singular, and :class:`MatrixRootFailure` when a cluster has no rho-th
    root.  Lambda(Omega) and Lambda(Omega_c) are separated by
    :func:`jordanperturb.expansion.select_subspace`, which made ``sel``.
    """
    tab = reduced.branches
    c, cc, comp = tab.split(sel.chosen)

    for pairs, name in ((sel.chosen, "M"), (comp, "M_c")):
        if pairs:
            smin = min(tab.sigma[p][0] for p in pairs)
            frob = float(np.sqrt(sum(tab.sigma[p][1] ** 2 for p in pairs)))
            if smin < 1e-12 * max(1.0, frob):
                raise SingularNormalizer(f"power-sum normalizer {name} is singular")

    return ComplementPair(
        omega_c=tab.omega[np.ix_(cc, cc)], psi=tab.psi[c], psi_c=tab.psi[cc], phi_c=tab.phi[:, cc],
        cols=c, cols_c=cc,
    )


@dataclass(frozen=True)
class ThetaPerturbation:
    """The first-order terms of one pencil, over every branch of
    ``ReducedPencil.branches``: Theta-hat(z) = Theta + z*delta_coef + O(z^2);
    C-hat, the first-order block of X2's eigenvector rows; ``delta`` =
    Psi Theta_1 Phi, of which Delta11 and Delta21 of any selection are
    slices; and ``lift`` = (F, E), from which a selection with branch columns
    c, complement columns cc and coupling Y reads H1 = F[:, c] + E[:, cc] Y.
    E = X0 Phi holds the z^0 rows of Pi_R G [0; Phi; 0], and F its z^1 rows
    plus the z^0 rows of Pi_R G [X1_1 Phi; 0; X2_1 Phi]."""

    delta_coef: np.ndarray = field(repr=False)
    c_hat: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    lift: tuple[np.ndarray, np.ndarray] = field(repr=False)


def theta_perturbation(reduced: ReducedPencil) -> ThetaPerturbation:
    """First-order perturbation of Theta_rho from the k = 1 term of the coupling
    series (``ReducedPencil.series(1)``, see :func:`coupling_series`):
    delta_coef = Theta_1, C-hat is a block of X_1, and ``delta`` and ``lift``
    are formed over the branch table (:class:`MatrixRootFailure` when some
    cluster has no rho-th root).  The pencil caches the result as
    ``ReducedPencil.theta_perturbation``."""
    st, rho, n1, n2 = reduced.structure, reduced.rho, reduced.n1, reduced.n2
    x, theta = reduced.series(1)
    # C-hat sits in the eigenvector rows of X2, in the second column block of
    # Theta coordinates (the first and only one when rho = 1).
    col = min(rho - 1, 1) * st.s(rho)
    c_hat = x[1][n1 : n1 + st.shat(rho + 1), col : col + st.s(rho)]
    phi = reduced.branches.phi
    f0 = reduced.lift(np.vstack([cl.zeros(n1, n2), phi, cl.zeros(st.dim - n1 - n2, n2)]))
    f1 = reduced.lift(np.vstack([x[1][:n1] @ phi, cl.zeros(n2, n2), x[1][n1:] @ phi]))
    exps = reduced.assembled.right_exponents[:, None]
    return ThetaPerturbation(
        delta_coef=theta[1], c_hat=c_hat, delta=reduced.branches.psi @ theta[1] @ phi,
        lift=(np.where(exps == 1, f0, 0.0) + np.where(exps == 0, f1, 0.0), reduced.x0 @ phi),
    )


def first_order_expansion(reduced: ReducedPencil, sel: SubspaceSelection, comp: ComplementPair) -> SubspaceExpansion:
    """The :func:`subspace_expansion` of the selection with H1, Delta11,
    Delta21, Y and C-hat added, all in canonical coordinates (for a general
    problem, H0 and H1 map to the original ones as Xi H0 and Xi H1).

    The Theta perturbation is compressed through the biorthogonal pair:
    Delta11 and Delta21 are the rows and columns of the selection in
    ``ThetaPerturbation.delta``, computed once per pencil.  The complement
    coupling Y solves ``Omega_c Y - Y Omega + Delta21 = 0``.  A semi-simple
    cluster with one branch selected (Omega = mu I) needs no separate path:
    for rho >= 2 its Delta11 is the scalar closed form
    (rho mu^(rho-2))^-1 Qt (Bhat_{rho-1,1} + Bhat_{rho,2}) Q, which the test
    suite asserts.
    """
    tp = reduced.theta_perturbation
    c, cc = comp.cols, comp.cols_c
    delta11 = tp.delta[np.ix_(c, c)]
    delta21 = tp.delta[np.ix_(cc, c)]

    y = cl.solve_sylvester(comp.omega_c, sel.omega, delta21)

    # H1 is the exact z^1 coefficient of R(z) Pi_R G [z X1; I; z X2]
    # (Phi + z Phi_c Y), whose z^0 coefficient is H0 = X0 Phi; its parts
    # that do not depend on Y are lifted once per pencil, over every branch.
    f, e = tp.lift
    return replace(
        subspace_expansion(reduced, sel),
        h1=f[:, c] + e[:, cc] @ y,
        delta11=delta11,
        delta21=delta21,
        y=y,
        c_hat=tp.c_hat,
    )


def _coupling(r: ReducedPencil, uz, vz):
    """Residual and Newton linearization of the coupling equations of the pencil
    (uz, vz) = ``r.at(z)`` as a function of X = [X1; X2], slicing once what is fixed by z.

    With S = [X1; I; X2] and gc the rows g1 followed by g3, it returns (Theta-hat,
    F, A, B): Theta-hat = V(z)[g2,:] S, the residual F = V(z)[gc,:] S - P Theta-hat
    with P = [X1; U(z)[g3,:] S], and the Jacobian dX -> A dX - B dX Theta-hat of F:
    A = V(z)[gc,gc] - P V(z)[g2,gc] and B = [[I, 0]; U(z)[g3,gc]], None for I if g3 is empty."""
    n1, n2 = r.n1, r.n2
    gc = np.r_[0:n1, n1 + n2 : r.structure.dim]
    v2, vc, v2c, vcc, u3 = vz[r.g2], vz[gc], vz[r.g2, gc], vz[np.ix_(gc, gc)], uz[r.g3]
    b = np.vstack([np.eye(n1, len(gc), dtype=np.complex128), u3[:, gc]]) if len(u3) else None

    def newton_terms(x):
        stack = np.vstack([x[:n1], cl.eye(n2), x[n1:]])
        theta_hat = v2 @ stack
        p = np.vstack([x[:n1], u3 @ stack])
        return theta_hat, vc @ stack - p @ theta_hat, vcc - p @ v2c, b

    return newton_terms


def coupling_series(r: ReducedPencil, order: int, x=(), theta=(), jac=None):
    """Taylor coefficients X[k] = [X1_k; X2_k] and Theta[k], k = 0..order, of
    the exact coupling at z = 0, resuming after the terms already in x, theta.

    With S = [X1; I; X2], V-hat(z) = sum_e V_e z^e and U-hat(z) = U_0 + z U_1
    (``r.v_coeffs``, ``r.u_coeffs``), the coupling of ``_coupling`` is
    (V-hat S - U-hat S Theta-hat)[gc] = 0 with Theta-hat = (V-hat S)[g2].  Its
    z^k coefficient is A0 X_k - B0 X_k Theta + R_k, with (A0, B0) the Newton
    Jacobian at z = 0 and R_k the coefficient at X_k = 0: one solve of
    A0 X_k - B0 X_k Theta = -R_k per order.  Returns (X, Theta, jac),
    jac = (A0, B0) and the Schur form of Theta_rho, to resume from."""
    n1, n2, m = r.n1, r.n2, r.structure.dim
    gc = np.r_[0:n1, n1 + n2 : m]
    if jac is None:  # the z^0 terms and the Jacobian at z = 0
        theta0, _, a0, b0 = _coupling(r, r.u_coeffs[0], r.v_coeffs[0])(cl.zeros(m - n2, n2))
        x, theta, jac = [cl.zeros(m - n2, n2)], [theta0], (a0, b0, *cl.schur(theta0))
    v = list(r.v_coeffs[: order + 1]) + [cl.zeros(m, m)] * (order + 1 - len(r.v_coeffs))
    u0, u1 = (u[gc] for u in r.u_coeffs)
    x, theta = list(x), list(theta)
    s = [np.vstack([xk[:n1], cl.eye(n2) * (k == 0), xk[n1:]]) for k, xk in enumerate(x)]

    def s_theta(j):  # z^j coefficient of S Theta-hat, S_j = 0 for j not yet solved
        return sum(s[i] @ theta[j - i] for i in range(min(j + 1, len(s))))

    for k in range(len(x), order + 1):
        # v[e] @ s[k - e], with s[0] = [0; I; 0] a column slice and s[j] = [X1_j; 0; X2_j]
        vs = v[k][:, r.g2] + sum(v[e][:, gc] @ x[k - e] for e in range(1, k))
        theta.append(vs[r.g2])
        res = vs[gc] - u0 @ s_theta(k) - u1 @ s_theta(k - 1)
        x.append(cl.schur_sylvester(*jac, -res))
        s.append(np.vstack([x[k][:n1], cl.zeros(n2, n2), x[k][n1:]]))
        theta[k] = theta[k] + v[0][r.g2, gc] @ x[k]
    return tuple(x), tuple(theta), jac


def solve_riccati(
    p: AssembledPencil, r: ReducedPencil, z: complex, start: np.ndarray | None = None
) -> RiccatiSolution:
    """Exact deflating-subspace coupling at a fixed z by Newton's method.

    The coupling equations are those of the pencil ``r.at(z)``.  Newton
    starts from X1 = X2 = 0, or from the stacked [X1; X2] given as
    ``start``.  Along one branch the solution is analytic in z, so the
    coupling series summed at z (what ``verify`` passes) or the [X1; X2] of
    a solution at a nearby z is a close first iterate.  Each step solves the
    coupling equations linearized at the current X = [X1; X2], a generalized
    Sylvester equation A dX - B dX Theta-hat = -F: in the Schur coordinates
    of Theta-hat it is one (m - n2)-square solve per column, n2 in all (the
    Kronecker form is one solve of size (m - n2) n2), and convergence is
    quadratic once the iterate is close.  z may be complex.  Stops once the
    residual is at most 1e-12 max(1, ||V-hat(z)||_F); raises
    :class:`NoConvergence` when the residual grows past 1e6 times the first
    one or ``RICCATI_MAX_ITER`` steps do not reach the tolerance (z too
    large), and ``ValueError`` when ``start`` has another shape than
    [X1; X2], or ``p`` is not ``r.assembled``, the pencil ``r`` was reduced
    from.
    """
    if z == 0:
        raise ValueError("z must be nonzero")
    if p is not r.assembled:
        raise ValueError("p must be the assembled pencil that r was reduced from")
    shape = (r.structure.dim - r.n2, r.n2)
    x = cl.zeros(*shape) if start is None else np.asarray(start, dtype=np.complex128)
    if x.shape != shape:
        raise ValueError(f"start must be {shape[0]}x{shape[1]}, the stacked [X1; X2], got {x.shape}")
    uz, vz = r.at(z)
    newton_terms = _coupling(r, uz, vz)
    tol = 1e-12 * max(1.0, cl.frob(vz))

    first_resid = None
    for it in range(RICCATI_MAX_ITER + 1):
        theta_hat, res, a, b = newton_terms(x)
        resid = cl.frob(res)
        if resid <= tol:
            return RiccatiSolution(
                z=z, x1=x[: r.n1], x2=x[r.n1 :], theta_hat=theta_hat,
                iterations=it, residual=resid, reduced=r,
            )
        if first_resid is None:
            first_resid = resid
        if not np.isfinite(resid) or resid > 1e6 * first_resid:
            raise NoConvergence(
                f"riccati iteration diverges at z={z:.3e} (residual {resid:.3e}); z too large"
            )
        if it == RICCATI_MAX_ITER:
            break
        t, q = cl.schur(theta_hat)
        x = x - cl.schur_sylvester(a, b, t, q, res)
    raise NoConvergence(
        f"riccati iteration stalled at residual {resid:.3e} (tol {tol:.3e}) after {RICCATI_MAX_ITER} sweeps; z may be too large"
    )
