"""Seeded random test-case factory and known-answer cases.

Random D11 entries are i.i.d. complex Gaussians from a Philox counter-based
stream, so identical seeds reproduce identical cases across platforms.
Complex Gaussians make the generic condition hold almost surely; the
factory still checks and resamples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core_linalg as cl
from .errors import GenerationExhausted, UnknownCase
from .pencil import assemble_pencil, reduce_pencil
from .structure import CanonicalPair, JordanStructure, check_generic

__all__ = ["CaseSpec", "generate", "known_case", "KnownCase"]

MAX_TRIES = 64


@dataclass(frozen=True)
class CaseSpec:
    """Recipe for one random canonical pair."""

    structure: JordanStructure
    seed: int
    scale: float = 1.0
    ensure_generic: bool = True
    ensure_distinct_gammas: bool = False


def _distinct_gammas(pair: CanonicalPair) -> bool:
    """True when, for every rho with s_rho > 0, the eigenvalues of S_rho are
    pairwise more than 1e-3 times their largest modulus apart."""
    for rho in pair.structure.valid_rhos():
        reduced = reduce_pencil(assemble_pencil(pair, rho))
        vals = cl.eig(reduced.s_rho)
        if vals.size < 2:
            continue
        scale = max(float(np.abs(vals).max()), 1e-300)
        gap = min(
            abs(vals[i] - vals[j]) for i in range(vals.size) for j in range(i + 1, vals.size)
        )
        if gap <= 1e-3 * scale:
            return False
    return True


def generate(spec: CaseSpec) -> CanonicalPair:
    """Draw a canonical pair from the seeded stream, resampling until the
    requested genericity/distinctness constraints hold.

    Deterministic per seed.  ``scale = 0`` yields D11 = 0 and is only
    compatible with ``ensure_generic = False``.
    """
    st = spec.structure
    m = st.dim
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    if spec.scale == 0 and spec.ensure_generic:
        raise ValueError("scale = 0 cannot satisfy ensure_generic")
    for _ in range(MAX_TRIES):
        d11 = spec.scale * (
            rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        ) / np.sqrt(2.0)
        pair = CanonicalPair(st, d11)
        if spec.ensure_generic and not check_generic(pair).generic:
            continue
        if spec.ensure_distinct_gammas and not _distinct_gammas(pair):
            continue
        return pair
    raise GenerationExhausted(
        f"no admissible pair for sizes={st.sizes} after {MAX_TRIES} draws (seed {spec.seed})"
    )


@dataclass(frozen=True)
class KnownCase:
    """A fixed (a, d) problem with machine-readable expected values."""

    name: str
    a: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    structure: JordanStructure = None
    expected: dict = field(default_factory=dict, repr=False)


def known_case(name: str) -> KnownCase:
    """Fixed reference cases.

    - ``example1``: the 4x4 single Jordan block with a bottom-left t
      perturbation; eigenvalues are exactly t^(1/4) times the 4th roots of
      unity and the subspace coefficients H0, H1 are known entrywise.
    - ``rho1-diagonal``: A = lambda0*I (semi-simple), classical first-order
      theory: eigenvalues lambda0 + t*Lambda(D11).
    - ``two-block-mixed``: sizes (1, 2), a fixed seeded D11; expectations
      are the oracle eigenvalues computed at a reference t.
    """
    if name == "example1":
        st = JordanStructure(0.0, (0, 0, 0, 1))
        a = cl.zeros(4, 4)
        a[0, 1] = a[1, 2] = a[2, 3] = 1.0
        d = cl.zeros(4, 4)
        d[3, 0] = 1.0
        mus = [np.exp(0.5j * np.pi * j) for j in range(4)]
        h0 = np.zeros((4, 3), dtype=complex)
        h0[0, :] = 1.0
        h1 = np.zeros((4, 3), dtype=complex)
        h1[1, :] = [1.0, 1.0j, -1.0]
        expected = {
            "rho": 4,
            "gamma": 1.0 + 0.0j,
            "theta_spectrum": mus,
            "eigenvalue_exponent": 0.25,
            # lambda_j(t) = t^(1/4) e^{i pi (j-1)/2}
            "eigenvalues": lambda t: np.array([t**0.25 * mu for mu in mus]),
            "h0_columns": h0,
            "h1_columns": h1,
            "delta11": 0.0 + 0.0j,
        }
        return KnownCase(name=name, a=a, d=d, structure=st, expected=expected)

    if name == "rho1-diagonal":
        st = JordanStructure(0.7 - 0.2j, (3,))
        rng = np.random.Generator(np.random.Philox(key=11))
        d = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
        a = st.lambda0 * cl.eye(3)
        expected = {
            "rho": 1,
            "gammas": np.sort_complex(np.linalg.eigvals(d)),
            "eigenvalues": lambda t: st.lambda0 + t * np.linalg.eigvals(d),
        }
        return KnownCase(name=name, a=a, d=d, structure=st, expected=expected)

    if name == "two-block-mixed":
        st = JordanStructure(0.0, (1, 2))
        pair = generate(CaseSpec(st, seed=20240229, ensure_generic=True, ensure_distinct_gammas=True))
        from .structure import build_nilpotent

        a = build_nilpotent(st)
        t_ref = 1e-6
        w = np.linalg.eigvals(a + t_ref * pair.d11)
        expected = {
            "t_ref": t_ref,
            "eigenvalues_at_t_ref": np.sort_complex(w),
            "valid_rhos": st.valid_rhos(),
        }
        return KnownCase(name=name, a=a, d=pair.d11, structure=st, expected=expected)

    raise UnknownCase(f"no known case named {name!r}")
