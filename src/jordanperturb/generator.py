"""Seeded random test-case factory.

Random D11 entries are i.i.d. complex Gaussians from a Philox counter-based
stream, so identical seeds reproduce identical cases across platforms.
Complex Gaussians make the generic condition hold almost surely; the
factory still checks and resamples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core_linalg as cl
from .errors import GenerationExhausted
from .pencil import eliminate
from .structure import CanonicalPair, JordanStructure, check_generic

__all__ = ["CaseSpec", "generate"]

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
    pairwise more than 1e-3 times their largest modulus apart; Lambda(S_rho)
    is read off the S_rho of :func:`eliminate` (the one the reduced pencil
    holds, from the W blocks alone: no pencil is assembled), which raises
    :class:`SingularW` when W_{rho+1} is numerically singular."""
    for rho in pair.structure.valid_rhos():
        vals = cl.eig(eliminate(pair, rho)[1])
        if vals.size < 2:
            continue
        scale = max(float(np.abs(vals).max()), 1e-300)
        gap = np.abs(vals[:, None] - vals[None, :])[np.triu_indices(vals.size, 1)].min()
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
