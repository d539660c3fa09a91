"""Jordan-structure bookkeeping.

A structure with block sizes ``(s_1, ..., s_k)`` describes a matrix that has
``s_j`` Jordan blocks of size ``j`` at a single eigenvalue ``lambda0``.  In
canonical coordinates the restriction to that eigenvalue is ``lambda0*I + N``
where ``N`` groups, for each ``j``, the ``s_j`` blocks of size ``j`` into one
``j x j`` grid of ``s_j x s_j`` sub-blocks with identities on the
superdiagonal.  The canonical dimension is ``m = sum_j j*s_j``.

Indexing convention: the canonical basis is partitioned into column groups
``Xi_{j,m}`` (``1 <= m <= j <= k``), each of width ``s_j``; the dual row
groups ``Sigma_{i,l}`` use identical offsets.  All public indices are
1-based to match the usual mathematical notation; :class:`BlockIndex` is the
single source of truth for the translation to 0-based array slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import core_linalg as cl
from .errors import IndexOutOfRange

__all__ = [
    "JordanStructure",
    "BlockIndex",
    "CanonicalPair",
    "GenericityReport",
    "build_nilpotent",
    "block",
    "w_matrix",
    "check_generic",
    "GENERIC_THRESHOLD",
]

# Default relative threshold on sigma_min(W_i) for the generic condition.
GENERIC_THRESHOLD = 1e-8


@dataclass(frozen=True)
class JordanStructure:
    """Eigenvalue plus the multiset of Jordan block sizes ``(s_1, ..., s_k)``."""

    lambda0: complex
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambda0", complex(self.lambda0))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes:
            raise ValueError("sizes must be nonempty")
        if any(s < 0 for s in self.sizes):
            raise ValueError("block counts must be nonnegative")
        if self.sizes[-1] <= 0:
            raise ValueError("s_k must be positive")

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def dim(self) -> int:
        """Canonical dimension m = sum_j j*s_j."""
        return sum(j * s for j, s in enumerate(self.sizes, start=1))

    def s(self, j: int) -> int:
        """Block count s_j (1-based j)."""
        if not 1 <= j <= self.k:
            raise IndexOutOfRange(f"j={j} outside 1..{self.k}")
        return self.sizes[j - 1]

    def shat(self, i: int) -> int:
        """Tail sum s_i + s_{i+1} + ... + s_k; zero when i > k."""
        if i > self.k:
            return 0
        if i < 1:
            raise IndexOutOfRange(f"i={i} outside 1..{self.k}")
        return sum(self.sizes[i - 1 :])

    def valid_rhos(self) -> list[int]:
        """All rho with s_rho > 0 (the orders at which eigenvalues split)."""
        return [j for j in range(1, self.k + 1) if self.s(j) > 0]


class BlockIndex:
    """Precomputed 0-based offsets of every sub-block column/row group.

    ``offset(j, m)`` is the start of the width-``s_j`` slice holding the
    columns ``Xi_{j,m}`` (equivalently the rows ``Sigma_{j,m}``).
    """

    def __init__(self, structure: JordanStructure):
        self.structure = structure
        off = {}
        pos = 0
        for j in range(1, structure.k + 1):
            for m in range(1, j + 1):
                off[(j, m)] = pos
                pos += structure.s(j)
        self._offsets = off
        self.total = pos

    def offset(self, j: int, m: int) -> int:
        self._check(j, m)
        return self._offsets[(j, m)]

    def cols(self, j: int, m: int) -> slice:
        """Slice of the columns Xi_{j,m} (width s_j, possibly 0)."""
        start = self.offset(j, m)
        return slice(start, start + self.structure.s(j))

    # Rows Sigma_{i,l} use the same layout as columns.
    rows = cols

    def _check(self, j: int, m: int):
        k = self.structure.k
        if not (1 <= m <= j <= k):
            raise IndexOutOfRange(f"(j={j}, m={m}) violates 1 <= m <= j <= {k}")


@dataclass(frozen=True)
class CanonicalPair:
    """The pair (N, D11) in canonical coordinates."""

    structure: JordanStructure
    d11: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = cl.as_matrix(self.d11, "d11")
        m = self.structure.dim
        if d.shape != (m, m):
            raise ValueError(f"d11 must be {m}x{m}, got {d.shape}")
        object.__setattr__(self, "d11", d)

    @cached_property
    def index(self) -> BlockIndex:
        return BlockIndex(self.structure)

    @cached_property
    def nilpotent(self) -> np.ndarray:
        return build_nilpotent(self.structure)

    def a_matrix(self) -> np.ndarray:
        """lambda0*I + N, the unperturbed matrix in canonical coordinates."""
        return self.structure.lambda0 * cl.eye(self.structure.dim) + self.nilpotent

    def perturbed(self, t: float) -> np.ndarray:
        return self.a_matrix() + t * self.d11


@dataclass(frozen=True)
class GenericityReport:
    """sigma_min(W_i) for i = 1..k plus the generic verdict."""

    sigma_min: tuple[float, ...]
    generic: bool
    threshold: float


def build_nilpotent(structure: JordanStructure) -> np.ndarray:
    """The block nilpotent N = diag(N_1, ..., N_k).

    ``N_j`` is the ``j x j`` grid of ``s_j x s_j`` blocks with ``I_{s_j}`` on
    the superdiagonal; it is void when ``s_j = 0``.  N is nilpotent of index
    k and carries exactly ``sum_{j>=2} (j-1)*s_j`` ones.
    """
    idx = BlockIndex(structure)
    n = cl.zeros(structure.dim, structure.dim)
    for j in range(1, structure.k + 1):
        sj = structure.s(j)
        if sj == 0:
            continue
        for ell in range(1, j):
            n[idx.rows(j, ell), idx.cols(j, ell + 1)] = np.eye(sj)
    return n


def block(pair: CanonicalPair, i: int, j: int, ell: int, m: int) -> np.ndarray:
    """Sub-block B^{(ij)}_{lm} = Sigma_{i,l}^* D Xi_{j,m} of D11.

    Size ``s_i x s_j``; empty when either count is zero.  Indices are
    1-based with ``1 <= l <= i <= k`` and ``1 <= m <= j <= k``.
    """
    k = pair.structure.k
    if not (1 <= ell <= i <= k):
        raise IndexOutOfRange(f"(i={i}, l={ell}) violates 1 <= l <= i <= {k}")
    if not (1 <= m <= j <= k):
        raise IndexOutOfRange(f"(j={j}, m={m}) violates 1 <= m <= j <= {k}")
    return pair.d11[pair.index.rows(i, ell), pair.index.cols(j, m)]


def w_matrix(pair: CanonicalPair, i: int) -> np.ndarray:
    """W_i: the square matrix [B^{(pq)}_{p1}] over p, q = i..k.

    Rows are indexed by the bottom row groups Sigma_{p,p}, columns by the
    eigenvector columns Xi_{q,1}; the result has size shat_i = s_i+...+s_k.
    W_{i+1} is the trailing principal submatrix of W_i.
    """
    st = pair.structure
    if not 1 <= i <= st.k:
        raise IndexOutOfRange(f"i={i} outside 1..{st.k}")
    shat = st.shat(i)
    w = cl.zeros(shat, shat)
    roff = 0
    for p in range(i, st.k + 1):
        coff = 0
        for q in range(i, st.k + 1):
            w[roff : roff + st.s(p), coff : coff + st.s(q)] = block(pair, p, q, p, 1)
            coff += st.s(q)
        roff += st.s(p)
    return w


def check_generic(pair: CanonicalPair) -> GenericityReport:
    """Compute sigma_min(W_i) for every i and test the generic condition.

    Generic means every W_i clears ``GENERIC_THRESHOLD * ||D11||_F``.  A void
    block row (s_i = 0) only shrinks W_i; W_i itself is never empty since s_k > 0.
    """
    scale = cl.frob(pair.d11)
    sigmas = []
    for i in range(1, pair.structure.k + 1):
        sigmas.append(cl.smallest_singular_value(w_matrix(pair, i)))
    generic = bool(scale > 0 and all(s > GENERIC_THRESHOLD * scale for s in sigmas))
    return GenericityReport(sigma_min=tuple(sigmas), generic=generic, threshold=GENERIC_THRESHOLD)
