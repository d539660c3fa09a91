"""Exception hierarchy shared by all jordanperturb modules."""


class JordanPerturbError(Exception):
    """Base class for all library errors."""


class NoConvergence(JordanPerturbError):
    """An iterative method (eigensolver or Newton) failed to reach its tolerance."""


class SpectraOverlap(JordanPerturbError):
    """Sylvester solve rejected: the two coefficient spectra (nearly) intersect."""


class IndexOutOfRange(JordanPerturbError):
    """A block index (i, j, l, m) violates 1 <= l <= i <= k, 1 <= m <= j <= k."""


class InvalidTransformation(JordanPerturbError):
    """A spectral transformation violates one of its invariants (named in the message)."""


class SingularW(JordanPerturbError):
    """The generic condition fails: some W_i is numerically singular."""


class ClusterNotSeparated(JordanPerturbError):
    """The selected eigenvalue cluster is not separated from the rest."""


class MatrixRootFailure(JordanPerturbError):
    """A matrix root could not be computed (singular or ill-conditioned block)."""


class SingularNormalizer(JordanPerturbError):
    """A biorthogonal normalizer (M or M_c) is numerically singular."""


class CardinalityMismatch(JordanPerturbError):
    """Eigenvalue matching was given lists of different lengths."""


class GenerationExhausted(JordanPerturbError):
    """Random case generation hit the retry limit without meeting constraints."""


class ParseError(JordanPerturbError):
    """A problem file or the command line could not be parsed, or fails
    validation."""
