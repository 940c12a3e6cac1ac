"""Exception hierarchy shared by all brightpath modules."""


class BrightpathError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(BrightpathError):
    """Operands act on Hilbert spaces of different dimension."""


class NotNormalized(BrightpathError):
    """A state vector fails its normalization check."""


class NotOrthonormal(BrightpathError):
    """A vector frame fails the pairwise orthonormality check."""


class NotHermitian(BrightpathError):
    """A matrix fails the hermiticity check."""


class NotUnitary(BrightpathError):
    """A matrix fails the unitarity check."""


class DerivativeInconsistent(BrightpathError):
    """A supplied derivative is incompatible with the value trajectory."""


class NormalizationDriftError(BrightpathError):
    """Coupling amplitudes and their rates violate sum(r_i * rdot_i) = 0."""


class NonMonotoneMap(BrightpathError):
    """A time reparametrization map is not strictly increasing."""


class SegmentTooCoarse(BrightpathError):
    """A parameter-path segment exceeds the discretization bound."""


class PathVariesFixedCoordinates(BrightpathError):
    """A parameter path moves coordinates required to stay constant."""


class ZeroCoupling(BrightpathError):
    """All couplings vanish; no bright pair can be formed."""


class ConfigError(BrightpathError):
    """A scenario configuration fails schema or range validation."""
