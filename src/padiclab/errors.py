"""Exception types shared across the library.

Every computation here is exact-at-truncation; when a truncation, an
exponent lattice, or a residue field is too small to certify an answer,
operations raise one of these instead of guessing.
"""


class PadicLabError(Exception):
    pass


class PrecisionError(PadicLabError):
    """Working precision exhausted; the requested digits are not tracked."""


class Indeterminate(PadicLabError):
    """The truncation cannot certify the answer either way."""


class NotDivisible(PadicLabError):
    """Witt-vector division left the integral model."""


class LatticeTooCoarse(PadicLabError):
    """A required exponent is not representable in the fixed lattice."""


class ExtensionTooSmall(PadicLabError):
    """The residue equation has no root in the given field."""


class ExtensionCapExceeded(PadicLabError):
    """The residue extension a solution needs has degree above the
    configured cap; raised before any field of that degree is built."""


class Unsupported(PadicLabError):
    """Input outside the implemented desk-scale regime."""
