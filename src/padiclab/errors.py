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
    """A residue equation, z^p = c z for a (p-1)-st root of c or
    z^p - u0 z = a0, has no root in the given field.  Both are F_p-linear
    in z, so the verdict is a linear solve, not a search; a larger field
    may have a root."""


class ExtensionCapExceeded(PadicLabError):
    """A field the computation needs has order above gf.MAX_ORDER, the
    one limit on the size of a built field; raised before it is built."""


class Unsupported(PadicLabError):
    """A case the library does not implement: a torsion level, ring or
    matrix outside a method's scope.  No size cap raises it."""
