"""padiclab: exact desk-scale p-adic semilinear algebra.

Modules
-------
padic       truncated p-adic integers, log/exp, q-analogues
gskel       the (cocycle, character) group model and its decompositions
gf          finite fields and F_p-linear algebra
witt        truncated Witt vectors, laws from ghost components
series      the truncated (Laurent) series kernel: sums, products,
            inverses, packed digits
calculus    Newton polygons, Weierstrass preparation, Eisenstein data,
            the operators lambda and N_nabla, series as Witt coefficients
perfseries  fractional-exponent series and the semilinear solvers
phimod      etale phi-modules, lattices, heights
galrep      the constructive mod-p functor and unramified round trips
taumod      the two-variable Galois action and tau-commutation checks
logtrunc    truncated operator logarithms and their congruences
ramif       Herbrand transforms and explicit ramification bounds
cli         batch command surface (JSON/CSV)
suites      seeded property suites, run as ``padiclab suite <name>``

Importing the package loads none of them: each submodule is imported on
first use, as ``padiclab.galrep``, ``from padiclab import galrep`` or
``from padiclab import *`` (PEP 562).  So a ``padiclab`` process loads,
and without a bytecode cache compiles, only cli and the modules its one
subcommand runs: ``galois solve`` reads the series kernel and not its
calculus, ``suite logm`` reads logtrunc and matrix and no other suite's
modules.  The package defines only record,
the result record of the CLI documents, and Fields and Frozen, the bases
of the library's value classes.
"""

import importlib

__all__ = [
    "calculus", "errors", "galrep", "gf", "gskel", "logtrunc", "padic",
    "perfseries", "phimod", "ramif", "rings", "series", "taumod", "witt",
]

__version__ = "0.1.0"


def record(name, value, exact=True, precision="exact", anchor=""):
    """One result of a CLI document; cli and the suites report through it."""
    return {"name": name, "value": str(value), "exact": bool(exact),
            "precision": str(precision), "anchor": anchor}


class Fields:
    """A value named by the attributes its class lists in _fields, which
    __init__ takes in that order.  Equal to an instance of the same class
    with equal fields, unhashable, and shown as Name(field=value, ...)."""

    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the {len(self._fields)} fields "
                            f"{', '.join(self._fields)}, got {len(values)} values")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Fields):
    """Fields that refuse assignment and deletion (AttributeError) once
    __init__ has set them, hashed as the tuple of their values."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
