"""padiclab: exact desk-scale p-adic semilinear algebra.

Modules
-------
padic       truncated p-adic integers, log/exp, q-analogues
gskel       the (cocycle, character) group model and its decompositions
gf          finite fields and F_p-linear algebra
witt        truncated Witt vectors, laws from ghost components
series      truncated (Laurent) series, Newton polygons, Weierstrass
            preparation, the operators lambda and N_nabla
perfseries  fractional-exponent series and the semilinear solvers
phimod      etale phi-modules, lattices, heights
galrep      the constructive mod-p functor and unramified round trips
taumod      the two-variable Galois action and tau-commutation checks
logtrunc    truncated operator logarithms and their congruences
ramif       Herbrand transforms and explicit ramification bounds
cli         batch command surface (JSON/CSV), property suites

Importing the package loads none of them: each submodule is imported on
first use, as ``padiclab.galrep``, ``from padiclab import galrep`` or
``from padiclab import *`` (PEP 562).  The package defines only record,
the result record of the CLI documents.
"""

import importlib

__all__ = [
    "errors", "galrep", "gf", "gskel", "logtrunc", "padic",
    "perfseries", "phimod", "ramif", "rings", "series", "taumod", "witt",
]

__version__ = "0.1.0"


def record(name, value, exact=True, precision="exact", anchor=""):
    """One result of a CLI document; cli and the suites report through it."""
    return {"name": name, "value": str(value), "exact": bool(exact),
            "precision": str(precision), "anchor": anchor}


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
