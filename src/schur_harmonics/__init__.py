"""Numerical toolkit around Schatten-class Schur multipliers.

Submodules, each imported on first access (``import schur_harmonics`` loads none):

* ``schatten`` -- Schatten norms, entrywise multipliers, and certified
  lower bounds on their S^p operator norms by nonconvex search.
* ``special_fn`` -- Jacobi/Legendre recurrences, the two zonal spherical
  families, and Hoelder-bound scans.
* ``gelfand`` -- coefficient extraction and synthesis for the pairs
  (U(2), U(1)) and (SU(2), SO(2)), weighted coefficient lower bounds,
  discretized kernel operators, Haar averaging.
* ``symplectic`` -- Sp(2,R) membership checks, the U(2) embedding, the
  distinguished group elements, and a robust KAK decomposition.
* ``coset_geometry`` -- the four sinh matching systems linking chamber
  parameters to coset coordinates, with overflow-safe solvers.
* ``decay`` -- the explicit decay-constant chain and norm certificates
  from observed non-decay.
* ``cli`` -- batch experiment runner over all of the above.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "coset_geometry",
    "decay",
    "gelfand",
    "schatten",
    "special_fn",
    "symplectic",
    "__version__",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
