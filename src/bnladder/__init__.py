"""Dyadic-triadic ladders of fractional-part profiles.

Exact Gram matrices of the family f_theta(x) = {theta/x} - theta {1/x},
their critical-line spectral factorization, Gaussian smoothing of that
factorization, and off-diagonal decay / finite-section diagnostics.

Each public name is declared once, in its module's ``__all__``; the root
re-exports those lists, and the star imports also bind the submodules.
"""

from .decay import *
from .errors import *
from .fractional import *
from .gram import *
from .ladder import *
from .mellin import *
from .zeta import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *decay.__all__,
    *errors.__all__,
    *fractional.__all__,
    *gram.__all__,
    *ladder.__all__,
    *mellin.__all__,
    *zeta.__all__,
]
