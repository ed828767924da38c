"""heaviforge: truncated integral representations of discrete functions.

The library evaluates step functions, zero indicators, a nascent delta, a
piecewise-composition operator, and a divisor-count / prime-counting chain,
each with a quadrature backend and a closed-form backend that are checked
against one another and against exact combinatorial oracles.  A finite
multi-valued set algebra rounds out the package.  The package's public names
are its modules' ``__all__``; each is declared in exactly one of them.
"""

from .cutoffs import *
from .stepfun import *
from .piecewise import *
from .primes import *
from .xisets import *
from .setexpr import *
from . import cutoffs, stepfun, piecewise, primes, xisets, setexpr

__all__ = [*cutoffs.__all__, *stepfun.__all__, *piecewise.__all__,
           *primes.__all__, *xisets.__all__, *setexpr.__all__]
__version__ = "0.1.0"

_QUADRATURE_EXPORTS = ("integrate_half_line", "integrate_interval", "integrate_tan_interval")


def __getattr__(name):
    # The integrators need numpy; importing the package loads it only once
    # one of them is asked for.  Each read goes to ``quadrature`` afresh, so
    # the package never holds a copy of its own.
    if name in _QUADRATURE_EXPORTS:
        from . import quadrature
        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
