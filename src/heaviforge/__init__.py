"""heaviforge: truncated integral representations of discrete functions.

The library evaluates step functions, zero indicators, a nascent delta, a
piecewise-composition operator, and a divisor-count / prime-counting chain,
each with a quadrature backend and a closed-form backend that are checked
against one another and against exact combinatorial oracles.  A finite
multi-valued set algebra rounds out the package.  The package's public names
are its modules' ``__all__``; each is declared in exactly one of them.

``import heaviforge`` loads the closed-form core, ``cutoffs`` and
``stepfun``, and binds their names.  Any other public name is looked up on
first use in ``piecewise``, ``primes``, ``xisets`` and ``setexpr``, in that
order, each loaded as the search reaches it; ``__all__``, ``dir`` and
``import *`` load all four.  ``quadrature``, which needs numpy, loads when
one of its three integrators is read.  Each read goes to the module afresh,
so the package never holds a copy of its own.
"""

import importlib

from .cutoffs import *
from .stepfun import *
from . import cutoffs, stepfun

__version__ = "0.1.0"

# submodule -> the public names the package reads from it on first use: the
# numpy-free modules' whole __all__ (None), in the order of the package's
# __all__; of quadrature, which is not in __all__, the three integrators; of
# cli none, but ``from heaviforge import cli`` asks for it by name first
_ON_FIRST_USE = {
    "piecewise": None, "primes": None, "xisets": None, "setexpr": None,
    "quadrature": ("integrate_half_line", "integrate_interval", "integrate_tan_interval"),
    "cli": (),
}


def _load(module):
    return importlib.import_module(f"{__name__}.{module}")


def __getattr__(name):
    if name == "__all__":
        lazy = [_load(module).__all__ for module, names in _ON_FIRST_USE.items() if names is None]
        return [*cutoffs.__all__, *stepfun.__all__, *(public for names in lazy for public in names)]
    if name in _ON_FIRST_USE:
        return _load(name)
    if not name.startswith("__"):  # __path__, __wrapped__, ...: no module defines one
        for module, names in _ON_FIRST_USE.items():
            if name in (_load(module).__all__ if names is None else names):
                return getattr(_load(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
