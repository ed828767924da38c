"""The cutoffs that make the limiting integrals computable, and the result
and error types of the quadrature backend.

Nothing here needs numpy: the closed-form backend, the prime chain and the
command line use these types without loading it.  ``quadrature`` imports
these names, so both import paths give the same objects.

The package's value records (here and in ``piecewise``, ``primes`` and
``xisets``) share the small frozen base :class:`_Record`, which costs no
import; ``dataclasses`` would load ``inspect`` and friends on every start.
"""

from __future__ import annotations

import math

__all__ = [
    "CutoffParams",
    "QuadratureResult",
    "QuadratureError",
    "NonFiniteIntegrand",
    "ToleranceNotReached",
    "DEFAULT_EVAL_BUDGET",
    "DEFAULT_TOL",
]

DEFAULT_EVAL_BUDGET = 1_000_000
DEFAULT_TOL = 1e-9  # default bound on a quadrature row's absolute error estimate


class _Record:
    """A frozen value record.

    A subclass's ``__init__`` validates its fields and stores them with
    ``object.__setattr__``; assigning or deleting an attribute afterwards
    raises ``AttributeError``.  Equality holds only between instances of the
    same class whose ``_compare`` fields are equal, the hash is that of the
    ``_compare`` values, and the repr is ``Name(field=value, ...)`` over
    ``_repr``.  Copies and pickles rebuild the instance ``__dict__``
    without calling ``__init__``.
    """

    _compare: tuple[str, ...]  # each subclass names its fields here
    _repr: tuple[str, ...]

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compare))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._repr)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class NonFiniteIntegrand(QuadratureError):
    """The integrand produced NaN or +-inf at a sampled point."""


class ToleranceNotReached(QuadratureError):
    """The evaluation budget ran out before the tolerance was met.

    The best estimate computed so far is attached as ``best``.
    """

    def __init__(self, best: "QuadratureResult"):
        super().__init__(
            f"tolerance not reached after {best.evaluations} evaluations "
            f"(error estimate {best.abs_error_estimate:.3e})"
        )
        self.best = best


class CutoffParams(_Record):
    """Cutoffs that turn the exact limiting integrals into computable ones.

    half_line_T      upper limit standing in for infinity on [0, T]
    tan_margin_eps   margin before pi/2 on the tangent interval; integration
                     stops at pi/2 - eps
    indicator_scale_U  effective indicator scale, U = tan(pi/2 - eps)

    Give at most one of ``tan_margin_eps`` and ``indicator_scale_U``; the
    other is derived from it through the tangent (the library standardizes
    on the substitution u = tan t, so U and eps are two views of the same
    cutoff, and giving both raises ``ValueError``).  Omitting both selects
    the defaults T=100, U=128.
    """

    _compare = _repr = ("half_line_T", "tan_margin_eps", "indicator_scale_U")

    def __init__(
        self, half_line_T: float = 100.0, tan_margin_eps: float | None = None, indicator_scale_U: float | None = None
    ):
        T = float(half_line_T)
        if not (math.isfinite(T) and T > 0.0):
            raise ValueError(f"half_line_T must be a positive real, got {half_line_T!r}")
        object.__setattr__(self, "half_line_T", T)

        eps, U = tan_margin_eps, indicator_scale_U
        if eps is not None and U is not None:
            raise ValueError("tan_margin_eps and indicator_scale_U are one cutoff; give only one")
        if eps is None:
            U = 128.0 if U is None else float(U)
            # U > 1 is eps < pi/4: tan(pi/4) = 1
            if not (math.isfinite(U) and U > 1.0):
                raise ValueError(f"indicator_scale_U must be a finite real > 1, got {U!r}")
            eps = math.atan(1.0 / U)  # = pi/2 - atan(U), without cancellation
        else:
            eps = float(eps)
            if not (0.0 < eps < math.pi / 4.0):
                raise ValueError(f"tan_margin_eps must lie in (0, pi/4), got {eps!r}")
            U = math.tan(math.pi / 2.0 - eps)
        object.__setattr__(self, "tan_margin_eps", eps)
        object.__setattr__(self, "indicator_scale_U", U)

    @property
    def tan_interval_upper(self) -> float:
        """Right endpoint pi/2 - eps of the tangent interval."""
        return math.pi / 2.0 - self.tan_margin_eps


class QuadratureResult(_Record):
    """One integral's value, its error estimate and its integrand evaluations."""

    _compare = _repr = ("value", "abs_error_estimate", "evaluations")

    def __init__(self, value: float, abs_error_estimate: float, evaluations: int):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "abs_error_estimate", abs_error_estimate)
        object.__setattr__(self, "evaluations", evaluations)
