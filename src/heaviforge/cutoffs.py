"""The cutoffs that make the limiting integrals computable, and the result
and error types of the quadrature backend.

Nothing here needs numpy: the closed-form backend, the prime chain and the
command line use these types without loading it.  ``quadrature`` imports
these names, so both import paths give the same objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CutoffParams",
    "QuadratureResult",
    "QuadratureError",
    "NonFiniteIntegrand",
    "ToleranceNotReached",
    "DEFAULT_EVAL_BUDGET",
]

DEFAULT_EVAL_BUDGET = 1_000_000


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


@dataclass(frozen=True)
class CutoffParams:
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

    half_line_T: float = 100.0
    tan_margin_eps: float | None = None
    indicator_scale_U: float | None = None

    def __post_init__(self):
        T = float(self.half_line_T)
        if not (math.isfinite(T) and T > 0.0):
            raise ValueError(f"half_line_T must be a positive real, got {self.half_line_T!r}")
        object.__setattr__(self, "half_line_T", T)

        eps, U = self.tan_margin_eps, self.indicator_scale_U
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


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int
