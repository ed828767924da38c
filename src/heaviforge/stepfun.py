"""The truncated step-function family.

Every function here is the finite-cutoff version of an integral whose exact
value is a discrete limit:

    f(x)  = integral over [0, T] of x e^{xt} / (1 + e^{xt})^2 dt
          = 1/2 - 1/(1 + e^{xT})                  (odd ramp: -1/2, 0, +1/2)
    c(x)  = same shape over [0, pi/2 - eps] via u = tan t, scale U
    u(x)  = integral of x^2 e^{-t x^2}  = 1 - e^{-T x^2}   (0 at 0, else 1)
    q(x)  = tangent-interval twin of u, scale U
    rt(x) = 1 - q(x) = e^{-U x^2}                 (zero indicator)
    H2(x) = c(x) + 1/2            (step with value 1/2 at the origin)
    H1(x) = H2(x) + rt(x)/2       (step with value 1 at the origin)
    delta_T(x) = T e^{Tx}/(1+e^{Tx})^2 - 2 T x e^{-T x^2}  (nascent delta)

Each evaluator supports two backends that must agree within tolerance: the
closed form above, and adaptive quadrature of the defining integrand.  This
module holds the closed forms only; the integrands and the row loop of the
quadrature backend (``eval_quadrature``) live in :mod:`quadrature`, which the
first quadrature-backend call imports, numpy with it.  The
truncation error of the closed forms against the exact discrete limits decays
like e^{-T|x|} / e^{-U x^2}, so cutoffs in the tens already reproduce the
discrete tables to machine-irrelevant error away from the transition region.

Values are reported honestly (never silently rounded); :func:`snap` is the
opt-in wrapper that maps a value to the nearest exact discrete level.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import enum
import math

from .cutoffs import CutoffParams

__all__ = [
    "Backend",
    "StepKind",
    "DEFAULT_CUTOFFS",
    "snap",
    "eval_f",
    "eval_c",
    "eval_u",
    "eval_q",
    "eval_rt",
    "eval_step",
    "eval_delta",
]

DEFAULT_CUTOFFS = CutoffParams()


class Backend(enum.Enum):
    QUADRATURE = "quadrature"
    CLOSED_FORM = "closed_form"


class StepKind(enum.Enum):
    """Which discrete convention the step takes at the origin."""

    H1 = "H1"  # value 1 at x = 0
    H2 = "H2"  # value 1/2 at x = 0


def snap(value: float, atol: float = 1e-9) -> float:
    """Map ``value`` to the nearest multiple of 1/2 when within ``atol``.

    Covers the discrete levels the family produces (0, +-1/2, 1, integer
    counts).  Snapping is opt-in; no evaluator calls this implicitly.
    """
    if not math.isfinite(value):
        return value
    nearest = round(value * 2.0) / 2.0
    return nearest if abs(value - nearest) <= atol else value


# -- scalar closed-form helpers, branch-symmetric so antisymmetry and the
#    exact origin values hold bit-for-bit -----------------------------------

def _ramp(z: float) -> float:
    """1/2 - 1/(1 + e^z); odd in z, exactly 0.0 at z = 0."""
    if z < 0.0:
        a = math.exp(z)  # the z > 0 branch at -z, negated
        return -(0.5 - a / (1.0 + a))
    a = math.exp(-z)
    return 0.5 - a / (1.0 + a)


def _h1(x: float, U: float) -> float:
    """Closed-form H1 at scale U: H2 = 1/2 + c(x), plus rt(x)/2."""
    return (0.5 + _ramp(x * U)) + 0.5 * math.exp(-U * x * x)


def _density(z: float) -> float:
    """e^z / (1 + e^z)^2, evaluated through e^{-|z|} so it never overflows."""
    a = math.exp(-abs(z))
    return a / ((1.0 + a) * (1.0 + a))


def _quadrature_value(name: str, x: float, params: CutoffParams, tol: float) -> float:
    from . import quadrature  # numpy, loaded by the quadrature backend only

    return quadrature.eval_quadrature(name, (x,), params, tol)[0].value


# -- evaluators --------------------------------------------------------------

def eval_f(
    x: float,
    params: CutoffParams | None = None,
    backend: Backend = Backend.CLOSED_FORM,
    tol: float = 1e-9,
) -> float:
    """Odd ramp over the half-line: -1/2 for x<0, 0 at 0, +1/2 for x>0."""
    params = params or DEFAULT_CUTOFFS
    if backend is Backend.CLOSED_FORM:
        return _ramp(x * params.half_line_T)
    return _quadrature_value("f", x, params, tol)


def eval_c(
    x: float,
    params: CutoffParams | None = None,
    backend: Backend = Backend.CLOSED_FORM,
    tol: float = 1e-9,
) -> float:
    """Tangent-interval twin of :func:`eval_f`; identical values when U = T."""
    params = params or DEFAULT_CUTOFFS
    if backend is Backend.CLOSED_FORM:
        return _ramp(x * params.indicator_scale_U)
    return _quadrature_value("c", x, params, tol)


def eval_u(
    x: float,
    params: CutoffParams | None = None,
    backend: Backend = Backend.CLOSED_FORM,
    tol: float = 1e-9,
) -> float:
    """Nonzero indicator over the half-line: 1 - e^{-T x^2}, in [0, 1)."""
    params = params or DEFAULT_CUTOFFS
    if backend is Backend.CLOSED_FORM:
        return -math.expm1(-params.half_line_T * x * x)
    return _quadrature_value("u", x, params, tol)


def eval_q(
    x: float,
    params: CutoffParams | None = None,
    backend: Backend = Backend.CLOSED_FORM,
    tol: float = 1e-9,
) -> float:
    """Nonzero indicator over the tangent interval: 1 - e^{-U x^2}."""
    params = params or DEFAULT_CUTOFFS
    if backend is Backend.CLOSED_FORM:
        return -math.expm1(-params.indicator_scale_U * x * x)
    return _quadrature_value("q", x, params, tol)


def eval_rt(
    x: float,
    params: CutoffParams | None = None,
    backend: Backend = Backend.CLOSED_FORM,
    tol: float = 1e-9,
) -> float:
    """Zero indicator rt(x) = 1 - q(x) = e^{-U x^2}, in (0, 1]; 1 iff x = 0."""
    params = params or DEFAULT_CUTOFFS
    if backend is Backend.CLOSED_FORM:
        return math.exp(-params.indicator_scale_U * x * x)
    return _quadrature_value("rt", x, params, tol)


def eval_step(
    kind: StepKind,
    x: float,
    params: CutoffParams | None = None,
    backend: Backend = Backend.CLOSED_FORM,
    tol: float = 1e-9,
) -> float:
    """Unit step at scale U.

    H2 = c(x) + 1/2 (a logistic in closed form, strictly increasing);
    H1 = H2(x) + rt(x)/2, which lifts the origin value to exactly 1.
    """
    params = params or DEFAULT_CUTOFFS
    U = params.indicator_scale_U
    if backend is Backend.CLOSED_FORM:
        if kind is StepKind.H2:
            return 0.5 + _ramp(x * U)
        return _h1(x, U)
    return _quadrature_value(kind.value, x, params, tol)


def eval_delta(
    x: float,
    params: CutoffParams | None = None,
    backend: Backend = Backend.CLOSED_FORM,
    tol: float = 1e-9,
) -> float:
    """Nascent delta at scale T.

    Closed form T e^{Tx}/(1+e^{Tx})^2 - 2 T x e^{-T x^2}: the logistic
    density term carries the unit mass and peaks at delta(0) = T/4 (finite
    by design; the exact delta's infinity is represented by growth in T),
    while the odd Gaussian term integrates to zero over symmetric intervals.
    The quadrature backend integrates the x-derivative of the ramp and
    indicator integrands, summed into one integrand, to ``tol`` in a single
    pass rather than differencing numerically.
    """
    params = params or DEFAULT_CUTOFFS
    T = params.half_line_T
    if backend is Backend.CLOSED_FORM:
        if math.isinf(x):
            return 0.0  # the limit of both terms; x e^{-T x^2} would be inf * 0
        value = T * _density(T * x) - 2.0 * T * x * math.exp(-T * x * x)
        if math.isfinite(value):
            return value
        # 2 T (or 2 T x) overflowed; x e^{-T x^2} first, T last stays finite,
        # since 2 T x e^{-T x^2} peaks at sqrt(2 T / e)
        return T * _density(T * x) - x * math.exp(-T * x * x) * 2.0 * T
    return _quadrature_value("delta", x, params, tol)
