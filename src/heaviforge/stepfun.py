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

The private ``_CLOSED`` table is the one home of the closed forms: it maps
each CLI name (``f c u q rt H1 H2 delta``) to a flat kernel
``kernel(x, params)`` that reads its scale once and calls only ``math``.
``plot`` and ``table`` map these kernels over their grids, and
``piecewise`` and ``primes`` call the H1 kernel ``_h1`` for their gates.
``FAMILY`` maps each CLI name to its evaluator, built from that name's
kernel, and the public ``eval_*`` names are bound from it.  Each evaluator supports two backends that must agree within
tolerance: the closed form above, and adaptive quadrature of the defining
integrand.  This module holds the closed forms only; the integrands
and the row loop of the quadrature backend (``eval_quadrature``) live in
:mod:`quadrature`, which the first quadrature-backend call imports, numpy
with it.  The
truncation error of the closed forms against the exact discrete limits decays
like e^{-T|x|} / e^{-U x^2}, so cutoffs in the tens already reproduce the
discrete tables to machine-irrelevant error away from the transition region.

Values are never silently rounded.  Against a 400-digit oracle f, c, u, q
are within 2 ulp; rt 1 ulp * max(1, 2Ux^2); delta 2.5 ulp of its larger term
* max(1, |Tx|, 2Tx^2); H1, H2 1 ulp(1.0), absolute: 0.0 in the left tail.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import enum
from math import exp, expm1, isfinite, isinf, tanh

from .cutoffs import DEFAULT_TOL, CutoffParams

__all__ = [
    "Backend",
    "StepKind",
    "DEFAULT_CUTOFFS",
    "FAMILY",
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
    if not abs(value) < 2.0**52:  # inf, NaN, or a float already a multiple of 1/2
        return value
    nearest = round(value * 2.0) / 2.0
    return nearest if abs(value - nearest) <= atol else value


# -- closed-form kernels ------------------------------------------------------
#
# One flat kernel(x, params) per member, calling only math: the one home of the
# formulas, collected in _CLOSED below.  The ramp 1/2 - 1/(1 + e^z) is written
# 0.5 * tanh(0.5 * z), which does not cancel near 0 and is +-1/2 at +-inf;
# tanh is odd and 0 at 0, so oddness and origin values are exact.

def _h1(x: float, params: CutoffParams) -> float:
    """H2 = 1/2 + c(x), plus rt(x)/2; also the gate of ``piecewise`` and of
    the prime chain."""
    U = params.indicator_scale_U
    return (0.5 + 0.5 * tanh(0.5 * (x * U))) + 0.5 * exp(-U * x * x)


def _delta(x: float, params: CutoffParams) -> float:
    """Finite at every x and T.  The logistic density e^z/(1 + e^z)^2 is
    taken through a = e^{-|z|}, so it never overflows."""
    T = params.half_line_T
    a = exp(-abs(T * x))
    density = T * (a / ((1.0 + a) * (1.0 + a)))
    value = density - 2.0 * T * x * exp(-T * x * x)
    if isfinite(value):
        return value
    if isinf(x):
        return 0.0  # the limit of both terms; x e^{-T x^2} is inf * 0 here
    # 2 T (or 2 T x) overflowed; x e^{-T x^2} first, T last stays finite,
    # since 2 T x e^{-T x^2} peaks at sqrt(2 T / e)
    return density - x * exp(-T * x * x) * 2.0 * T


# CLI name -> closed-form kernel fn(x, params), params required; the twins
# f/c and u/q differ only in the scale their kernel reads
_CLOSED = {
    "f": lambda x, p: 0.5 * tanh(0.5 * (x * p.half_line_T)),
    "c": lambda x, p: 0.5 * tanh(0.5 * (x * p.indicator_scale_U)),
    "u": lambda x, p: -expm1(-p.half_line_T * x * x),
    "q": lambda x, p: -expm1(-p.indicator_scale_U * x * x),
    "rt": lambda x, p: exp(-p.indicator_scale_U * x * x),
    "H1": _h1,
    "H2": lambda x, p: 0.5 + 0.5 * tanh(0.5 * (x * p.indicator_scale_U)),
    "delta": _delta,
}


# -- evaluators --------------------------------------------------------------

def _evaluator(name: str, doc: str):
    """The evaluator of the family member ``name``: its ``_CLOSED`` kernel on
    the closed-form backend, one row of ``quadrature.eval_quadrature`` on
    the quadrature backend."""
    closed = _CLOSED[name]

    def evaluator(
        x: float,
        params: CutoffParams | None = None,
        backend: Backend = Backend.CLOSED_FORM,
        tol: float = DEFAULT_TOL,
    ) -> float:
        params = params or DEFAULT_CUTOFFS
        if backend is Backend.CLOSED_FORM:
            return closed(x, params)
        from . import quadrature  # numpy, loaded by the quadrature backend only

        return quadrature.eval_quadrature(name, (x,), params, tol)[0].value

    evaluator.__name__ = evaluator.__qualname__ = f"eval_{name}"
    evaluator.__doc__ = doc
    return evaluator


# CLI name -> evaluator fn(x, params=None, backend=CLOSED_FORM, tol=DEFAULT_TOL)
FAMILY = {
    "f": _evaluator("f", "Odd ramp over the half-line: -1/2 for x<0, 0 at 0, +1/2 for x>0."),
    "c": _evaluator("c", "Tangent-interval twin of :func:`eval_f`; identical values when U = T."),
    "u": _evaluator("u", "Nonzero indicator over the half-line: 1 - e^{-T x^2}, in [0, 1)."),
    "q": _evaluator("q", "Nonzero indicator over the tangent interval: 1 - e^{-U x^2}."),
    "rt": _evaluator("rt", "Zero indicator rt(x) = 1 - q(x) = e^{-U x^2}, in (0, 1]; 1 iff x = 0."),
    "H1": _evaluator("H1", "Unit step at scale U with value 1 at the origin: H2(x) + rt(x)/2."),
    "H2": _evaluator("H2", "Unit step at scale U with value 1/2 at the origin: c(x) + 1/2."),
    "delta": _evaluator("delta", """Nascent delta at scale T.

    Closed form T e^{Tx}/(1+e^{Tx})^2 - 2 T x e^{-T x^2}: the logistic
    density term carries the unit mass and peaks at delta(0) = T/4 (finite
    by design; the exact delta's infinity is represented by growth in T),
    while the odd Gaussian term integrates to zero over symmetric intervals.
    The quadrature backend integrates the x-derivative of the ramp and
    indicator integrands, summed into one integrand, to ``tol`` in a single
    pass rather than differencing numerically.
    """),
}
eval_f, eval_c, eval_u, eval_q, eval_rt, eval_delta = (FAMILY[n] for n in ("f", "c", "u", "q", "rt", "delta"))


def eval_step(
    kind: StepKind,
    x: float,
    params: CutoffParams | None = None,
    backend: Backend = Backend.CLOSED_FORM,
    tol: float = DEFAULT_TOL,
) -> float:
    """Unit step at scale U.

    H2 = c(x) + 1/2 (a logistic in closed form, strictly increasing);
    H1 = H2(x) + rt(x)/2, which lifts the origin value to exactly 1.
    """
    return FAMILY[kind.value](x, params, backend, tol)
