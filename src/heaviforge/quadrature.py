"""Adaptive quadrature for the two integral shapes used throughout the
package: truncated half-lines [0, T] and tangent intervals [0, pi/2 - eps].

The integrals this library cares about are exact only in the limit T -> inf
(equivalently eps -> 0, under the substitution u = tan t).  Everything here
integrates to a *finite* cutoff and treats the remainder as truncation error;
the closed-form antiderivatives of the target integrands make that error
analytically known, so the cutoff is a documented modelling choice rather
than an approximation of unknown size.

The engine is recursive bisection with an embedded Gauss-Kronrod (7, 15)
rule supplying the per-panel error estimate.  Panels are refined in waves:
every panel whose estimate is within a fixed factor of the current worst
panel is split, so the refinement trajectory depends only on the integrand
(tolerance merely decides where along that trajectory to stop).  Integrands
are evaluated on whole waves at once and must therefore accept a 1-D numpy
array and return an array of the same shape (``numpy.vectorize`` adapts any
scalar function).

A caller that integrates one integrand per x over many x can compute the
seed wave of a whole chunk of rows in one integrand call
(``_seed_waves``) and hand each row's to its ``integrate_*`` call as
``seed_wave``; the row then refines alone, and its result is the one it
would get without the hand-over, bit for bit: every integrand is one
elementwise numpy expression, so a column of x and a single x run the same
IEEE operations.  The delta integrand f' - u' (x-derivatives of the f and u
integrands) is, with z = t x and rho(z) = e^z/(1+e^z)^2 (``_density_np``),

    rho(z) (1 - z tanh(z/2)) - 2x e^{-t x^2} (1 - t x^2),

as rho(z) - 2 e^{2z}/(1+e^z)^3 = -rho(z) tanh(z/2).  It is NaN, 0 * (-inf),
once t x^2 overflows at the largest sampled t, just under T: from |x| about
sqrt(1.8e308 / T) on, 1.34e153 at the default T = 100.

This module is the whole quadrature backend of the step-function family:
besides the engine it holds each function's integrand (``_QUADRATURE``) and
``eval_quadrature``, which integrates one function over a column of x, one
``integrate_*`` call per row.  ``stepfun`` holds the closed forms and calls
``eval_quadrature`` for its quadrature backend.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .cutoffs import (
    DEFAULT_EVAL_BUDGET,
    CutoffParams,
    NonFiniteIntegrand,
    QuadratureError,
    QuadratureResult,
    ToleranceNotReached,
)

__all__ = ["integrate_half_line", "integrate_tan_interval", "integrate_interval", "eval_quadrature"]


# Gauss-Kronrod (7, 15) nodes on [-1, 1] and both weight sets.  The 7-point
# Gauss rule is embedded at the odd-index nodes; the difference between the
# two rules is the (conservative) per-panel error estimate.
_GK_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_GK_WEIGHTS = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299785, 0.0229353220105292,
])
_GAUSS_WEIGHTS = np.zeros(15)
_GAUSS_WEIGHTS[1::2] = [
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
]

_SPLIT_FACTOR = 16.0  # split every panel within this factor of the worst one
# Integrand points per chunk of rows in _seed_waves (16 rows of the 46
# half-line seed panels): bounds the (rows x points) temporaries.  Twice
# this was no faster on a table and raised its peak memory; half was slower.
_CHUNK_POINTS = 11_520


def _gk_points(left, right):
    """The GK15 abscissae of each panel, shape (panels, 15), and the panels'
    half-widths."""
    half = 0.5 * (right - left)
    center = 0.5 * (right + left)
    return center[:, None] + half[:, None] * _GK_NODES[None, :], half


def _gk_sums(vals, half):
    """(k15, est) per panel from values of shape (..., panels, 15)."""
    k15 = (vals @ _GK_WEIGHTS) * half
    g7 = (vals @ _GAUSS_WEIGHTS) * half
    return k15, np.abs(k15 - g7)


def _panel_rule(f, left, right):
    """Apply GK15 to each panel; returns (k15, est, points_evaluated)."""
    pts, half = _gk_points(left, right)
    vals = np.asarray(f(pts.ravel()), dtype=float)
    vals = np.broadcast_to(vals, pts.ravel().shape).reshape(pts.shape)
    if not np.isfinite(vals).all():
        raise NonFiniteIntegrand("integrand returned NaN or inf at a sampled point")
    k15, est = _gk_sums(vals, half)
    return k15, est, pts.size


def _seed_waves(integrand_of, xs: Sequence[float], edges):
    """Yield the seed wave (k15, est) over the panels ``edges`` of
    ``integrand_of(x)`` for each x in ``xs``, one integrand call per chunk
    of rows.

    ``integrand_of`` takes a column of x, shape (rows, 1), and returns an
    integrand whose values have shape (rows, len(t)).  A row gets None, and
    evaluates its own seed wave, when its values are not all finite or when
    the chunk's call would have reported a floating-point error under
    numpy's error state: the one-row evaluation then fails and warns as it
    would have, in row order.
    """
    pts, half = _gk_points(edges[:-1], edges[1:])
    chunk = max(1, _CHUNK_POINTS // pts.size)
    report = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}
    for lo in range(0, len(xs), chunk):
        column = np.array(xs[lo:lo + chunk], dtype=float).reshape(-1, 1)
        try:
            with np.errstate(**report):
                vals = integrand_of(column)(pts.ravel()).reshape(len(column), *pts.shape)
                k15, est = _gk_sums(vals, half)
        except FloatingPointError:
            yield from [None] * len(column)
            continue
        finite = np.isfinite(vals).all(axis=(1, 2))
        for r in range(len(column)):
            yield (k15[r], est[r]) if finite[r] else None


def _sorted_panels(left, right, k15, est):
    order = np.argsort(left, kind="stable")
    return left[order], right[order], k15[order], est[order]


def _adaptive(f, edges, tol, seed_wave=None):
    if tol <= 0.0 or not math.isfinite(tol):
        raise ValueError(f"tol must be a positive real, got {tol!r}")
    edges = np.asarray(edges, dtype=float)
    left, right = edges[:-1], edges[1:]
    if seed_wave is None:
        k15, est, evals = _panel_rule(f, left, right)
    else:
        k15, est = seed_wave
        if k15.shape != left.shape or est.shape != left.shape:
            raise ValueError(f"seed_wave must hold (k15, est) for each of the {left.size} seed panels")
        evals = left.size * _GK_NODES.size

    while True:
        total_est = float(est.sum())
        value = float(k15.sum())
        if total_est <= tol:
            return QuadratureResult(value, total_est, evals)

        best = QuadratureResult(value, total_est, evals)
        widths = right - left
        floor = 8.0 * np.finfo(float).eps * np.maximum(np.abs(left), np.abs(right))
        split = (est >= est.max() / _SPLIT_FACTOR) & (widths > floor)
        if not split.any():
            raise ToleranceNotReached(best)  # roundoff-limited panels remain
        if evals + 30 * int(split.sum()) > DEFAULT_EVAL_BUDGET:
            raise ToleranceNotReached(best)

        mid = 0.5 * (left[split] + right[split])
        new_left = np.concatenate([left[split], mid])
        new_right = np.concatenate([mid, right[split]])
        new_k15, new_est, used = _panel_rule(f, new_left, new_right)
        evals += used

        left = np.concatenate([left[~split], new_left])
        right = np.concatenate([right[~split], new_right])
        k15 = np.concatenate([k15[~split], new_k15])
        est = np.concatenate([est[~split], new_est])
        left, right, k15, est = _sorted_panels(left, right, k15, est)


def _read_only(edges: list[float]) -> np.ndarray:
    edges = np.array(edges)
    edges.flags.writeable = False  # cached: one array serves every call
    return edges


@functools.lru_cache(maxsize=64)
def _half_line_edges(T: float) -> np.ndarray:
    # Seed panels shrinking geometrically toward t = 0, where the half-line
    # integrands concentrate their mass once the outer scale x grows.
    return _read_only([0.0] + [T * 2.0 ** (-k) for k in range(45, -1, -1)])


@functools.lru_cache(maxsize=64)
def _tan_edges(upper: float) -> np.ndarray:
    # Seed panels shrinking geometrically toward the singular endpoint
    # pi/2 - eps; under u = tan t each panel then spans a bounded factor in
    # u, which keeps sec^2-type growth resolvable.
    return _read_only([upper - upper * 2.0 ** (-k) for k in range(0, 51)] + [upper])


def integrate_half_line(
    integrand: Callable[[np.ndarray], np.ndarray],
    params: CutoffParams | None = None,
    tol: float = 1e-9,
    *,
    seed_wave: tuple[np.ndarray, np.ndarray] | None = None,
) -> QuadratureResult:
    """Integrate over [0, T] with T = ``params.half_line_T``.

    The integrand must be finite on [0, T] and accept a numpy array of
    abscissae.  On success ``abs_error_estimate <= tol``; if the evaluation
    budget (``DEFAULT_EVAL_BUDGET``) runs out first,
    :class:`ToleranceNotReached` carries the best
    estimate.  Results are deterministic for fixed inputs.

    ``seed_wave`` is the integrand's (k15, est) on the seed panels when it
    was computed already (see the module docstring); the integrand is then
    evaluated only on the waves after it.
    """
    params = params or CutoffParams()
    return _adaptive(integrand, _half_line_edges(params.half_line_T), tol, seed_wave)


def integrate_tan_interval(
    integrand: Callable[[np.ndarray], np.ndarray],
    params: CutoffParams | None = None,
    tol: float = 1e-9,
    *,
    seed_wave: tuple[np.ndarray, np.ndarray] | None = None,
) -> QuadratureResult:
    """Integrate over [0, pi/2 - eps] with eps = ``params.tan_margin_eps``.

    Panels are seeded geometrically toward the right endpoint, where
    sec^2-type integrands vary over many orders of magnitude.
    ``seed_wave`` is as in :func:`integrate_half_line`.
    """
    params = params or CutoffParams()
    return _adaptive(integrand, _tan_edges(params.tan_interval_upper), tol, seed_wave)


def integrate_interval(
    integrand: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    tol: float = 1e-9,
) -> QuadratureResult:
    """Integrate over an arbitrary finite interval [lower, upper].

    General-purpose helper backing the verification suites (sifting
    integrals and the like); the cutoff-specific entry points above are the
    primary interface.
    """
    if not (lower < upper and math.isfinite(upper - lower)):  # a finite span: finite bounds too
        raise ValueError(f"need finite lower < upper with a finite span, got [{lower!r}, {upper!r}]")
    return _adaptive(integrand, np.linspace(lower, upper, 17), tol)


# -- integrands of the step-function family (see ``stepfun``) ----------------

def _density_np(z):
    a = np.exp(-np.abs(z))
    return a / (1.0 + a) ** 2


# Each factory takes x as a float, or as a column of shape (rows, 1); its
# integrand maps t to values of shape (len(t),), or (rows, len(t)).

def _f_integrand(x):
    return lambda t: x * _density_np(x * t)


def _u_integrand(x):
    x2 = x * x
    return lambda t: x2 * np.exp(-t * x2)


def _tan(integrand):
    """Move a half-line integrand onto the tangent interval: u = tan t."""
    def g(t):
        tn = np.tan(t)
        return (1.0 + tn * tn) * integrand(tn)
    return g


def _delta_integrand(x):
    # f' - u', see the module docstring
    def g(t):
        z = t * x
        return (_density_np(z) * (1.0 - z * np.tanh(0.5 * z))
                - 2.0 * x * np.exp(-t * x * x) * (1.0 - t * x * x))
    return g


def _c_integrand(x):
    return _tan(_f_integrand(x))


def _q_integrand(x):
    return _tan(_u_integrand(x))


def _h1_integrand(x):
    f_int, u_int = _f_integrand(x), _u_integrand(x)
    return _tan(lambda u: f_int(u) - 0.5 * u_int(u))


# function name -> (integrated over the half-line rather than the tangent
#                   interval, integrand factory, the function's value from
#                   the integral, None if the same)
_QUADRATURE = {
    "f": (True, _f_integrand, None),
    "c": (False, _c_integrand, None),
    "u": (True, _u_integrand, None),
    "q": (False, _q_integrand, None),
    "rt": (False, _q_integrand, lambda v: 1.0 - v),
    "H2": (False, _c_integrand, lambda v: 0.5 + v),
    "H1": (False, _h1_integrand, lambda v: 1.0 + v),
    "delta": (True, _delta_integrand, None),
}


def eval_quadrature(
    name: str,
    xs: Sequence[float],
    params: CutoffParams | None = None,
    tol: float = 1e-9,
) -> list[QuadratureResult]:
    """Quadrature backend of the function ``name`` at every x in ``xs``.

    ``name`` is one of ``"f"``, ``"c"``, ``"u"``, ``"q"``, ``"rt"``,
    ``"H1"``, ``"H2"``, ``"delta"``, the CLI's names.  Each
    result's ``value`` is the function's value; its error estimate and
    evaluation count are those of the integral behind it.  Each row is one
    ``integrate_*`` call, but a chunk of rows shares one integrand call for
    the seed wave; a row's result does not depend on its chunk: it equals
    the scalar ``eval_*(x, params, Backend.QUADRATURE, tol)`` bit for bit.
    The first failing row, in row order, raises its :class:`QuadratureError`.
    """
    on_half_line, integrand_of, finish = _QUADRATURE[name]
    params = params or CutoffParams()
    if on_half_line:
        integrate, edges = integrate_half_line, _half_line_edges(params.half_line_T)
    else:
        integrate, edges = integrate_tan_interval, _tan_edges(params.tan_interval_upper)
    results = []
    for x, seed_wave in zip(xs, _seed_waves(integrand_of, xs, edges)):
        result = integrate(integrand_of(x), params, tol, seed_wave=seed_wave)
        if finish is not None:
            result = QuadratureResult(finish(result.value), result.abs_error_estimate, result.evaluations)
        results.append(result)
    return results
