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

``eval_quadrature`` integrates one integrand per x over many x, a block of
rows at a time (``_block_states``).  The rows refine together, wave by
wave, the seed wave first, and one rule at the top of every wave decides
each row's outcome.  One routine, ``_wave``, evaluates every wave: the
seed wave's panels are shared by every row, each later wave's panels are
one per x.  That is the only refinement loop: an ``integrate_*`` call runs
it on its one row.  Each row of a block still makes its own
``integrate_*`` call, so that a tracer of those calls counts rows, and
hands it, as ``seed_wave``, the row's result or failure, or None where the
block dropped the row, which then evaluates alone from its seed wave.  A
row's result does not depend on its block, bit for bit, because every
integrand is one elementwise numpy expression, so a column of x and a
single x run the same IEEE operations; because each panel's GK15 sums are
its own (``_gk_sums``); and because each row's totals are its own ``sum()``
(``_row_sums``).  The delta integrand f' - u' (x-derivatives of the f and u
integrands) is, with z = t x and rho(z) = e^z/(1+e^z)^2 (``_density_np``),

    rho(z) (1 - z tanh(z/2)) - 2x e^{-t x^2} (1 - t x^2),

as rho(z) - 2 e^{2z}/(1+e^z)^3 = -rho(z) tanh(z/2).  It is NaN, 0 * (-inf),
once t x^2 overflows at the largest sampled t, just under T: from |x| about
sqrt(1.8e308 / T) on, 1.34e153 at the default T = 100.

This module is the whole quadrature backend of the step-function family:
besides the engine it holds each function's integrand (``_QUADRATURE``) and
``eval_quadrature``, which integrates one function over a column of x, with
one ``integrate_*`` call per row.  ``stepfun`` holds the closed forms and
calls ``eval_quadrature`` for its quadrature backend.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .cutoffs import (
    DEFAULT_EVAL_BUDGET,
    DEFAULT_TOL,
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
# Integrand points per call of _wave: a chunk of a seed wave's rows (16
# rows of the 46 half-line seed panels, 15 of the 51 tangent ones) or a
# slice of a refinement wave's panels, one per x.  It bounds the (rows x
# points) temporaries.  Twice this was no faster on a table and raised its
# peak memory; half was slower.
_CHUNK_POINTS = 11_520
_SLICE_PANELS = _CHUNK_POINTS // _GK_NODES.size
# Rows that eval_quadrature refines together, a whole number of seed chunks
# on both intervals (16 rows of 46 panels, 15 of 51).  120 rows per block
# was slower on the benchmark's tables, which have 35 to 170 rows; 480 and
# 960 were no faster on 10,001 rows and raised the peak memory of 3,000
# rows of H1 from 2.0 MB to 3.3 and 5.9 MB.
_BLOCK_ROWS = 240


def _gk_points(left, right):
    """The GK15 abscissae of each panel, shape (*left.shape, 15), and the
    panels' half-widths."""
    half = 0.5 * (right - left)
    center = 0.5 * right + 0.5 * left  # right + left can overflow
    return center[..., None] + half[..., None] * _GK_NODES, half


def _gk_sums(vals, half):
    """(k15, est) per panel from values of shape (..., panels, 15).

    Each sum runs over its own panel's 15 products, in numpy's fixed order,
    so a panel's sums do not depend on the panels stacked beside it.  A BLAS
    ``vals @ weights`` would: OpenBLAS picks its kernel for the CPU, and the
    kernel's blocking depends on the panel's place in the matrix.
    """
    k15 = (vals * _GK_WEIGHTS).sum(axis=-1) * half
    g7 = (vals * _GAUSS_WEIGHTS).sum(axis=-1) * half
    return k15, np.abs(k15 - g7)


_NON_FINITE = "integrand returned NaN or inf at a sampled point"


def _check_tol(tol):
    if tol <= 0.0 or not math.isfinite(tol):
        raise ValueError(f"tol must be a positive real, got {tol!r}")


# -- the refinement loop: a block of rows, or one row alone ------------------

def _row_sums(values, starts, counts):
    """Each row's ``values.sum()``, where row i holds the panels
    ``values[starts[i]:starts[i] + counts[i]]``.  ``sum(axis=1)`` over the
    rows of one panel count runs each row's own pairwise summation, bit for
    bit; padding rows with zeros to one length would not."""
    total = np.empty(len(counts))
    for count in set(counts.tolist()):
        rows = np.flatnonzero(counts == count)
        if len(rows) * count == values.size:  # every row: a view, not a gather
            panels = values.reshape(len(rows), count)
        else:
            panels = values[starts[rows, None] + np.arange(count)]
        total[rows] = panels.sum(axis=1)
    return total


def _wave(integrand_of, x, left, right, report, catch):
    """GK15 on the panels [left, right] of the integrand at each x: (k15,
    est), shape (len(x), panels per x), and ``ok``, False on every x of a
    chunk whose integrand call raised ``catch``, a floating-point error under
    ``report``.  A chunk is one integrand call on about ``_CHUNK_POINTS``
    points.  On the seed wave ``left`` and ``right`` have shape (1, P),
    panels that every x shares: each chunk's column of x broadcasts against
    their one row of 15 P abscissae, computed once for the wave.  On a
    refinement wave they have shape (len(x), 1), one panel per x."""
    panels = left.shape[1]
    k15, est, ok = np.empty((len(x), panels)), np.empty((len(x), panels)), np.ones(len(x), bool)
    chunk = max(1, _CHUNK_POINTS // (15 * panels))
    shared = _gk_points(left, right) if len(left) == 1 else None
    for lo in range(0, len(x), chunk):
        part = slice(lo, lo + chunk)
        try:
            with np.errstate(**report):
                pts, half = shared or _gk_points(left[part], right[part])
                vals = integrand_of(x[part, None])(pts.reshape(len(pts), -1))
                k15[part], est[part] = _gk_sums(vals.reshape(-1, panels, 15), half)
        except catch:
            ok[part] = False
    return k15, est, ok


def _block_states(integrand_of, xs: Sequence[float], edges, tol, alone=False):
    """The outcome of each row of the block ``xs``: its result, its
    :class:`QuadratureError`, or None where the block dropped the row.

    The rows refine together, wave by wave, each row's panels contiguous
    and sorted by left edge.  ``_wave`` evaluates each wave: the seed
    wave on the seed panels, shape (1, P), which every row shares, and
    every later wave on the rows' split panels, shape (panels, 1), one x
    each.  At the top of each wave one rule decides every row, as its own
    call would: ``NonFiniteIntegrand`` where its total error estimate is
    not finite, as it is wherever a value is not; its result where that
    total is within ``tol``; ``ToleranceNotReached`` where no panel can
    split or the evaluation budget would run out.  The block drops a row
    where a call of its wave, or the rule's arithmetic, reported a
    floating-point error under numpy's error state, turned to "raise": the
    row's ``integrate_*`` call then evaluates it alone, from its seed wave,
    and warns and fails as it would have, in row order; and once its panels
    would fill a slice: alone it costs no more, and the block's memory
    stays bounded.  ``alone`` is that call: one row, under the caller's
    error state, with no cap on its panels.
    """
    _check_tol(tol)
    if alone:
        report, catch, cap = {}, (), math.inf
    else:
        report = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}
        catch, cap = FloatingPointError, _SLICE_PANELS
    states = [None] * len(xs)
    x, left, right = np.array(xs, dtype=float), edges[:-1], edges[1:]
    k15, est, ok = _wave(integrand_of, x, left[None], right[None], report, catch)
    rows, seed = np.flatnonzero(ok), left.size
    x, k15, est = x[rows], k15[rows].ravel(), est[rows].ravel()
    counts = np.full(len(rows), seed)
    left, right = np.tile(left, len(rows)), np.tile(right, len(rows))
    while len(rows):
        # not np.cumsum, which raised a 100,001-row table's peak memory 3-5 MB
        starts = np.add.accumulate(counts) - counts
        owner = np.repeat(np.arange(len(rows)), counts)
        try:
            with np.errstate(**report):
                total = _row_sums(est, starts, counts)
                finite = np.isfinite(total)
                for r in rows[~finite].tolist():
                    states[r] = NonFiniteIntegrand(_NON_FINITE)
                done = total <= tol
                split = est >= (np.maximum.reduceat(est, starts) / _SPLIT_FACTOR)[owner]
                at = np.flatnonzero(split)  # the width floor of these panels only
                floor = 8.0 * np.finfo(float).eps * np.maximum(np.abs(left[at]), np.abs(right[at]))
                split[at] = right[at] - left[at] > floor
                more = np.bincount(owner[split], minlength=len(rows))
                evals = 15 * (2 * counts - seed)  # a split: one more panel, two panels' 15 points
                stop = finite & (done | (more == 0) | (evals + 30 * more > DEFAULT_EVAL_BUDGET))
                value = _row_sums(k15, starts[stop], counts[stop])
                for r, v, e, n, ok in zip(rows[stop].tolist(), value.tolist(), total[stop].tolist(),
                                          evals[stop].tolist(), done[stop].tolist()):
                    best = QuadratureResult(v, e, n)
                    states[r] = best if ok else ToleranceNotReached(best)
                go = finite & ~stop & (counts + more <= cap)
                cut = split & go[owner]
                mid = 0.5 * right[cut] + 0.5 * left[cut]
        except catch:
            go = np.zeros(len(rows), bool)
        if not go.any():
            break

        new_left = np.column_stack((left[cut], mid)).ravel()
        new_right = np.column_stack((mid, right[cut])).ravel()
        new_owner = np.repeat(owner[cut], 2)
        new_k15, new_est, ok = _wave(integrand_of, x[new_owner], new_left[:, None], new_right[:, None],
                                     report, catch)
        go[new_owner[~ok]] = False
        left, right, k15, est = _split_panels(cut, go[owner], (left, right, k15, est),
                                              (new_left, new_right, new_k15.ravel(), new_est.ravel()))
        rows, x, counts = rows[go], x[go], (counts + more)[go]
    return states


def _split_panels(cut, keep, old, new):
    """The panel arrays ``old`` of the rows that go on (``keep``, per panel),
    in order, each panel in ``cut`` replaced by its two halves from ``new``."""
    first = np.arange(len(cut))  # each panel's index into (old, new)
    first[cut] = len(cut) + 2 * np.arange(np.count_nonzero(cut))
    source = np.repeat(first, 1 + cut)
    source[1:] += source[1:] == source[:-1]  # a split panel's right half
    source = source[np.repeat(keep, 1 + cut)]
    return [np.concatenate(pair)[source] for pair in zip(old, new)]


def _half_line_edges(T: float) -> np.ndarray:
    # Seed panels shrinking geometrically toward t = 0, where the half-line
    # integrands concentrate their mass once the outer scale x grows.
    return np.array([0.0] + [T * 2.0 ** (-k) for k in range(45, -1, -1)])


def _tan_edges(upper: float) -> np.ndarray:
    # Seed panels shrinking geometrically toward the singular endpoint
    # pi/2 - eps; under u = tan t each panel then spans a bounded factor in
    # u, which keeps sec^2-type growth resolvable.
    return np.array([upper - upper * 2.0 ** (-k) for k in range(0, 51)] + [upper])


def _one_row(integrand, seed_edges, tol, seed_wave):
    """An ``integrate_*`` call: the outcome that ``eval_quadrature``'s block
    hands it as ``seed_wave``, or on None the block's loop on this one row
    from the edges ``seed_edges()`` builds."""
    _check_tol(tol)
    if seed_wave is None:
        def row(t):
            # checked before the GK15 sums, whose inf * 0 would warn
            vals = np.asarray(integrand(t.ravel()), dtype=float)
            if not np.isfinite(vals).all():
                raise NonFiniteIntegrand(_NON_FINITE)
            return np.broadcast_to(vals, t.size).reshape(t.shape)
        (seed_wave,) = _block_states(lambda _x: row, [0.0], seed_edges(), tol, alone=True)
    if isinstance(seed_wave, QuadratureResult):
        return seed_wave
    if isinstance(seed_wave, QuadratureError):
        raise seed_wave
    raise ValueError(f"seed_wave must be a QuadratureResult, a QuadratureError or None, got {type(seed_wave).__name__}")


def integrate_half_line(
    integrand: Callable[[np.ndarray], np.ndarray],
    params: CutoffParams | None = None,
    tol: float = DEFAULT_TOL,
    *,
    seed_wave: QuadratureResult | QuadratureError | None = None,
) -> QuadratureResult:
    """Integrate over [0, T] with T = ``params.half_line_T``.

    The integrand must be finite on [0, T] and accept a numpy array of
    abscissae.  On success ``abs_error_estimate <= tol``; if the evaluation
    budget (``DEFAULT_EVAL_BUDGET``) runs out first,
    :class:`ToleranceNotReached` carries the best
    estimate.  Results are deterministic for fixed inputs.

    ``seed_wave`` is this integral's outcome where ``eval_quadrature``'s
    block has it already: a result, which the call returns, or a
    :class:`QuadratureError`, which it raises.  The keyword exists so that
    each row of a column still makes one ``integrate_*`` call, which a
    tracer of these calls counts (see the module docstring).
    """
    params = params or CutoffParams()
    return _one_row(integrand, lambda: _half_line_edges(params.half_line_T), tol, seed_wave)


def integrate_tan_interval(
    integrand: Callable[[np.ndarray], np.ndarray],
    params: CutoffParams | None = None,
    tol: float = DEFAULT_TOL,
    *,
    seed_wave: QuadratureResult | QuadratureError | None = None,
) -> QuadratureResult:
    """Integrate over [0, pi/2 - eps] with eps = ``params.tan_margin_eps``.

    Panels are seeded geometrically toward the right endpoint, where
    sec^2-type integrands vary over many orders of magnitude.
    ``seed_wave`` is as in :func:`integrate_half_line`.
    """
    params = params or CutoffParams()
    return _one_row(integrand, lambda: _tan_edges(params.tan_interval_upper), tol, seed_wave)


def integrate_interval(
    integrand: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    tol: float = DEFAULT_TOL,
) -> QuadratureResult:
    """Integrate over an arbitrary finite interval [lower, upper].

    General-purpose helper backing the verification suites (sifting
    integrals and the like); the cutoff-specific entry points above are the
    primary interface.
    """
    if not (lower < upper and math.isfinite(upper - lower)):  # a finite span: finite bounds too
        raise ValueError(f"need finite lower < upper with a finite span, got [{lower!r}, {upper!r}]")
    return _one_row(integrand, lambda: np.linspace(lower, upper, 17), tol, None)


# -- integrands of the step-function family (see ``stepfun``) ----------------

def _density_np(z):
    a = np.exp(-np.abs(z))
    return a / (1.0 + a) ** 2


# Each factory takes x as a float, or as a column of shape (rows, 1); its
# integrand maps t to values of the shape that t and x broadcast to.  A
# seed wave passes a chunk's column of x with t of shape (1, 15 P), the
# abscissae of the P seed panels that every row shares; a refinement wave
# passes one x per panel, shape (panels, 1), with t of shape (panels, 15).

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
    tol: float = DEFAULT_TOL,
) -> list[QuadratureResult]:
    """Quadrature backend of the function ``name`` at every x in ``xs``.

    ``name`` is one of ``"f"``, ``"c"``, ``"u"``, ``"q"``, ``"rt"``,
    ``"H1"``, ``"H2"``, ``"delta"``, the CLI's names.  Each
    result's ``value`` is the function's value; its error estimate and
    evaluation count are those of the integral behind it.  The rows are
    integrated in blocks of ``_BLOCK_ROWS`` (``_block_states``), and then
    each row makes one ``integrate_*`` call, handed its block's outcome for
    it; a row's result does not depend on its block: it equals the scalar
    ``eval_*(x, params, Backend.QUADRATURE, tol)`` bit for bit.  The first
    failing row, in row order, raises its :class:`QuadratureError`; an
    unknown ``name`` raises ``ValueError``.
    """
    if name not in _QUADRATURE:
        raise ValueError(f"unknown function {name!r}; expected one of {', '.join(_QUADRATURE)}")
    on_half_line, integrand_of, finish = _QUADRATURE[name]
    params = params or CutoffParams()
    if on_half_line:
        integrate, edges = integrate_half_line, _half_line_edges(params.half_line_T)
    else:
        integrate, edges = integrate_tan_interval, _tan_edges(params.tan_interval_upper)
    results = []
    for lo in range(0, len(xs), _BLOCK_ROWS):
        block = xs[lo:lo + _BLOCK_ROWS]
        # each state is let go as its row is done: kept to the block's end,
        # the spent records are interleaved with the results and keep their
        # memory from being returned (a 100,001-row table peaked 3 MB higher)
        states = _block_states(integrand_of, block, edges, tol)[::-1]
        for x in block:
            result = integrate(integrand_of(x), params, tol, seed_wave=states.pop())
            if finish is not None:
                result = QuadratureResult(finish(result.value), result.abs_error_estimate, result.evaluations)
            results.append(result)
    return results
