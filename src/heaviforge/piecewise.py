"""Compose a finite piecewise definition into a single smooth evaluator.

A spec lists breakpoints x1 < ... < xn and n+1 branch functions t0 ... tn;
branch ti owns the left-closed interval [xi, x(i+1)).  The composed evaluator
replaces branch dispatch with step-function gating:

    t(x) = (1 - H1(x - x1)) t0(x)
         + sum over i of I(x, xi, x(i+1)) ti(x)
         + H1(x - xn) tn(x)

where I(x, a, b) = H1(x - a) - H1(x - b) is the unit impulse on [a, b).
The gates telescope to exactly 1 (a partition of unity), and away from the
transition region around each breakpoint the composition matches branch
dispatch; near a breakpoint it blends smoothly over a width set by the
indicator scale U.  Branch functions may be arbitrary callables; no attempt
is made to verify that they are themselves closed-form.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Iterable

from .cutoffs import CutoffParams, _Record
from .stepfun import DEFAULT_CUTOFFS, _h1

__all__ = [
    "InvalidInterval",
    "InvalidSpec",
    "PiecewiseSpec",
    "default_cutoffs",
    "transition_width",
    "impulse",
    "compose",
    "dispatch",
    "partition_terms",
]


class InvalidInterval(ValueError):
    """impulse() requires a < b."""


class InvalidSpec(ValueError):
    """Breakpoints not finite, not strictly increasing or, for
    :func:`default_cutoffs`, too close together; or branch count mismatch."""


class PiecewiseSpec(_Record):
    """Finite breakpoints x1 < ... < xn plus the n+1 branch functions."""

    _compare, _repr = ("breakpoints", "branches"), ("breakpoints",)

    def __init__(self, breakpoints: Iterable[float], branches: Iterable[Callable[[float], float]]):
        bps = tuple(float(b) for b in breakpoints)
        brs = tuple(branches)
        if len(bps) < 1:
            raise InvalidSpec("need at least one breakpoint")
        if not all(map(math.isfinite, bps)):  # NaN would pass the order check below
            raise InvalidSpec(f"breakpoints must be finite: {bps}")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise InvalidSpec(f"breakpoints must be strictly increasing: {bps}")
        if len(brs) != len(bps) + 1:
            raise InvalidSpec(
                f"branch count must be breakpoint count + 1 "
                f"({len(brs)} branches for {len(bps)} breakpoints)"
            )
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "branches", brs)


def default_cutoffs(spec: PiecewiseSpec) -> CutoffParams:
    """Transition sharpness scaled to the spec: U = max(50, 50 / min gap).

    With a fixed U, impulses blur once breakpoints sit closer together than
    the logistic transition width; scaling keeps them resolved.  A gap
    below 50 / the largest float, about 2.8e-307, would make U infinite:
    :class:`InvalidSpec` names its two breakpoints.
    """
    bps = spec.breakpoints
    if len(bps) < 2:
        scale = 50.0
    else:
        min_gap = min(b2 - b1 for b1, b2 in zip(bps, bps[1:]))
        scale = max(50.0, 50.0 / min_gap)
        if math.isinf(scale):
            b1, b2 = next((b1, b2) for b1, b2 in zip(bps, bps[1:]) if b2 - b1 == min_gap)
            raise InvalidSpec(f"breakpoints {b1!r} and {b2!r} are too close for a finite indicator scale")
    return CutoffParams(indicator_scale_U=scale)


def transition_width(params: CutoffParams) -> float:
    """Half-width of the blending region around a breakpoint.

    Beyond this distance both step components are within ~1e-9 of their
    discrete values.  The Gaussian indicator term decays as e^{-U d^2} and
    the logistic as e^{-U d}; for U above log(2e9), about 21.4, the Gaussian
    is the slower and sets the width, hence the square root.
    """
    reach = math.log(2e9) / params.indicator_scale_U
    return max(math.sqrt(reach), reach)


def impulse(x: float, a: float, b: float, params: CutoffParams | None = None) -> float:
    """Unit impulse I(x, a, b) = H1(x - a) - H1(x - b).

    Snaps (at the caller's tolerance) to 1 on [a, b) and 0 outside.
    """
    if not a < b:
        raise InvalidInterval(f"impulse needs a < b, got a={a!r}, b={b!r}")
    params = params or DEFAULT_CUTOFFS
    return _h1(x - a, params) - _h1(x - b, params)


def compose(
    spec: PiecewiseSpec,
    params: CutoffParams | None = None,
) -> Callable[[float], float]:
    """Build the gated evaluator for ``spec``.

    With ``params`` omitted the indicator scale comes from
    :func:`default_cutoffs`.  The returned callable is immutable state plus
    pure functions, hence safe to share across threads (provided the branch
    callables are themselves reentrant).  For a single breakpoint the sum
    has no impulse terms at all and reduces to the two outer gates.

    The evaluator folds the gates left to right: one call of the H1 kernel
    ``_h1`` per breakpoint, keeping only the previous gate.  Its terms are
    those of :func:`partition_terms`, each times its branch, added in that
    order; it builds no list of them, which is most of its speed.
    """
    params = params or default_cutoffs(spec)
    h1 = _h1  # a closure cell, read faster per gate than a global
    (bp0, *inner_bps), (branch0, *inner_branches, last) = spec.breakpoints, spec.branches
    inner = tuple(zip(inner_bps, inner_branches))

    def evaluator(x: float) -> float:
        prev = h1(x - bp0, params)
        total = (1.0 - prev) * branch0(x)
        for bp, branch in inner:
            h = h1(x - bp, params)
            total += (prev - h) * branch(x)
            prev = h
        total += prev * last(x)
        return total

    return evaluator


def dispatch(spec: PiecewiseSpec, x: float) -> float:
    """Exact branch dispatch (left-closed / right-open); the oracle compose
    is checked against."""
    i = bisect_right(spec.breakpoints, x)
    return spec.branches[i](x)


def partition_terms(
    spec: PiecewiseSpec,
    x: float,
    params: CutoffParams | None = None,
) -> list[float]:
    """The n+1 gate values [1 - H1(x-x1), I(x, xi, x(i+1))..., H1(x-xn)].

    They telescope to 1 exactly; away from breakpoints exactly one of them
    snaps to 1 and the rest to 0.
    """
    params = params or default_cutoffs(spec)
    h = [_h1(x - bp, params) for bp in spec.breakpoints]
    n = len(h)
    terms = [1.0 - h[0]]
    terms += [h[i - 1] - h[i] for i in range(1, n)]
    terms.append(h[n - 1])
    return terms
