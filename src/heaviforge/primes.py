"""Divisor counts, a prime indicator, and the prime-counting function built
from the step/indicator family, verified against exact combinatorial oracles.

The chain: sigma0(n) sums the zero indicator rt(sin(pi (n mod i) / i)) over
i = 1..n, so divisor terms contribute exactly 1 and the rest leak at most
e^{-U sin^2(pi/n_max)} each; fes(n) = rt(sigma0(n) - 2) flags the primes
(exactly two divisors); pi(x) accumulates fes(i) H1(x - i).
:func:`prime_chain` computes all three for n = 1..n_max, in near-linear time
at the planned scales, bit for bit equal to the scalar definitions.

Truncating sigma0's sum at i = n is exact, not an approximation: no divisor
of n exceeds n.  Do NOT extend the sum numerically past n -- sin(pi n / i)
tends to 0 as i grows, so truncated-indicator leakage would diverge.  The
sine argument is always formed from the exact integer remainder n mod i,
because sin(pi k) for integer k is not 0 in floating point.

A :class:`PrecisionPlan` chooses the indicator scale U so that worst-case
leakage summed over a whole sigma0 evaluation stays below the rounding
margin; counts are then recovered by rounding to the nearest integer within
that margin.
"""

from __future__ import annotations

import itertools
import math

from .cutoffs import CutoffParams, _Record
from .stepfun import StepKind, _h1, eval_rt, eval_step

__all__ = [
    "OutOfPlan",
    "PrecisionPlan",
    "plan_precision",
    "sigma0_analytic",
    "sigma0_oracle",
    "sigma0_counts",
    "fes",
    "pi_analytic",
    "pi_sieve",
    "pi_sieve_counts",
    "prime_chain",
]


MAX_SIEVE_X = 10**8  # pi_sieve's largest x: one byte per integer, about 100 MB
MAX_COUNT_N = 10**6  # the count sieves' largest n_max: a list of Python ints each, at most about 45 MB


class OutOfPlan(ValueError):
    """Argument outside the range the precision plan was built for."""


def _check_count(name: str, value: int, most: float = math.inf) -> None:
    """Rejects a ``value`` that is not an integer in 1..most, naming it."""
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    if value > most:
        raise ValueError(f"{name} must be <= {most}, got {value!r}")


class PrecisionPlan(_Record):
    """Indicator scale valid for all n up to ``n_max``.

    The leakage bound e^{-U sin^2(pi/n_max)} < round_margin / n_max keeps
    the summed non-divisor leakage of any sigma0(n), n <= n_max, below the
    margin.  :func:`plan_precision` guarantees it; the constructor does not
    check it, so a plan built directly may break it, as ``primes N --U u``
    does on purpose to show how an inadequate scale fails.  ``cutoffs`` is
    built once from U and takes no part in equality or hashing.
    """

    _compare = _repr = ("n_max", "indicator_scale_U", "round_margin")

    def __init__(self, n_max: int, indicator_scale_U: float, round_margin: float):
        _check_count("n_max", n_max)
        if not (0.0 < round_margin < 0.5):
            raise ValueError(f"round_margin must lie in (0, 0.5), got {round_margin!r}")
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "indicator_scale_U", indicator_scale_U)
        object.__setattr__(self, "round_margin", round_margin)
        object.__setattr__(self, "cutoffs", CutoffParams(indicator_scale_U=indicator_scale_U))


def plan_precision(n_max: int, round_margin: float = 0.25) -> PrecisionPlan:
    """Smallest power-of-two U satisfying :class:`PrecisionPlan`'s leakage bound.

    Powers of two keep plans reproducible across platforms.  Admissible
    scales start at 2: a scale of 1 would put the derived tangent margin at
    exactly pi/4, outside the open cutoff range.  For n_max = 1 there are no
    non-divisor terms, so that smallest admissible scale already works.
    """
    # validate before the search: a round_margin <= 0 would never end it
    plan = PrecisionPlan(n_max=n_max, indicator_scale_U=2.0, round_margin=round_margin)
    U = plan.indicator_scale_U
    if n_max > 1:
        s = math.sin(math.pi / n_max) ** 2
        bound = round_margin / n_max
        while math.exp(-U * s) >= bound:
            U *= 2.0
    return PrecisionPlan(plan.n_max, U, plan.round_margin)


def _check_n(n: int, plan: PrecisionPlan) -> None:
    if not (isinstance(n, int) and 1 <= n <= plan.n_max):
        raise OutOfPlan(f"n={n!r} must be an integer in the plan range [1, {plan.n_max}]")


def sigma0_analytic(n: int, plan: PrecisionPlan) -> float:
    """Indicator-sum divisor count; within ``plan.round_margin`` of the truth."""
    _check_n(n, plan)
    params = plan.cutoffs
    total = 0.0
    for i in range(1, n + 1):
        r = n % i  # exact integer remainder: divisor terms are rt(0) = 1 exactly
        total += eval_rt(math.sin(math.pi * r / i), params)
    return total


def sigma0_oracle(n: int) -> int:
    """Exact divisor count by trial division."""
    _check_count("n", n)
    count = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            count += 1 if i * i == n else 2
        i += 1
    return count


def sigma0_counts(n_max: int) -> list[int]:
    """Exact divisor counts sigma0(n) for n = 1..n_max, entry n - 1 for n, from one sieve.

    n_max is capped at MAX_COUNT_N = 10^6: the sieve is a list of Python
    ints, about 15 MB at the cap, filled by an interpreted loop.  A larger
    n_max is rejected before anything is allocated.
    """
    _check_count("n_max", n_max, MAX_COUNT_N)
    counts = [0] * (n_max + 1)
    # sigma0_oracle's rule: a divisor i <= sqrt(n) pairs with n // i >= i, so
    # each such i counts 2, and 1 where the two coincide, at n = i * i
    for i in range(1, math.isqrt(n_max) + 1):
        counts[i * i] -= 1
        for n in range(i * i, n_max + 1, i):
            counts[n] += 2
    return counts[1:]


def fes(n: int, plan: PrecisionPlan) -> float:
    """Prime indicator rt(sigma0(n) - 2): near 1 iff n is prime.

    n = 1 has a single divisor, so fes(1) = rt(-1) ~ e^{-U}: 1 is classified
    composite, matching the two-divisor criterion.
    """
    _check_n(n, plan)
    return eval_rt(sigma0_analytic(n, plan) - 2.0, plan.cutoffs)


def _gated_count(flags, gates, total: float = 0.0) -> float:
    """``total`` plus the sum of flag * gate, added left to right.

    The order is part of the result: :func:`prime_chain`, which sums its
    columns without calling this, reproduces :func:`pi_analytic` bit for bit
    only because each n adds the same terms in this same order.  (``sum``
    compensates from Python 3.12 on, which would change the last bits.)
    """
    for flag, gate in zip(flags, gates):
        total += flag * gate
    return total


def pi_analytic(x: float, plan: PrecisionPlan) -> float:
    """Prime count up to x as sum of fes(i) H1(x - i); rounds to the sieve value.

    The sum stops at min(floor(x) + 1, n_max): H1(x - i) vanishes for all
    later i, so the cap loses nothing while keeping every fes argument
    inside the plan.
    """
    if not (0.0 <= x <= plan.n_max):
        raise OutOfPlan(f"x={x!r} outside plan range [0, {plan.n_max}]")
    params = plan.cutoffs
    terms = range(1, min(int(math.floor(x)) + 1, plan.n_max) + 1)
    flags = (fes(i, plan) for i in terms)
    return _gated_count(flags, (eval_step(StepKind.H1, x - i, params) for i in terms))


def _live_rate(U: float) -> float:
    """The share of i within which a residue r or i - r of i has a term of 2^-60 or more."""
    live = 60.0 * math.log(2.0) / U
    return math.asin(math.sqrt(live)) / math.pi * (1.0 + 1e-6) if live < 1.0 else 0.5


def prime_chain(plan: PrecisionPlan) -> tuple[list[float], list[float], list[float]]:
    """``(sigma0, fes, pi)`` for n = 1..plan.n_max, entry n - 1 for n.

    Equal bit for bit to ``sigma0_analytic(n)``, ``fes(n)`` and
    ``pi_analytic(float(n))``, but it computes only the terms that can
    change a bit:

    - sigma0: for each i in ascending order, the term of residue r is
      computed once and added to every n = i + r, 2i + r, ... <= n_max; the
      term of r = 0 is rt(0), the literal 1.0.  The terms fall from r = 1 up
      to i // 2 and from r = i - 1 down to i // 2 + 1, and reach 2^-60 only
      where U sin^2(pi r / i) <= 60 ln 2: within cap = int(i * _live_rate(U))
      of 0 or i, the rate's margin of 1e-6 far above the sine's rounding
      (about 1e-12 relative).  So each i sweeps those two directions up to
      its cap, stopping a sweep at its first term below 2^-60, and an i of
      cap 0 computes no term.  Each n receives the scalar loop's terms in
      the scalar loop's order, minus terms too small to change its total.
    - pi: H1 is computed once per integer offset k = n - i (float(n) - i is
      exactly float(n - i) at these sizes).  From some offset K on every
      gate is exactly 1.0, so the terms i <= n - K add up to a prefix sum
      of the flags (``itertools.accumulate`` adds in sequence, like the
      scalar loop).  The at most K + 1 other terms follow as columns: column
      m adds flag n - K + m (0-based) times the one gate H1(K - 1 - m) to
      every n at once, so each n adds its terms in :func:`_gated_count`'s order.
    """
    n_max, params = plan.n_max, plan.cutoffs
    U = params.indicator_scale_U
    # rt(x) is eval_rt's exp(-U * x * x), its operations in its order, with
    # the lookups of exp, sin and pi and the negation of U made once
    exp, sin, pi_, neg_U = math.exp, math.sin, math.pi, -U
    rate = _live_rate(U)
    totals = [0.0] * (n_max + 1)  # totals[n] = sigma0(n); entry 0 unused
    # Every total starts at exactly 1.0, from the i = 1 term rt(0), and the
    # terms are non-negative, so a term below 2^-53, half an ulp of 1.0,
    # rounds away when it is added.  The terms fall along each sweep, up to
    # rounding of about 1e-14 relative, so once one lies below 2^-60 it and
    # every later term of its sweep lie below 2^-53: stopping changes no bit.
    for i in range(1, n_max + 1):
        for n in range(i, n_max + 1, i):
            totals[n] += 1.0
        if cap := int(i * rate):
            half = i // 2
            for sweep in (range(1, min(cap, half, n_max - i) + 1),
                          range(min(i - 1, n_max - i), max(half, i - 1 - cap), -1)):
                for r in sweep:
                    s = sin(pi_ * r / i)
                    term = exp(neg_U * s * s)
                    if term < 2.0**-60:
                        break
                    for n in range(i + r, n_max + 1, i):
                        totals[n] += term
    sigma0 = totals[1:]
    flags = [exp(neg_U * d * d) for d in [s - 2.0 for s in sigma0]]  # rt(sigma0 - 2)
    # gates[j] = H1(n_max - 1 - j), offsets n_max - 1 down to -1
    gates = [_h1(float(k), params) for k in range(n_max - 1, -2, -1)]
    # every gate of offset >= K is exactly 1.0: K is read off the gates
    K = 1 + max((n_max - 1 - j for j, gate in enumerate(gates) if gate != 1.0), default=-1)
    # pi(n) starts from the sum of flags 1..n - K, whose gates are all 1.0;
    # padded[n + m] is flag n - K + m, 0.0 below flag 1 and past the last
    # (pi_analytic's cap)
    pi = [0.0] * K + list(itertools.accumulate(flags[: n_max - K]))
    padded = [0.0] * K + flags + [0.0]
    for m, gate in enumerate(gates[n_max - K :]):  # H1(K - 1) down to H1(-1)
        pi = [total + flag * gate for total, flag in zip(pi, padded[1 + m : n_max + 1 + m])]
    return sigma0, flags, pi


def _sieve(limit: int) -> bytearray:
    """Primality flags for 0..limit by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = bytes(min(2, limit + 1))  # 0 and 1 are not prime
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return flags


def pi_sieve(x: float) -> int:
    """Exact count of primes <= x by the sieve of Eratosthenes.

    x is capped at MAX_SIEVE_X = 10^8: the sieve takes one byte per integer
    up to x, so the cap bounds it at about 100 MB.  A larger x is rejected
    before anything is allocated.
    """
    if not x >= 0.0:  # NaN too
        raise ValueError(f"x must be >= 0, got {x!r}")
    if x == math.inf:
        raise ValueError(f"x must be finite, got {x!r}")
    if x > MAX_SIEVE_X:
        raise ValueError(f"x must be <= {MAX_SIEVE_X}, got {x!r}")
    return sum(_sieve(int(math.floor(x))))


def pi_sieve_counts(n_max: int) -> list[int]:
    """Exact prime counts pi(n) for n = 1..n_max, entry n - 1 for n, from one sieve.

    n_max is capped at MAX_COUNT_N = 10^6: the result is a list of Python
    ints, about 45 MB at the cap.  A larger n_max is rejected before
    anything is allocated.
    """
    _check_count("n_max", n_max, MAX_COUNT_N)
    return list(itertools.accumulate(_sieve(n_max)))[1:]
