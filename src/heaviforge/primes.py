"""Divisor counts, a prime indicator, and the prime-counting function built
from the step/indicator family, verified against exact combinatorial oracles.

The chain: sigma0(n) sums the zero indicator rt(sin(pi (n mod i) / i)) over
i = 1..n, so divisor terms contribute exactly 1 and the rest leak at most
e^{-U sin^2(pi/n_max)} each; fes(n) = rt(sigma0(n) - 2) flags the primes
(exactly two divisors); pi(x) accumulates fes(i) H1(x - i).
:func:`prime_chain` computes all three for n = 1..n_max in near-linear time,
bit for bit equal to the scalar definitions.

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

import dataclasses
import itertools
import math
from dataclasses import dataclass, field

from .cutoffs import CutoffParams
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


class OutOfPlan(ValueError):
    """Argument outside the range the precision plan was built for."""


@dataclass(frozen=True)
class PrecisionPlan:
    """Indicator scale valid for all n up to ``n_max``.

    Invariant: e^{-U sin^2(pi/n_max)} < round_margin / n_max, so the summed
    non-divisor leakage of any sigma0(n), n <= n_max, stays below the margin.
    ``cutoffs`` is built once from U and takes no part in equality or hashing.
    """

    n_max: int
    indicator_scale_U: float
    round_margin: float
    cutoffs: CutoffParams = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max!r}")
        if not (0.0 < self.round_margin < 0.5):
            raise ValueError(f"round_margin must lie in (0, 0.5), got {self.round_margin!r}")
        object.__setattr__(self, "cutoffs", CutoffParams(indicator_scale_U=self.indicator_scale_U))


def plan_precision(n_max: int, round_margin: float = 0.25) -> PrecisionPlan:
    """Smallest power-of-two U satisfying the plan invariant.

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
    return dataclasses.replace(plan, indicator_scale_U=U)


def _check_n(n: int, plan: PrecisionPlan) -> None:
    if not 1 <= n <= plan.n_max:
        raise OutOfPlan(f"n={n!r} outside plan range [1, {plan.n_max}]")


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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    count = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            count += 1 if i * i == n else 2
        i += 1
    return count


def sigma0_counts(n_max: int) -> list[int]:
    """Exact divisor counts sigma0(n) for n = 1..n_max, entry n - 1 for n, from one sieve."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
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

    The order is part of the result: :func:`prime_chain` reproduces
    :func:`pi_analytic` bit for bit only because both add the same terms in
    the same order.  (``sum`` compensates from Python 3.12 on, which would
    change the last bits.)
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


def prime_chain(plan: PrecisionPlan) -> tuple[list[float], list[float], list[float]]:
    """``(sigma0, fes, pi)`` for n = 1..plan.n_max, entry n - 1 for n.

    Equal bit for bit to ``sigma0_analytic(n)``, ``fes(n)`` and
    ``pi_analytic(float(n))``, but it skips the divisor terms that are
    exactly 0.0 and multiplies no flag by a gate that is exactly 1.0:

    - sigma0: for each i in ascending order, the term of residue r is
      computed once and added to every n = i + r, 2i + r, ... <= n_max.
      Each n thus receives the scalar loop's terms in the scalar loop's
      order, minus the terms that underflow to +0.0.
    - pi: H1 is computed once per integer offset k = n - i (float(n) - i is
      exactly float(n - i) at these sizes).  From some offset K on every
      gate is exactly 1.0, so the terms i <= n - K add up to a prefix sum
      of the flags (``itertools.accumulate`` adds in sequence, like the
      scalar loop); the at most K + 1 remaining terms follow, left to right.
    """
    n_max, params = plan.n_max, plan.cutoffs
    # Every total starts at exactly 1.0, from the i = 1 term rt(0), and the
    # terms are non-negative, so each total stays >= 1 and a later term below
    # 2^-53, half an ulp of 1.0, rounds away when it is added.  sin(pi m / i)
    # >= 2 m / i for m = min(r, i - r) <= i / 2, so once 4 U m^2 >= 40 i^2
    # the exponent -U sin^2 lies below -40 and the term below e^-40 ~ 4.2e-18,
    # 26 times under 2^-53, which leaves room for the rounding of sin and of
    # the products.  The residues past this band therefore change no bit.
    U = params.indicator_scale_U
    band = math.sqrt(10.0 / U)
    # rt(x) is eval_rt's exp(-U * x * x), its operations in its order, with
    # the lookups of exp, sin and pi and the negation of U made once
    exp, sin, pi_, neg_U = math.exp, math.sin, math.pi, -U
    totals = [0.0] * (n_max + 1)  # totals[n] = sigma0(n); entry 0 unused
    for i in range(1, n_max + 1):
        m = min(i // 2, math.ceil(i * band))  # largest m whose term may change a total
        high = range(max(m + 1, i - m), i)  # residues r = i - m' with m' <= m
        for r in itertools.chain(range(m + 1), high):
            if i + r > n_max:
                break
            s = sin(pi_ * r / i)
            term = exp(neg_U * s * s)
            for n in range(i + r, n_max + 1, i):
                totals[n] += term
    sigma0 = totals[1:]
    flags = [exp(neg_U * d * d) for d in [s - 2.0 for s in sigma0]]  # rt(sigma0 - 2)
    # gates[j] = H1(n_max - 1 - j), offsets n_max - 1 down to -1; pi(n) pairs
    # flag i with gate n - i from j = n_max - n on, and min(n + 1, n_max)
    # terms in all, the cap of pi_analytic
    gates = [_h1(float(k), U) for k in range(n_max - 1, -2, -1)]
    # every gate of offset >= K is exactly 1.0: K is read off the gates
    K = 1 + max((n_max - 1 - j for j, gate in enumerate(gates) if gate != 1.0), default=-1)
    prefix = [0.0, *itertools.accumulate(flags)]  # prefix[h] = flags[0] + ... + flags[h - 1]
    pi = []
    for n in range(1, n_max + 1):
        h = max(n - K, 0)  # flags 1..h meet gates of offset >= K, all exactly 1.0
        # the live terms only: flags h + 1..min(n + 1, n_max), at most K + 1
        pi.append(_gated_count(flags[h : n + 1], gates[n_max - n + h :], prefix[h]))
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
    """Exact count of primes <= x by the sieve of Eratosthenes."""
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x!r}")
    return sum(_sieve(int(math.floor(x))))


def pi_sieve_counts(n_max: int) -> list[int]:
    """Exact prime counts pi(n) for n = 1..n_max, entry n - 1 for n, from one sieve."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    return list(itertools.accumulate(_sieve(n_max)))[1:]
