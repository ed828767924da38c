import contextlib
import hashlib
import io
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heaviforge import cli
from heaviforge.primes import (
    MAX_COUNT_N,
    MAX_SIEVE_X,
    OutOfPlan,
    PrecisionPlan,
    _gated_count,
    _live_rate,
    fes,
    pi_analytic,
    pi_sieve,
    pi_sieve_counts,
    plan_precision,
    prime_chain,
    sigma0_analytic,
    sigma0_counts,
    sigma0_oracle,
)
from heaviforge.stepfun import StepKind, eval_step, snap


def sieve_flags(limit):
    # independent primality oracle for the tests
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(math.isqrt(limit)) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return flags


def divisors(n):
    return [i for i in range(1, n + 1) if n % i == 0]


PLAN200 = plan_precision(200)


# ---------------------------------------------------------------------------
# precision planning

@settings(max_examples=200)
@given(n_max=st.integers(1, 10_000), margin=st.floats(1e-6, 0.5, exclude_max=True))
@example(n_max=10, margin=0.25)
@example(n_max=200, margin=0.25)
@example(n_max=37, margin=0.1)
@example(n_max=2, margin=0.4)
@example(n_max=10_000, margin=1e-6)
def test_plan_is_smallest_admissible_power_of_two(n_max, margin):
    plan = plan_precision(n_max, margin)
    if n_max == 1:
        # no non-divisor terms, so nothing can leak: the smallest admissible
        # scale serves
        assert plan.indicator_scale_U == 2.0
        return
    # brute-force oracle: scan admissible powers of two (>= 2, so the
    # derived tangent margin stays inside its open range) against the
    # leakage inequality
    s = math.sin(math.pi / n_max) ** 2
    u = 2.0
    while math.exp(-u * s) >= margin / n_max:
        u *= 2.0
    assert plan.indicator_scale_U == u
    assert math.exp(-plan.indicator_scale_U * s) < margin / n_max
    assert math.exp(-(plan.indicator_scale_U / 2.0) * s) >= margin / n_max


def test_plan_examples():
    assert plan_precision(10, 0.25).indicator_scale_U == 64.0  # 128 suffices; 64 already does
    assert plan_precision(200, 0.25).indicator_scale_U == 32768.0
    assert plan_precision(1, 0.25).indicator_scale_U == 2.0  # no non-divisor terms exist


def test_plan_carries_its_cutoffs():
    plan = plan_precision(50)
    assert plan.cutoffs.indicator_scale_U == plan.indicator_scale_U
    override = PrecisionPlan(plan.n_max, 2.0, plan.round_margin)
    assert override.cutoffs.indicator_scale_U == 2.0


def test_plan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        plan_precision(0)
    with pytest.raises(ValueError):
        plan_precision(10, 0.5)
    with pytest.raises(ValueError):
        plan_precision(10, 0.0)
    with pytest.raises(ValueError):
        PrecisionPlan(n_max=5, indicator_scale_U=-1.0, round_margin=0.25)


@pytest.mark.parametrize("build", [
    plan_precision,
    lambda n_max: PrecisionPlan(n_max, 64.0, 0.25),
    sigma0_counts,
    pi_sieve_counts,
])
@pytest.mark.parametrize("n_max", [2.5, 10.0, "10"])
def test_a_non_integer_n_max_is_rejected_by_name(build, n_max):
    with pytest.raises(ValueError, match=f"n_max must be an integer, got {n_max!r}"):
        build(n_max)


# ---------------------------------------------------------------------------
# exact oracles

@pytest.mark.parametrize("n,count", [(1, 1), (6, 4), (7, 2), (12, 6), (36, 9), (97, 2)])
def test_sigma0_oracle(n, count):
    assert sigma0_oracle(n) == count
    assert len(divisors(n)) == count


@pytest.mark.parametrize("x,count", [(2, 1), (10, 4), (30, 10), (100, 25), (200, 46), (0.5, 0), (1, 0)])
def test_pi_sieve(x, count):
    assert pi_sieve(x) == count
    assert sum(sieve_flags(200)[: int(x) + 1] if x >= 1 else []) == count


@pytest.mark.parametrize("oracle,arg,message", [
    (sigma0_oracle, 0, "n must be >= 1, got 0"),
    (sigma0_oracle, 2.5, "n must be an integer, got 2.5"),
    (pi_sieve, -1.0, "x must be >= 0, got -1.0"),
    (pi_sieve, math.nan, "x must be >= 0, got nan"),
    (pi_sieve, math.inf, "x must be finite, got inf"),
    (pi_sieve, 1e12, r"x must be <= 100000000, got 1000000000000\.0"),
    (pi_sieve, 1e300, r"x must be <= 100000000, got 1e\+300"),
    (pi_sieve, MAX_SIEVE_X + 0.5, r"x must be <= 100000000, got 100000000\.5"),
])
def test_oracles_reject_arguments_outside_their_domain(oracle, arg, message):
    with pytest.raises(ValueError, match=message):
        oracle(arg)


def test_pi_sieve_cap_is_the_one_its_docstring_states():
    assert MAX_SIEVE_X == 10**8
    assert "MAX_SIEVE_X = 10^8" in pi_sieve.__doc__


@pytest.mark.parametrize("counts", [sigma0_counts, pi_sieve_counts])
@pytest.mark.parametrize("n_max", [MAX_COUNT_N + 1, MAX_SIEVE_X + 1, 10**12])
def test_sieve_counts_reject_n_max_above_the_cap_by_name(counts, n_max):
    # rejected before the sieve is allocated: 10**12 entries would not fit
    assert MAX_COUNT_N == 10**6
    assert "MAX_COUNT_N = 10^6" in counts.__doc__
    with pytest.raises(ValueError, match=f"n_max must be <= 1000000, got {n_max}$"):
        counts(n_max)


def test_pi_sieve_counts_primes_at_noninteger_points():
    assert pi_sieve(2.5) == 1
    assert pi_sieve(1.9999) == 0


@pytest.mark.parametrize("n_max", [1, 2, 3, 100])
def test_pi_sieve_counts_is_pi_sieve_at_every_n(n_max):
    assert pi_sieve_counts(n_max) == [pi_sieve(float(n)) for n in range(1, n_max + 1)]


def test_pi_sieve_counts_rejects_an_empty_range():
    with pytest.raises(ValueError):
        pi_sieve_counts(0)


@pytest.mark.parametrize("n_max", [1, 2, 3, 360, 5040])
def test_sigma0_counts_is_sigma0_oracle_at_every_n(n_max):
    assert sigma0_counts(n_max) == [sigma0_oracle(n) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("n_max", [0, -1])
def test_sigma0_counts_rejects_an_empty_range(n_max):
    with pytest.raises(ValueError):
        sigma0_counts(n_max)


# ---------------------------------------------------------------------------
# the analytic chain against the oracles

def test_sigma0_analytic_rounds_to_oracle_everywhere():
    for n in range(1, 201):
        val = sigma0_analytic(n, PLAN200)
        assert abs(val - sigma0_oracle(n)) < PLAN200.round_margin
        assert round(val) == sigma0_oracle(n)


def test_sigma0_divisor_terms_are_exact_ones():
    # a pure prime power has no near-miss remainders; every unit of the sum
    # beyond the leakage comes from an exact rt(0) = 1 term
    plan = plan_precision(64)
    assert sigma0_analytic(64, plan) == pytest.approx(7.0, abs=plan.round_margin)


@pytest.mark.parametrize("n,expected", [(5, 1.0), (4, 0.0), (1, 0.0), (2, 1.0), (199, 1.0), (200, 0.0)])
def test_fes_examples(n, expected):
    assert snap(fes(n, PLAN200), PLAN200.round_margin) == expected


def test_fes_flags_exactly_the_primes():
    flags = sieve_flags(200)
    for n in range(1, 201):
        got = snap(fes(n, PLAN200), PLAN200.round_margin)
        assert got == (1.0 if flags[n] else 0.0), n


def test_pi_analytic_examples():
    assert snap(pi_analytic(10.0, PLAN200), PLAN200.round_margin) == 4.0
    assert snap(pi_analytic(1.0, PLAN200), PLAN200.round_margin) == 0.0
    assert snap(pi_analytic(100.0, PLAN200), PLAN200.round_margin) == 25.0


def test_pi_analytic_tracks_sieve_across_half_integers():
    x = 1.0
    while x <= 60.0:
        assert snap(pi_analytic(x, PLAN200), PLAN200.round_margin) == pi_sieve(x), x
        x += 0.5


CHAIN_PLANS = [plan_precision(m) for m in (1, 2, 3, 60, 200)] + [
    # the CLI's --U override: the band of H1 gates below exactly 1.0 is widest
    PrecisionPlan(PLAN200.n_max, U, PLAN200.round_margin) for U in (2.0, 4.0)
]


@pytest.mark.parametrize("plan", CHAIN_PLANS, ids=lambda p: f"n{p.n_max}-U{p.indicator_scale_U:g}")
def test_prime_chain_equals_the_scalar_definitions_bit_for_bit(plan):
    sigma0, flags, pi = prime_chain(plan)
    assert len(sigma0) == len(flags) == len(pi) == plan.n_max
    for n in range(1, plan.n_max + 1):
        expected = (sigma0_analytic(n, plan), fes(n, plan), pi_analytic(float(n), plan))
        assert (sigma0[n - 1], flags[n - 1], pi[n - 1]) == expected, n


@settings(max_examples=40)
@given(n_max=st.integers(1, 150), U=st.floats(1.0, 2.0**40, exclude_min=True))
@example(n_max=150, U=math.nextafter(1.0, 2.0))  # the widest band of H1 gates below 1.0
@example(n_max=150, U=60 * math.log(2))  # the last scale at which no divisor term is skipped
@example(n_max=150, U=math.nextafter(60 * math.log(2), math.inf))  # the first that skips one
@example(n_max=150, U=800.0)  # mid-range scales: each i skips some residues, not all
@example(n_max=150, U=801.0)
@example(n_max=150, U=2.0**24)
@example(n_max=150, U=94825.2190254341)  # the last scale at which i = 150 has a residue cap of 1
@example(n_max=150, U=94825.21902543411)  # the first at which every i <= 150 has cap 0
@example(n_max=150, U=2.0**40)
def test_prime_chain_is_the_scalar_chain_for_any_scale(n_max, U):
    plan = PrecisionPlan(n_max=n_max, indicator_scale_U=U, round_margin=0.25)
    sigma0, flags, pi = prime_chain(plan)
    for n in range(1, n_max + 1):
        assert sigma0[n - 1] == sigma0_analytic(n, plan), n
        assert flags[n - 1] == fes(n, plan), n
        terms = range(1, min(n + 1, n_max) + 1)
        gates = [eval_step(StepKind.H1, float(n - i), plan.cutoffs) for i in terms]
        assert pi[n - 1] == _gated_count(flags[: len(terms)], gates), n


@settings(max_examples=30)
@given(U=st.floats(0.0, 40.0, exclude_min=True).map(lambda e: 2.0**e))  # log-uniform on (1, 2^40]
@example(U=60 * math.log(2))  # the last scale at which every sweep is full
@example(U=math.nextafter(60 * math.log(2), math.inf))
# scales at which U sin^2(pi r / i) is 60 ln 2 up to rounding: without the
# rate's margin, the residue just past the cap computes a term of 2^-60 here
@example(U=106.11137007590125)  # i = 274, 548
@example(U=4464.746368635619)  # i = 65
def test_every_residue_past_the_cap_computes_a_term_below_2_to_the_minus_60(U):
    rate = _live_rate(U)
    for i in range(1, 10_001):
        cap = int(i * rate)
        # the residue just past the cap on each side of i // 2, where there is one
        for r, exists in ((cap + 1, cap + 1 <= i // 2), (i - cap - 1, i - cap - 1 > i // 2)):
            if not exists:
                continue
            s = math.sin(math.pi * r / i)  # the chain's term, its operations in its order
            assert math.exp(-U * s * s) < 2.0**-60, (i, r, cap)


def chain_digest(plan):
    # sha256 over the little-endian float bits of sigma0, then fes, then pi
    digest = hashlib.sha256()
    for column in prime_chain(plan):
        digest.update(struct.pack("<%dd" % len(column), *column))
    return digest.hexdigest()


# digests of the chain at the sizes where its offset bookkeeping matters,
# taken from the code before the pi step was bounded to its live terms
CHAIN_DIGESTS = {
    (940, None): "cb90f567454a41f0606d772b4a9dda3dd1ad51a2f4d94e18694678cd588df4ae",
    (2000, None): "19decf72f051522afd3b12de43c6f1a5f01706b99eefce1ab490b90532892885",
    (10_000, None): "6b831e37207d48e0e36fe20cdb287b9c1b60984e6b1e1aec23e35909cabb9ab4",
    (1000, 2.0): "fa4e3489fc9d0d5e3012b25425115a6eb15324ba806b3fbc85678b7a95756b9b",
    (1000, 801.0): "39e57f2c5cf464ec9909a03c8ba7570af06f19ab7703ece7396dea9f5090148c",
    # either side of U = 60 ln 2, where exp(-U) passes 2^-60 and the chain
    # starts to skip divisor terms; taken from the code before the residue
    # sweeps stopped at their first term below 2^-60
    (1000, 60 * math.log(2)): "5476ac3b9dfb73de105dd4c23c1224f3ce0cd98759e51d5dc482bbc0081bb3bb",
    (1000, math.nextafter(60 * math.log(2), math.inf)):
        "b8cee7731dbda8e8a0e0deb2f2e0dfe63d571cad344705a9bf4d2388ca3803fc",
}


@pytest.mark.parametrize("n_max,U", CHAIN_DIGESTS, ids=str)
def test_prime_chain_bits_are_pinned_at_large_n(n_max, U):
    plan = plan_precision(n_max)
    if U is not None:
        plan = PrecisionPlan(plan.n_max, U, plan.round_margin)
    assert chain_digest(plan) == CHAIN_DIGESTS[n_max, U]


def test_primes_10000_stdout_is_pinned():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["primes", "10000"])
    assert code == 0
    assert err.getvalue() == "primes n_max=10000 U=134217728 mismatches=0 of 10000\n"
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "1d6311090dacd27e6b1a2d62cad3810e19baa5c872f9e57557eeb28ca1a39f01"


def test_out_of_plan_errors():
    plan = plan_precision(50)
    with pytest.raises(OutOfPlan):
        sigma0_analytic(51, plan)
    with pytest.raises(OutOfPlan):
        sigma0_analytic(0, plan)
    with pytest.raises(OutOfPlan):
        sigma0_analytic(2.5, plan)
    with pytest.raises(OutOfPlan):
        fes(2.5, plan)
    with pytest.raises(OutOfPlan):
        fes(51, plan)
    with pytest.raises(OutOfPlan):
        pi_analytic(50.5, plan)
    with pytest.raises(OutOfPlan):
        pi_analytic(-0.1, plan)


def test_truncating_the_divisor_sum_is_lossless():
    # symbolic fact behind the truncation at i = n: nothing past n divides n,
    # so the exact indicator terms of the tail are all zero.  (Numerically
    # extending the sum would instead diverge, since sin(pi n / i) -> 0.)
    for n in range(1, 80):
        assert max(divisors(n)) == n
        assert all(n % i != 0 for i in range(n + 1, 2 * n + 1))
