"""Accuracy of the closed forms, measured against a 400-digit ``decimal`` oracle.

Each ``FAMILY`` member is held to a bound in ulp of the correctly rounded
value, widened only by the condition number of the formula where that
exceeds 1: rt reads e^{-U x^2}, whose exponent U x^2 carries a rounding error
of its own, and delta is the difference of two terms.  H1 and H2 are held in
absolute terms, to ulp(1.0): they read 0.0 in the left tail.  The oracle evaluates
the paper's forms as written, from the exact binary values of x, T and U; at
400 digits 1 + e^z still resolves |z| down to about 1e-399, so the ramp near
the origin is measured and not assumed.
"""

import decimal
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heaviforge.cutoffs import CutoffParams
from heaviforge.stepfun import FAMILY, eval_c, eval_f

ULP1 = math.ulp(1.0)
# e^{x T} at T = 1e6 and |x| = 10 is about 10^(4.3e6): far past the default Emax
ORACLE = decimal.Context(prec=400, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
PAIRS = [(100.0, 128.0), (1e6, 1e6), (1.25, 3.0)]  # (T, U): the defaults first


def _sample(seed, count=200):
    """``count`` x log-uniform on 1e-30 ... 10, both signs, plus fixed probes:
    0, f's old zero at 1e-19, rt's and delta's old worst rows."""
    rng = random.Random(seed)
    xs = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30.0, 1.0) for _ in range(count)]
    return xs + [0.0, 1e-19, -2.16, 5.68]


def _truth(x, T, U):
    """The exact value of each member, and the delta's two terms, in ``ORACLE``."""
    with decimal.localcontext(ORACLE):
        X, T, U = decimal.Decimal(x), decimal.Decimal(T), decimal.Decimal(U)
        half = decimal.Decimal("0.5")
        e_T, e_U = (X * T).exp(), (X * U).exp()
        gauss_T, gauss_U = (-T * X * X).exp(), (-U * X * X).exp()
        c = half - 1 / (1 + e_U)
        density, odd = T * e_T / (1 + e_T) ** 2, 2 * T * X * gauss_T
        truth = {
            "f": half - 1 / (1 + e_T), "c": c, "u": 1 - gauss_T, "q": 1 - gauss_U,
            "rt": gauss_U, "H2": half + c, "H1": half + c + gauss_U / 2, "delta": density - odd,
        }
        return truth, max(abs(density), abs(odd))


def _allowed(name, x, T, U, truth, larger_term):
    """4 ulp of the scale each bound is stated in."""
    if name in ("H1", "H2"):
        return 4 * ULP1  # absolute: both read 0.0 in the left tail
    if name == "delta":
        return 4 * math.ulp(float(larger_term)) * max(1.0, abs(T * x), 2.0 * T * x * x)
    ulp = math.ulp(float(truth))
    return 4 * ulp * (max(1.0, 2.0 * U * x * x) if name == "rt" else 1.0)


@pytest.mark.parametrize("T,U", PAIRS)
def test_closed_forms_within_their_ulp_bounds_of_a_decimal_oracle(T, U):
    params = CutoffParams(half_line_T=T, indicator_scale_U=U)
    for x in _sample(seed=repr((T, U))):
        truth, larger_term = _truth(x, T, U)
        for name, evaluate in FAMILY.items():
            with decimal.localcontext(ORACLE):
                error = abs(decimal.Decimal(evaluate(x, params)) - truth[name])
            allowed = _allowed(name, x, T, U, truth[name], larger_term)
            assert float(error) <= allowed, (name, x, float(truth[name]), evaluate(x, params))


def _sign(v):
    return (v > 0.0) - (v < 0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    T=st.floats(0.0, exclude_min=True, allow_infinity=False),
    U=st.floats(1.0, exclude_min=True, allow_infinity=False),
)
@example(x=1e-19, T=100.0, U=128.0)  # z = 1e-17 once read 0.0, which snaps to the origin
@example(x=-2.0**-1073, T=2.0, U=4.0)  # |z| = 2^-1072 and 2^-1071: z/4 is still not 0
def test_the_odd_ramps_keep_the_sign_of_x(x, T, U):
    # the ramp at z is tanh(z/2)/2 ~ z/4, which is 0.0 only once z/4
    # underflows: below |z| = 2^-1072, and then with the sign bit of x
    params = CutoffParams(half_line_T=T, indicator_scale_U=U)
    for value, z in ((eval_f(x, params), x * T), (eval_c(x, params), x * params.indicator_scale_U)):
        assert math.copysign(1.0, value) == math.copysign(1.0, x)
        if abs(z) >= 2.0**-1072:
            assert _sign(value) == _sign(x), (x, z, value)
