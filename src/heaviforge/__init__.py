"""heaviforge: truncated integral representations of discrete functions.

The library evaluates step functions, zero indicators, a nascent delta, a
piecewise-composition operator, and a divisor-count / prime-counting chain,
each with a quadrature backend and a closed-form backend that are checked
against one another and against exact combinatorial oracles.  A finite
multi-valued set algebra rounds out the package.
"""

from .cutoffs import (
    CutoffParams,
    DEFAULT_EVAL_BUDGET,
    NonFiniteIntegrand,
    QuadratureError,
    QuadratureResult,
    ToleranceNotReached,
)
from .stepfun import (
    Backend,
    DEFAULT_CUTOFFS,
    StepKind,
    eval_c,
    eval_delta,
    eval_f,
    eval_q,
    eval_rt,
    eval_step,
    eval_u,
    snap,
)
from .piecewise import (
    InvalidInterval,
    InvalidSpec,
    PiecewiseSpec,
    compose,
    default_cutoffs,
    dispatch,
    impulse,
    partition_terms,
    transition_width,
)
from .primes import (
    OutOfPlan,
    PrecisionPlan,
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
from .xisets import (
    ChainResult,
    ChainStrategy,
    EMPTY_SET,
    FiniteSet,
    MembershipMode,
    MembershipReport,
    SetExprChain,
    XiSet,
    eval_chain,
    format_finite_set,
    grandi_demo,
    membership,
    membership_index,
    xi_cap,
    xi_cup,
    xi_difference,
    xi_intersection,
    xi_union,
)
from .setexpr import SetExprError, evaluate

__version__ = "0.1.0"

_QUADRATURE_EXPORTS = ("integrate_half_line", "integrate_interval", "integrate_tan_interval")


def __getattr__(name):
    # The integrators need numpy; importing the package loads it only once
    # one of them is asked for.  Each read goes to ``quadrature`` afresh, so
    # the package never holds a copy of its own.
    if name in _QUADRATURE_EXPORTS:
        from . import quadrature
        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
