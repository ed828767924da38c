"""heaviforge: truncated integral representations of discrete functions.

The library evaluates step functions, zero indicators, a nascent delta, a
piecewise-composition operator, and a divisor-count / prime-counting chain,
each with a quadrature backend and a closed-form backend that are checked
against one another and against exact combinatorial oracles.  A finite
multi-valued set algebra rounds out the package.
"""

from .quadrature import (
    CutoffParams,
    DEFAULT_EVAL_BUDGET,
    NonFiniteIntegrand,
    QuadratureError,
    QuadratureResult,
    ToleranceNotReached,
    integrate_half_line,
    integrate_interval,
    integrate_tan_interval,
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
    xi_cap,
    xi_cup,
    xi_difference,
    xi_intersection,
    xi_union,
)
from .setexpr import SetExprError, evaluate

__version__ = "0.1.0"
