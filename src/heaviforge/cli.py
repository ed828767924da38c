"""Command-line front end.

    heaviforge eval FUNCTION X [--T] [--U | --eps] [--snap-atol]
    heaviforge table FUNCTION START STOP STEP [--T] [--U | --eps] [--tol]
                     [--snap-atol] [--out PATH] [--format csv]
    heaviforge plot FUNCTION START STOP STEP [--T] [--U | --eps] [--out PATH]
                    [--format csv|svg]
    heaviforge primes N_MAX [--U | --eps] [--out PATH] [--format csv]
    heaviforge xiset EXPR...
    heaviforge grandi K

Each subcommand takes only the options it honours.  Exit codes: 0 on
success, 1 on a verification mismatch (a primes row against the sieves, a
table row whose backend_delta exceeds tol + 256 ulp * max(1, |raw|), or a
quadrature failure), 2 on usage or parse errors (an unknown option, or an
--out path that cannot be written).  CSV uses comma delimiters, LF line
ends, a mandatory header row, and 17 significant digits for raw values so
identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from itertools import repeat
from typing import Sequence

# The parser and eval/plot need only the closed-form core; primes, xiset,
# grandi and table import their modules in the handler, so a start loads
# what its subcommand runs.  (This module's docstring is --help's text.)
from .cutoffs import DEFAULT_TOL, CutoffParams, QuadratureError
# CLI name -> evaluator fn(x, params), and -> the closed-form kernel fn(x, params)
# that plot and table map over their grids
from .stepfun import DEFAULT_CUTOFFS, FAMILY as _FUNCTIONS, _CLOSED, snap

USAGE_ERROR = 2
MISMATCH_ERROR = 1
MAX_GRID_ROWS = 1_000_000
ROUNDING_ALLOWANCE = 256 * 2.0**-52  # table's bound on backend_delta: tol + this * max(1, |raw|)
# argparse's own pattern misses exponents and would read "-1e-3" as an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite real, got {text!r}")
    return value


# option -> (argparse settings, the subcommands that honour it); an option
# a subcommand would ignore is refused by argparse with exit 2
_OPTIONS = {
    "--T": (dict(type=_finite, default=DEFAULT_CUTOFFS.half_line_T, help="half-line cutoff (default 100)"),
            ("eval", "table", "plot")),
    "--U": (dict(type=_finite, default=None, help="indicator scale (default 128)"),
            ("eval", "table", "plot", "primes")),
    "--eps": (dict(type=_finite, default=None, help="tangent-interval margin before pi/2"),
              ("eval", "table", "plot", "primes")),
    "--tol": (dict(type=_finite, default=DEFAULT_TOL, help="quadrature tolerance (default 1e-9)"),
              ("table",)),
    "--snap-atol": (dict(type=_finite, default=1e-6, help="snapping tolerance (default 1e-6)"),
                    ("eval", "table")),
    "--out": (dict(default=None, help="write output to this path instead of stdout"),
              ("table", "plot", "primes")),
}
# subcommand -> the --format values it honours
_FORMATS = {"table": ["csv"], "plot": ["csv", "svg"], "primes": ["csv"]}


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heaviforge", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one function at one point")
    p.add_argument("function", choices=sorted(_FUNCTIONS))
    p.add_argument("x", type=_finite)

    for name, help_text in (("table", "CSV table over a grid"), ("plot", "SVG polyline over a grid")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("function", choices=sorted(_FUNCTIONS))
        p.add_argument("start", type=_finite)
        p.add_argument("stop", type=_finite)
        p.add_argument("step", type=_finite)

    p = sub.add_parser("primes", help="divisor/prime chain vs. exact oracles")
    p.add_argument("n_max", type=int)

    p = sub.add_parser("xiset", help="evaluate a xi-set expression")
    p.add_argument("expr", nargs="+")

    p = sub.add_parser("grandi", help="alternating-series partial sums and Cesaro mean")
    p.add_argument("k", type=int)

    for name, p in sub.choices.items():
        for option, (settings, commands) in _OPTIONS.items():
            if name in commands:
                p.add_argument(option, **settings)
        if name in _FORMATS:
            p.add_argument("--format", choices=_FORMATS[name], default=None, help="output format")
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:  # a directory, a missing parent, no permission
        raise ValueError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from exc


def _grid(start: float, stop: float, step: float) -> list[float]:
    if start > stop:
        raise ValueError(f"grid start {start!r} exceeds stop {stop!r}")
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step!r}")
    if start == stop:
        return [start]
    wide = math.isinf(stop - start)  # ends so far apart that their difference overflows
    span = (stop / step - start / step if wide else (stop - start) / step) + 1e-9
    if not span < MAX_GRID_ROWS:  # "not <" also refuses an overflowed, infinite span
        raise ValueError(f"grid has more than {MAX_GRID_ROWS} rows; use a larger step")
    count = int(math.floor(span)) + 1
    if wide:  # k * step can overflow too; halving is exact at this size
        return [2.0 * (0.5 * start + k * (0.5 * step)) for k in range(count)]
    return [start + k * step for k in range(count)]


# Each handler takes the parsed args and the CutoffParams of the subcommands
# that take --U (None for the others), and returns its stdout lines, its
# exit code and its one-line stderr summary or None; main writes all three.
Result = tuple[list[str], int, str | None]


def _cmd_eval(args, params: CutoffParams) -> Result:
    raw = _FUNCTIONS[args.function](args.x, params)
    return [
        f"{args.function}({_fmt(args.x)}) raw={_fmt(raw)} snapped={_fmt(snap(raw, args.snap_atol))}",
        f"cutoffs T={params.half_line_T!r} eps={params.tan_margin_eps!r} "
        f"U={params.indicator_scale_U!r} snap_atol={args.snap_atol!r}",
    ], 0, None


def _cmd_table(args, params: CutoffParams) -> Result:
    from .quadrature import eval_quadrature  # numpy, which only table needs

    xs = _grid(args.start, args.stop, args.step)
    quads = eval_quadrature(args.function, xs, params, args.tol)
    lines = ["x,raw,snapped,backend_delta"]
    over = []  # (backend_delta, x) of each row the two backends disagree on
    for x, raw, quad in zip(xs, map(_CLOSED[args.function], xs, repeat(params)), quads):
        delta = abs(quad.value - raw)
        if not delta <= args.tol + ROUNDING_ALLOWANCE * max(1.0, abs(raw)):
            over.append((delta, x))
        lines.append(f"{_fmt(x)},{_fmt(raw)},{_fmt(snap(raw, args.snap_atol))},{_fmt(delta)}")
    if not over:
        return lines, 0, None
    delta, x = max(over, key=lambda row: row[0])
    return lines, MISMATCH_ERROR, (f"table {args.function} tol={args.tol!r} mismatches={len(over)} of "
                                   f"{len(xs)} max_backend_delta={_fmt(delta)} at x={_fmt(x)}")


def _axis_range(values: list[float]) -> tuple[float, float]:
    """min and max of ``values``; a flat range is widened by 1.0 each way,
    or, at a magnitude where rounding absorbs 1.0, by a relative pad, taken
    twice on the other side where one side would overflow."""
    lo, hi = min(values), max(values)
    if hi != lo:
        return lo, hi
    pad = 1.0 if lo - 1.0 != hi + 1.0 else abs(lo) * 2.0**-40
    if math.isinf(hi + pad):
        return lo - 2 * pad, hi
    if math.isinf(lo - pad):
        return lo, hi + 2 * pad
    return lo - pad, hi + pad


def _render_svg(xs: list[float], ys: list[float], label: str) -> list[str]:
    width, height, margin = 720.0, 480.0, 60.0
    (x_lo, x_hi), (y_lo, y_hi) = _axis_range(xs), _axis_range(ys)
    placed, p_lo, p_hi = xs, x_lo, x_hi
    if math.isinf(x_hi - x_lo):  # a grid whose span overflows is placed by its halves, exactly
        placed, p_lo, p_hi = [0.5 * x for x in xs], 0.5 * x_lo, 0.5 * x_hi

    # spans hoisted out of the loop; each point takes the operations of
    # margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin), in order,
    # and of its y twin measured down from height - margin
    x_span, x_room = p_hi - p_lo, width - 2 * margin
    y_span, y_room, y_base = y_hi - y_lo, height - 2 * margin, height - margin
    points = " ".join([
        "%.2f,%.2f" % (margin + (x - p_lo) / x_span * x_room, y_base - (y - y_lo) / y_span * y_room)
        for x, y in zip(placed, ys)
    ])
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{margin:.1f}" y1="{height - margin:.1f}" x2="{width - margin:.1f}" '
        f'y2="{height - margin:.1f}" stroke="black"/>',
        f'<line x1="{margin:.1f}" y1="{margin:.1f}" x2="{margin:.1f}" '
        f'y2="{height - margin:.1f}" stroke="black"/>',
        f'<text x="{margin:.1f}" y="{height - margin / 3:.1f}" font-size="12">{_fmt(x_lo)}</text>',
        f'<text x="{width - margin:.1f}" y="{height - margin / 3:.1f}" font-size="12" '
        f'text-anchor="end">{_fmt(x_hi)}</text>',
        f'<text x="{margin / 4:.1f}" y="{height - margin:.1f}" font-size="12">{_fmt(y_lo)}</text>',
        f'<text x="{margin / 4:.1f}" y="{margin:.1f}" font-size="12">{_fmt(y_hi)}</text>',
        f'<text x="{width / 2:.1f}" y="{margin / 2:.1f}" font-size="14" text-anchor="middle">{label}</text>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{points}"/>',
        "</svg>",
    ]


def _cmd_plot(args, params: CutoffParams) -> Result:
    xs = _grid(args.start, args.stop, args.step)
    ys = list(map(_CLOSED[args.function], xs, repeat(params)))
    if args.format == "csv":
        lines = ["x,raw"] + ["%.17g,%.17g" % xy for xy in zip(xs, ys)]  # _fmt's format, one % per row
        return lines, 0, None
    label = f"{args.function}  T={_fmt(params.half_line_T)} U={_fmt(params.indicator_scale_U)}"
    return _render_svg(xs, ys, label), 0, None


def _cmd_primes(args, params: CutoffParams) -> Result:
    from .primes import PrecisionPlan, pi_sieve_counts, plan_precision, prime_chain, sigma0_counts

    n_max = args.n_max
    if not 1 <= n_max <= 10_000:
        raise ValueError(f"n_max must lie in [1, 10000], got {n_max!r}")
    plan = plan_precision(n_max)
    if args.U is not None or args.eps is not None:
        # explicit scale override, e.g. to explore how an inadequate plan fails
        plan = PrecisionPlan(plan.n_max, params.indicator_scale_U, plan.round_margin)
    margin = plan.round_margin

    lines = ["n,sigma0_analytic,sigma0_exact,fes_snapped,pi_analytic,pi_sieve,match"]
    mismatches = 0
    rows = zip(range(1, n_max + 1), *prime_chain(plan), sigma0_counts(n_max), pi_sieve_counts(n_max))
    for n, sig, flag, pi_raw, sig_exact, pi_exact in rows:
        fes_snapped = snap(flag, margin)
        ok = (
            round(sig) == sig_exact
            and fes_snapped == (1.0 if sig_exact == 2 else 0.0)
            and snap(pi_raw, margin) == pi_exact
        )
        if not ok:
            mismatches += 1
        # _fmt's format for the raw columns, one % per row
        lines.append("%d,%.17g,%d,%.17g,%.17g,%d,%d" % (n, sig, sig_exact, fes_snapped, pi_raw, pi_exact, ok))
    summary = f"primes n_max={n_max} U={_fmt(plan.indicator_scale_U)} mismatches={mismatches} of {n_max}"
    return lines, MISMATCH_ERROR if mismatches else 0, summary


def _cmd_xiset(args, params: None) -> Result:
    from .setexpr import evaluate
    from .xisets import ChainResult, _components_text, format_finite_set, membership_index

    result = evaluate(" ".join(args.expr))
    if isinstance(result, ChainResult):
        dangling = "none" if result.dangling is None else format_finite_set(result.dangling)
        return [
            f"result {format_finite_set(result.value)}",
            f"strategy {result.strategy.value}",
            f"groups {result.groups}",
            f"dangling-tail {dangling}",
        ], 0, None
    index, index_texts = membership_index(result), list(map(str, range(result.xi_class + 1)))
    lines = [f"xi_class {result.xi_class}", f"components {_components_text(result, index)}"]
    lines += [
        f"atom {atom}: mode={mode.value} T={{{','.join(map(index_texts.__getitem__, t))}}}"
        for atom, t, mode in index
    ]
    return lines, 0, None


def _cmd_grandi(args, params: None) -> Result:
    from .xisets import grandi_demo

    sums, cesaro = grandi_demo(args.k)
    return ["partial_sums " + ",".join(map(str, sums)), f"cesaro_mean {cesaro}"], 0, None


_COMMANDS = {
    "eval": _cmd_eval, "table": _cmd_table, "plot": _cmd_plot,
    "primes": _cmd_primes, "xiset": _cmd_xiset, "grandi": _cmd_grandi,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        params = None
        if "U" in args:
            # primes has no --T: its precision plan sets only the scale U
            T = getattr(args, "T", DEFAULT_CUTOFFS.half_line_T)
            params = CutoffParams(half_line_T=T, tan_margin_eps=args.eps, indicator_scale_U=args.U)
        lines, code, summary = _COMMANDS[args.command](args, params)
        _emit("\n".join(lines) + "\n", getattr(args, "out", None))
    except ValueError as exc:  # SetExprError is one
        print(f"heaviforge: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except QuadratureError as exc:
        print(f"heaviforge: quadrature failure: {exc}", file=sys.stderr)
        return MISMATCH_ERROR
    if summary is not None:
        print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
