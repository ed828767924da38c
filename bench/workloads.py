"""Seeded command lists for the four benchmark workloads, and the checks
that accept or reject each command's output.

A workload is an endless sequence of *passes*.  A pass is one command list:
the same shape every time (the same functions, flags and size strata), with
the concrete inputs drawn from ``random.Random`` seeded by (seed, workload,
pass).  Keeping the shape fixed and jittering sizes only within narrow
strata makes a pass cost nearly the same on every seed, so pass times and
latency percentiles depend on the program, not on the seed.

The program only ever sees the generated argv lists and piecewise specs.
Nothing in this module imports heaviforge (or numpy): the checks are the
benchmark's own, written from the documented contract, and importing this
module must not pre-pay any of the import time that ``setup_s`` measures.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

# --- shared pieces ---------------------------------------------------------

FUNCTIONS = ("H1", "H2", "c", "delta", "f", "q", "rt", "u")
T_LEVELS = (25.0, 50.0, 100.0, 200.0)
U_LEVELS = (16.0, 64.0, 128.0, 512.0)
TIGHT_TOL = 1e-12
DEFAULT_TOL = 1e-9
SNAP_ATOL = 1e-6  # the CLI's default --snap-atol
# A point is "outside the transition band" when the analytic bound on
# |value - discrete limit| is below this; there snapping must be exact.
BAND_ERR = 1e-9
# backend_delta may exceed tol by this much per unit of |raw| (rounding in
# the closed form and in the panel sums).
ROUNDING_ALLOWANCE = 256 * 2.0**-52


@dataclass
class Command:
    """One client request: a CLI argv, or a library call when argv is empty.

    ``info`` holds what the check needs; ``props`` the few input properties
    that are kept for the whole run (so the client's memory stays small).
    """

    kind: str
    argv: list[str]
    info: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)


def _rng(seed: int, workload: str, *parts) -> Random:
    return Random(":".join(str(p) for p in (seed, workload, *parts)))


def _stratified(rng: Random, lo: float, hi: float, count: int, stride: int = 1) -> list[float]:
    """One uniform draw from each of ``count`` equal strata of [lo, hi).

    Command k gets stratum (stride * k) mod count (a permutation when stride
    and count are coprime), so each command slot keeps its size class on
    every seed and pass; the seed only jitters within the stratum.
    """
    width = (hi - lo) / count
    return [lo + ((stride * k) % count + rng.random()) * width for k in range(count)]


def _num(value: float) -> str:
    return repr(float(value))


def _grid_ok(xs: list[float], start: float, stop: float, step: float) -> str | None:
    """The CLI grid starts at ``start``, steps by ``step`` and covers ``stop``."""
    if not xs:
        return "empty grid"
    tol = 1e-9 * step + 1e-12 * max(abs(start), abs(stop))
    for k, x in enumerate(xs):
        if abs(x - (start + k * step)) > tol:
            return f"grid point {k} is {x!r}, expected {start + k * step!r}"
    if xs[-1] > stop + tol or xs[-1] + step <= stop - tol:
        return f"grid ends at {xs[-1]!r}, stop is {stop!r}"
    return None


# --- discrete limits and analytic distance to them -------------------------

def _sign_level(x: float, low: float, origin: float, high: float) -> float:
    return low if x < 0.0 else high if x > 0.0 else origin


def discrete_limit(name: str, x: float, T: float, U: float) -> tuple[float, float]:
    """(limit value, bound on |value - limit|) for the truncated function.

    The bounds come from the closed forms documented in ``stepfun``: the
    logistic tail 1/(1 + e^z) <= e^{-z} and the Gaussian tail e^{-s x^2}.
    At x = 0 the documented origin values are exact, so the bound is 0.
    For delta the origin value T/4 is not a discrete level: it is never
    checked, which an infinite bound expresses.
    """
    ax, x2 = abs(x), x * x
    if name in ("f", "c"):
        scale = T if name == "f" else U
        return _sign_level(x, -0.5, 0.0, 0.5), math.exp(-scale * ax)
    if name in ("u", "q"):
        scale = T if name == "u" else U
        return (0.0 if x == 0.0 else 1.0), (0.0 if x == 0.0 else math.exp(-scale * x2))
    if name == "rt":
        return (1.0 if x == 0.0 else 0.0), (0.0 if x == 0.0 else math.exp(-U * x2))
    if name == "H2":
        return _sign_level(x, 0.0, 0.5, 1.0), (0.0 if x == 0.0 else math.exp(-U * ax))
    if name == "H1":
        bound = 0.0 if x == 0.0 else math.exp(-U * ax) + 0.5 * math.exp(-U * x2)
        return _sign_level(x, 0.0, 1.0, 1.0), bound
    if name == "delta":
        if x == 0.0:
            return T / 4.0, math.inf
        return 0.0, T * math.exp(-T * ax) + 2.0 * T * ax * math.exp(-T * x2)
    raise ValueError(f"unknown function {name!r}")


def _parse_csv(text: str, header: str) -> tuple[list[list[str]], str | None]:
    lines = text.split("\n")
    if not lines or lines[0] != header:
        return [], f"header is {lines[0]!r}, expected {header!r}"
    if lines[-1] != "":
        return [], "output does not end with a newline"
    return [line.split(",") for line in lines[1:-1]], None


# --- primes_chain ------------------------------------------------------------

# n_max strata: many commands of a few hundred, and a fixed 20% near 1,000,
# so the largest commands set cmd_p90_ms and p90 falls mid-group rather than
# on the group's edge.  The strata are narrow, so p50 and p90 barely move
# with the seed.  Each pass takes one value per stratum; a stratum of width
# w serves w passes with distinct values, so no n_max repeats within a run
# and the program's caches never serve one command from another's results.
PRIMES_BULK = (180, 280, 20)  # 20 strata of width 5
PRIMES_TOP = (880, 940, 5)  # 5 strata of width 12
PRIMES_N_MAX = PRIMES_TOP[1]
PRIMES_ROUND_MARGIN = 0.25  # plan_precision's default margin


def _primes_strata():
    for lo, hi, count in (PRIMES_BULK, PRIMES_TOP):
        width = (hi - lo) // count
        for k in range(count):
            yield lo + k * width, width


def primes_pass(seed: int, p: int) -> list[Command] | None:
    strata = list(_primes_strata())
    if p >= min(width for _, width in strata):
        return None  # every stratum has used each of its values once
    values = []
    for k, (lo, width) in enumerate(strata):
        order = list(range(width))
        _rng(seed, "primes_chain", "stratum", k).shuffle(order)
        values.append(lo + order[p])
    _rng(seed, "primes_chain", "order", p).shuffle(values)
    return [Command("primes", ["primes", str(n)], {"n_max": n}, {"n_max": n}) for n in values]


class PrimesReference:
    """Divisor counts by a sieve and prime counts by trial division."""

    def __init__(self, n_max: int = PRIMES_N_MAX):
        self.divisors = [0] * (n_max + 1)
        for i in range(1, n_max + 1):
            for j in range(i, n_max + 1, i):
                self.divisors[j] += 1
        self.prime_count = [0] * (n_max + 1)
        for n in range(2, n_max + 1):
            is_prime = all(n % d for d in range(2, math.isqrt(n) + 1))
            self.prime_count[n] = self.prime_count[n - 1] + is_prime

    def check(self, cmd: Command, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        rows, err = _parse_csv(out, "n,sigma0_analytic,sigma0_exact,fes_snapped,pi_analytic,pi_sieve,match")
        if err:
            return err
        n_max = cmd.info["n_max"]
        if len(rows) != n_max:
            return f"{len(rows)} rows for n_max={n_max}"
        for n, row in enumerate(rows, start=1):
            d, pi = self.divisors[n], self.prime_count[n]
            if (
                len(row) != 7
                or int(row[0]) != n
                or int(row[2]) != d
                or abs(float(row[1]) - d) >= PRIMES_ROUND_MARGIN
                or float(row[3]) != (1.0 if d == 2 else 0.0)
                or abs(float(row[4]) - pi) >= PRIMES_ROUND_MARGIN
                or int(row[5]) != pi
                or row[6] != "1"
            ):
                return f"row n={n} is {','.join(row)!r}; divisors {d}, primes {pi}"
        return None


# --- table_crosscheck --------------------------------------------------------

TABLE_ROWS = (80, 120)  # rows per command before the cost weight, stratified
TABLE_VARIANTS = 3  # commands per function per pass; the first is tight-tol
# Relative cost of one row (both backends) per function at the seed commit.
# Rows are divided by it, so commands of one tolerance cost about the same:
# the latency distribution has no gap near its median or its 90th
# percentile, where a gap would make the percentile jump between runs.
TABLE_ROW_COST = {"f": 0.7, "u": 0.7, "q": 1.0, "rt": 1.0, "H2": 1.0, "c": 1.3, "H1": 1.4, "delta": 2.3}


def _level(levels: tuple[float, ...], k: int) -> float:
    """The fixed level of command slot k: the same on every seed and pass."""
    return levels[(k + k // len(levels)) % len(levels)]


GRID_HALF_WIDTH = (1.8, 2.2)  # grids run from about -2 to about +2


def _grid_args(rng: Random, points: int) -> tuple[float, float, float]:
    """A grid of exactly ``points`` points from about -2 to about +2."""
    start = -rng.uniform(*GRID_HALF_WIDTH)
    step = float(f"{(rng.uniform(*GRID_HALF_WIDTH) - start) / (points - 1):.6g}")
    return start, start + (points - 1) * step, step


def table_pass(seed: int, p: int) -> list[Command]:
    rng = _rng(seed, "table_crosscheck", p)
    count = len(FUNCTIONS) * TABLE_VARIANTS
    rows = [round(r / TABLE_ROW_COST[FUNCTIONS[k % len(FUNCTIONS)]])
            for k, r in enumerate(_stratified(rng, *TABLE_ROWS, count, stride=5))]
    Ts, Us = [_level(T_LEVELS, k) for k in range(count)], [_level(U_LEVELS, k + 1) for k in range(count)]
    cmds = []
    for k in range(count):
        name, tight = FUNCTIONS[k % len(FUNCTIONS)], k < len(FUNCTIONS)
        start, stop, step = _grid_args(rng, rows[k])
        tol = TIGHT_TOL if tight else DEFAULT_TOL
        argv = ["table", name, _num(start), _num(stop), _num(step), "--T", _num(Ts[k]), "--U", _num(Us[k])]
        if tight:
            argv += ["--tol", _num(tol)]
        info = {"name": name, "start": start, "stop": stop, "step": step, "T": Ts[k], "U": Us[k], "tol": tol}
        cmds.append(Command("table", argv, info, {"rows": rows[k], "tight": tight}))
    rng.shuffle(cmds)
    return cmds


def check_table(cmd: Command, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    rows, err = _parse_csv(out, "x,raw,snapped,backend_delta")
    if err:
        return err
    i = cmd.info
    values = [tuple(float(v) for v in row) for row in rows]
    if any(len(v) != 4 for v in values):
        return "row without four columns"
    err = _grid_ok([v[0] for v in values], i["start"], i["stop"], i["step"])
    if err:
        return err
    for x, raw, snapped, delta in values:
        limit, bound = discrete_limit(i["name"], x, i["T"], i["U"])
        if bound <= BAND_ERR and snapped != limit:
            return f"x={x!r}: snapped {snapped!r}, discrete limit {limit!r}"
        if not (0.0 <= delta <= i["tol"] + ROUNDING_ALLOWANCE * max(1.0, abs(raw))):
            return f"x={x!r}: backend_delta {delta!r} over tol {i['tol']!r}"
    return None


# --- closed_form_sweep -----------------------------------------------------

PLOT_POINTS = (1500, 4000)
COMPOSE_COMMANDS = 8
COMPOSE_BREAKPOINTS = (2, 5)
# gate evaluations per compose command (points x breakpoints), so that the
# compose commands form one cluster of similar cost at the top of the
# latency distribution and cmd_p90_ms falls inside it, not on an edge
COMPOSE_GATES = (9_000, 11_000)
COMPOSE_GAP = (1.5, 4.0)


def branch_values(coeffs: list[tuple[float, float, float]], x: float) -> list[float]:
    return [a + b * x + c * x * x for a, b, c in coeffs]


def closed_form_pass(seed: int, p: int) -> list[Command]:
    rng = _rng(seed, "closed_form_sweep", p)
    count = 2 * len(FUNCTIONS)
    points = [round(n) for n in _stratified(rng, *PLOT_POINTS, count, stride=5)]
    Ts, Us = [_level(T_LEVELS, k) for k in range(count)], [_level(U_LEVELS, k + 1) for k in range(count)]
    cmds = []
    for k in range(count):
        name, fmt = FUNCTIONS[k % len(FUNCTIONS)], ("svg", "csv")[k // len(FUNCTIONS)]
        start, stop, step = _grid_args(rng, points[k])
        argv = ["plot", name, _num(start), _num(stop), _num(step), "--T", _num(Ts[k]), "--U", _num(Us[k])]
        if fmt == "csv":
            argv += ["--format", "csv"]
        info = {"name": name, "format": fmt, "start": start, "stop": stop, "step": step, "T": Ts[k], "U": Us[k]}
        cmds.append(Command("plot", argv, info, {"points": points[k]}))

    lo, hi = COMPOSE_BREAKPOINTS
    counts = [lo + k % (hi - lo + 1) for k in range(COMPOSE_COMMANDS)]
    gates = _stratified(rng, *COMPOSE_GATES, COMPOSE_COMMANDS, stride=3)
    for n_bp, n_gates in zip(counts, gates):
        size = round(n_gates / n_bp)
        bps = [rng.uniform(-2.0, 2.0)]
        for _ in range(n_bp - 1):
            bps.append(bps[-1] + rng.uniform(*COMPOSE_GAP))
        coeffs = [tuple(rng.uniform(-3.0, 3.0) for _ in range(3)) for _ in range(n_bp + 1)]
        a, b = bps[0] - 3.0, bps[-1] + 3.0
        xs = [a + (b - a) * k / (size - 1) for k in range(size)]
        cmds.append(Command("compose", [], {"breakpoints": bps, "coeffs": coeffs, "xs": xs},
                            {"points": size, "breakpoints": n_bp}))
    rng.shuffle(cmds)
    return cmds


def _floats(strings) -> list[float]:
    return [float(s) for s in strings]


_SVG_LINE = re.compile(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"')
_SVG_TEXT = re.compile(r"<text [^>]*>([^<]*)</text>")
_SVG_POINTS = re.compile(r'<polyline [^>]*points="([^"]*)"')
PIXEL_TOL = 0.011  # points are printed with two decimals


def _check_svg(i: dict, out: str) -> str | None:
    lines, texts, poly = _SVG_LINE.findall(out), _SVG_TEXT.findall(out), _SVG_POINTS.search(out)
    if len(lines) != 2 or len(texts) < 4 or poly is None or not out.endswith("</svg>\n"):
        return "SVG lacks the two axes, the four range labels or the polyline"
    (ax0, ay, ax1, _), (_, ay0, _, ay1) = (_floats(line) for line in lines)
    x_lo, x_hi, y_lo, y_hi = _floats(texts[:4])
    points = [_floats(pt.split(",")) for pt in poly.group(1).split()]
    xs = [i["start"] + k * i["step"] for k in range(len(points))]
    err = _grid_ok(xs, i["start"], i["stop"], i["step"])
    if err:
        return f"{len(points)} polyline points: {err}"
    if x_lo != i["start"] or abs(x_hi - xs[-1]) > 1e-9 * i["step"]:
        return f"x labels {x_lo!r}..{x_hi!r} do not span the grid"
    for x, (px, py) in zip(xs, points):
        if abs(px - (ax0 + (x - x_lo) / (x_hi - x_lo) * (ax1 - ax0))) > PIXEL_TOL:
            return f"x={x!r} drawn at px={px!r}"
        limit, bound = discrete_limit(i["name"], x, i["T"], i["U"])
        if bound <= BAND_ERR:
            expected = ay1 - (limit - y_lo) / (y_hi - y_lo) * (ay1 - ay0)
            if abs(py - expected) > PIXEL_TOL:
                return f"x={x!r} drawn at py={py!r}, limit {limit!r} belongs at {expected:.3f}"
    return None


def check_plot(cmd: Command, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    i = cmd.info
    if i["format"] == "svg":
        return _check_svg(i, out)
    rows, err = _parse_csv(out, "x,raw")
    if err:
        return err
    values = [(float(x), float(raw)) for x, raw in rows]
    err = _grid_ok([x for x, _ in values], i["start"], i["stop"], i["step"])
    if err:
        return err
    for x, raw in values:
        limit, bound = discrete_limit(i["name"], x, i["T"], i["U"])
        if bound <= BAND_ERR and abs(raw - limit) > SNAP_ATOL:
            return f"x={x!r}: raw {raw!r}, discrete limit {limit!r}"
    return None


def check_compose(cmd: Command, scale_U: float, values: list[float]) -> str | None:
    """Composed values agree with branch dispatch away from breakpoints.

    ``scale_U`` is the indicator scale the composition used.  A gate
    H1(x - b) is within e^{-U d} + e^{-U d^2}/2 of its limit at distance d
    from b, so points where every gate is within BAND_ERR are checked.
    """
    i = cmd.info
    bps, coeffs = i["breakpoints"], i["coeffs"]
    if len(values) != len(i["xs"]):
        return f"{len(values)} values for {len(i['xs'])} points"
    for x, value in zip(i["xs"], values):
        if not all(math.exp(-scale_U * abs(x - b)) + 0.5 * math.exp(-scale_U * (x - b) ** 2) <= BAND_ERR for b in bps):
            continue
        branch = sum(1 for b in bps if b <= x)  # left-closed intervals
        branches = branch_values(coeffs, x)
        scale = 1.0 + max(abs(v) for v in branches)
        if abs(value - branches[branch]) > 10.0 * BAND_ERR * len(bps) * scale:
            return f"x={x!r}: composed {value!r}, branch {branch} gives {branches[branch]!r}"
    return None


# --- xiset_algebra ---------------------------------------------------------

XI_ATOMS = tuple(range(1, 31)) + ("a", "b", "c", "d", "e", "f")
XI_COMPONENT_SIZE = 12  # component sizes spread evenly over 0..12 atoms
# (operand classes, operators) per expression: products of 300-1300 pairs
# with at most one intersection keep result classes in the hundreds, so set
# algebra rather than argparse dominates.  A fourth operand is grouped with
# the third: A op B op (C op D).
XI_SHAPES = (
    ((8, 8, 8), "|\\"), ((10, 10, 6), "\\|"), ((6, 6, 6, 6), "||&"), ((12, 10, 5), "|&"),
    ((9, 9, 9), "||"), ((5, 6, 7, 5), "\\|\\"), ((7, 7, 12), "&|"), ((4, 8, 4, 8), "|\\|"),
)
XI_EXPRESSIONS = 3 * len(XI_SHAPES)
XI_CHAINS = 2
XI_GRANDI = 2


def _format_set(atoms) -> str:
    return "{" + ",".join(str(a) for a in atoms) + "}" if atoms else "0"


def _dedup(components) -> list[frozenset]:
    return list(dict.fromkeys(components))


def _xi_literal(rng: Random, cls: int) -> tuple[str, list[frozenset]]:
    sizes = [round(s) for s in _stratified(rng, 0, XI_COMPONENT_SIZE + 1 - 1e-9, cls)]
    comps = [rng.sample(XI_ATOMS, size) for size in sizes]
    rng.shuffle(comps)
    return "||".join(_format_set(c) for c in comps), _dedup(frozenset(c) for c in comps)


def _apply(op: str, xs: list[frozenset], ys: list[frozenset]) -> list[frozenset]:
    fn = {"&": frozenset.__and__, "|": frozenset.__or__, "\\": frozenset.__sub__}[op]
    return _dedup(fn(a, b) for a in xs for b in ys)


def _xi_expression(rng: Random, shape: tuple[int, ...], ops: str) -> tuple[str, list[list[frozenset]]]:
    """The expression text and the components of each operand literal."""
    literals = [_xi_literal(rng, cls) for cls in shape]
    texts = [t for t, _ in literals]
    if len(texts) == 4:
        texts[2:] = [f"({texts[2]} {ops[2]} {texts[3]})"]
    text = texts[0]
    for op, t in zip(ops, texts[1:]):
        text = f"{text} {op} {t}"
    return text, [v for _, v in literals]


def xi_reference(operands: list[list[frozenset]], ops: str) -> list[frozenset]:
    """The expression's value under a plain-frozenset pairwise reference
    (the grammar is left-associative with one precedence level)."""
    if len(operands) == 4:
        operands = operands[:2] + [_apply(ops[2], operands[2], operands[3])]
    value = operands[0]
    for op, v in zip(ops, operands[1:]):
        value = _apply(op, value, v)
    return value


def xiset_pass(seed: int, p: int) -> list[Command]:
    """Only the operand literals are kept: the reference value is built in
    the check, after the timed call, so that at most one command's reference
    is alive at a time and it adds little to the client's peak memory."""
    rng = _rng(seed, "xiset_algebra", p)
    cmds = []
    for shape, ops in XI_SHAPES * (XI_EXPRESSIONS // len(XI_SHAPES)):
        text, operands = _xi_expression(rng, shape, ops)
        cmds.append(Command("xiset", ["xiset", text], {"operands": operands, "ops": ops}))
    for k in range(XI_CHAINS):
        base = frozenset(rng.sample(XI_ATOMS, rng.randint(1, 8)))
        partner = frozenset(rng.sample(XI_ATOMS, rng.randint(0, 8)))
        length = rng.randint(2_000, 20_000)
        strategy = ("aligned", "shifted")[k % 2]
        argv = ["xiset", "chain", _format_set(sorted(base, key=str)), _format_set(sorted(partner, key=str)),
                str(length), strategy]
        cmds.append(Command("chain", argv, {"base": base, "partner": partner, "length": length, "strategy": strategy}))
    for _ in range(XI_GRANDI):
        k = rng.randint(2_000, 8_000)
        cmds.append(Command("grandi", ["grandi", str(k)], {"k": k}))
    rng.shuffle(cmds)
    return cmds


def _parse_atom(text: str):
    return int(text) if text.isdigit() else text


def _parse_set(text: str) -> frozenset | None:
    if text == "0":
        return frozenset()
    if not (text.startswith("{") and text.endswith("}")) or text == "{}":
        return None
    return frozenset(_parse_atom(a) for a in text[1:-1].split(","))


def check_xiset(cmd: Command, rc: int, out: str) -> str | None:
    """Components equal the pairwise reference (as a set; the CLI keeps its
    own first-appearance order), and every atom's index set and mode follow
    from the printed components.  Records the reference's class in
    ``cmd.props``."""
    expected = xi_reference(cmd.info["operands"], cmd.info["ops"])
    cmd.props["xi_class"] = len(expected)
    if rc != 0:
        return f"exit code {rc}"
    lines = out.split("\n")
    if len(lines) < 3 or not lines[0].startswith("xi_class ") or not lines[1].startswith("components "):
        return "missing xi_class or components line"
    printed = [_parse_set(s) for s in lines[1][len("components "):].split(" || ")]
    if None in printed or len(set(printed)) != len(printed) or set(printed) != set(expected):
        return f"components differ from the pairwise reference ({len(printed)} printed, {len(expected)} expected)"
    if lines[0] != f"xi_class {len(expected)}":
        return f"{lines[0]!r}, reference class {len(expected)}"
    atoms = frozenset().union(*expected)
    atom_lines = lines[2:-1]
    if len(atom_lines) != len(atoms) or lines[-1] != "":
        return f"{len(atom_lines)} atom lines for {len(atoms)} atoms"
    pattern = re.compile(r"atom (\S+): mode=(all|some|none) T=\{([0-9,]*)\}")
    for line in atom_lines:
        m = pattern.fullmatch(line)
        if m is None:
            return f"malformed atom line {line!r}"
        atom = _parse_atom(m.group(1))
        indices = [k for k, comp in enumerate(printed, start=1) if atom in comp]
        mode = "all" if len(indices) == len(printed) else "some" if indices else "none"
        if atom not in atoms or m.group(3) != ",".join(map(str, indices)) or m.group(2) != mode:
            return f"atom line {line!r}, expected mode={mode} T={indices}"
    return None


def check_chain(cmd: Command, rc: int, out: str) -> str | None:
    """Aligned returns G cap P with every group consumed; Shifted returns G
    and leaves the partner P dangling."""
    if rc != 0:
        return f"exit code {rc}"
    i = cmd.info
    aligned = i["strategy"] == "aligned"
    lines = out.split("\n")
    if len(lines) != 5 or lines[-1] != "" or not lines[0].startswith("result ") \
            or not lines[3].startswith("dangling-tail "):
        return "chain output is not the four result/strategy/groups/dangling-tail lines"
    value = _parse_set(lines[0][len("result "):])
    dangling = lines[3][len("dangling-tail "):]
    if (
        value != (i["base"] & i["partner"] if aligned else i["base"])
        or lines[1] != f"strategy {i['strategy']}"
        or lines[2] != f"groups {i['length'] if aligned else i['length'] - 1}"
        or (dangling != "none" if aligned else _parse_set(dangling) != i["partner"])
    ):
        return f"chain output {lines[:4]!r} for {i!r}"
    return None


def check_grandi(cmd: Command, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    k = cmd.info["k"]
    sums = ",".join("1" if n % 2 == 0 else "0" for n in range(k))
    expected = f"partial_sums {sums}\ncesaro_mean {Fraction((k + 1) // 2, k)}\n"
    return None if out == expected else f"grandi {k} output differs from 1,0,1,... and ceil(k/2)/k"


# --- the workload table --------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json gives the reason each one exists."""

    name: str
    make_pass: object  # (seed, pass index) -> list[Command] | None
    warmup: tuple[str, ...]  # first command, untimed in the loop, counted in setup_s
    trace_passes: int  # fixed pass count of a traced run, so counts repeat


WORKLOADS = {
    w.name: w
    for w in (
        Workload("primes_chain", primes_pass, ("primes", "40"), 1),
        Workload("table_crosscheck", table_pass, ("table", "H1", "-1", "1", "0.5"), 4),
        Workload("closed_form_sweep", closed_form_pass, ("plot", "H1", "-1", "1", "0.5"), 6),
        Workload("xiset_algebra", xiset_pass, ("xiset", "{1,2}||{3}", "|", "{4}"), 6),
    )
}

CHECKS = {"primes": PrimesReference().check, "table": check_table, "plot": check_plot, "xiset": check_xiset,
          "chain": check_chain, "grandi": check_grandi}


def input_properties(name: str, commands: list[tuple[str, dict]]) -> dict:
    """The input properties a later optimisation may depend on, from the
    (kind, props) pairs of every command a run issued."""
    if name == "primes_chain":
        ns = [p["n_max"] for _, p in commands]
        return {"n_max_min": min(ns), "n_max_max": max(ns), "n_max_median": statistics.median(ns),
                "n_max_repeat_share": 1.0 - len(set(ns)) / len(ns)}
    if name == "table_crosscheck":
        rows = [p["rows"] for _, p in commands]
        return {"tight_tol_share": sum(p["tight"] for _, p in commands) / len(commands),
                "rows_per_command_min": min(rows), "rows_per_command_mean": statistics.mean(rows),
                "rows_per_command_max": max(rows)}
    if name == "closed_form_sweep":
        plots = [p["points"] for kind, p in commands if kind == "plot"]
        comp = [p for kind, p in commands if kind == "compose"]
        return {"plot_share": len(plots) / len(commands), "points_per_plot_mean": statistics.mean(plots),
                "points_per_compose_mean": statistics.mean(p["points"] for p in comp),
                "breakpoints_per_compose_mean": statistics.mean(p["breakpoints"] for p in comp)}
    # a command that raised was never checked, so its class is unknown
    classes = sorted(p["xi_class"] for kind, p in commands if "xi_class" in p) or [0, 0]
    q1, median, q3 = statistics.quantiles(classes, n=4)
    return {"expression_share": sum(kind == "xiset" for kind, _ in commands) / len(commands),
            "xi_class_min": classes[0], "xi_class_q1": q1, "xi_class_median": median, "xi_class_q3": q3,
            "xi_class_max": classes[-1]}
