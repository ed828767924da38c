import contextlib
import hashlib
import io
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heaviforge import cli
from heaviforge.cutoffs import CutoffParams, QuadratureResult
from heaviforge.xisets import MAX_GRANDI_TERMS
from test_golden import CASES as GOLDEN_CASES
from test_setexpr import texts as xiset_texts

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src")


def run_cli(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "heaviforge", *args],
        capture_output=True, text=True, env=env, **kwargs,
    )


def parse_kv(line):
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_process_runs_commands_as_fresh_processes_do(monkeypatch):
    # the parser is built once per process; usage errors between commands
    # must leave it as it was
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    argvs = [
        ["eval", "H1", "0"],
        ["eval", "nope", "0"],
        ["table", "delta", "-0.1", "0.1", "0.05", "--tol", "1e-12"],
        ["table", "f", "1", "0", "0.1"],
        ["plot", "rt", "-1", "1", "0.5", "--format", "csv", "--U", "50"],
        ["eval", "f", "-1e-3", "--T", "inf"],
        ["xiset", "{1,2}||{3} | {4}||0"],
        ["eval", "c", "-1e-3", "--eps", "0.1"],
        ["primes", "5", "--U", "2"],  # exit 1 with a summary after the rows
        ["table", "q", "10", "100", "10"],
    ]
    for argv in argvs:
        proc = run_cli(*argv)
        assert run_in_process(argv) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert cli._build_parser() is cli._build_parser()


def test_one_command_table():
    parser_commands = next(a for a in cli._build_parser()._actions if a.dest == "command").choices
    golden_commands = {argv[0] for argv, _ in GOLDEN_CASES.values()}
    assert set(cli._COMMANDS) == set(parser_commands) == golden_commands


def test_help_keeps_the_synopsis_lines(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    proc = run_cli("--help")
    assert proc.returncode == 0
    synopsis = [line for line in cli.__doc__.splitlines() if line.lstrip().startswith("heaviforge ")]
    assert len(synopsis) == 6
    help_lines = proc.stdout.splitlines()
    for line in synopsis:
        assert line in help_lines


# ---------------------------------------------------------------------------
# eval

def test_eval_h2_at_origin():
    proc = run_cli("eval", "H2", "0")
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout.splitlines()[0])
    assert float(kv["raw"]) == 0.5
    assert float(kv["snapped"]) == 0.5
    assert "cutoffs" in proc.stdout


def test_eval_rt_at_origin():
    proc = run_cli("eval", "rt", "0")
    assert proc.returncode == 0
    assert float(parse_kv(proc.stdout.splitlines()[0])["raw"]) == 1.0


def test_eval_delta_peak():
    proc = run_cli("eval", "delta", "0", "--T", "100")
    assert proc.returncode == 0
    assert float(parse_kv(proc.stdout.splitlines()[0])["raw"]) == 25.0


@pytest.mark.parametrize("x,zero", [("1", True), ("1e-200", False)])
def test_eval_delta_with_huge_T_stays_finite(x, zero):
    # 2 T overflows at T = 1e308; it printed raw=nan for x = 1 and raw=-inf for 1e-200
    proc = run_cli("eval", "delta", x, "--T", "1e308")
    assert proc.returncode == 0
    raw = float(parse_kv(proc.stdout.splitlines()[0])["raw"])
    assert math.isfinite(raw)
    assert (raw == 0.0) is zero


def test_eval_unknown_function_exits_2():
    proc = run_cli("eval", "nope", "1")
    assert proc.returncode == 2
    assert proc.stderr != ""


def test_eval_unparseable_x_exits_2():
    proc = run_cli("eval", "H2", "zero")
    assert proc.returncode == 2


def test_conflicting_scale_flags_exit_2():
    proc = run_cli("eval", "H2", "0", "--U", "50", "--eps", "0.01")
    assert proc.returncode == 2
    proc = run_cli("primes", "10", "--U", "64", "--eps", "0.01")
    assert proc.returncode == 2
    assert "give only one" in proc.stderr


@pytest.mark.parametrize("args", [
    ("eval", "f", "1", "--out", "x.txt"),
    ("eval", "f", "1", "--format", "csv"),
    ("xiset", "{1}", "--out", "x.txt"),
    ("grandi", "3", "--out", "x.txt"),
    ("primes", "5", "--snap-atol", "1e-3"),
    ("primes", "5", "--T", "5"),
    ("primes", "5", "--tol", "1e-3"),
    ("plot", "f", "0", "1", "0.5", "--tol", "1e-3"),
    ("plot", "f", "0", "1", "0.5", "--snap-atol", "1e-3"),
    ("eval", "f", "1", "--tol", "1e-3"),  # eval reports the closed form only
])
def test_options_a_subcommand_would_ignore_exit_2(args, tmp_path):
    proc = run_cli(*args, cwd=tmp_path)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ("table", "f", "0", "1", "0.5", "--format", "csv"),
    ("primes", "5", "--format", "csv"),
    ("plot", "f", "0", "1", "0.5", "--format", "svg", "--T", "7", "--eps", "0.2"),
    ("eval", "rt", "0.1", "--snap-atol", "0.5", "--T", "7", "--eps", "0.2"),
])
def test_options_a_subcommand_honours_are_accepted(args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout != ""


def test_readme_option_table_matches_the_parser():
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Command-line interface", 1)[1]
    header, _, *rows = section[section.index("| option |"):].split("\n\n", 1)[0].splitlines()

    def cells_of(line):
        return [cell.strip() for cell in line.strip("|").split("|")]

    commands = [cell.strip("`") for cell in cells_of(header)[1:]]
    parser_commands = next(a for a in cli._build_parser()._actions if a.dest == "command").choices
    assert commands == list(parser_commands)
    options, formats = {}, {}
    for row in rows:
        option, *cells = cells_of(row)
        if option == "`--format`":
            formats = {c: re.findall(r"`(\w+)`", cell) for c, cell in zip(commands, cells) if cell}
            continue
        honoured = tuple(c for c, cell in zip(commands, cells) if cell == "yes")
        for name in re.findall(r"`(--[\w-]+)", option):
            options[name] = honoured
    assert options == {name: commands for name, (_, commands) in cli._OPTIONS.items()}
    assert formats == cli._FORMATS


def test_help_states_the_defaults_a_bare_table_uses(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    code, out, _ = run_in_process(["table", "--help"])
    assert code == 0
    stated = dict(re.findall(r"^\s+--([\w-]+) \S+\s+.*\(default (\S+)\)$", out, re.M))
    assert stated == {"T": "100", "U": "128", "tol": "1e-9", "snap-atol": "1e-6"}
    args = cli._build_parser().parse_args(["table", "f", "0", "1", "0.5"])
    params = CutoffParams(half_line_T=args.T, tan_margin_eps=args.eps, indicator_scale_U=args.U)
    used = {"T": params.half_line_T, "U": params.indicator_scale_U, "tol": args.tol, "snap-atol": args.snap_atol}
    assert used == {name: float(text) for name, text in stated.items()}


@pytest.mark.parametrize("args,out", [
    (("table", "f", "0", "1", "0.5"), "."),  # a directory: IsADirectoryError
    (("primes", "5"), "."),
    (("plot", "f", "0", "1", "0.5"), "missing/x.svg"),  # no such directory: FileNotFoundError
])
def test_unwritable_out_exits_2(args, out, tmp_path):
    proc = run_cli(*args, "--out", str(tmp_path / out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("heaviforge: error: cannot write --out")
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("eval", "H1", "nan"),
    ("table", "H1", "0", "1", "0.5", "--tol", "inf"),
    ("table", "H1", "nan", "1", "0.5"),
    ("table", "H1", "0", "inf", "0.5"),
    ("plot", "H1", "0", "1", "inf"),
])
def test_non_finite_numbers_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "must be a finite real" in proc.stderr


@pytest.mark.parametrize("args,rows", [
    (("eval", "f", "-1e-3"), ["f(-0.001) raw="]),
    (("table", "f", "-1e-3", "1e-3", "1e-3"), ["x,raw,snapped,backend_delta", "-0.001,", "0,", "0.001,"]),
    (("plot", "f", "-2E+0", "-1e0", "1", "--format", "csv"), ["x,raw", "-2,", "-1,"]),
])
def test_negative_numbers_with_an_exponent_are_numbers(args, rows):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) >= len(rows)
    for line, start in zip(lines, rows):
        assert line.startswith(start)


def test_negative_exponent_option_value_still_checked():
    proc = run_cli("eval", "f", "0.5", "--T", "-1e-3")
    assert proc.returncode == 2
    assert "half_line_T must be a positive real" in proc.stderr


# ---------------------------------------------------------------------------
# table

def test_table_step_values():
    proc = run_cli("table", "H1", "-1", "1", "1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "x,raw,snapped,backend_delta"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["-1", "0", "1"]
    assert [float(r[2]) for r in rows] == [0.0, 1.0, 1.0]


def test_table_single_row_when_start_equals_stop():
    proc = run_cli("table", "f", "2", "2", "0.5")
    assert proc.returncode == 0
    assert len(proc.stdout.strip().split("\n")) == 2  # header + one row


def test_table_antisymmetric_ramp():
    proc = run_cli("table", "f", "-2", "2", "0.5")
    rows = [line.split(",") for line in proc.stdout.strip().split("\n")[1:]]
    raw = {float(r[0]): float(r[1]) for r in rows}
    for x in (0.5, 1.0, 1.5, 2.0):
        assert raw[-x] == -raw[x]


def test_table_is_byte_stable():
    first = run_cli("table", "delta", "-1", "1", "0.125")
    second = run_cli("table", "delta", "-1", "1", "0.125")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_table_rejects_bad_grids():
    assert run_cli("table", "H1", "2", "1", "1").returncode == 2
    assert run_cli("table", "H1", "0", "1", "-1").returncode == 2
    assert run_cli("table", "H1", "0", "1", "0").returncode == 2


def test_grid_whose_span_overflows_is_the_grid_of_its_halves_doubled():
    # stop - start is inf; the halved grid, -5e307 to 5e307 by 5e307, has
    # three finite rows, and so does the grid, once doubled
    proc = run_cli("plot", "f", "-1e308", "1e308", "1e308", "--format", "csv")
    assert proc.returncode == 0
    assert [line.split(",")[0] for line in proc.stdout.splitlines()] == ["x", "-1e+308", "0", "1e+308"]
    # and the SVG places them by their halves, whose span is finite
    proc = run_cli("plot", "f", "-1e308", "1e308", "1e308")
    assert re.findall(r'points="([^"]*)"', proc.stdout) == ["60.00,420.00 360.00,240.00 660.00,60.00"]
    # a finite span whose quotient overflows is still refused
    proc = run_cli("table", "H1", "-1", "1", "5e-324")
    assert proc.returncode == 2 and "more than 1000000 rows" in proc.stderr


def _cap_memory():
    # should the row cap regress, fail fast instead of filling the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("grid", [("0", "1", "1e-300"), ("0", "1", "1e-6"), ("0", "1e308", "1e-300")])
def test_table_rejects_oversized_grids(grid, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # thread buffers would count against the cap
    proc = run_cli("table", "f", *grid, preexec_fn=_cap_memory, timeout=60)
    assert proc.returncode == 2
    assert "more than 1000000 rows" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("function", ["u", "H1"])
def test_failing_table_stderr_is_one_warning_and_the_failure(function):
    # the stderr of the row-by-row table before rows were batched, up to
    # the file's path (the integrands have since moved from stepfun.py to
    # quadrature.py), line numbers and the quoted source lines
    proc = run_cli("table", function, "-1e200", "1e200", "1e199")
    assert proc.returncode == 1 and proc.stdout == ""
    lines = [re.sub(r"^.*(stepfun|quadrature)\.py:\d+:", "stepfun.py:", line)
             for line in proc.stderr.splitlines() if not line.startswith("  ")]
    assert lines == [
        "stepfun.py: RuntimeWarning: invalid value encountered in multiply",
        "heaviforge: quadrature failure: integrand returned NaN or inf at a sampled point",
    ]


@pytest.mark.parametrize("args,digest,summary", [
    (("q", "10", "100", "10"), "7d8722fed4b059d5f6b906fd5ea2bc6df4d6ce2c37a000e11e0a31dc6f2db001",
     "table q tol=1e-09 mismatches=2 of 10 max_backend_delta=0.99999999999971667 at x=100"),
    (("u", "1e7", "1e9", "1e8"), "aac6763e12869624abc3f3395b33004a0ec0d7fdb9ebf82a662aeaa7e13070db",
     "table u tol=1e-09 mismatches=9 of 10 max_backend_delta=1 at x=110000000"),
    (("f", "0.5", "1", "0.5", "--T", "1e20"), "8e64d9799cddd64b3fb69b76405c1dedc53c8d428f827669026632e045248bff",
     "table f tol=1e-09 mismatches=2 of 2 max_backend_delta=0.5 at x=0.5"),
])
def test_table_over_the_bound_prints_its_rows_and_exits_1(args, digest, summary):
    # on these grids the quadrature panels miss the integrand's scale, so a
    # row's backend_delta exceeds tol + 256 ulp * max(1, |raw|); every row
    # still prints (the digests pin its bytes), then one summary line
    proc = run_cli("table", *args)
    assert proc.returncode == 1
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
    assert proc.stderr == summary + "\n"


def test_table_rejects_svg_format():
    proc = run_cli("table", "H1", "0", "1", "1", "--format", "svg")
    assert proc.returncode == 2


def test_table_writes_output_file(tmp_path):
    out = tmp_path / "h2.csv"
    proc = run_cli("table", "H2", "-1", "1", "0.5", "--out", str(out))
    assert proc.returncode == 0
    text = out.read_text()
    assert text.startswith("x,raw,snapped,backend_delta\n")
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# plot

def test_plot_emits_svg(tmp_path):
    out = tmp_path / "h2.svg"
    proc = run_cli("plot", "H2", "-0.2", "0.2", "0.01", "--out", str(out))
    assert proc.returncode == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text
    assert "</svg>" in text


def test_plot_csv_format_lists_the_grid():
    proc = run_cli("plot", "rt", "-1", "1", "0.5", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "x,raw"
    assert len(lines) == 6


@pytest.mark.parametrize("args", [
    ("u", "-1e300", "-1e300", "1"),
    ("f", "-1e300", "-1e300", "0.25"),
    ("delta", "0", "0", "1", "--T", "1e300"),
    ("H1", "1e17", "1e17", "1"),
])
def test_plot_flat_range_at_huge_magnitude(args):
    # widening the flat range by 1.0 each way rounds away at these magnitudes
    proc = run_cli("plot", *args)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert 'points="360.00,240.00"' in proc.stdout


@pytest.mark.parametrize("x", ["1.7976931348623157e308", "-1.7976931348623157e308"])
@pytest.mark.parametrize("function", ["f", "u"])
def test_plot_flat_range_at_the_largest_float(function, x):
    # a pad past the largest float would overflow; it is taken on the other side
    proc = run_cli("plot", function, x, x, "1")
    assert proc.returncode == 0, proc.stderr
    labels = re.findall(r'font-size="12"[^>]*>([^<]*)</text>', proc.stdout)
    assert len(labels) == 4
    assert all(math.isfinite(float(label)) for label in labels)  # no inf or nan label
    (point,) = re.findall(r'points="([^"]*)"', proc.stdout)
    px, py = map(float, point.split(","))
    assert 60.0 <= px <= 660.0 and py == 240.0


# x at the edges of the float range: signed zeros, the smallest subnormal,
# and magnitudes where x * T or x * x underflows or overflows
EDGE_XS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]


def assert_plot_csv_is_the_evaluator(name, start, stop, step, T, U):
    """Each ``plot --format csv`` row is x and ``FAMILY[name](x, params)``,
    formatted by ``_fmt``: plot's kernel column has the evaluator's bits."""
    argv = ["plot", name, repr(start), repr(stop), repr(step), "--T", repr(T), "--U", repr(U), "--format", "csv"]
    code, out, err = run_in_process(argv)
    assert code == 0, (argv, err)
    params, evaluate = CutoffParams(half_line_T=T, indicator_scale_U=U), cli._FUNCTIONS[name]
    rows = [f"{cli._fmt(x)},{cli._fmt(evaluate(x, params))}" for x in cli._grid(start, stop, step)]
    assert out.split("\n") == ["x,raw", *rows, ""], argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(cli._FUNCTIONS)),
    start=st.one_of(st.sampled_from(EDGE_XS), st.floats(-50.0, 50.0)),
    step=st.floats(1e-3, 10.0),
    rows=st.integers(1, 40),
    T=st.floats(0.0, 1e300, exclude_min=True),
    U=st.floats(1.0, 1e300, exclude_min=True),
)
@example(name="delta", start=-1e-300, step=1e-300, rows=3, T=1e308, U=128.0)  # 2 T x overflows
def test_plot_csv_rows_are_the_evaluator_bit_for_bit(name, start, step, rows, T, U):
    assert_plot_csv_is_the_evaluator(name, start, start + (rows - 1) * step, step, T, U)


@pytest.mark.parametrize("name", sorted(cli._FUNCTIONS))
def test_plot_csv_at_edge_floats_is_the_evaluator_bit_for_bit(name):
    for T, U in ((100.0, 128.0), (1e300, 1e300), (1e308, 1.5), (5e-324, 1.0000000000000002)):
        for x in EDGE_XS:
            assert_plot_csv_is_the_evaluator(name, x, x, 1.0, T, U)


def swap_family_for_plain_wrappers(monkeypatch) -> list:
    """Swap each ``FAMILY`` evaluator, in every loaded heaviforge module and
    module-level dict that holds it, for a pass-through wrapper with no
    attributes of its own, as bench/tracer.py does.  Returns the list that
    each wrapped call appends to."""
    calls = []
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "heaviforge"]

    def plain(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    for original in list(cli._FUNCTIONS.values()):
        wrapper = plain(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
                elif type(value) is dict and not attr.startswith("__"):
                    for key in [k for k, v in value.items() if v is original]:
                        monkeypatch.setitem(value, key, wrapper)
    return calls


def test_stdout_is_the_same_under_the_tracers_wrappers(monkeypatch):
    argvs = [
        ["eval", "H1", "0"],
        ["eval", "delta", "1e-300", "--T", "1e308"],
        *(["plot", name, "-1", "1", "0.25", *fmt] for name in sorted(cli._FUNCTIONS)
          for fmt in ([], ["--format", "csv"])),
        ["table", "H1", "-1", "1", "0.5"],
        ["table", "delta", "-0.5", "0.5", "0.25", "--T", "40"],
    ]
    before = [run_in_process(argv) for argv in argvs]
    calls = swap_family_for_plain_wrappers(monkeypatch)
    assert [run_in_process(argv) for argv in argvs] == before
    assert calls  # eval went through the wrappers
    # the tracer counts table's rows through the integrate_* calls, which
    # eval_quadrature looks up at call time: one per row, handed its outcome
    from heaviforge import quadrature

    handed = []
    for name in ("integrate_half_line", "integrate_tan_interval"):
        def wrapper(*args, _name=name, _fn=getattr(quadrature, name), **kwargs):
            handed.append((_name, kwargs.get("seed_wave")))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(quadrature, name, wrapper)
    for argv, out in zip(argvs, before):
        if argv[0] == "table":
            handed.clear()
            assert run_in_process(argv) == out
            integrator = "integrate_half_line" if argv[1] == "delta" else "integrate_tan_interval"
            assert len(handed) == len(cli._grid(*map(float, argv[2:5])))
            assert all(name == integrator and type(state) is QuadratureResult for name, state in handed)


# the numbers an eval or plot argv draws from: signed zeros, the smallest
# subnormal, both ends of the range, and text float() reads as non-finite
ARGV_NUMBERS = ["0", "-0.0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e300", "-1e300",
                "1.7976931348623157e308", "-1.7976931348623157e308", "1", "-1", "0.5", "inf", "nan", "1e309"]


def _number(valid):
    """A value in ``valid``'s range, or an edge number that may be refused."""
    return st.one_of(valid.map(repr), st.sampled_from(ARGV_NUMBERS))


# option -> its values; eval refuses --format and plot --snap-atol, and
# --U with --eps is refused by both
ARGV_OPTIONS = {
    "--T": _number(st.floats(0.0, 1e300, exclude_min=True)),
    "--U": _number(st.floats(1.0, 1e300, exclude_min=True)),
    "--eps": _number(st.floats(0.0, 0.78, exclude_min=True)),
    "--snap-atol": _number(st.floats(0.0, 1.0)),
    "--format": st.sampled_from(["csv", "svg"]),
}


@st.composite
def eval_plot_argv(draw):
    command, name = draw(st.sampled_from(["eval", "plot"])), draw(st.sampled_from(sorted(cli._FUNCTIONS)))
    if command == "eval":
        argv = ["eval", name, draw(_number(st.floats(allow_nan=False, allow_infinity=False)))]
    elif draw(st.integers(0, 2)):  # a grid of at most 200 rows
        start, step, rows = draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-6, 1e3)), draw(st.integers(1, 200))
        argv = ["plot", name, repr(start), repr(start + (rows - 1) * step), repr(step)]
    else:  # edge numbers: most such grids are refused, or hold a few rows
        argv = ["plot", name, *(draw(st.sampled_from(ARGV_NUMBERS)) for _ in range(3))]
    for option in draw(st.lists(st.sampled_from(sorted(ARGV_OPTIONS)), unique=True, max_size=3)):
        argv += [option, draw(ARGV_OPTIONS[option])]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=eval_plot_argv())
@example(argv=["plot", "H1", "-1", "1", "0.5"])
@example(argv=["eval", "delta", "1e-300", "--T", "1e308"])
@example(argv=["plot", "delta", "-1e-300", "1e-300", "1e-300", "--T", "1e308", "--format", "csv"])
@example(argv=["plot", "rt", "-1e300", "1e300", "1e300", "--U", "1e300", "--format", "svg"])
def test_eval_and_plot_argv_return_a_result_or_exit_2(argv):
    code, out, err = run_in_process(argv)  # an exception other than SystemExit fails here
    assert code in (0, 2), argv
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        return
    if argv[0] == "eval":
        assert re.fullmatch(rf"{argv[1]}\(\S+\) raw=\S+ snapped=\S+\ncutoffs T=\S+ eps=\S+ U=\S+ snap_atol=\S+\n", out)
        return
    rows = len(cli._grid(*map(float, argv[2:5])))
    if "csv" in argv:
        lines = out.split("\n")
        assert lines[0] == "x,raw" and lines[-1] == ""
        assert len(lines) == rows + 2 and all(line.count(",") == 1 for line in lines[1:-1])
    else:
        (points,) = re.findall(r'points="([^"]*)"', out)
        assert len(points.split(" ")) == rows
        assert re.fullmatch(r"-?\d+\.\d\d,-?\d+\.\d\d( -?\d+\.\d\d,-?\d+\.\d\d)*", points), argv  # no nan or inf


# ---------------------------------------------------------------------------
# primes

def test_primes_small_run():
    proc = run_cli("primes", "10")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "n,sigma0_analytic,sigma0_exact,fes_snapped,pi_analytic,pi_sieve,match"
    last = lines[-1].split(",")
    assert last[0] == "10"
    assert float(last[4]) == pytest.approx(4.0, abs=0.25)
    assert last[5] == "4"
    assert "mismatches=0" in proc.stderr


def test_primes_trivial_run():
    proc = run_cli("primes", "1")
    assert proc.returncode == 0
    row = proc.stdout.strip().split("\n")[1].split(",")
    assert float(row[4]) == pytest.approx(0.0, abs=0.25)
    assert row[5] == "0"


def test_primes_full_range_has_no_mismatches():
    proc = run_cli("primes", "200")
    assert proc.returncode == 0
    assert "mismatches=0 of 200" in proc.stderr
    assert all(line.endswith(",1") for line in proc.stdout.strip().split("\n")[1:])


def test_primes_largest_range_has_no_mismatches():
    # no timing bound: the 60-s timeout only catches a return to quadratic time
    proc = run_cli("primes", "10000", timeout=60)
    assert proc.returncode == 0
    assert "mismatches=0 of 10000" in proc.stderr


def test_primes_inadequate_scale_exits_1():
    proc = run_cli("primes", "200", "--U", "2")
    assert proc.returncode == 1
    assert "mismatches=0" not in proc.stderr


def test_primes_eps_is_the_scale_through_the_tangent():
    U = repr(math.tan(math.pi / 2.0 - 0.05))
    by_eps = run_cli("primes", "60", "--eps", "0.05")
    by_scale = run_cli("primes", "60", "--U", U)
    assert by_eps.returncode == by_scale.returncode == 1  # U ~ 20 is too small for n = 60
    assert by_eps.stdout == by_scale.stdout
    assert by_eps.stderr == by_scale.stderr


def test_primes_rejects_zero_margin():
    proc = run_cli("primes", "10", "--eps", "0")
    assert proc.returncode == 2
    assert "tan_margin_eps" in proc.stderr


def test_primes_rejects_out_of_range():
    assert run_cli("primes", "0").returncode == 2
    assert run_cli("primes", "10001").returncode == 2


# scale values at the edges of CutoffParams, and 800/801, mid-range scales at
# which prime_chain skips some of each i's divisor terms, not all
PRIMES_SCALE_EDGES = [math.nextafter(1.0, 2.0), 2.0, 800.0, 801.0, 1e300, math.inf, math.nan, math.pi / 4]


@st.composite
def primes_argv(draw):
    scale = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(["--U", "--eps"]), st.sampled_from(PRIMES_SCALE_EDGES))))
    U = None
    if scale is not None:
        option, value = scale
        try:
            field = "indicator_scale_U" if option == "--U" else "tan_margin_eps"
            U = CutoffParams(**{field: value}).indicator_scale_U
        except ValueError:
            pass  # refused: the command exits 2 before any chain runs
    # below about 1e6 the chain keeps a share of every i's residues, so it
    # stays quadratic (primes 10000 --U 801 takes about 3 s, --U 2 about 17 s)
    n_max = draw(st.integers(-3, 400 if U is not None and U < 1e6 else 10_003))
    argv = ["primes", str(n_max)]
    if scale is not None:
        argv += [scale[0], repr(scale[1])]
    if draw(st.booleans()):
        argv += ["--format", "csv"]
    return argv


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(argv=primes_argv())
@example(argv=["primes", "10000"])
@example(argv=["primes", "10003"])
@example(argv=["primes", "-3", "--format", "csv"])
@example(argv=["primes", "400", "--U", "801"])
@example(argv=["primes", "400", "--U", repr(math.nextafter(1.0, 2.0))])
@example(argv=["primes", "10000", "--U", "1e+300"])
@example(argv=["primes", "10", "--U", "nan"])
@example(argv=["primes", "10", "--eps", repr(math.pi / 4)])
def test_primes_argv_returns_a_result_or_exits_2(argv):
    code, out, err = run_in_process(argv)  # an exception other than SystemExit fails here
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "" and "Traceback" not in err
        return
    n_max = int(argv[1])
    summary = re.fullmatch(rf"primes n_max={n_max} U=\S+ mismatches=(\d+) of {n_max}\n", err)
    assert summary, err
    mismatches = int(summary.group(1))
    assert (mismatches > 0) == (code == 1)
    lines = out.split("\n")
    assert lines.pop() == ""  # one LF after the last row
    assert len(lines) == n_max + 1
    assert all(line.count(",") == 6 for line in lines)
    assert sum(line.endswith(",0") for line in lines[1:]) == mismatches


# ---------------------------------------------------------------------------
# xiset / grandi

def test_xiset_expression():
    proc = run_cli("xiset", "{1}||{1,2} | {3}||0")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "xi_class 4"
    assert lines[1] == "components {1,3} || {1} || {1,2,3} || {1,2}"
    assert "atom 1: mode=all T={1,2,3,4}" in lines
    assert "atom 2: mode=some T={3,4}" in lines


def test_xiset_intersection():
    proc = run_cli("xiset", "{1} & {1}")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "xi_class 1"


def test_xiset_sorts_the_union_once(monkeypatch):
    # the components line and the atom lines come from one membership index,
    # so each atom of the union gets one sort key per command
    from heaviforge import xisets

    keys, atom_key = [], xisets.atom_key
    monkeypatch.setattr(xisets, "atom_key", lambda atom: keys.append(atom) or atom_key(atom))
    code, out, _ = run_in_process(["xiset", "{1,2}||{3} | {4}||0 & {1,a}"])
    assert (code, out) == (0, "xi_class 2\ncomponents {1} || 0\natom 1: mode=some T={1}\n")
    assert keys == [1]


def test_xiset_chain_reports_dangling_tail():
    proc = run_cli("xiset", "chain", "{1,2}", "0", "6", "shifted")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "result {1,2}"
    assert "dangling-tail 0" in lines


def test_xiset_parse_error_exits_2():
    proc = run_cli("xiset", "{1} &")
    assert proc.returncode == 2
    assert "position" in proc.stderr


@pytest.mark.parametrize("expr,message", [
    ("{\u0663}", "unexpected character '\u0663' (at position 1)"),
    ("{1}\u3000|{2}", "unexpected character '\\u3000' (at position 3)"),
])
def test_non_ascii_xiset_input_exits_2(expr, message):
    code, out, err = run_in_process(["xiset", expr])
    assert (code, out) == (2, "")
    assert message in err


def test_xiset_chain_of_any_length_returns_at_once():
    # the value is the first group's: no step per group, so any length returns at once
    proc = run_cli("xiset", "chain", "{1}", "{2}", "100000000000", "aligned", timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[:3] == ["result 0", "strategy aligned", "groups 100000000000"]


@pytest.mark.parametrize("args,message", [
    (("xiset", "(" * 3000 + "{1}" + ")" * 3000), "parentheses nested deeper than 100 (at position 100)"),
    (("xiset", " | ".join(["||".join(f"{{{i}}}" for i in range(400))] * 2)),
     "xi-set operation over 160000 component pairs exceeds the cap of 100000"),
    (("grandi", "1000001"), "k must lie in [1, 1000000], got 1000001"),
])
def test_oversized_xiset_and_grandi_inputs_exit_2(args, message):
    proc = run_cli(*args, timeout=60)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_grandi_output():
    proc = run_cli("grandi", "4")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "partial_sums 1,0,1,0"
    assert lines[1] == "cesaro_mean 1/2"


def test_grandi_odd():
    proc = run_cli("grandi", "101")
    assert "cesaro_mean 51/101" in proc.stdout


def test_grandi_rejects_zero():
    assert run_cli("grandi", "0").returncode == 2


# ---------------------------------------------------------------------------
# table / xiset / grandi argv

# table's options: eval and plot's, with --tol for --format
TABLE_OPTIONS = {**{option: values for option, values in ARGV_OPTIONS.items() if option != "--format"},
                 "--tol": _number(st.floats(0.0, 1e-3, exclude_min=True))}


# xiset text from the grammar: set literals of small atoms, || between
# components, the three operators and parentheses, or a chain
XISET_LITERALS = st.one_of(st.just("0"), st.lists(st.sampled_from(["0", "1", "2", "7", "42", "a", "b_2"]),
                                                  max_size=4).map(lambda atoms: "{" + ",".join(atoms) + "}"))
XISET_EXPRESSIONS = st.recursive(
    st.lists(XISET_LITERALS, min_size=1, max_size=4).map("||".join),
    lambda inner: st.one_of(st.tuples(inner, st.sampled_from([" & ", " | ", " \\ "]), inner).map("".join),
                            inner.map("({})".format)),
    max_leaves=6)
XISET_CHAINS = st.tuples(XISET_LITERALS, XISET_LITERALS, st.integers(0, 10**12),
                         st.sampled_from(["aligned", "shifted"])).map(lambda parts: "chain {} {} {} {}".format(*parts))


@st.composite
def table_xiset_grandi_argv(draw):
    command = draw(st.sampled_from(["table", "xiset", "grandi"]))
    if command == "xiset":  # one argument, or the text split into several, which xiset joins
        text = draw(st.one_of(XISET_EXPRESSIONS, XISET_CHAINS, xiset_texts()))
        return ["xiset", *(text.split() if draw(st.booleans()) else [text])]
    if command == "grandi":
        return ["grandi", draw(st.one_of(st.integers(-3, 2_000).map(str), st.sampled_from(["", "x", "1.5", "1e3"])))]
    name = draw(st.sampled_from(sorted(cli._FUNCTIONS)))
    if draw(st.integers(0, 2)):  # a grid of at most 20 rows
        start, step, rows = draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-6, 1e3)), draw(st.integers(1, 20))
        argv = ["table", name, repr(start), repr(start + (rows - 1) * step), repr(step)]
    else:  # edge numbers: most such grids are refused, or hold a few rows
        argv = ["table", name, *(draw(st.sampled_from(ARGV_NUMBERS)) for _ in range(3))]
    for option in draw(st.lists(st.sampled_from(sorted(TABLE_OPTIONS)), unique=True, max_size=3)):
        argv += [option, draw(TABLE_OPTIONS[option])]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=table_xiset_grandi_argv())
@example(argv=["table", "q", "10", "100", "10"])  # rows over the bound
@example(argv=["table", "u", "-1e200", "1e200", "1e199"])  # NaN integrand, after a warning
@example(argv=["table", "H1", "-1", "1", "0.5", "--tol", "5e-324"])  # out of budget
@example(argv=["xiset", "chain", "{1}", "{2}", "100000000000", "aligned"])
@example(argv=["grandi", "-1"])
@example(argv=["grandi", "0"])
@example(argv=["grandi", "1"])
@example(argv=["grandi", "2"])
@example(argv=["grandi", str(MAX_GRANDI_TERMS - 1)])
@example(argv=["grandi", str(MAX_GRANDI_TERMS)])
@example(argv=["grandi", str(MAX_GRANDI_TERMS + 1)])
def test_table_xiset_and_grandi_argv_return_a_result_or_exit_1_or_2(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # table's integrands warn, as a fresh process prints on stderr
        code, out, err = run_in_process(argv)  # an exception other than SystemExit fails here
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    assert all(w.category is RuntimeWarning for w in caught) and (not caught or argv[0] == "table")
    if code == 2:
        assert out == ""
        return
    if argv[0] == "grandi":
        assert (code, err) == (0, "")
        k = int(argv[1])
        sums, mean = out.split("\n")[:2]
        assert sums == "partial_sums " + ",".join("10"[n % 2] for n in range(k))
        assert mean.startswith("cesaro_mean ") and Fraction(mean.split()[1]) == Fraction((k + 1) // 2, k)
        return
    if argv[0] == "xiset":
        assert (code, err) == (0, "")
        assert re.match(r"xi_class \d+\ncomponents |result \S+\nstrategy ", out)
        return
    rows = len(cli._grid(*map(float, argv[2:5])))
    if code == 1 and err.startswith("heaviforge: quadrature failure: "):
        assert out == "" and err.count("\n") == 1
        return
    lines = out.split("\n")
    assert lines[0] == "x,raw,snapped,backend_delta" and lines[-1] == ""
    assert len(lines) == rows + 2 and all(line.count(",") == 3 for line in lines[1:-1])
    if code == 1:
        assert re.fullmatch(rf"table {argv[1]} tol=\S+ mismatches=[1-9]\d* of {rows} max_backend_delta=\S+ at x=\S+\n", err)
    else:
        assert err == ""
