"""Golden CLI outputs: fixed invocations against stored stdout and exit codes.

The files under ``golden/`` hold the stdout of each invocation below.  Every
command's stdout must match byte for byte, except ``table``: there the x, raw
and snapped columns must match exactly, while ``backend_delta`` (the
quadrature backend's distance from the closed form) need only stay within
``tol``, because a change of quadrature rule may move its last digits.

A change that alters any of these bytes must say so in CHANGES.md; rewrite
the files with ``PYTHONPATH=src python tests/test_golden.py``, or only the
named cases with ``PYTHONPATH=src python tests/test_golden.py NAME...``.
"""

import contextlib
import io
import os
import sys

import pytest

from heaviforge import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FUNCTIONS = ("f", "c", "u", "q", "rt", "H1", "H2", "delta")
TIGHT = ("--T", "25", "--eps", "0.05", "--tol", "1e-12")

# name -> (argv, exit code)
CASES = {
    **{f"eval_{fn}": (["eval", fn, "0.0625"], 0) for fn in FUNCTIONS},
    "eval_c_eps": (["eval", "c", "0.01", "--eps", "0.1"], 0),
    "eval_delta_T": (["eval", "delta", "0.003", "--T", "1000"], 0),
    "plot_svg": (["plot", "H2", "-0.2", "0.2", "0.01"], 0),
    "plot_csv": (["plot", "rt", "-1", "1", "0.05", "--format", "csv", "--U", "50"], 0),
    "plot_f_csv": (["plot", "f", "-3", "3", "0.25", "--format", "csv"], 0),
    "plot_delta_svg": (["plot", "delta", "-0.5", "0.5", "0.05"], 0),  # negative y
    "plot_one_point": (["plot", "H1", "0", "0", "1"], 0),  # flat x and y ranges
    "plot_u_huge_csv": (["plot", "u", "-1e300", "1e300", "1e299", "--format", "csv"], 0),
    "plot_u_flat_huge": (["plot", "u", "-1e300", "-1e300", "1"], 0),  # x +- 1.0 rounds away
    "plot_delta_flat_huge": (["plot", "delta", "0", "0", "1", "--T", "1e300"], 0),  # y +- 1.0 too
    "primes_200": (["primes", "200"], 0),
    "primes_1000": (["primes", "1000"], 0),
    "primes_200_U2": (["primes", "200", "--U", "2"], 1),
    "primes_500_U64": (["primes", "500", "--U", "64"], 1),
    "primes_60_eps": (["primes", "60", "--eps", "0.05"], 1),
    "xiset": (["xiset", "{1}||{1,2} | {3}||0 & {1,3}||{2}"], 0),
    "xiset_chain": (["xiset", "chain", "{1,2}", "0", "6", "shifted"], 0),
    "grandi": (["grandi", "7"], 0),
    **{f"table_{fn}": (["table", fn, "-2", "2", "0.125"], 0) for fn in FUNCTIONS},
    **{f"table_{fn}_tight": (["table", fn, "-0.5", "0.5", "0.03125", *TIGHT], 0) for fn in FUNCTIONS},
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def golden(name):
    with open(os.path.join(GOLDEN, f"{name}.out"), newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    argv, expected_code = CASES[name]
    code, text = run(argv)
    assert code == expected_code
    expected = golden(name)
    if argv[0] != "table":
        assert text == expected
        return
    tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else 1e-9
    rows, expected_rows = text.splitlines(), expected.splitlines()
    assert rows[0] == expected_rows[0] == "x,raw,snapped,backend_delta"
    assert len(rows) == len(expected_rows)
    for row, expected_row in zip(rows[1:], expected_rows[1:]):
        *exact, delta = row.split(",")
        assert exact == expected_row.split(",")[:3]
        assert float(delta) <= tol


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {' '.join(unknown)}")
    os.makedirs(GOLDEN, exist_ok=True)
    for name in names:
        argv, expected_code = CASES[name]
        code, text = run(argv)
        assert code == expected_code, (name, code)
        with open(os.path.join(GOLDEN, f"{name}.out"), "w", newline="") as fh:
            fh.write(text)
