"""Golden CLI outputs: fixed invocations against stored stdout and exit codes.

The files under ``golden/`` hold the stdout of each invocation below, and
every command's stdout must match byte for byte.  ``table``'s
``backend_delta`` column holds quadrature bits: ``quadrature._gk_sums``
forms each panel's Gauss-Kronrod sums elementwise, without BLAS, so they do
not depend on the OpenBLAS kernel numpy picks for the CPU
(``test_table_bytes_do_not_depend_on_the_blas_kernel``).  The closed forms
call libm (``tanh``, ``exp``), so the goldens hold that libm's bits.

A change that alters any of these bytes must say so in CHANGES.md; rewrite
the files with ``PYTHONPATH=src python tests/test_golden.py``, or only the
named cases with ``PYTHONPATH=src python tests/test_golden.py NAME...``.
"""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from heaviforge import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FUNCTIONS = ("f", "c", "u", "q", "rt", "H1", "H2", "delta")
TIGHT = ("--T", "25", "--eps", "0.05", "--tol", "1e-12")
F_MAX = "1.7976931348623157e308"  # the largest float
XI_WIDE = (  # the first xiset command of xiset_pass(7, 0) in bench/workloads.py
    "{23}||{16,5,15,14,c,19,9,e,11,20,12,3}||{18,22,30,5,b,26,9}||{15,11,10,a,9,d}"
    " | {8,20,27,7,10}||{c,6,15,20,f,9,7,13}||{12,9,e,11,10,b,1}||{b,9}||0"
    "||{14,28,29,16,13,4,30,27,3,7,b,e,a}||{9,21,28,2,d,f,b,15,7,13,3}||{1,e,10}"
    " \\ ({3,25,5,29,c,14,1}||{12,28,1,b,30}||{6,15,25,23,26,a,14,29,18,4,27}||{27}"
    " | {17,25,9,a,22}||{21,7,b,10,3,5,9,20}||{2,24,12,20,19,a,9,22,25,c,10}"
    "||{30,18,14,16,28,17,10,24,25,d}||{b,29,14,1,9,19}||{9,e,4}"
    "||{11,1,20,6,8,3,14,16,d,12,13,b}||{24,15})"
)

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
    "plot_f_flat_max": (["plot", "f", F_MAX, F_MAX, "1"], 0),  # x + pad overflows
    "primes_200": (["primes", "200"], 0),
    "primes_1000": (["primes", "1000"], 0),
    "primes_200_U2": (["primes", "200", "--U", "2"], 1),
    "primes_500_U64": (["primes", "500", "--U", "64"], 1),
    "primes_60_eps": (["primes", "60", "--eps", "0.05"], 1),
    "xiset": (["xiset", "{1}||{1,2} | {3}||0 & {1,3}||{2}"], 0),
    "xiset_chain": (["xiset", "chain", "{1,2}", "0", "6", "shifted"], 0),
    # class 698, integer and name atoms, an empty component
    "xiset_class_698": (["xiset", XI_WIDE], 0),
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
    assert text == golden(name)


def _dynamic_arch_openblas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy, or no BLAS listed
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="OPENBLAS_CORETYPE picks a kernel only in an OpenBLAS built with DYNAMIC_ARCH")
def test_table_bytes_do_not_depend_on_the_blas_kernel():
    # Prescott, an SSE3 kernel, summed some panels with other bits than the
    # Haswell one when the sums were BLAS products
    argv, expected_code = CASES["table_H1"]
    root = os.path.join(os.path.dirname(GOLDEN), os.pardir)
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "heaviforge", *argv], capture_output=True, env=env, timeout=120)
    assert proc.returncode == expected_code
    assert proc.stdout == golden("table_H1").encode()


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
