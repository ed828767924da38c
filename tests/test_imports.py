"""numpy is the quadrature backend's dependency only, and ``fractions`` (with
``decimal`` behind it) is ``grandi``'s: importing the package and running the
other subcommands must load neither.  Nothing outside the quadrature backend
loads ``dataclasses`` or ``inspect``, which cost every start.  The package and
the CLI load the closed-form core, ``cutoffs`` and ``stepfun``; every other
heaviforge module loads when a subcommand or a name needs it."""

import importlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# Runs in a fresh interpreter; prints one JSON object: for each step, whether
# numpy and fractions were loaded after it, the exit code of each command,
# which of dataclasses and inspect are new since the interpreter started (the
# start-up itself may load either, depending on the Python version), and which
# heaviforge modules are loaded; and checks that table's quadrature column
# comes from quadrature.eval_quadrature, that the package and quadrature give
# the same objects, and what dir() and a module's name read on the package.
SCRIPT = r"""
import contextlib, io, json, sys

preloaded = set(sys.modules)
loaded = {}

def record(step, code=0):
    new = sorted({"dataclasses", "inspect"} & (set(sys.modules) - preloaded))
    ours = sorted(name for name in sys.modules if name.startswith("heaviforge."))
    loaded[step] = ("numpy" in sys.modules, "fractions" in sys.modules, code, new, ours)

import heaviforge
record("import heaviforge")
hasattr(heaviforge, "__wrapped__")
record("hasattr __wrapped__")
from heaviforge import cli
record("import heaviforge.cli")

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    record(" ".join(argv), code)

for argv in (
    ["eval", "H1", "0"],
    ["plot", "H2", "-0.2", "0.2", "0.01"],
    ["plot", "rt", "-1", "1", "0.05", "--format", "csv"],
):
    run(argv)
from heaviforge import *
record("from heaviforge import *")
listed = set(dir(heaviforge))
for argv in (
    ["primes", "200"],
    ["xiset", "{1}||{1,2} | {3}||0 & {1,3}||{2}"],
    ["xiset", "chain", "{1,2}", "0", "6", "shifted"],
    ["grandi", "7"],
):
    run(argv)

from heaviforge.stepfun import Backend, StepKind, eval_step
eval_step(StepKind.H1, 0.3, backend=Backend.QUADRATURE)
record("eval_step H1 quadrature")

# table looks eval_quadrature up in quadrature when it runs: count its calls
import heaviforge.quadrature
eval_quadrature, table_calls = heaviforge.quadrature.eval_quadrature, []
heaviforge.quadrature.eval_quadrature = lambda name, *rest: table_calls.append(name) or eval_quadrature(name, *rest)
run(["table", "H1", "-1", "1", "0.5"])
heaviforge.quadrature.eval_quadrature = eval_quadrature

same = [
    table_calls == ["H1"],
    listed >= set(heaviforge.__all__),
    heaviforge.primes is sys.modules["heaviforge.primes"],
    heaviforge.integrate_half_line is heaviforge.quadrature.integrate_half_line,
    heaviforge.integrate_tan_interval is heaviforge.quadrature.integrate_tan_interval,
    heaviforge.integrate_interval is heaviforge.quadrature.integrate_interval,
    heaviforge.quadrature.CutoffParams is heaviforge.CutoffParams,
    heaviforge.quadrature.QuadratureError is heaviforge.QuadratureError,
    heaviforge.quadrature.QuadratureResult is heaviforge.QuadratureResult,
]
print(json.dumps({"loaded": loaded, "same": same}))
"""


def run_script():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_is_loaded_by_the_quadrature_backend_only():
    report = run_script()
    steps = list(report["loaded"].items())
    assert [step for step, _ in steps[-2:]] == ["eval_step H1 quadrature", "table H1 -1 1 0.5"]
    for step, (numpy_loaded, _, code, _, _) in steps[:-2]:
        assert code == 0, step
        assert not numpy_loaded, f"numpy loaded by: {step}"
    assert steps[-2][1][0] is True
    assert steps[-1][1][0] is True and steps[-1][1][2] == 0
    assert all(report["same"])


def test_fractions_is_loaded_by_grandi_only():
    steps = list(run_script()["loaded"].items())
    names = [step for step, _ in steps]
    first = names.index("grandi 7")
    for step, (_, fractions_loaded, _, _, _) in steps[:first]:
        assert not fractions_loaded, f"fractions loaded by: {step}"
    assert steps[first][1][1] is True


def test_dataclasses_and_inspect_are_not_loaded_outside_quadrature():
    steps = list(run_script()["loaded"].items())
    names = [step for step, _ in steps[:-2]]
    assert {"import heaviforge", "import heaviforge.cli", "from heaviforge import *"} <= set(names)
    # the last two steps run quadrature, and numpy loads inspect
    for step, (_, _, _, new, _) in steps[:-2]:
        assert new == [], f"{new} loaded by: {step}"


NUMPY_FREE = ("cutoffs", "stepfun", "piecewise", "primes", "xisets", "setexpr")
CORE = ["heaviforge.cli", "heaviforge.cutoffs", "heaviforge.stepfun"]


def test_the_package_and_the_cli_load_the_closed_form_core_only():
    loaded = run_script()["loaded"]
    assert loaded["import heaviforge"][4] == CORE[1:]
    assert loaded["hasattr __wrapped__"][4] == CORE[1:]  # an unknown dunder imports nothing
    for step in ("import heaviforge.cli", "eval H1 0", "plot H2 -0.2 0.2 0.01",
                 "plot rt -1 1 0.05 --format csv"):
        assert loaded[step][4] == CORE, step


def test_import_star_loads_every_numpy_free_module():
    numpy_loaded, _, _, _, ours = run_script()["loaded"]["from heaviforge import *"]
    assert ours == sorted(["heaviforge.cli", *(f"heaviforge.{name}" for name in NUMPY_FREE)])
    assert not numpy_loaded


# Runs one command in a fresh interpreter after importing the CLI; prints its
# exit code and the heaviforge modules the command loaded.
COMMAND_SCRIPT = r"""
import contextlib, io, json, sys
import heaviforge.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = heaviforge.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in set(sys.modules) - before if name.startswith("heaviforge"))]))
"""


# eval and plot are checked in SCRIPT: they load nothing past the CLI
@pytest.mark.parametrize("argv,added", [
    (["primes", "30"], ["heaviforge.primes"]),
    (["xiset", "{1}||{1,2} | {3}||0"], ["heaviforge.setexpr", "heaviforge.xisets"]),
    (["grandi", "7"], ["heaviforge.xisets"]),
    (["table", "H1", "-1", "1", "0.5"], ["heaviforge.quadrature"]),
])
def test_each_subcommand_loads_the_modules_it_runs(argv, added):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", COMMAND_SCRIPT, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, added]


def test_the_package_exports_its_modules_all():
    import heaviforge

    modules = [importlib.import_module(f"heaviforge.{name}") for name in NUMPY_FREE]
    assert heaviforge.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(heaviforge.__all__)) == len(heaviforge.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(heaviforge, name) is getattr(module, name), name


def test_each_public_name_is_declared_in_one_module():
    declared = {}
    for name in (*NUMPY_FREE, "quadrature"):
        for public in importlib.import_module(f"heaviforge.{name}").__all__:
            assert public not in declared, f"{public} is in {declared[public]}.__all__ and {name}.__all__"
            declared[public] = name


def test_unknown_package_attribute_raises_attribute_error():
    import heaviforge

    assert not hasattr(heaviforge, "integrate_nowhere")
