"""Every demo script runs to completion without a traceback and prints the
stdout pinned in ``golden/demos/``, byte for byte.

A change that alters a demo's stdout must say so in CHANGES.md; rewrite the
pinned files with ``PYTHONPATH=src python tests/test_demos.py``.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
PINNED = os.path.join(ROOT, "tests", "golden", "demos")


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, path], capture_output=True, text=True, env=env, timeout=60)


def pinned(path):
    return os.path.join(PINNED, os.path.basename(path)[:-len(".py")] + ".out")


def test_there_are_demos():
    assert DEMOS
    assert sorted(os.listdir(PINNED)) == sorted(os.path.basename(pinned(path)) for path in DEMOS)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    with open(pinned(path), newline="") as fh:
        assert proc.stdout == fh.read()


if __name__ == "__main__":
    os.makedirs(PINNED, exist_ok=True)
    for path in DEMOS:
        proc = run_demo(path)
        assert proc.returncode == 0, (path, proc.stderr)
        with open(pinned(path), "w", newline="") as fh:
            fh.write(proc.stdout)
