"""Tests of the benchmark itself (not of heaviforge).

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import heaviforge  # noqa: E402
import heaviforge.cli as cli  # noqa: E402
import heaviforge.piecewise as piecewise  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

TIME_UNITS = {"s", "ms", "ns"}


def _fingerprint(cmds):
    return [(c.kind, c.argv, repr(sorted(c.info.items(), key=lambda kv: kv[0]))) for c in cmds]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make = WORKLOADS[name].make_pass
    assert _fingerprint(make(7, 0)) == _fingerprint(make(7, 0))
    assert _fingerprint(make(7, 1)) == _fingerprint(make(7, 1))
    assert _fingerprint(make(7, 0)) != _fingerprint(make(8, 0))
    assert _fingerprint(make(7, 0)) != _fingerprint(make(7, 1))


def test_primes_n_max_never_repeats_within_a_run():
    seen = []
    p = 0
    while (cmds := workloads.primes_pass(3, p)) is not None:
        seen += [c.info["n_max"] for c in cmds]
        p += 1
    assert p >= 4 and len(seen) == len(set(seen))
    assert min(seen) >= workloads.PRIMES_BULK[0] and max(seen) < workloads.PRIMES_TOP[1]


def _client(name, commands, monkeypatch=None, corrupt=None):
    if corrupt is not None:
        real = worker.run_command

        def corrupted(cmd, cli_mod, pw):
            rc, out = real(cmd, cli_mod, pw)
            return rc, corrupt(out)
        monkeypatch.setattr(worker, "run_command", corrupted)
    client = worker.Client(WORKLOADS[name], cli, piecewise)
    for cmd in commands:
        client.issue(cmd)
    return client


def _swap_row(out: str, row: int, column: int, value: str) -> str:
    lines = out.split("\n")
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines)


CORRUPTIONS = {
    # sigma0_exact of n=12 is 6
    "primes_chain": (Command("primes", ["primes", "40"], {"n_max": 40}), lambda out: _swap_row(out, 12, 2, "5")),
    # one snapped value of an H1 table far from the origin flipped
    "table_crosscheck": (
        workloads.table_pass(1, 0)[0],
        lambda out: _swap_row(out, 1, 2, "0.5"),
    ),
    # one composed value off by 1e-3
    "closed_form_sweep": (
        next(c for c in workloads.closed_form_pass(1, 0) if c.kind == "compose"),
        lambda vals: [v + 1e-3 if k == 3 else v for k, v in enumerate(vals)],
    ),
    # one component dropped from the printed xi-set
    "xiset_algebra": (
        next(c for c in workloads.xiset_pass(1, 0) if c.kind == "xiset"),
        lambda out: out.replace(" || ", " ", 1),
    ),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_correct_output_passes_and_a_corrupted_row_fails(name, monkeypatch):
    cmd, corrupt = CORRUPTIONS[name]
    clean = _client(name, [cmd])
    assert (clean.failed, clean.failures) == (0, [])
    bad = _client(name, [cmd, cmd], monkeypatch, corrupt)
    assert bad.failed == 2 and bad.failed / len(bad.latencies_ms) > 0


def test_exit_code_exception_and_garbage_count_as_failures(monkeypatch):
    cmd = Command("grandi", ["grandi", "5"], {"k": 5})
    monkeypatch.setattr(worker, "run_command", lambda *a: (1, ""))
    assert _client("xiset_algebra", [cmd]).failed == 1

    table = workloads.table_pass(1, 0)[0]
    monkeypatch.setattr(worker, "run_command", lambda *a: (0, "x,raw,snapped,backend_delta\nfoo,1,1,0\n"))
    assert "unparsable" in _client("table_crosscheck", [table]).failures[0]

    def boom(*a):
        raise RuntimeError("crash")
    monkeypatch.setattr(worker, "run_command", boom)
    assert _client("xiset_algebra", [cmd]).failed == 1


def test_a_run_short_of_min_commands_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(worker, "HARD_LIMIT_S", 0.0)  # no pass may start
    assert worker.main(["--workload", "xiset_algebra", "--seed", "1", "--seconds", "1"]) != 0
    out, err = capsys.readouterr()
    assert "cmd_p90_ms" in err and '"latencies_ms"' not in out


def test_tracer_takes_its_own_cost_out_of_the_caller():
    """A caller making many calls to an empty leaf keeps little self time:
    the leaf wrapper's cost is not charged to it."""
    def leaf(x):
        return x

    def caller(calls):
        for k in range(calls):
            wrapped(k)

    tr = Tracer()
    for _ in range(5):
        tr._calibrate()
    wrapped = tr._wrap_leaf("leaf", leaf)
    outer = tr._wrap_frame("caller", caller)
    outer(20_000)
    inner, out = tr.overhead_s()["leaf"]
    assert inner > 0 and out > 0
    _, caller_self = tr.corrected("caller")
    assert caller_self < 0.5 * 20_000 * (inner + out)


def _namespaces():
    mods = [heaviforge] + [sys.modules[f"heaviforge.{m}"] for m in tracer_mod.MODULES]
    snap = {}
    for mod in mods:
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if type(value) is dict and not attr.startswith("__"):
                for k, v in value.items():
                    snap[(mod.__name__, attr, k)] = v
    return snap


SAMPLE_ARGVS = [
    ["eval", "delta", "0.01"],
    ["table", "H1", "-0.5", "0.5", "0.25", "--tol", "1e-12"],
    ["table", "delta", "-0.1", "0.1", "0.05"],
    ["plot", "c", "-1", "1", "0.5"],
    ["plot", "rt", "-1", "1", "0.5", "--format", "csv"],
    ["primes", "30"],
    ["xiset", "{1,2}||{3} | {4}||0 & {1,4}"],
    ["xiset", "chain", "{1,2}", "{2}", "5", "shifted"],
    ["grandi", "7"],
]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_tracer_restores_every_function_and_keeps_stdout_identical():
    before = _namespaces()
    plain = [_stdout(argv) for argv in SAMPLE_ARGVS]
    with Tracer() as tr:
        assert cli._FUNCTIONS["f"] is not before[("heaviforge.cli", "_FUNCTIONS", "f")]
        assert cli.main is not before[("heaviforge.cli", "main")]
        assert heaviforge.eval_rt is not before[("heaviforge", "eval_rt")]
        traced = [_stdout(argv) for argv in SAMPLE_ARGVS]
    after = _namespaces()
    assert traced == plain
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tr.layer_metrics(rows=30)
    assert metrics["cli.commands"][0] == len(SAMPLE_ARGVS)
    assert metrics["quadrature.calls"][0] > 0 and metrics["xisets.op.calls"][0] > 0
    assert tr.spans and all(span is not None for span in tr.spans)


def test_tracer_restores_after_an_exception():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("stop")
    after = _namespaces()
    assert all(after[k] is before[k] for k in before)


_TRACED_COUNTS = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import heaviforge.cli as cli, heaviforge.piecewise as piecewise
import worker, workloads
from tracer import Tracer
cmds = workloads.WORKLOADS[{name!r}].make_pass(5, 0)
if {name!r} == "primes_chain":
    cmds = sorted(cmds, key=lambda c: c.info["n_max"])[:3]
with Tracer() as tr:
    client = worker.Client(workloads.WORKLOADS[{name!r}], cli, piecewise, tr)
    for cmd in cmds:
        client.issue(cmd)
print(json.dumps({{"failed": client.failed, "metrics": tr.layer_metrics(client.primes_rows)}}))
"""


def _traced_counts(name):
    code = _TRACED_COUNTS.format(bench=BENCH, src=os.path.join(ROOT, "src"), name=name)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    return {k: v for k, (v, unit) in result["metrics"].items() if unit not in TIME_UNITS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_counts_repeat_exactly_for_a_fixed_seed(name):
    first, second = _traced_counts(name), _traced_counts(name)
    assert first == second
    assert any(v for v in first.values())


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = {k: unit for k, (_, unit) in Tracer().layer_metrics(rows=0).items()}
    emitted["trace_overhead_frac"] = "fraction"
    assert emitted == per_layer
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "wall_s", "cmd_p50_ms", "cmd_p90_ms", "peak_rss_mb"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "xiset_algebra", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
