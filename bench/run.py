"""heaviforge benchmark: seeded CLI workloads in a closed loop.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from any directory; the program measured is the ``src/`` next to this
``bench/`` directory (nothing needs installing).  Each workload runs in one
fresh client process with no threads (see ``worker.py``).

``--trace 0`` reports the end-to-end metrics, with tracing off:

    setup_s      median over the client and the fresh processes it starts
                 between commands about every 2 s through the run (about
                 eleven in all) of the time to import heaviforge.cli plus
                 one warm-up command
    wall_s       the program's time to complete one pass (one whole command
                 list: the sum of its command latencies, so the benchmark's
                 checks are not counted), the median over the run's passes
    cmd_p50_ms   median command latency
    cmd_p90_ms   90th-percentile command latency (at least 100 commands, so
                 at least 10 samples lie beyond it)
    peak_rss_mb  peak resident memory of the client process over the passes
                 that issue its first 100 commands

Failed commands (non-zero exit, exception, or output the benchmark's own
checks reject) are reported as ``failed`` of ``attempted`` and printed as
``fail_frac``; any failure makes ``correct`` false.

``--trace 1`` runs the workload's fixed number of passes twice, in two fresh
processes: once plain and once with every public heaviforge function
wrapped from outside (``tracer.py``).  It reports the per-layer metrics of
the traced run and ``trace_overhead_frac``, the traced pass time over the
plain one, minus one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # every child process ends before this


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed command)."""


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    # one client thread: numpy's BLAS would otherwise start a worker thread
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a client process")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"client {' '.join(args)} did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"client {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    run = _worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds)], deadline)
    setups = run["setup_probes"] + [run["setup_s"]]
    latencies = run["latencies_ms"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(run["pass_seconds"]), "s"),
        "cmd_p50_ms": (statistics.median(latencies), "ms"),
        "cmd_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return metrics, run


def per_layer(name: str, seed: int, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", name, "--seed", str(seed), "--passes", str(WORKLOADS[name].trace_passes)]
    plain = _worker(common, deadline)
    traced = _worker(common + ["--trace"], deadline)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    overhead = sum(traced["pass_seconds"]) / sum(plain["pass_seconds"]) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "fraction")
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["failures"] += plain["failures"]
    return metrics, traced


def report(name: str, seed: int, trace: int, metrics: dict, run: dict) -> None:
    attempted, failed = run["attempted"], run["failed"]
    print(f"# workload {name}  seed {seed}  trace {trace}  passes {len(run['pass_seconds'])}  "
          f"commands {attempted}{' (plain and traced runs)' if trace else ''}  "
          f"latency samples {len(run['latencies_ms'])}")
    print(f"# inputs {json.dumps(run['inputs'])}")
    for key, (value, unit) in metrics.items():
        print(f"{name:<18} {key:<30} {value:>14.6g} {unit}")
    print(f"{name:<18} {'fail_frac':<30} {failed / attempted:>14.6g} fraction ({failed} of {attempted} commands)")
    for line in run["failures"]:
        print(f"# FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "heaviforge", "cli.py")):
        print(f"bench: no heaviforge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    combined, attempted, failed = {}, 0, 0
    try:
        for name in names:
            if args.trace:
                metrics, run = per_layer(name, args.seed, deadline)
            else:
                metrics, run = end_to_end(name, args.seed, args.seconds, deadline)
            report(name, args.seed, args.trace, metrics, run)
            attempted += run["attempted"]
            failed += run["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            combined.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
