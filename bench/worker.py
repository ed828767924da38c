"""One workload client: a single process, a closed loop, no threads.

    python3 bench/worker.py --workload NAME --seed N (--seconds S | --passes P)
                            [--trace] [--setup-only]

Imports ``heaviforge.cli`` from the checkout's ``src/`` and runs one
warm-up command, both timed together as ``setup_s``, then issues the
workload's commands one after another: ``heaviforge.cli.main(argv)`` with
stdout captured, or a ``piecewise.compose`` library call for the
closed-form sweep.  Each output is checked; a non-zero exit, an exception or
a rejected output counts as a failed command.

With ``--seconds`` whole passes run until the time is spent and at least
MIN_COMMANDS commands were issued, and about every PROBE_EVERY_S, between
two commands, the client starts a fresh ``--setup-only`` process and waits
for it, so that the set-up times sample the machine over the whole run as
the command latencies do.  A run that reaches HARD_LIMIT_S first
exits with an error rather than report percentiles from too few samples.
With ``--passes`` exactly that many run, so a traced run's counts repeat for
a fixed seed.  Prints one JSON object.
"""

from __future__ import annotations

import time

# Timed before this script imports anything else, so that setup_s includes
# every module heaviforge.cli pulls in (argparse, re, numpy, ...).
_IMPORT_START = time.perf_counter()
import heaviforge.cli as cli  # noqa: E402
import heaviforge.piecewise as piecewise  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from workloads import CHECKS, WORKLOADS, Command, check_compose, input_properties

ROOT_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MIN_COMMANDS = 100
HARD_LIMIT_S = 120.0  # start no new pass after this, whatever the other limits say
PROBE_EVERY_S = 2.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(name: str) -> float:
    """setup_s of a fresh client process, which this one waits for."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-only"],
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def compose_spec(cmd, piecewise):
    branches = tuple((lambda x, a=a, b=b, c=c: a + b * x + c * x * x) for a, b, c in cmd.info["coeffs"])
    return piecewise.PiecewiseSpec(tuple(cmd.info["breakpoints"]), branches)


def run_command(cmd, cli, piecewise):
    """Issue one command; returns (exit code, output)."""
    if cmd.kind == "compose":
        evaluator = piecewise.compose(compose_spec(cmd, piecewise))
        return 0, [evaluator(x) for x in cmd.info["xs"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(cmd.argv)
        except SystemExit as exc:  # argparse rejects a command this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


class Client:
    """Runs commands, times them, checks them, and tallies the results."""

    def __init__(self, workload, cli, piecewise, tracer=None):
        self.workload = workload
        self.cli, self.piecewise, self.tracer = cli, piecewise, tracer
        self.latencies_ms: list[float] = []
        self.pass_seconds: list[float] = []
        self.commands: list[tuple[str, dict]] = []  # (kind, props) of each command issued
        self.failed = 0
        self.failures: list[str] = []
        self.primes_rows = 0
        self.rss_mb: float | None = None  # peak RSS once MIN_COMMANDS were issued
        self.setup_probes: list[float] = []

    def issue(self, cmd) -> float:
        """Runs and checks one command; returns its latency in seconds."""
        index = len(self.latencies_ms)
        tracer = self.tracer
        span_start = tracer.begin(index) if tracer else None
        start = time.perf_counter()
        try:
            rc, out = run_command(cmd, self.cli, self.piecewise)
            error = None
        except Exception as exc:  # a crash in the program is a failed command
            rc, out, error = None, None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end(span_start)
        self.latencies_ms.append(1e3 * elapsed)
        self.commands.append((cmd.kind, cmd.props))
        if error is None:
            try:
                error = self.check(cmd, rc, out)
            except (ValueError, IndexError) as exc:  # the checks parse the output
                error = f"unparsable output: {exc}"
        if cmd.kind == "primes":
            self.primes_rows += cmd.info["n_max"]
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(cmd.argv)[:120] or cmd.kind}: {error}")
        return elapsed

    def check(self, cmd, rc, out) -> str | None:
        if cmd.kind == "compose":
            # the scale compose chose for this spec, read outside the timed call
            spec = compose_spec(cmd, self.piecewise)
            return check_compose(cmd, self.piecewise.default_cutoffs(spec).indicator_scale_U, out)
        return CHECKS[cmd.kind](cmd, rc, out)

    def run(self, seed: int, seconds: float | None, passes: int | None) -> None:
        start = time.perf_counter()
        last_probe = start - PROBE_EVERY_S
        p = 0
        while True:
            elapsed = time.perf_counter() - start
            if passes is not None and p >= passes:
                break
            if passes is None and elapsed >= seconds and len(self.latencies_ms) >= MIN_COMMANDS:
                break
            if elapsed >= HARD_LIMIT_S:
                break
            cmds = self.workload.make_pass(seed, p)
            if cmds is None:
                break  # the workload has no fresh inputs left
            # the program's time for the pass: the checks and probes in between are not counted
            pass_s = 0.0
            for cmd in cmds:
                if passes is None and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                    self.setup_probes.append(probe_setup(self.workload.name))
                    last_probe = time.perf_counter()
                pass_s += self.issue(cmd)
            self.pass_seconds.append(pass_s)
            p += 1
            if self.rss_mb is None and len(self.latencies_ms) >= MIN_COMMANDS:
                # fixed work, so the figure does not depend on how many passes
                # the machine's speed let the run fit in (the caches grow)
                self.rss_mb = peak_rss_mb()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not os.path.abspath(cli.__file__).startswith(ROOT_SRC + os.sep):
        print(f"heaviforge was imported from {cli.__file__}, not from {ROOT_SRC}", file=sys.stderr)
        return 2
    warmup_start = time.perf_counter()
    rc, _ = run_command(Command("warmup", list(workload.warmup)), cli, piecewise)
    setup_s = IMPORT_S + time.perf_counter() - warmup_start
    if rc != 0:
        print(f"warm-up command {workload.warmup} exited {rc}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        from tracer import Tracer

        with Tracer() as tracer:
            client = Client(workload, cli, piecewise, tracer)
            client.run(args.seed, args.seconds, args.passes)
        result["layers"] = tracer.layer_metrics(client.primes_rows)
        _write_spans(args, tracer.spans)
    else:
        client = Client(workload, cli, piecewise)
        client.run(args.seed, args.seconds, args.passes)
        if args.seconds is not None and len(client.latencies_ms) < MIN_COMMANDS:
            print(f"only {len(client.latencies_ms)} commands in {HARD_LIMIT_S:.0f} s, fewer than the "
                  f"{MIN_COMMANDS} that cmd_p90_ms needs", file=sys.stderr)
            return 3

    result.update(
        latencies_ms=client.latencies_ms,
        pass_seconds=client.pass_seconds,
        setup_probes=client.setup_probes,
        attempted=len(client.latencies_ms),
        failed=client.failed,
        failures=client.failures,
        peak_rss_mb=client.rss_mb if client.rss_mb is not None else peak_rss_mb(),
        inputs=input_properties(workload.name, client.commands),
    )
    print(json.dumps(result))
    return 0


def _write_spans(args, spans) -> None:
    """Spans stay in memory during the run and are written once at the end."""
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
