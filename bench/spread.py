"""Run-to-run spread of the end-to-end metrics, as the acceptance rule sees it.

    python3 bench/spread.py --workload NAME --seeds 1-10 [--json OUT]

Runs ``bench/run.py --trace 0`` once per seed (one after another, never in
parallel) and prints, for every end-to-end metric, the median of the runs
and the distance between the first and third quartile as a share of that
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
in BENCHMARK.json; WIDE marks a spread not below a third of the bound.
``--json`` also writes the raw values, the summary and the input properties.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    inputs = []
    correct = True
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        inputs += [json.loads(line[len("# inputs "):]) for line in lines if line.startswith("# inputs ")]
        correct &= result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "iqr_share": spread, "bound": bounds[name]}
        flag = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"{name:<30} median {median:>14.6g}  iqr/median {spread:8.4f}  bound {bounds[name]}  {flag}")
    print(f"correct on every seed: {correct}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "correct": correct,
                       "values": values, "summary": summary, "inputs": inputs}, fh, indent=1)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
