"""Run the benchmark over several seeds and report each end-to-end
metric's spread: the inter-quartile distance of its values as a share of
their median, next to the bound ``BENCHMARK.json`` gives it.

    python3 perfbench/spread.py --workload engine-sweep --seeds 10
    python3 perfbench/spread.py --seeds 10          # every workload

Runs are sequential, one process each, from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:] = [ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]

from perfbench.stats import median, quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, default=10, help="runs, seeds 1..N")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        bad = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, 0)
            bad += (not result["correct"]) + result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed={seed} " + " ".join(
                f"{n}={values[n][-1]:.4g}" for n in bounds), flush=True)
        print(f"\n{workload}: {args.seeds} runs, {bad} incorrect or failed")
        print(f"{'metric':14s} {'median':>10s} {'spread':>8s} {'bound':>6s}  within bound/3")
        for name, vals in values.items():
            spread = quartile_spread(vals)
            within = spread < bounds[name] / 3 or name == "setup_s"
            ok &= within and not bad
            print(f"{name:14s} {median(vals):10.4g} {spread:8.4f} {bounds[name]:6.2f}  {'yes' if within else 'NO'}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
