"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 [--out FILE]

Runs run.py once per seed (1..N) and workload, one run at a time, and prints
for every end-to-end metric the median, the quartiles and the spread
(quartile distance over the median) beside the metric's bound in
BENCHMARK.json. With --out it also makes one traced run per workload and
writes everything, with the environment record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result and the environment record of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = run.benchmark_spec()
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    steady = True
    for name in run.WORKLOADS:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in report["seeds"]:
            result, env = bench(name, seed, seconds, 0)
            steady &= result["correct"]
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
        rows = {}
        for m in spec["end_to_end"]:
            q1, median, q3 = statistics.quantiles(values[m["name"]], n=4)
            spread = (q3 - q1) / median
            rows[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                               "bound": m["bound"], "unit": m["unit"], "values": values[m["name"]]}
            steady &= spread <= m["bound"] / 3
            print(f"{name:16s} {m['name']:12s} median {median:12.4f} {m['unit']:4s} "
                  f"spread {spread:7.2%} bound {m['bound']:.0%}")
        report["workloads"][name] = {"end_to_end": rows}
        if args.out:
            traced, _ = bench(name, 1, seconds, 1)
            report["workloads"][name]["per_layer_seed1"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
        report["env"] = env
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady: a spread exceeds a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
