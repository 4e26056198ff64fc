"""Paired perfbench runs of a parent revision and the working tree.

    python3 tools/bench_pair.py PARENT_REV --out BENCH.json [--seeds 1-10]

The parent is exported with `git archive` into a temporary directory. For
every workload and seed, `perfbench/run.py --seconds 25 --trace 0` runs once
on each side, one run at a time, and the side that runs first alternates from
seed to seed. Each side runs its own `perfbench/`. The output holds, per
workload and end-to-end metric, both sides' values, medians and quartiles,
the change's median relative to the parent's, the pairs the change won (ties
count for neither side), the metric's bound from BENCHMARK.json, both SHAs
and each side's environment record, and per workload each side's
`exact_share` (the share of outputs bit-equal to the recorded reference) by
seed. It is rewritten after every workload. When a run fails, the runs
gathered so far, those of the unfinished workload included, are written with
the error before the script exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train-desk", "sr-pixel-x4", "sr-patch3-large")
SECONDS = 25


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,4,7' (or a mix) as a list of seeds; quartiles need two."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += span
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"{text!r}: the quartiles need at least two seeds")
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


class RunFailed(Exception):
    """A perfbench run exited non-zero."""


def exact_share(stdout: str, workload: str) -> float | None:
    """The value of a run's `<workload>  exact_share = x` report line, if any."""
    prefix = f"{workload}  exact_share = "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return None


def bench(root: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """The result line, with the run's exact share added, and the environment
    record of one run in `root`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{root}: {' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["exact_share"] = exact_share(proc.stdout, workload)
    return result, json.loads(lines[-2])["env"]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarise(runs: dict[str, list[dict]], metrics: dict[str, dict]) -> dict:
    """One finished workload: outcome counts, exact shares by seed, and per
    end-to-end metric both sides' summaries and the pair wins."""
    rows = {}
    for name, m in metrics.items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        better = (lambda c, p: c > p) if m["better"] == "higher" else (lambda c, p: c < p)
        parent, change = summary(vals["parent"]), summary(vals["change"])
        rows[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": parent, "change": change,
            "median_ratio": change["median"] / parent["median"],
            "change_wins": sum(better(c, p) for c, p in zip(vals["change"], vals["parent"])),
            "parent_wins": sum(better(p, c) for c, p in zip(vals["change"], vals["parent"])),
        }
    return {
        "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "exact_share": {side: {str(r["seed"]): r["exact_share"] for r in runs[side]}
                        for side in runs},
        "end_to_end": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {
        "parent_sha": git("rev-parse", args.parent),
        # with uncommitted (staged or tracked) changes, a commit object of the
        # working tree that no ref points to
        "change_sha": git("stash", "create") or git("rev-parse", "HEAD"),
        "run_seconds": SECONDS,
        "seeds": args.seeds,
        "workloads": {},
    }
    out = Path(args.out)
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        parent_root = Path(tmp)
        export(args.parent, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        for workload in WORKLOADS:
            runs = {"parent": [], "change": []}
            try:
                for i, seed in enumerate(args.seeds):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for side in order:
                        result, env = bench(sides[side], workload, seed)
                        runs[side].append({"seed": seed, **result})
                        report.setdefault(f"{side}_env", env)
                        print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                              f"failed={result['failed']}/{result['attempted']} "
                              f"exact_share={result['exact_share']}", flush=True)
            except RunFailed as exc:
                report["error"] = str(exc)
                report["workloads"][workload] = {"unfinished": True, "runs": runs}
                out.write_text(json.dumps(report, indent=1) + "\n")
                raise SystemExit(str(exc)) from None
            report["workloads"][workload] = summarise(runs, metrics)
            out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
