"""The linf benchmark: one workload in one process, a closed loop of one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (seeded inputs, models, checkpoints and one warm-up operation on a
fixed probe input) runs SETUPS times and `setup_s` is its median: once before
the loop and then at even intervals of it. The loop runs operations back to
back for S seconds of its own (set-up time excluded), cycling through the
seeded inputs, and checks every output; the program sees only those inputs.
After every operation a child process runs the same operation on the
yardstick, a frozen copy of linf, and the time metrics are given in
reference seconds: wall time scaled by the yardstick's speed in the same
run (see yardstick.py).

With --trace 0 the last line of stdout is the end-to-end result. With
--trace 1 operations alternate between untraced and traced; the traced ones
give the per-layer metrics and the difference between the two halves gives
the tracing overhead. `--workload all` runs every workload, each in its own
process. Results, the environment record and any spans are also written to
.perfbench-out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("train-desk", "sr-pixel-x4", "sr-patch3-large")
THREAD_VARS = ("LINF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Tally:
    """Attempted and failed operations (steps or images) and exact matches."""

    def __init__(self):
        self.attempted = self.failed = self.exact = 0

    def add(self, outcome, units: int) -> None:
        self.attempted += units
        self.failed += outcome.failed_units
        if outcome.exact:
            self.exact += units
        if outcome.failed_units:
            print(f"check failed: {outcome.detail}", file=sys.stderr)


@contextmanager
def step_clock(training, marks: list):
    """Timestamp every `training.make_batch` entry: the step boundaries."""
    original = training.make_batch

    def make_batch(*args, **kwargs):
        marks.append(perf_counter())
        return original(*args, **kwargs)

    training.make_batch = make_batch
    try:
        yield
    finally:
        training.make_batch = original


def measure(wl, seed: int, seconds: float, trace: bool, refs: dict, workdir: str):
    """Run set-up and the timed loop; returns (tally, metrics, info, recorder)."""
    import linf.training
    import tracer
    import workloads
    import yardstick

    recorder = tracer.SpanRecorder() if trace else None

    def tracing(active: bool, phase: str):
        if not active:
            return nullcontext()
        recorder.phase = phase
        return tracer.traced(recorder)

    tally = Tally()
    probe_ref = refs[str(workloads.PROBE_SEED)][0]
    seed_refs = refs.get(str(seed)) or [None] * wl.pool_size
    marks: list[float] = []
    setup_s = []
    unit_s = []  # per step or image, untraced operations
    per_unit = {False: [], True: []}  # operation time per step or image
    units = {False: 0, True: 0}
    yard_s = []  # the yardstick's time per step or image, one after every operation
    ref_unit_s = []  # unit_s in reference seconds, each scaled by its own yardstick pair
    busy = ref_busy = 0.0

    def set_up() -> list:
        with tracing(trace, "setup"):
            t0 = perf_counter()
            pool = wl.inputs(seed, wl.pool_size)
            probe = wl.inputs(workloads.PROBE_SEED, 1)[0]
            warm = wl.run(probe)
            setup_s.append(perf_counter() - t0)
        tally.add(wl.check(warm, probe_ref), wl.units(probe))
        return pool

    with step_clock(linf.training, marks):
        pool = set_up()
        yard = None if trace else yardstick.Yardstick(wl.name, seed, workdir)
        with yard or nullcontext():
            start = perf_counter()
            paused = 0.0  # set-up time inside the loop

            def elapsed() -> float:
                return perf_counter() - start - paused

            i = 0
            while elapsed() < seconds or i < (2 if trace else 1):
                if len(setup_s) < SETUPS and elapsed() >= len(setup_s) * seconds / SETUPS:
                    t0 = perf_counter()
                    set_up()
                    paused += perf_counter() - t0
                k = i % len(pool)
                traced_op = trace and i % 2 == 1
                i += 1
                n = wl.units(pool[k])
                marks.clear()
                try:
                    with tracing(traced_op, "op"):
                        t0 = perf_counter()
                        out = wl.run(pool[k])
                        t1 = perf_counter()
                except Exception:  # the loop keeps running; the operation counts as failed
                    traceback.print_exc()
                    tally.attempted += n
                    tally.failed += n
                    continue
                # reference seconds per wall second while this operation ran
                ref = 1.0
                if yard is not None:
                    yard_s.append(yard.run(k))
                    ref = yardstick.REF_UNIT_S[wl.name] / yard_s[-1]
                per_unit[traced_op].append((t1 - t0) / n)
                units[traced_op] += n
                if not traced_op:
                    busy += t1 - t0
                    ref_busy += (t1 - t0) * ref
                    if wl.unit == "step":
                        op_units = [b - a for a, b in zip(marks, marks[1:] + [t1])]
                    else:
                        op_units = [t1 - t0]
                    unit_s += op_units
                    ref_unit_s += [t * ref for t in op_units]
                if seed_refs[k] is None:
                    seed_refs[k] = wl.fingerprint(out)
                tally.add(wl.check(out, seed_refs[k]), n)
        while len(setup_s) < SETUPS:  # a loop shorter than the set-up interval
            set_up()

    info = {
        "unit": wl.unit,
        "units_timed": units[False],
        "units_traced": units[True],
        "error_rate": tally.failed / tally.attempted,
        "exact_share": tally.exact / tally.attempted,
        "reference": "recorded" if str(seed) in refs else "first output of this run",
    }
    if trace:
        metrics = tracer.layer_metrics(recorder, units[True], SETUPS, wl.queries_per_unit)
        metrics["trace.overhead_ms"] = 1000.0 * (
            statistics.median(per_unit[True]) - statistics.median(per_unit[False]))
    else:
        # set-ups have no yardstick pair of their own: the run's mean speed
        scale = yardstick.REF_UNIT_S[wl.name] / statistics.mean(yard_s)
        metrics = {
            "ops_per_s": units[False] / ref_busy,
            "op_ms.p50": 1000.0 * statistics.median(ref_unit_s),
            "setup_s": statistics.median(setup_s) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["yardstick_ms.p50"] = 1000.0 * statistics.median(yard_s)
        info["ref_scale"] = scale
        info.update(named_metrics(wl, unit_s, busy, units[False]))
    info["samples_ms"] = [1000.0 * t for t in unit_s]
    info["yardstick_samples_ms"] = [1000.0 * t for t in yard_s]
    info["setup_samples_s"] = setup_s
    return tally, metrics, info, recorder


def named_metrics(wl, unit_s: list, busy: float, units: int) -> dict:
    """The workload-specific names of the end-to-end numbers."""
    ms = [1000.0 * t for t in unit_s]
    p50 = statistics.median(ms)
    if wl.unit == "step":
        out = {"train.steps_per_s": units / busy, "train.step_ms.p50": p50,
               "train.step_ms.samples": len(ms)}
        if len(ms) >= 100:  # at least ten samples beyond the 90th percentile
            out["train.step_ms.p90"] = statistics.quantiles(ms, n=10)[-1]
        return out
    height, width, _ = wl.out_shape
    return {"sr.kpix_per_s": units * height * width / busy / 1000.0, "sr.image_ms.p50": p50,
            "sr.image_ms.samples": len(ms), "sr.output": f"{height}x{width}"}


def use_sources() -> bool:
    """Pin BLAS to one thread and the process to one CPU; import linf from src/."""
    if not (SRC / "linf" / "__init__.py").is_file():
        print(f"error: no linf sources under {SRC}", file=sys.stderr)
        return False
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    # one CPU for this process and the yardstick it starts, so that both run
    # on the same share of the host
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    return True


def run_one(args) -> int:
    if not use_sources():
        return 2
    import workloads

    spec = benchmark_spec()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        wl = workloads.make(args.workload, workdir)
        refs = workloads.load_references()[args.workload]
        tally, metrics, info, recorder = measure(
            wl, args.seed, args.seconds, bool(args.trace), refs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "info": info, "result": result}
    if recorder is not None:
        record["spans"] = recorder.spans
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    for key, value in info.items():
        if "samples_" not in key:  # the sample lists go to the record file only
            print(f"{args.workload}  {key} = {value}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"]:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
