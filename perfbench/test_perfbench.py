"""Tests of the benchmark itself (about a minute):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_sources()

import tracer  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

SPEC = run.benchmark_spec()


def _bench(*args: str, cwd: Path = run.ROOT, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    values = {m: v["value"] for m, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "train-desk":
        assert values["numerics.backward.ms"] > 0 and values["training.adam.ms"] > 0
    else:
        assert values["numerics.backward.ms"] == 0 and values["numerics.tape.entries"] == 0
        assert values["implicit.bank_maps.calls"] >= 1
        assert values["implicit.conditioner.queries"] == 1


def _run_in_process(capsys, workload: str) -> dict:
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_perturbed_model_fails_the_output_check(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "PERTURB_STD", 2 * workloads.PERTURB_STD)
    result = _run_in_process(capsys, "sr-pixel-x4")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_perturbed_reference_fails_the_training_check(monkeypatch, capsys):
    refs = workloads.load_references()
    row = refs["train-desk"]["1"][0][3]  # the losses logged at step 4
    row[2] = math.nextafter(row[2], math.inf)  # one ulp: the replay must be bit-exact
    monkeypatch.setattr(workloads, "load_references", lambda: refs)
    result = _run_in_process(capsys, "train-desk")
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_sr_check_tolerance(tmp_path):
    wl = workloads.make("sr-pixel-x4", str(tmp_path))
    data = 0.1 + 0.8 * workloads.np.random.default_rng(0).random(wl.out_shape)
    ref = wl.fingerprint(workloads.Image(data))
    assert wl.check(workloads.Image(data.copy()), ref).exact
    near = wl.check(workloads.Image(data + 5e-13), ref)
    assert near.failed_units == 0 and not near.exact
    far = data.copy()
    far[7, 11, 1] += 1e-6
    assert wl.check(workloads.Image(far), ref).failed_units == 1
    assert wl.check(workloads.Image(data[1:]), ref).failed_units == 1


def test_yardstick_runs_the_frozen_program(tmp_path):
    with yardstick.Yardstick("sr-pixel-x4", 1, str(tmp_path)) as yard:
        assert Path(yard.program) == yardstick.FROZEN_SRC / "linf"
        assert yard.run(1) > 0
    assert yard.proc.returncode == 0


def test_tracer_restores_the_program():
    import linf.implicit
    import linf.pipeline

    original = linf.implicit.bank_maps
    with tracer.traced(tracer.SpanRecorder()):
        assert linf.pipeline.bank_maps is not original
        assert linf.pipeline.bank_maps is linf.implicit.bank_maps
    assert linf.pipeline.bank_maps is original and linf.implicit.bank_maps is original


def test_self_time_excludes_children():
    rec = tracer.SpanRecorder()
    rec.spans += [["outer", 0.0, 10.0, -1, "op", None], ["inner", 2.0, 5.0, 0, "op", 4.0]]
    totals = rec.totals("op")
    assert totals["outer"]["self_s"] == 7.0 and totals["inner"]["count"] == 4.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "train-desk", "--seed", "0", "--seconds", "1",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
