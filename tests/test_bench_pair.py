"""tools/bench_pair.py: argument checks, report parsing and the report it
writes, with `git`, `export` and `bench` replaced; no benchmark is started."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_pair(monkeypatch):
    module = _load()

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the seeds were checked")

    for name in ("git", "export", "bench"):
        monkeypatch.setattr(module, name, must_not_run)
    return module


def test_seed_lists(bench_pair):
    assert bench_pair.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pair.parse_seeds("1-3,7") == [1, 2, 3, 7]


@pytest.mark.parametrize("seeds", ["5", "3-1", "1,4-2"])
def test_unsummarisable_seeds_rejected_before_any_run(bench_pair, tmp_path, capsys, seeds):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["HEAD", "--out", str(out), "--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_exact_share_read_from_the_report_lines():
    stdout = ("sr-pixel-x4  units_timed = 12\n"
              "sr-pixel-x4  exact_share = 0.75\n"
              '{"env": {}}\n{"correct": true}\n')
    module = _load()
    assert module.exact_share(stdout, "sr-pixel-x4") == 0.75
    assert module.exact_share(stdout, "train-desk") is None


@pytest.fixture
def fake_runs(monkeypatch):
    """bench_pair with a fake `bench` that fails on call number `fail_at`."""
    module = _load()
    metrics = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    calls = []

    def bench(root, workload, seed):
        calls.append((workload, seed))
        if len(calls) == module.fail_at:
            raise module.RunFailed(f"{workload} seed {seed} failed")
        share = 1.0 if root == module.ROOT else 0.5
        result = {"correct": True, "attempted": 4, "failed": 0, "exact_share": share,
                  "metrics": {m["name"]: {"value": float(len(calls))} for m in metrics}}
        return result, {"host": "test"}

    monkeypatch.setattr(module, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(module, "export", lambda rev, dest: None)
    monkeypatch.setattr(module, "bench", bench)
    module.fail_at = None
    return module


def test_exact_share_recorded_per_side_and_seed(fake_runs, tmp_path):
    out = tmp_path / "bench.json"
    assert fake_runs.main(["HEAD", "--out", str(out), "--seeds", "1-2"]) == 0
    report = json.loads(out.read_text())
    assert "error" not in report
    for workload in fake_runs.WORKLOADS:
        shares = report["workloads"][workload]["exact_share"]
        assert shares == {"parent": {"1": 0.5, "2": 0.5}, "change": {"1": 1.0, "2": 1.0}}


def test_failed_run_keeps_the_runs_so_far(fake_runs, tmp_path):
    # two seeds, two sides: calls 1-4 finish the first workload; in the
    # second, seed 2 runs the change (call 7) and then the parent, which fails
    fake_runs.fail_at = 8
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        fake_runs.main(["HEAD", "--out", str(out), "--seeds", "1-2"])
    assert exc.value.code != 0 and "seed 2 failed" in str(exc.value.code)
    report = json.loads(out.read_text())
    first, second = fake_runs.WORKLOADS[:2]
    assert "seed 2 failed" in report["error"]
    assert report["workloads"][first]["exact_share"]["change"] == {"1": 1.0, "2": 1.0}
    unfinished = report["workloads"][second]
    assert unfinished["unfinished"] is True
    assert [r["seed"] for r in unfinished["runs"]["parent"]] == [1]
    assert [r["seed"] for r in unfinished["runs"]["change"]] == [1, 2]
    assert unfinished["runs"]["change"][1]["exact_share"] == 1.0
    assert fake_runs.WORKLOADS[2] not in report["workloads"]
