"""Argument checks of tools/bench_pair.py; no benchmark is started."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"


@pytest.fixture
def bench_pair(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

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
