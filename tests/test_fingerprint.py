"""tools/fingerprint.py: fingerprints, the comparison and its report, the exit
code and output file with the two sides replaced, and one in-process mutant
that the gradient battery must catch. No parent is exported."""

import importlib.util
import json
import types
from pathlib import Path

import numpy as np
import pytest

from linf import numerics as nm
from linf.corpus import toy_corpus
from linf.training import TrainConfig

from .helpers import micro_config
from .oracles import conditioner_head_chain

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fingerprint.py"


@pytest.fixture(scope="module")
def fp():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprints_see_every_bit(fp):
    a = np.array([1.0, 0.0, 2.5])
    assert fp.fingerprint(a) == fp.fingerprint(a.copy())
    assert fp.fingerprint(a) != fp.fingerprint(np.array([1.0, -0.0, 2.5]))
    assert fp.fingerprint(a) != fp.fingerprint(np.nextafter(a, 3.0))
    assert fp.fingerprint(a) != fp.fingerprint(a.reshape(3, 1))  # shape counts
    assert fp.fingerprint(a) != fp.fingerprint(a.astype(np.float32))  # dtype counts
    assert fp.fingerprint(a[::2]) == fp.fingerprint(np.array([1.0, 2.5]))  # layout does not
    assert fp.fingerprint("x") == fp.fingerprint(b"x") != fp.fingerprint(b"y")


def test_compare_and_report_name_every_difference(fp):
    parent = {"same": "1", "changed": "2", "gone": "3"}
    change = {"same": "1", "changed": "9", "new": "4"}
    assert fp.compare(parent, change) == ["changed", "gone", "new"]
    assert fp.report(parent, change) == [
        "differs: changed", "only in parent: gone", "only in change: new",
        "3 of 4 fingerprints differ",
    ]
    assert fp.compare(parent, dict(parent)) == []
    assert fp.report(parent, dict(parent)) == ["0 of 3 fingerprints differ"]


class _Side:
    """A finished side process that printed `prints`."""

    def __init__(self, prints, returncode=0):
        self.prints, self.returncode = prints, returncode

    def communicate(self):
        return json.dumps(self.prints), "battery crashed"


@pytest.mark.parametrize("change,code", [({"a": "1", "b": "2"}, 0), ({"a": "1", "b": "3"}, 1),
                                         ({"a": "1"}, 1)])
def test_exit_code_and_output_file(fp, monkeypatch, tmp_path, capsys, change, code):
    parent = {"a": "1", "b": "2"}
    sides = iter([_Side(parent), _Side(change)])
    monkeypatch.setattr(fp, "export", lambda rev, dest: None)
    monkeypatch.setattr(fp, "start_side", lambda root, threads: next(sides))
    out = tmp_path / "fp.json"
    assert fp.main(["HEAD~1", "--out", str(out)]) == code
    written = json.loads(out.read_text())
    assert (written["parent"], written["change"]) == (parent, change)
    assert written["differ"] == fp.compare(parent, change)
    assert (written["parent_rev"], written["threads"]) == ("HEAD~1", 1)
    assert capsys.readouterr().out.splitlines() == fp.report(parent, change)


@pytest.mark.parametrize("argv,threads", [([], 1), (["--threads", "3"], 3)])
def test_both_sides_get_the_thread_count(fp, monkeypatch, tmp_path, argv, threads):
    """Each side's child process sees the count in every thread variable;
    Popen is replaced, so no battery runs."""
    envs = []

    class FakePopen:
        def __init__(self, cmd, cwd, env, **kwargs):
            assert cmd[-2:] == [fp.COLLECT, str(cwd)]
            envs.append(env)
            self.returncode = 0

        def communicate(self):
            return "{}", ""

    monkeypatch.setattr(fp, "export", lambda rev, dest: None)
    monkeypatch.setattr(fp.subprocess, "Popen", FakePopen)
    monkeypatch.setenv("OMP_NUM_THREADS", "7")  # the caller's setting does not leak through
    assert fp.main(["HEAD~1", *argv]) == 0
    assert len(envs) == 2
    for env in envs:
        assert {name: env[name] for name in fp.THREAD_VARIABLES} == {
            "LINF_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
            "OPENBLAS_NUM_THREADS": str(threads), "MKL_NUM_THREADS": str(threads)}
        assert env["PYTHONPATH"].endswith("src")


@pytest.mark.parametrize("text", ["0", "-2", "two", "1.5"])
def test_bad_thread_counts_rejected(fp, text):
    with pytest.raises(SystemExit) as exc:
        fp.main(["HEAD~1", "--threads", text])
    assert exc.value.code == 2


def test_failed_side_exits_2(fp, monkeypatch, capsys):
    sides = iter([_Side({}, returncode=1), _Side({})])
    monkeypatch.setattr(fp, "export", lambda rev, dest: None)
    monkeypatch.setattr(fp, "start_side", lambda root, threads: next(sides))
    assert fp.main(["HEAD~1"]) == 2
    assert "parent battery failed" in capsys.readouterr().err


def test_cli_battery_records_both_sweeps_and_keeps_stdout_clean(fp, tmp_path, capsys):
    recorded = {}
    fp.battery_cli(recorded.__setitem__, ROOT / "configs", tmp_path)
    assert sorted(recorded) == ["cli/sweep/fourier", "cli/sweep/local"]
    for csv in recorded.values():
        lines = csv.decode().splitlines()
        assert lines[0] == "tau,psnr_y,ssim,diversity"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.5"]
    assert recorded["cli/sweep/fourier"] != recorded["cli/sweep/local"]
    assert capsys.readouterr().out == ""  # a side's stdout is its fingerprint JSON


def _gradient_prints(fp) -> dict[str, str]:
    prints = {}
    cfg = TrainConfig(lr_crop=6, batch=2, pairs_per_image=12, stage=2, seed=0)
    fp.gradient_steps(lambda name, value: prints.__setitem__(name, fp.fingerprint(value)),
                      "micro", fp.perturbed(micro_config(), seed=3), cfg,
                      toy_corpus(2, 32, seed=5), seed=4, steps=2)
    return prints


def test_sr_chunks_set_by_argument_or_by_constant(fp):
    """The sr battery sizes its chunks on a tree whose `super_resolve` takes
    `chunk` and on one whose pipeline reads `CHUNK_QUERIES`, and leaves the
    constant as it found it."""
    with_arg = types.ModuleType("with_arg")
    with_arg.super_resolve = lambda lr, seed=None, chunk=4096: (lr, seed, chunk)
    assert fp.super_resolve_in_chunks(with_arg, 97, "lr", seed=5) == ("lr", 5, 97)

    with_constant = types.ModuleType("with_constant")
    with_constant.CHUNK_QUERIES = 4096

    def super_resolve(lr, seed=None):
        if seed is None:
            raise ValueError("no seed")
        return lr, seed, with_constant.CHUNK_QUERIES

    with_constant.super_resolve = super_resolve
    assert fp.super_resolve_in_chunks(with_constant, 97, "lr", seed=5) == ("lr", 5, 97)
    assert with_constant.CHUNK_QUERIES == 4096
    with pytest.raises(ValueError):
        fp.super_resolve_in_chunks(with_constant, 97, "lr")
    assert with_constant.CHUNK_QUERIES == 4096


def test_gradient_battery_catches_a_rounding_mutant(fp, monkeypatch):
    base = _gradient_prints(fp)
    assert fp.compare(base, _gradient_prints(fp)) == []  # the battery repeats exactly

    def mutant(head, layers, dim, bound):
        # alpha = exp(pre/2)^2: the same function, rounded differently
        pre, _, phi = conditioner_head_chain(head, layers, dim, bound)
        halves = [nm.exp(nm.mul(p, 0.5)) for p in pre]
        return [nm.tsum(p, axis=1) for p in pre], [nm.mul(h, h) for h in halves], phi

    monkeypatch.setattr(nm, "conditioner_head", mutant)
    differ = fp.compare(base, _gradient_prints(fp))
    assert "micro/step0/grad/implicit.head.w" in differ
    assert set(differ) <= set(base)  # same names, other bits
