"""tools/fingerprint.py: fingerprints, the comparison and its report, the exit
code and output file with the two sides replaced, and one in-process mutant
that the gradient battery must catch. No parent is exported."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from linf import numerics as nm
from linf.corpus import toy_corpus
from linf.training import TrainConfig

from .helpers import micro_config
from .oracles import conditioner_head_chain

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


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
    monkeypatch.setattr(fp, "start_side", lambda root: next(sides))
    out = tmp_path / "fp.json"
    assert fp.main(["HEAD~1", "--out", str(out)]) == code
    written = json.loads(out.read_text())
    assert (written["parent"], written["change"]) == (parent, change)
    assert written["differ"] == fp.compare(parent, change)
    assert capsys.readouterr().out.splitlines() == fp.report(parent, change)


def test_failed_side_exits_2(fp, monkeypatch, capsys):
    sides = iter([_Side({}, returncode=1), _Side({})])
    monkeypatch.setattr(fp, "export", lambda rev, dest: None)
    monkeypatch.setattr(fp, "start_side", lambda root: next(sides))
    assert fp.main(["HEAD~1"]) == 2
    assert "parent battery failed" in capsys.readouterr().err


def _gradient_prints(fp) -> dict[str, str]:
    prints = {}
    cfg = TrainConfig(lr_crop=6, batch=2, pairs_per_image=12, stage=2, seed=0)
    fp.gradient_steps(lambda name, value: prints.__setitem__(name, fp.fingerprint(value)),
                      "micro", fp.perturbed(micro_config(), seed=3), cfg,
                      toy_corpus(2, 32, seed=5), seed=4, steps=2)
    return prints


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
