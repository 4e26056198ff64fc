"""tools/train_memory.py: the desk step end to end in its own process, and
the per-op attribution of what a tape's records reach."""

import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from linf import numerics as nm

TOOL = Path(__file__).resolve().parent.parent / "tools" / "train_memory.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("train_memory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_step_report(tool, capsys):
    assert tool.main([]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["config"], report["stage"], report["queries"]) == ("desk", 2, 2048)
    assert report["records"] > 0
    assert 0 < report["tape_mib"] <= report["forward_peak_mib"]
    assert report["tape_mib"] <= report["backward_peak_mib"]
    by_op = report["held_by_op_mib"]
    assert {"conv2d", "affine", "fourier_gather"} <= by_op.keys()
    assert list(by_op.values()) == sorted(by_op.values(), reverse=True)
    # every array the records reach was allocated during the forward and is
    # still held, so the attribution is part of the tape's figure
    assert sum(by_op.values()) <= report["tape_mib"] + 0.01 * len(by_op)


def test_arguments_rejected(tool, capsys):
    with pytest.raises(SystemExit) as exc:
        tool.main(["--sides", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_attribution_counts_each_traced_array_once(tool):
    """An array reached by two records counts for the first; arrays
    allocated before tracing (the leaves here) count for none."""
    rng = np.random.default_rng(0)
    x = nm.Tensor(rng.normal(size=(64, 32)), requires_grad=True)
    w = nm.Tensor(rng.normal(size=(32, 32)), requires_grad=True)
    tracemalloc.start()
    try:
        with nm.GradTape() as tape:
            h = nm.affine(x, w, np.zeros(32), relu=True)  # keeps h: its relu mask
            nm.mul(h, h)  # keeps h again
            nm.neg(nm.mul(x, x))  # keeps only the untraced x
        held = tool.held_by_op(tape._records)
    finally:
        tracemalloc.stop()
    assert held == {"affine": round(h.data.nbytes / 2**20, 2)}
