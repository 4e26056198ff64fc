"""tools/sr_memory.py: one tiny side end to end in its own process, and the
--sides parsing."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sr_memory.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("sr_memory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_side_reports_its_peak(tool, capsys):
    assert tool.main(["--sides", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["scale"], report["tau"], report["config"]) == (4.0, 0.5, "desk")
    (row,) = report["rows"]
    assert (row["lr_side"], row["output_pixels"]) == (4, 16 * 16)
    assert 0 < row["rss_before_mb"] <= row["peak_rss_mb"]
    assert row["bytes_per_output_pixel"] >= 0


@pytest.mark.parametrize("text", ["48,x", "0", "48,-1", ""])
def test_bad_sides_rejected(tool, text):
    with pytest.raises(argparse.ArgumentTypeError):
        tool.parse_sides(text)
