"""tools/criterion9.py: the command and environment it builds, the report
line it parses and the JSON it writes, with `subprocess.run` replaced; no
pytest process or training is started."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "criterion9.py"

PASS_LINE = ("ACCEPTANCE 9: PASS - median NLL drop 1763% (floor 20%); tau=0 PSNR margin "
             "+2.45 dB over bilinear (floor +0.2); 15.4 min (bound 30)")


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("criterion9", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_command_runs_only_criterion_9(tool):
    cmd = tool.command()
    assert cmd[:3] == [sys.executable, "-m", "pytest"] and "--capture=sys" in cmd
    assert cmd[-1] == "tests/test_acceptance.py::test_criterion_09_desk_training"
    path, _, name = cmd[-1].partition("::")
    assert f"def {name}(" in (ROOT / path).read_text()


@pytest.mark.parametrize("inherited", [None, "src", f"src{os.pathsep}/elsewhere"])
def test_environment_puts_absolute_src_first(tool, inherited):
    base = {"HOME": "/home/x", **({"PYTHONPATH": inherited} if inherited else {})}
    env = tool.environment(base)
    first, *rest = env["PYTHONPATH"].split(os.pathsep)
    assert Path(first).is_absolute() and Path(first) == ROOT / "src"
    assert (Path(first) / "linf" / "__init__.py").is_file()
    assert rest == (inherited.split(os.pathsep) if inherited else [])
    assert env["HOME"] == "/home/x" and base.get("PYTHONPATH") == inherited


def test_parse_pass_and_fail_lines(tool):
    out = f"junk\n{PASS_LINE}\n1 passed in 921.3s\n"
    assert tool.parse(out) == {
        "line": PASS_LINE, "passed": True,
        "detail": PASS_LINE.split(" - ", 1)[1],
    }
    fail = "ACCEPTANCE 9: FAIL - median NLL drop 3% (floor 20%)"
    # pytest repeats the line in its captured-output section; the last counts
    parsed = tool.parse(f"{fail}\nE   AssertionError\n  {fail}\n")
    assert parsed["passed"] is False and parsed["line"] == fail
    assert tool.parse("ACCEPTANCE 10: PASS - x\nModuleNotFoundError\n") is None


def test_report_written_without_running_pytest(tool, tmp_path, monkeypatch, capsys):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs))
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{PASS_LINE}\n", stderr="")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    out = tmp_path / "c9.json"
    assert tool.main(["--out", str(out)]) == 0
    (cmd, kwargs), = calls
    assert cmd == tool.command() and kwargs["cwd"] == ROOT
    assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")
    report = json.loads(out.read_text())
    assert report["acceptance"]["line"] == PASS_LINE and report["acceptance"]["passed"]
    assert report["exit_code"] == 0 and report["wall_s"] >= 0
    assert "output_tail" not in report
    assert PASS_LINE in capsys.readouterr().out


def test_missing_line_keeps_the_output_tail(tool, tmp_path, monkeypatch):
    monkeypatch.setattr(tool.subprocess, "run", lambda cmd, **kw: subprocess.CompletedProcess(
        cmd, 1, stdout="F\n", stderr="ModuleNotFoundError: No module named 'linf'\n"))
    out = tmp_path / "c9.json"
    assert tool.main(["--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["acceptance"] is None and report["exit_code"] == 1
    assert "ModuleNotFoundError" in report["output_tail"]
