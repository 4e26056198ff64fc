"""Acceptance criterion 9 (five desk-config trainings), run alone and timed.

    python3 tools/criterion9.py [--out C9.json]

Runs `tests/test_acceptance.py::test_criterion_09_desk_training` in one
pytest process from the checkout root. `PYTHONPATH` starts with the absolute
path of the checkout's `src/`, so the test's worker processes, which run in a
temporary directory, import the same `linf`. Any `PYTHONPATH` already set
follows it. The test itself is run as it is.

The JSON report holds the test's `ACCEPTANCE 9` line, pass or fail (null if
the test failed before printing it, with the tail of pytest's output in its
place), pytest's exit code and the wall time in seconds. The script exits
with pytest's exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST = "tests/test_acceptance.py::test_criterion_09_desk_training"
ACCEPTANCE = re.compile(r"ACCEPTANCE 9: (PASS|FAIL) - (.*)")


def command() -> list[str]:
    # the test prints its line once, past pytest's capture, in any capture mode
    return [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--capture=sys",
            TEST]


def environment(base: dict[str, str]) -> dict[str, str]:
    """`base` with the checkout's absolute `src/` first on `PYTHONPATH`."""
    env = dict(base)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), base.get("PYTHONPATH")) if p)
    return env


def parse(output: str) -> dict | None:
    """The last `ACCEPTANCE 9: PASS|FAIL - detail` line of `output`, if any."""
    found = None
    for line in output.splitlines():
        match = ACCEPTANCE.fullmatch(line.strip())
        if match:
            found = {"line": match.group(0), "passed": match.group(1) == "PASS",
                     "detail": match.group(2)}
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="C9.json", help="JSON file to write")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    proc = subprocess.run(command(), cwd=ROOT, env=environment(dict(os.environ)),
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    result = parse(proc.stdout)
    report = {
        "test": TEST,
        "acceptance": result,
        "exit_code": proc.returncode,
        "wall_s": round(seconds, 1),
    }
    if result is None:
        report["output_tail"] = (proc.stdout + proc.stderr)[-2000:]
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(result["line"] if result else f"no ACCEPTANCE 9 line (pytest exit {proc.returncode})")
    print(f"{seconds / 60:.1f} min; report in {args.out}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
