"""The yardstick: a frozen copy of linf run beside the program under test.

The benchmark shares a few cores of a host with other jobs, whose load moves
the speed of the same code by 20-30% within minutes, so runs of one commit a
few minutes apart disagree by more than any useful bound. A generic
calibration kernel does not cancel that: its speed follows the machine's
load with a different slope than each workload does. So run.py starts this
file as a child process, which loads `frozen_src/linf` (linf as of the
commit that defined the benchmark) with the same workload, seed and inputs,
and after every operation of the program under test it times the same
operation on the yardstick. Both see the same machine within a second of
each other, so their ratio keeps the program's own speed and drops the
machine's. The time metrics are reported in reference seconds:

    reference time = wall time x REF_UNIT_S[workload] / yardstick median

`workloads.py` drives both copies through linf's public functions, so it
must keep working against `frozen_src/linf` when the program's API changes.
The child's memory is its own and does not count in `peak_rss_mb`.

    python3 perfbench/yardstick.py --workload NAME --seed N --workdir DIR

prints the directory it loaded linf from when it is ready, then serves one
operation per line of stdin (the pool index) and answers each with its wall
time per step or image on stdout; run.py starts and stops it.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
FROZEN_SRC = HERE / "frozen_src"

# The yardstick's median seconds per step or image on the machine recorded in
# baseline.json's `env`, rounded: one reference second is the time in which
# that machine, at its median speed, runs this much of the frozen program.
REF_UNIT_S = {"train-desk": 0.22, "sr-pixel-x4": 0.85, "sr-patch3-large": 0.85}


class Yardstick:
    """The parent's handle on a running yardstick process."""

    def __init__(self, workload: str, seed: int, workdir: str):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--workdir", workdir]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.program = self._expect("ready").strip()  # where its linf was loaded from

    def _expect(self, what: str) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the yardstick exited before it was {what}")
        return line

    def run(self, k: int) -> float:
        """Seconds per step or image of the yardstick's operation on pool input k."""
        self.proc.stdin.write(f"{k}\n")
        self.proc.stdin.flush()
        return float(self._expect("done"))

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    reply = sys.stdout
    sys.stdout = sys.stderr  # whatever the program prints stays off the protocol
    sys.path.insert(0, str(FROZEN_SRC))  # before this file's directory
    import workloads

    workdir = os.path.join(args.workdir, "yardstick")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.make(args.workload, workdir)
    pool = wl.inputs(args.seed, wl.pool_size)
    wl.run(pool[0])  # warm-up
    print(os.path.dirname(workloads.pipeline.__file__), file=reply, flush=True)
    for line in sys.stdin:
        k = int(line)
        t0 = perf_counter()
        wl.run(pool[k])
        print(repr((perf_counter() - t0) / wl.units(pool[k])), file=reply, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve())
