"""Record the reference output fingerprints that run.py checks against.

    python3 perfbench/record.py --seeds 64

For every workload and every seed below --seeds, runs each pool input once
and stores the fingerprint of its output in perfbench/references.json,
replacing the file: the logged loss rows of a training call, or a digest and
three random projections of a super-resolved image. Run it only at a commit
whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args(argv)
    if not run.use_sources():
        return 2
    import workloads

    refs = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=run.ROOT)
    try:
        for name in run.WORKLOADS:
            wl = workloads.make(name, workdir)
            refs[name] = {
                str(seed): [wl.fingerprint(wl.run(item))
                            for item in wl.inputs(seed, wl.pool_size)]
                for seed in range(args.seeds)
            }
            print(f"{name}: {args.seeds} seeds recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCES.write_text(dump(refs))
    return 0


def dump(refs: dict) -> str:
    """JSON with one line per workload seed."""
    blocks = []
    for name in sorted(refs):
        seeds = sorted(refs[name].items(), key=lambda kv: int(kv[0]))
        lines = ",\n".join(f'  "{s}": {json.dumps(v, separators=(",", ":"))}' for s, v in seeds)
        blocks.append(f' "{name}": {{\n{lines}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
