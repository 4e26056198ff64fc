"""Peak memory of one x4 super-resolution per LR side.

    python3 tools/sr_memory.py [--sides 48,128,256]

Each side runs in a fresh process with one BLAS thread, importing `linf`
from this tree's `src/`. The process builds the desk model
(`configs/desk.cfg`, seed 0) and a side x side toy LR image, then runs one
`super_resolve` at x4, `tau=0.5`, seed 1. Both high-water marks of its
resident set (`ru_maxrss`) are read: one before the call and one after it.
The script prints one JSON object with a row per side:

- `lr_side` and `output_pixels`;
- `rss_before_mb` and `peak_rss_mb`;
- `bytes_per_output_pixel`: how far the call raised the peak, per output
  pixel.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = "--child"
SCALE, TAU, SEED = 4.0, 0.5, 1


def max_rss_bytes() -> int:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024  # Linux reports KiB


def measure(side: int) -> dict:
    """One x4 super_resolve on a side x side input, in this process."""
    from linf.config import load_config
    from linf.corpus import toy_corpus
    from linf.model import Model
    from linf.pipeline import super_resolve

    model_cfg, _, _ = load_config(str(ROOT / "configs" / "desk.cfg"))
    model = Model.create(model_cfg, seed=0)
    lr = toy_corpus(1, side, seed=1)[0]
    before = max_rss_bytes()
    out = super_resolve(lr, SCALE, TAU, model, seed=SEED)
    peak = max_rss_bytes()
    pixels = out.height * out.width
    return {"lr_side": side, "output_pixels": pixels,
            "rss_before_mb": round(before / 2**20, 1), "peak_rss_mb": round(peak / 2**20, 1),
            "bytes_per_output_pixel": round((peak - before) / pixels, 1)}


def run_side(side: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LINF_THREADS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), CHILD, str(side)],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"side {side} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def parse_sides(text: str) -> list[int]:
    try:
        sides = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"--sides must be comma-separated integers, got {text!r}")
    if any(side < 1 for side in sides):
        raise argparse.ArgumentTypeError(f"every side must be >= 1, got {text!r}")
    return sides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sides", type=parse_sides, default=[48, 128, 256],
                        help="comma-separated LR sides (default 48,128,256)")
    args = parser.parse_args(argv)
    rows = [run_side(side) for side in args.sides]
    print(json.dumps({"scale": SCALE, "tau": TAU, "config": "desk", "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == [CHILD]:
        print(json.dumps(measure(int(sys.argv[2]))))
        sys.exit(0)
    sys.exit(main())
