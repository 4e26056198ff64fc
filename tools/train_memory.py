"""Traced memory of one desk-config stage-2 training step.

    python3 tools/train_memory.py

The step runs in a fresh process with one BLAS thread, importing `linf` from
this tree's `src/`. The process builds the desk model (`configs/desk.cfg`,
seed 0, stage 2) and one batch of 2048 queries from the toy corpus, then
traces the step with `tracemalloc`: the forward (`loss_components` under a
`GradTape`) and the backward (`GradTape.backward`). Arrays allocated before
the step, the parameters and the batch among them, are not counted. The
script prints one JSON object. Its `_mib` keys hold mebibytes (2^20 bytes):

- `queries` and `records` (the tape's record count, `len(tape)`);
- `forward_peak_mib`: the traced peak during the forward;
- `tape_mib`: what is still allocated when the forward has returned, which
  is what the tape keeps for the backward;
- `backward_peak_mib`: the traced peak during the backward;
- `held_by_op_mib`: the arrays allocated during the forward that the tape's
  records reach (through their closures, the tensors they name and the
  views they hold), by op type. An array that several records reach counts
  once, for the first record in tape order.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import FunctionType

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CHILD = "--child"
MIB = 2**20


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns arr's memory (arr itself, or the base of a view)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _arrays(obj, seen: set[int]) -> list[np.ndarray]:
    """Every ndarray obj reaches through tuples, lists, Tensors' data and
    function closures, as the memory owner of each."""
    from linf.numerics import Tensor

    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [_owner(obj)]
    if isinstance(obj, Tensor):
        return _arrays(obj.data, seen)
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item, seen)]
    if isinstance(obj, FunctionType):
        cells = obj.__closure__ or ()
        return [a for cell in cells for a in _arrays(cell.cell_contents, seen)]
    return []


def _op_type(backward_fn) -> str:
    """The op a backward closure belongs to: `conv2d` for `conv2d.<locals>.bwd`."""
    return backward_fn.__qualname__.split(".<locals>")[0]


def held_by_op(records: list) -> dict[str, float]:
    """MiB of traced arrays reached from each op type's records, each array
    counted once, for the first record in tape order that reaches it."""
    held: dict[str, int] = {}
    counted: set[int] = set()
    for record in records:
        for arr in _arrays(record, set()):
            if id(arr) in counted or tracemalloc.get_object_traceback(arr) is None:
                continue  # counted already, or allocated before the step
            counted.add(id(arr))
            op = _op_type(record[-1])
            held[op] = held.get(op, 0) + arr.nbytes
    return {op: round(n / MIB, 2) for op, n in sorted(held.items(), key=lambda kv: -kv[1])}


def measure() -> dict:
    """One desk stage-2 step in this process, traced."""
    from linf import numerics as nm
    from linf.config import load_config
    from linf.corpus import toy_corpus
    from linf.model import Model
    from linf.training import loss_components, make_batch

    model_cfg, train_cfg, _ = load_config(str(ROOT / "configs" / "desk.cfg"))
    model = Model.create(model_cfg, seed=0)
    cfg = dataclasses.replace(train_cfg, stage=2)
    batch = make_batch(toy_corpus(2, 96, seed=2), cfg, np.random.default_rng(3),
                       patch_side=model_cfg.patch_side)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with nm.GradTape() as tape:
            total, _, _ = loss_components(batch, model, cfg)
        held, forward_peak = tracemalloc.get_traced_memory()
        by_op = held_by_op(tape._records)
        tracemalloc.reset_peak()
        tape.backward(total)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"config": "desk", "stage": 2, "queries": int(batch.coords.shape[0]),
            "records": len(tape),
            "forward_peak_mib": round((forward_peak - before) / MIB, 2),
            "tape_mib": round((held - before) / MIB, 2),
            "backward_peak_mib": round((backward_peak - before) / MIB, 2),
            "held_by_op_mib": by_op}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LINF_THREADS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), CHILD],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        print(f"the step failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return 1
    print(json.dumps(json.loads(proc.stdout), indent=1))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == [CHILD]:
        print(json.dumps(measure()))
        sys.exit(0)
    sys.exit(main())
