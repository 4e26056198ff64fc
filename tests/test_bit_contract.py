"""The bit contract across BLAS thread counts: with the desk config,
super_resolve (tau 0 and seeded tau 0.5) and one stage-2 batch's parameter
gradients hash the same at one, two and four BLAS threads. Each count runs
in its own process, because BLAS reads its thread count once at load time.
Four threads may oversubscribe the host's cores; the bits must hold then
too."""

import os
import subprocess
import sys
from pathlib import Path

import linf

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"
SRC = Path(linf.__file__).resolve().parents[1]

# prints one SHA-256 over every output and gradient, in a fixed order
_CHILD = r"""
import dataclasses, hashlib, sys
import numpy as np
from linf import numerics as nm
from linf.config import load_config
from linf.corpus import toy_corpus
from linf.model import Model
from linf.pipeline import super_resolve
from linf.training import loss_components, make_batch

model_cfg, train_cfg, _ = load_config(sys.argv[1])
model = Model.create(model_cfg, seed=0)
rng = np.random.default_rng(100)
# a perturbed model, so the zero-initialised head passes the trunk's bits on
for t in model.parameters().values():
    t.assign_(t.data + 1e-3 * rng.standard_normal(t.shape))
digest = hashlib.sha256()
lr = toy_corpus(1, 40, seed=1)[0]
for tau in (0.0, 0.5):
    digest.update(super_resolve(lr, 4.0, tau, model, seed=7).data.tobytes())
cfg = dataclasses.replace(train_cfg, stage=2)
batch = make_batch(toy_corpus(2, 96, seed=2), cfg, np.random.default_rng(3),
                   patch_side=model_cfg.patch_side)
with nm.GradTape() as tape:
    total, _, _ = loss_components(batch, model, cfg)
tape.backward(total)
for name, t in sorted(model.parameters().items()):
    digest.update(name.encode() + t.grad.tobytes())
print(digest.hexdigest())
"""


def test_desk_sr_and_gradients_equal_at_one_two_and_four_blas_threads():
    procs = {}
    for threads in ("1", "2", "4"):
        env = dict(os.environ, PYTHONPATH=str(SRC), LINF_THREADS=threads,
                   OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(CONFIG)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    hashes = {}
    for threads, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err[-2000:]
        hashes[threads] = out.strip()
    assert len(hashes["1"]) == 64
    assert hashes["1"] == hashes["2"] == hashes["4"]
