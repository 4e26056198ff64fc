"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 9 trains five desk-scale models in single-threaded worker
processes (two at a time); everything else reuses the oracle battery in
linf.verify plus compact determinism replays.
"""

import os
import subprocess
import sys
import time

import numpy as np

from linf import verify
from linf.corpus import toy_corpus
from linf.imaging import bicubic_resample, bilinear_upsample, psnr
from linf.pipeline import super_resolve
from linf.training import TrainConfig, load_checkpoint, train

from .helpers import micro_config


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    # also bypass pytest capture so plain `pytest -v` logs show every line
    print(line, file=sys.__stdout__)
    assert ok, f"criterion {criterion}: {detail}"


def timed(fn):
    start = time.perf_counter()
    ok, detail = fn()
    return ok, detail, time.perf_counter() - start


def test_criterion_01_invertibility():
    ok, detail, secs = timed(verify.check_invertibility)
    report(1, ok and secs < 10.0, f"{detail}; {secs:.1f}s (bound 10s)")


def test_criterion_02_change_of_variables():
    ok, detail, secs = timed(verify.check_logdet_vs_numeric_jacobian)
    report(2, ok and secs < 30.0, f"{detail}; {secs:.1f}s (bound 30s)")


def test_criterion_03_gaussian_equivalence():
    ok, detail, secs = timed(verify.check_gaussian_equivalence)
    report(3, ok and secs < 30.0, f"{detail}; {secs:.1f}s (bound 30s)")


def test_criterion_04_gradient_audit():
    ok, detail, secs = timed(lambda: verify.check_gradient_audit(full=True))
    report(4, ok and secs < 120.0, f"{detail}; {secs:.1f}s (bound 120s)")


def test_criterion_05_density_normalization():
    ok, detail, secs = timed(verify.check_density_normalization)
    report(5, ok and secs < 60.0, f"{detail}; {secs:.1f}s (bound 60s)")


def test_criterion_06_temperature_law():
    ok, detail, secs = timed(verify.check_temperature_law)
    report(6, ok and secs < 30.0, f"{detail}; {secs:.1f}s (bound 30s)")


def test_criterion_07_ensemble_economics():
    ok, detail, _ = timed(verify.check_ensemble_economics)
    report(7, ok, detail)


def test_criterion_08_tiling_exactness():
    ok, detail, _ = timed(verify.check_tiling_exactness)
    report(8, ok, detail)


# the workers run in tmp_path, so the path must not depend on the cwd
DESK_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs", "desk.cfg")

_WORKER_SCRIPT = """
import sys
from linf.config import load_config
from linf.corpus import toy_corpus
from linf.training import train

seed, out_dir, config = int(sys.argv[1]), sys.argv[2], sys.argv[3]
model_cfg, train_cfg, data_cfg = load_config(config)
train_cfg.seed = seed
corpus = toy_corpus(data_cfg.corpus_count, data_cfg.corpus_size)
train(corpus, train_cfg, model_cfg, out_dir=out_dir)
"""


def _nll_drop(log_path: str, window: int = 50) -> float:
    rows = [line.split(",") for line in open(log_path).read().strip().splitlines()[1:]]
    nll = [float(r[2]) for r in rows]
    first = float(np.mean(nll[:window]))
    last = float(np.mean(nll[-window:]))
    return (first - last) / abs(first)


def test_criterion_09_desk_training(tmp_path):
    start = time.perf_counter()
    env = dict(os.environ)
    # skinny desk-scale gemms run fastest single-threaded; two workers share
    # the machine instead
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    seeds = [0, 1, 2, 3, 4]
    procs: dict[int, subprocess.Popen] = {}
    pending = list(seeds)
    failures = []
    while pending or procs:
        while pending and len(procs) < 2:
            seed = pending.pop(0)
            out_dir = str(tmp_path / f"run{seed}")
            procs[seed] = subprocess.Popen(
                [sys.executable, "-c", _WORKER_SCRIPT, str(seed), out_dir, DESK_CONFIG],
                env=env, cwd=str(tmp_path),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
        done = [s for s, p in procs.items() if p.poll() is not None]
        if not done:
            time.sleep(2.0)
            continue
        for seed in done:
            proc = procs.pop(seed)
            if proc.returncode != 0:
                failures.append(f"seed {seed}: {proc.stderr.read().decode()[-500:]}")
    assert not failures, "\n".join(failures)

    drops = [_nll_drop(str(tmp_path / f"run{s}" / "train_log.csv")) for s in seeds]
    median_drop = float(np.median(drops))

    model = load_checkpoint(str(tmp_path / "run0" / "ckpt_final.linf")).model
    sr_psnr, base_psnr = [], []
    for hr in toy_corpus(8, 96, seed=5678):  # held out: not the training seed
        lr = bicubic_resample(hr, 48, 48)
        sr_psnr.append(psnr(super_resolve(lr, 2.0, 0.0, model), hr, on_y_channel=True))
        base_psnr.append(psnr(bilinear_upsample(lr, 96, 96), hr, on_y_channel=True))
    margin = float(np.mean(sr_psnr) - np.mean(base_psnr))
    minutes = (time.perf_counter() - start) / 60.0

    ok = median_drop >= 0.20 and margin >= 0.2 and minutes < 30.0
    report(
        9,
        ok,
        f"median NLL drop {median_drop*100:.0f}% (floor 20%); tau=0 PSNR margin "
        f"{margin:+.2f} dB over bilinear (floor +0.2); {minutes:.1f} min (bound 30)",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = TrainConfig(
        lr_crop=8, batch=2, pairs_per_image=32, steps=10, steps_per_epoch=5,
        lr_halve_at=(6,), stage=2, seed=11,
    )
    corpus = toy_corpus(6, 32, seed=77)
    a = train(corpus, cfg, micro_config(), out_dir=str(tmp_path / "a"))
    b = train(corpus, cfg, micro_config(), out_dir=str(tmp_path / "b"))
    traces_equal = a.history == b.history
    bytes_equal = (
        (tmp_path / "a" / "ckpt_final.linf").read_bytes()
        == (tmp_path / "b" / "ckpt_final.linf").read_bytes()
    )

    lr = toy_corpus(1, 24, seed=5)[0]
    img1 = super_resolve(lr, 2.0, 0.7, a.model, seed=3)
    img2 = super_resolve(lr, 2.0, 0.7, b.model, seed=3)
    sr_equal = np.array_equal(img1.data, img2.data)

    half_cfg = TrainConfig(
        lr_crop=8, batch=2, pairs_per_image=32, steps=5, steps_per_epoch=5,
        lr_halve_at=(6,), stage=2, seed=11,
    )
    train(corpus, half_cfg, micro_config(), out_dir=str(tmp_path / "half"))
    resumed = train(corpus, cfg, None, out_dir=str(tmp_path / "resumed"),
                    resume=str(tmp_path / "half" / "ckpt_epoch001.linf"))
    resume_equal = resumed.history == a.history[5:] and all(
        np.array_equal(pa.data, pr.data)
        for pa, pr in zip(a.model.parameters().values(), resumed.model.parameters().values())
    )
    ok = traces_equal and bytes_equal and sr_equal and resume_equal
    report(
        10,
        ok,
        f"loss traces identical: {traces_equal}; checkpoint bytes identical: {bytes_equal}; "
        f"tau>0 outputs identical: {sr_equal}; resume continuation exact: {resume_equal}",
    )


def test_criterion_11_metric_oracles():
    ok, detail, _ = timed(verify.check_metric_oracles)
    report(11, ok, detail)
