"""Bit fingerprints of a parent revision and the working tree, compared.

    python3 tools/fingerprint.py PARENT [--out FP.json] [--threads N]

The parent is exported with `git archive` into a temporary directory. The
battery below runs once per side, each side in its own process (both at
once, BLAS on N threads each, 1 by default; N goes to `LINF_THREADS`,
`OMP_NUM_THREADS`, `OPENBLAS_NUM_THREADS` and `MKL_NUM_THREADS`) importing
`linf` from that side's `src/`:

- the loss and every parameter gradient over 3 Adam steps, for stages 1
  and 2 and both ensemble weightings, on perturbed desk and patch3 models,
  plus one stage-2 batch of 48x48 crops;
- a 4-step desk `train_log.csv`, its checkpoints, and a run resumed from the
  first one;
- a micro model trained through a singular flow weight (the rejitter path);
- `super_resolve` at `tau=0` and seeded `tau=0.6`, for both ensembles, both
  weightings, patch sides 1 and 3 and chunks of 4096 and 97 queries, on a
  19x23 and a 90x77 input (a tree whose `super_resolve` takes a `chunk`
  argument gets it; otherwise `pipeline.CHUNK_QUERIES` is set for the call);
- the CSV of `linf sweep` over the toy corpus at x2, `tau` 0 and 0.5, two
  samples, for both ensembles;
- the detail strings of `linf verify --level full`.

A fingerprint is the SHA-256 of a value's dtype, shape and raw bytes, so a
float differs when any bit does, -0.0 against +0.0 included. The script
prints every fingerprint that differs or exists on one side only, by name,
and exits 1 if any does. Fingerprints depend on the numpy and BLAS build and
on the CPU, so the tool compares two trees on one machine; no golden file is
kept. Some depend on the BLAS thread count too (the README's "Bit
contract"): they are the ones that differ between the `--out` files of a
run at `--threads 1` and a run at `--threads 2`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# run each side as `fingerprint.py --collect SRC`; the battery's fingerprints
# go to stdout as one JSON object
COLLECT = "--collect"

Record = Callable[[str, object], None]


def fingerprint(value) -> str:
    """SHA-256 over a value's type, shape and bytes (arrays by their raw bits)."""
    if isinstance(value, str):
        value = value.encode("utf-8")
    if isinstance(value, bytes):
        head, raw = b"bytes", value
    else:
        arr = np.ascontiguousarray(value)
        head, raw = f"{arr.dtype.str}{arr.shape}".encode(), arr.tobytes()
    return hashlib.sha256(head + b"\0" + raw).hexdigest()


def compare(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """Names whose fingerprints differ or exist on one side only, sorted."""
    return sorted(n for n in parent.keys() | change.keys() if parent.get(n) != change.get(n))


def report(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """One line per differing name, then a count."""
    names = compare(parent, change)
    lines = []
    for name in names:
        if name not in change:
            lines.append(f"only in parent: {name}")
        elif name not in parent:
            lines.append(f"only in change: {name}")
        else:
            lines.append(f"differs: {name}")
    total = len(parent.keys() | change.keys())
    lines.append(f"{len(names)} of {total} fingerprints differ")
    return lines


# -- the battery (runs inside a side's process) -----------------------------------


def perturbed(cfg, seed: int, std: float = 1e-3):
    """Model.create with every parameter shifted by seeded N(0, std^2) noise,
    so the zero-initialised head gives distinct patches and gradients."""
    from linf.model import Model

    model = Model.create(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for p in model.parameters().values():
        p.assign_(p.data + std * rng.standard_normal(p.shape))
    return model


def gradient_steps(record: Record, prefix: str, model, cfg, corpus, seed: int,
                   steps: int = 3) -> None:
    """Loss, nll, l1 and every parameter gradient over `steps` Adam steps."""
    from linf import numerics as nm
    from linf.training import Adam, loss_components, make_batch

    rng = np.random.default_rng(seed)
    adam = Adam(model.parameters(), cfg)
    for step in range(steps):
        batch = make_batch(corpus, cfg, rng, patch_side=model.cfg.patch_side)
        adam.zero_grad()
        with nm.GradTape() as tape:
            total, nll, l1 = loss_components(batch, model, cfg)
        tape.backward(total)
        record(f"{prefix}/step{step}/loss", np.array([total.data, nll, l1], dtype=np.float64))
        for name, p in model.parameters().items():
            record(f"{prefix}/step{step}/grad/{name}", p.grad)
        adam.step(cfg.learning_rate)


def battery_gradients(record: Record, configs: Path) -> None:
    from linf.config import load_config
    from linf.corpus import toy_corpus

    corpus = toy_corpus(8, 96, seed=3)
    for name in ("desk", "patch3"):
        model_cfg, train_cfg, _ = load_config(str(configs / f"{name}.cfg"))
        for stage in (1, 2):
            for weighting in ("full", "none"):
                mcfg = dataclasses.replace(model_cfg, ensemble_weighting=weighting)
                tcfg = dataclasses.replace(train_cfg, stage=stage, batch=4, learning_rate=1e-3)
                gradient_steps(record, f"grad/{name}/stage{stage}/{weighting}",
                               perturbed(mcfg, seed=5), tcfg, corpus, seed=7)
    model_cfg, train_cfg, _ = load_config(str(configs / "desk.cfg"))
    tcfg = dataclasses.replace(train_cfg, stage=2, batch=2, lr_crop=48, scale_min=1.0,
                               scale_max=2.0)
    gradient_steps(record, "grad/desk/crop48", perturbed(model_cfg, seed=6), tcfg,
                   toy_corpus(4, 96, seed=4), seed=8, steps=1)


def battery_training(record: Record, configs: Path, tmp: Path) -> None:
    from linf.config import load_config
    from linf.corpus import toy_corpus
    from linf.model import ModelConfig
    from linf.training import train

    model_cfg, train_cfg, _ = load_config(str(configs / "desk.cfg"))
    corpus = toy_corpus(8, 96, seed=2)
    cfg = dataclasses.replace(train_cfg, steps=4, steps_per_epoch=2)
    first, resumed = tmp / "train", tmp / "resume"
    train(corpus, cfg, model_cfg, out_dir=str(first))
    for path in sorted(first.iterdir()):
        record(f"train/{path.name}", path.read_bytes())
    resumed.mkdir()
    shutil.copy(first / "train_log.csv", resumed / "train_log.csv")
    train(corpus, cfg, out_dir=str(resumed), resume=str(first / "ckpt_epoch001.linf"))
    for path in sorted(resumed.iterdir()):
        record(f"resume/{path.name}", path.read_bytes())

    # a singular flow weight: the step is rejected and W re-jittered
    micro = ModelConfig(patch_side=1, frequencies=4, flow_layers=3, encoder_channels=8,
                        encoder_blocks=1, trunk_width=32, phase_hidden=8)
    model = perturbed(micro, seed=1)
    w = model.flow.weights[0].data.copy()
    w[0] = w[1]
    model.flow.weights[0].assign_(w)
    tcfg = dataclasses.replace(train_cfg, steps=3, batch=2, lr_crop=8, stage=2)
    result = train(toy_corpus(4, 32, seed=18), tcfg, model=model)
    record("rejitter/history", np.array(result.history, dtype=np.float64))
    for name, p in model.parameters().items():
        record(f"rejitter/param/{name}", p.data)


def super_resolve_in_chunks(pipeline, chunk: int, *args, **kwargs):
    """`pipeline.super_resolve(*args, **kwargs)` in chunks of `chunk` queries:
    through its `chunk` argument where it has one, otherwise with
    `pipeline.CHUNK_QUERIES` set to `chunk` for the call."""
    if "chunk" in inspect.signature(pipeline.super_resolve).parameters:
        return pipeline.super_resolve(*args, chunk=chunk, **kwargs)
    saved, pipeline.CHUNK_QUERIES = pipeline.CHUNK_QUERIES, chunk
    try:
        return pipeline.super_resolve(*args, **kwargs)
    finally:
        pipeline.CHUNK_QUERIES = saved


def battery_sr(record: Record, configs: Path) -> None:
    from linf import pipeline
    from linf.config import load_config
    from linf.corpus import toy_corpus
    from linf.imaging import bicubic_resample

    hr = toy_corpus(1, 180, seed=9)[0]
    inputs = {"19x23": (bicubic_resample(hr, 19, 23), 3.1),
              "90x77": (bicubic_resample(hr, 90, 77), 2.3)}
    for name in ("desk", "patch3"):
        model_cfg, _, _ = load_config(str(configs / f"{name}.cfg"))
        model = perturbed(model_cfg, seed=11)
        for weighting in ("full", "none"):
            model.cfg.ensemble_weighting = weighting
            for size, (lr, scale) in inputs.items():
                for ensemble in ("fourier", "local"):
                    for tau, seed in ((0.0, None), (0.6, 13)):
                        for chunk in (4096, 97):
                            out = super_resolve_in_chunks(pipeline, chunk, lr, scale, tau,
                                                          model, ensemble=ensemble, seed=seed)
                            record(f"sr/{name}/{weighting}/{size}/{ensemble}/tau{tau}/"
                                   f"chunk{chunk}", out.data)


def battery_cli(record: Record, configs: Path, tmp: Path) -> None:
    """`linf sweep` CSV bytes for both ensembles, from a saved perturbed desk model."""
    from linf import cli
    from linf.config import load_config
    from linf.training import save_checkpoint

    model_cfg, train_cfg, _ = load_config(str(configs / "desk.cfg"))
    model_path = tmp / "sweep.linf"
    save_checkpoint(str(model_path), perturbed(model_cfg, seed=12), train_cfg, 0, 0,
                    np.random.default_rng(0))
    for ensemble in ("fourier", "local"):
        out = tmp / f"sweep-{ensemble}.csv"
        argv = ["sweep", "--model", str(model_path), "--corpus", "toy", "--scale", "2",
                "--taus", "0,0.5", "--samples", "2", "--ensemble", ensemble, "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):  # stdout carries the fingerprints
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"linf {' '.join(argv)} exited {code}")
        record(f"cli/sweep/{ensemble}", out.read_bytes())


def battery_verify(record: Record) -> None:
    from linf.verify import LEVEL_FULL, run_suite

    for check in run_suite(LEVEL_FULL):
        record(f"verify/{check.name}", f"{check.passed} {check.detail}")


def collect(configs: Path) -> dict[str, str]:
    """The whole battery's fingerprints, by name."""
    prints: dict[str, str] = {}

    def record(name: str, value) -> None:
        prints[name] = fingerprint(value)

    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        battery_gradients(record, configs)
        battery_training(record, configs, Path(tmp))
        battery_sr(record, configs)
        battery_cli(record, configs, Path(tmp))
        battery_verify(record)
    return prints


# -- driver ------------------------------------------------------------------------


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


THREAD_VARIABLES = ("LINF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def start_side(root: Path, threads: int) -> subprocess.Popen:
    """This script's battery in a fresh process importing `linf` from
    root/src, with BLAS on `threads` threads."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               **{name: str(threads) for name in THREAD_VARIABLES})
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), COLLECT, str(root)],
                            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"--threads must be an integer >= 1, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("--out", help="JSON file for both sides' fingerprints")
    parser.add_argument("--threads", type=positive_int, default=1,
                        help="BLAS threads of both sides' processes (default 1)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fingerprint-parent-") as tmp:
        export(args.parent, Path(tmp))
        procs = {"parent": start_side(Path(tmp), args.threads),
                 "change": start_side(ROOT, args.threads)}
        prints = {}
        for side, proc in procs.items():
            stdout, stderr = proc.communicate()
            if proc.returncode != 0:
                print(f"{side} battery failed:\n{stderr[-2000:]}", file=sys.stderr)
                return 2
            prints[side] = json.loads(stdout)
    lines = report(prints["parent"], prints["change"])
    print("\n".join(lines))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"parent_rev": args.parent, "threads": args.threads, "differ": compare(prints["parent"], prints["change"]),
             **prints}, indent=1, sort_keys=True) + "\n")
    return 1 if len(lines) > 1 else 0


if __name__ == "__main__":
    if sys.argv[1:2] == [COLLECT]:
        print(json.dumps(collect(Path(sys.argv[2]) / "configs"), sort_keys=True))
        sys.exit(0)
    sys.exit(main())
