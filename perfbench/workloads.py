"""Seeded inputs, operations and output checks of the benchmark workloads.

Every input is a pure function of the workload seed and reaches the program
only through its public functions: toy-corpus images, models built with
`Model.create`, perturbed, and loaded back through a checkpoint the way
`linf sr` loads one, and the desk training config read from `configs/`.

An operation is one training step or one super-resolved image. Outputs are
compared with reference fingerprints recorded from the seed commit
(`references.json`); a seed without recorded references is compared with
the first output the run produced for the same input, so replay must then
be bit-exact within the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from linf import pipeline, training
from linf.config import load_config
from linf.corpus import toy_corpus
from linf.imaging import Image, bicubic_resample
from linf.model import Model, ModelConfig

ROOT = Path(__file__).resolve().parents[1]
REFERENCES = Path(__file__).resolve().parent / "references.json"

PROBE_SEED = 0  # the warm-up operation always runs this seed's first input
PERTURB_STD = 1e-3
SR_POOL = 4  # distinct images per seed; the closed loop cycles through them
TRAIN_STEPS = 8
TRAIN_STEPS_PER_EPOCH = 4  # two epoch checkpoints and a final one per call

# Accepted per-element distance of an sr output to a recorded reference that
# is not bit-identical: the bound ROADMAP item 2 allows for changed BLAS
# blocking. Training must replay the reference loss trace bit for bit.
SR_ATOL = 1e-12
PROJECTIONS = 3
PROJECTION_BLOCK = 1 << 14  # weights are drawn and used this many at a time


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _seeds(seed: int, stream: int) -> list[int]:
    """Independent integer seeds for the parts of one workload's inputs."""
    return [int(s) for s in np.random.SeedSequence([seed, stream]).generate_state(4)]


def load_references() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    failed_units: int
    exact: bool
    detail: str = ""


# -- super-resolution ----------------------------------------------------------------


@dataclass
class SrItem:
    model: Model
    lr: Image
    latent_seed: int


class SrWorkload:
    """`super_resolve` on seeded LR images with a seeded, perturbed model."""

    unit = "image"

    def __init__(self, name: str, config: str, lr_side: int, scale: float, tau: float,
                 stream: int, workdir: str):
        self.name = name
        self.config = ROOT / "configs" / config
        self.lr_side = lr_side
        self.scale = scale
        self.tau = tau
        self.stream = stream
        self.workdir = workdir
        self.pool_size = SR_POOL
        side = round_half_up(scale * lr_side)
        self.out_shape = (side, side, 3)
        patch_side = load_config(str(self.config))[0].patch_side
        self.queries_per_unit = (-(-side // patch_side)) ** 2

    def build_model(self, model_seed: int, perturb_seed: int) -> Model:
        model_cfg, train_cfg, _ = load_config(str(self.config))
        model = Model.create(model_cfg, seed=model_seed)
        rng = np.random.default_rng(perturb_seed)
        # the zero-initialised head makes every patch identical; perturb it
        for name, p in model.parameters().items():
            if name == "implicit.head.w" or name.endswith(".b"):
                p.assign_(p.data + PERTURB_STD * rng.standard_normal(p.shape))
        path = os.path.join(self.workdir, f"{self.name}-{model_seed}.linf")
        training.save_checkpoint(path, model, train_cfg, 0, 0, np.random.default_rng(0))
        return training.load_checkpoint(path).model

    def inputs(self, seed: int, count: int) -> list[SrItem]:
        model_seed, perturb_seed, image_seed, latent_seed = _seeds(seed, self.stream)
        model = self.build_model(model_seed, perturb_seed)
        hr = toy_corpus(count, 2 * self.lr_side, seed=image_seed)
        return [
            SrItem(model, bicubic_resample(img, self.lr_side, self.lr_side), latent_seed + i)
            for i, img in enumerate(hr)
        ]

    def units(self, item: SrItem) -> int:
        return 1

    def run(self, item: SrItem) -> Image:
        return pipeline.super_resolve(item.lr, self.scale, self.tau, item.model,
                                      seed=item.latent_seed)

    @staticmethod
    def _project(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dot products of `flat` with fixed Gaussian rows, and the rows' L1 norms.

        The rows are drawn block by block from a generator seeded with the
        size, so the benchmark never holds more than one block of weights.
        """
        rng = np.random.default_rng(flat.size)
        dots = np.zeros(PROJECTIONS)
        norms = np.zeros(PROJECTIONS)
        for row in range(PROJECTIONS):
            for start in range(0, flat.size, PROJECTION_BLOCK):
                chunk = flat[start:start + PROJECTION_BLOCK]
                w = rng.standard_normal(chunk.size)
                dots[row] += w @ chunk
                norms[row] += np.abs(w).sum()
        return dots, norms

    def fingerprint(self, out: Image) -> dict:
        flat = np.ascontiguousarray(out.data, dtype="<f8").reshape(-1)
        return {
            "sha256": hashlib.sha256(flat.tobytes()).hexdigest()[:32],
            "proj": [float(v) for v in self._project(flat)[0]],
        }

    def check(self, out: Image, ref: dict) -> Outcome:
        data = out.data
        if data.shape != self.out_shape:
            return Outcome(1, False, f"shape {data.shape} != {self.out_shape}")
        if not np.all(np.isfinite(data)) or data.min() < 0.0 or data.max() > 1.0:
            return Outcome(1, False, "values outside [0, 1] or not finite")
        flat = np.ascontiguousarray(data, dtype="<f8").reshape(-1)
        if hashlib.sha256(flat.tobytes()).hexdigest()[:32] == ref["sha256"]:
            return Outcome(0, True)
        dots, norms = self._project(flat)
        if np.all(np.abs(dots - ref["proj"]) <= SR_ATOL * norms):
            return Outcome(0, False, "within tolerance")
        return Outcome(1, False, "differs from the reference output")


# -- training ----------------------------------------------------------------------------


@dataclass
class TrainItem:
    corpus: list[Image]
    cfg: training.TrainConfig
    model_cfg: ModelConfig


class TrainWorkload:
    """`training.train` with the desk config on a seeded toy corpus."""

    name = "train-desk"
    unit = "step"
    pool_size = 1  # every call replays the same seeded run

    def __init__(self, workdir: str):
        self.out_dir = os.path.join(workdir, "train")
        self.config = ROOT / "configs" / "desk.cfg"
        _, cfg, _ = load_config(str(self.config))
        self.queries_per_unit = cfg.batch * cfg.pairs

    def inputs(self, seed: int, count: int) -> list[TrainItem]:
        model_cfg, cfg, data_cfg = load_config(str(self.config))
        train_seed, corpus_seed, _, _ = _seeds(seed, 0)
        cfg.steps = TRAIN_STEPS
        cfg.steps_per_epoch = TRAIN_STEPS_PER_EPOCH
        cfg.seed = train_seed
        corpus = toy_corpus(data_cfg.corpus_count, data_cfg.corpus_size, seed=corpus_seed)
        return [TrainItem(corpus, cfg, model_cfg)] * count

    def units(self, item: TrainItem) -> int:
        return item.cfg.steps

    def run(self, item: TrainItem) -> training.TrainResult:
        return training.train(item.corpus, item.cfg, item.model_cfg, out_dir=self.out_dir)

    def fingerprint(self, out: training.TrainResult) -> list:
        return [list(row) for row in out.history]

    def check(self, out: training.TrainResult, ref: list) -> Outcome:
        rows = self.fingerprint(out)
        steps = len(ref)
        if len(rows) != steps:
            return Outcome(steps, False, f"{len(rows)} logged steps, expected {steps}")
        saved = training.load_checkpoint(out.checkpoint_path).model.parameters()
        trained = out.model.parameters()
        if saved.keys() != trained.keys() or not all(
            np.array_equal(saved[k].data, trained[k].data) for k in trained
        ):
            return Outcome(steps, False, "final checkpoint does not match the trained model")
        bad = sum(a != b for a, b in zip(rows, ref))
        if bad:
            return Outcome(bad, False, f"{bad} steps differ from the reference loss trace")
        return Outcome(0, True)


def make(name: str, workdir: str):
    if name == "train-desk":
        return TrainWorkload(workdir)
    if name == "sr-pixel-x4":
        return SrWorkload(name, "desk.cfg", 48, 4.0, 0.5, 1, workdir)
    if name == "sr-patch3-large":
        return SrWorkload(name, "patch3.cfg", 128, 2.7, 0.0, 2, workdir)
    raise ValueError(f"unknown workload {name!r}")

