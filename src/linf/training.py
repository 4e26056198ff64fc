"""Data pipeline, loss assembly, Adam optimization, and checkpointing.

One training sample: draw scale s ~ U(range), crop round(s*lr_crop)^2 from a
corpus image, bicubic-downsample to lr_crop^2, and select a fixed number of
(patch-center, texture-target) pairs without replacement from the crop's
grid. Stage 1 minimizes weighted NLL; stage 2 adds an L1 term on the tau=0
prediction. The perceptual term of the full objective is out of scope here
and fixed at zero.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nm
from .encoder import encode_batch
from .errors import ConfigError, SingularMatrixError, TrainingError, UsageError, check_ranges
from .imaging import Image, bicubic_resample, write_atomic
from .implicit import bank_maps, condition, phase_vector
from .model import Model, ModelConfig, param_layout
from .pipeline import PatchGrid, extract_targets, round_half_up

logger = logging.getLogger("linf.training")

CHECKPOINT_MAGIC = b"LINF"
CHECKPOINT_VERSION = 1

LOG_HEADER = "step,epoch,nll,l1,total,lr"


@dataclass
class TrainConfig:
    lr_crop: int = 16
    scale_min: float = 1.0
    scale_max: float = 4.0
    pairs_per_image: int | None = None  # default lr_crop^2
    batch: int = 8
    lambda_nll: float = 5e-4
    lambda_l1: float = 1.0
    stage: int = 1
    learning_rate: float = 1e-4
    lr_halve_at: tuple[int, ...] = (1000, 1500)
    steps: int = 2000
    steps_per_epoch: int = 500
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    dequant: float = 1.0 / 255.0
    flips: bool = True

    def __post_init__(self):
        # field -> (in range, the range); NaN fails every comparison
        inf = math.inf
        check_ranges("train", self, {
            "lr_crop": (self.lr_crop >= 2, ">= 2"),
            "scale_max": (0 < self.scale_max < inf, "finite and > 0"),
            "scale_min": (0 < self.scale_min <= self.scale_max, "> 0 and <= scale_max"),
            "pairs_per_image": (self.pairs_per_image is None or self.pairs_per_image >= 0,
                                ">= 0 (0: lr_crop^2)"),
            "batch": (self.batch >= 1, ">= 1"),
            "lambda_nll": (0 <= self.lambda_nll < inf, "finite and >= 0"),
            "lambda_l1": (0 <= self.lambda_l1 < inf, "finite and >= 0"),
            "stage": (self.stage in (1, 2), "1 or 2"),
            "learning_rate": (0 < self.learning_rate < inf, "finite and > 0"),
            "lr_halve_at": (all(s >= 1 for s in self.lr_halve_at), "steps >= 1"),
            "steps": (self.steps >= 0, ">= 0"),
            "steps_per_epoch": (self.steps_per_epoch >= 1, ">= 1"),
            "adam_beta1": (0 <= self.adam_beta1 < 1, "in [0, 1)"),
            "adam_beta2": (0 <= self.adam_beta2 < 1, "in [0, 1)"),
            "adam_eps": (0 < self.adam_eps < inf, "finite and > 0"),
            "seed": (self.seed >= 0, ">= 0"),
            "dequant": (0 <= self.dequant < inf, "finite and >= 0"),
        })

    @property
    def pairs(self) -> int:
        return self.pairs_per_image if self.pairs_per_image else self.lr_crop * self.lr_crop

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lr_halve_at"] = list(self.lr_halve_at)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        d["lr_halve_at"] = tuple(d.get("lr_halve_at", ()))
        return cls(**d)


@dataclass
class Batch:
    """One batch of crops: B LR crops and their N queries, stacked."""

    lr: np.ndarray  # [B, h, w, 3]
    scales: np.ndarray  # [B]
    crop: np.ndarray  # [N] crop of each query
    coords: np.ndarray  # [N, 2]
    targets: np.ndarray  # [N, D]


def make_batch(
    corpus: list[Image], cfg: TrainConfig, rng: np.random.Generator, patch_side: int = 1
) -> Batch:
    """Assemble one batch of crops; undersized corpus images are skipped."""
    lrs, scales, coords, targets = [], [], [], []
    attempts = 0
    while len(lrs) < cfg.batch:
        attempts += 1
        if attempts > 20 * cfg.batch:
            raise TrainingError("corpus images too small for the configured crops")
        img = corpus[int(rng.integers(len(corpus)))]
        s = float(rng.uniform(cfg.scale_min, cfg.scale_max))
        hr_size = round_half_up(s * cfg.lr_crop)
        if img.height < hr_size or img.width < hr_size:
            logger.warning(
                "skipping %dx%d corpus image: crop %d too large", img.height, img.width, hr_size
            )
            continue
        y0 = int(rng.integers(img.height - hr_size + 1))
        x0 = int(rng.integers(img.width - hr_size + 1))
        hr_data = img.data[y0 : y0 + hr_size, x0 : x0 + hr_size]
        if cfg.flips and rng.random() < 0.5:
            hr_data = hr_data[:, ::-1]
        hr = Image(hr_data.copy())
        lr = bicubic_resample(hr, cfg.lr_crop, cfg.lr_crop)
        grid = PatchGrid(patch_side, hr_size, hr_size)
        targets_all = extract_targets(hr, lr, grid, rng=rng, dequant=cfg.dequant)
        q = min(cfg.pairs, grid.num_patches)
        picks = rng.choice(grid.num_patches, size=q, replace=False)
        lrs.append(lr.data)
        scales.append(s)
        coords.append(grid.centers()[picks])
        targets.append(targets_all[picks])
    return Batch(
        lr=np.stack(lrs),
        scales=np.array(scales),
        crop=np.repeat(np.arange(cfg.batch), [c.shape[0] for c in coords]),
        coords=np.concatenate(coords),
        targets=np.concatenate(targets),
    )


def loss_components(batch: Batch, model: Model, cfg: TrainConfig) -> tuple[nm.Tensor, float, float]:
    """(total loss tensor, nll value, l1 value) for one batch."""
    fm = encode_batch(nm.tensor(batch.lr), model)  # [B,h,w,C]
    amap, fmap = bank_maps(fm, model)
    phases_per_crop = phase_vector(2.0 / batch.scales, model)  # [B,K]
    phases = nm.index_rows(phases_per_crop, batch.crop)  # [N,K]
    cond = condition(model, amap, fmap, batch.coords, phases, batch.crop)
    targets = batch.targets
    log_prob = model.flow.log_prob(nm.tensor(targets), cond)
    if not np.all(np.isfinite(log_prob.data)):
        bad = int(np.flatnonzero(~np.isfinite(log_prob.data))[0])
        raise TrainingError(f"non-finite log-likelihood at batch sample {batch.crop[bad]}")
    nll = nm.neg(nm.tmean(log_prob))
    total = nm.mul(cfg.lambda_nll, nll)
    l1_value = 0.0
    if cfg.stage == 2:
        mean_patch = model.flow.inverse(nm.tensor(np.zeros_like(targets)), cond)
        residual = nm.sub(mean_patch, nm.tensor(targets))
        l1 = nm.tmean(nm.absolute(residual))
        total = nm.add(total, nm.mul(cfg.lambda_l1, l1))
        l1_value = float(l1.data)
    if not np.isfinite(float(total.data)):
        raise TrainingError("non-finite training loss")
    return total, float(nll.data), l1_value


class Adam:
    """Adam with bias correction over a named parameter dict.

    `step` updates the moments `m`, `v` and each parameter's array in place,
    with the operations and rounding order of the out-of-place
    `m = b1*m + (1-b1)*g`, `v = b2*v + (1-b2)*(g*g)`,
    `p = p - lr * (m/b1c) / (sqrt(v/b2c) + eps)`, so the long-lived arrays
    keep their memory from step to step."""

    def __init__(self, params: dict[str, nm.Tensor], cfg: TrainConfig):
        self.params = params
        self.beta1 = cfg.adam_beta1
        self.beta2 = cfg.adam_beta2
        self.eps = cfg.adam_eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g, m, v = p.grad, self.m[name], self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            gg = g * g
            gg *= 1 - self.beta2
            v += gg
            denom = v / b2c
            np.sqrt(denom, out=denom)
            denom += self.eps
            update = m / b1c
            update /= denom
            update *= lr
            p.data -= update


def lr_at_step(cfg: TrainConfig, step: int) -> float:
    halvings = sum(1 for s in cfg.lr_halve_at if step >= s)
    return cfg.learning_rate * (0.5 ** halvings)


@dataclass
class TrainResult:
    model: Model
    history: list[tuple]  # rows matching LOG_HEADER
    checkpoint_path: str | None


def train(
    corpus: list[Image],
    cfg: TrainConfig | None,
    model_cfg: ModelConfig | None = None,
    out_dir: str | None = None,
    resume: str | None = None,
    model: Model | None = None,
) -> TrainResult:
    """Run (or continue) the optimization loop.

    Checkpoints are written at every epoch boundary and at the end; the
    training log is `train_log.csv` under out_dir, flushed to disk before
    each checkpoint is written. Replaying with the same
    seed and config is bit-exact, as is resuming from any checkpoint.
    Passing `model` starts from existing parameters (fine-tuning).

    Resuming continues the checkpoint's model: a `model_cfg` that differs from
    it is a ConfigError. A `cfg` replaces the checkpoint's training config;
    the continuation is exact when the two differ in `steps` only.
    """
    if resume:
        ckpt = load_checkpoint(resume)
        if not ckpt.adam_m:
            raise ConfigError(f"{resume}: no optimizer state to resume from")
        if model_cfg is not None and model_cfg != ckpt.model.cfg:
            given, saved = model_cfg.to_dict(), ckpt.model.cfg.to_dict()
            raise ConfigError(f"{resume}: model config differs from the checkpoint's in " + ", ".join(
                f"{k} ({given[k]!r} vs {saved[k]!r})" for k in saved if given[k] != saved[k]))
        model = ckpt.model
        cfg = ckpt.train_cfg if cfg is None else cfg
        if cfg.steps < ckpt.step:
            raise ConfigError(f"{resume}: train.steps = {cfg.steps} is below the checkpoint's "
                              f"step {ckpt.step}")
        rng = np.random.default_rng()
        rng.bit_generator.state = ckpt.rng_state
        adam = Adam(model.parameters(), cfg)
        adam.t = ckpt.adam_t
        for name in adam.m:
            adam.m[name] = ckpt.adam_m[name].copy()
            adam.v[name] = ckpt.adam_v[name].copy()
        start_step = ckpt.step
        history: list[tuple] = []
    else:
        if cfg is None:
            raise ConfigError("train needs a TrainConfig unless resuming")
        if model is None:
            model_cfg = model_cfg or ModelConfig()
            model = Model.create(model_cfg, seed=cfg.seed)
        rng = np.random.default_rng(cfg.seed)
        adam = Adam(model.parameters(), cfg)
        start_step = 0
        history = []

    if out_dir:
        log_path = os.path.join(out_dir, "train_log.csv")
        try:
            os.makedirs(out_dir, exist_ok=True)
            _check_checkpoint_names(out_dir, cfg, start_step)
            log_fh = _open_log(log_path, start_step if resume else None)
        except OSError as exc:
            raise UsageError(f"cannot write {log_path}: {exc.strerror or exc}") from exc
    else:
        log_fh = None

    def checkpoint(name: str, step: int, epoch: int) -> str:
        path = os.path.join(out_dir, name)
        try:
            # the log on disk covers every checkpoint on disk, so a resume
            # after a crash finds the rows up to the checkpoint's step
            log_fh.flush()
            os.fsync(log_fh.fileno())
            save_checkpoint(path, model, cfg, step, epoch, rng, adam)
        except OSError as exc:
            raise UsageError(f"cannot write checkpoint {path}: {exc.strerror or exc}") from exc
        return path

    ckpt_path = None
    adam.zero_grad()
    try:
        for step in range(start_step + 1, cfg.steps + 1):
            lr = lr_at_step(cfg, step)
            batch = make_batch(corpus, cfg, rng, patch_side=model.cfg.patch_side)
            try:
                with nm.GradTape() as tape:
                    total, nll_v, l1_v = loss_components(batch, model, cfg)
                tape.backward(total)
                adam.step(lr)
            except SingularMatrixError:
                _rejitter_flow(model, rng)
                logger.warning("singular flow weight at step %d; step rejected, W re-jittered", step)
                continue
            finally:
                # Adam has read the gradients: free them before the next batch
                adam.zero_grad()
            epoch = (step - 1) // cfg.steps_per_epoch + 1
            row = (step, epoch, nll_v, l1_v, float(total.data), lr)
            history.append(row)
            if log_fh:
                log_fh.write(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n")
            if out_dir and step % cfg.steps_per_epoch == 0:
                checkpoint(f"ckpt_epoch{epoch:03d}.linf", step, epoch)
        if out_dir:
            ckpt_path = checkpoint("ckpt_final.linf", cfg.steps,
                                   -(-cfg.steps // cfg.steps_per_epoch))
    finally:
        if log_fh:
            log_fh.close()
    return TrainResult(model, history, ckpt_path)


def _check_checkpoint_names(out_dir: str, cfg: TrainConfig, start_step: int) -> None:
    """UsageError if a directory sits at the name of a checkpoint that this
    run writes after start_step, so it fails before the first step rather
    than after the last. A symlink is replaced, so only a real directory
    counts."""
    for entry in os.scandir(out_dir):
        if not entry.is_dir(follow_symlinks=False):
            continue
        epoch = entry.name.removeprefix("ckpt_epoch").removesuffix(".linf")
        if entry.name == "ckpt_final.linf" or (
                epoch.isdecimal() and entry.name == f"ckpt_epoch{int(epoch):03d}.linf"
                and start_step < int(epoch) * cfg.steps_per_epoch <= cfg.steps):
            raise UsageError(f"cannot write checkpoint {entry.path}: Is a directory")


def _open_log(path: str, resume_step: int | None):
    """train_log.csv opened for appending rows. On resume the rows up to the
    checkpoint's step are kept and later ones (from the run that went on past
    the checkpoint) are dropped, so the log matches an uninterrupted run. A
    log whose kept rows end before the checkpoint's step gets one warning
    naming both steps, and the run goes on; a missing log is not warned of."""
    kept = [LOG_HEADER + "\n"]
    if resume_step is not None and os.path.exists(path):
        last = 0
        try:
            with open(path) as fh:
                rows = fh.readlines()[1:]
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not a text log: {exc}") from None
        for lineno, row in enumerate(rows, 2):
            # rows are in step order; a row cut short by a crash ends the log
            if not row.endswith("\n"):
                break
            step = row.split(",", 1)[0]
            if not step.isdecimal():
                raise ConfigError(f"{path}:{lineno}: step {step!r} is not an integer")
            if int(step) > resume_step:
                break
            kept.append(row)
            last = int(step)
        if last < resume_step:
            logger.warning("%s: its rows end at step %d, before the checkpoint's step %d; "
                           "resuming without the rows in between", path, last, resume_step)
    fh = open(path, "w")
    fh.writelines(kept)
    return fh


def _rejitter_flow(model: Model, rng: np.random.Generator) -> None:
    for w in model.flow.weights:
        w.assign_(w.data + 1e-3 * rng.normal(size=w.shape))


# -- checkpoint container ----------------------------------------------------------


@dataclass
class Checkpoint:
    model: Model
    train_cfg: TrainConfig
    step: int
    epoch: int
    rng_state: dict
    adam_t: int
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]


def _write_record(fh, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<I", arr.ndim))
    for extent in arr.shape:
        fh.write(struct.pack("<Q", extent))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_checkpoint(
    path: str,
    model: Model,
    cfg: TrainConfig,
    step: int,
    epoch: int,
    rng: np.random.Generator,
    adam: Adam | None = None,
) -> None:
    """Little-endian container: magic, version, JSON header, tensor records.

    The write is atomic (`imaging.write_atomic`): a failed write leaves any
    earlier checkpoint at `path` untouched."""
    header = {
        "model_cfg": model.cfg.to_dict(),
        "train_cfg": cfg.to_dict(),
        "step": step,
        "epoch": epoch,
        "rng_state": rng.bit_generator.state,
        "adam_t": adam.t if adam else 0,
    }
    records: list[tuple[str, np.ndarray]] = list(model.parameters().items())
    if adam:
        records += [(f"adam.m.{k}", v) for k, v in adam.m.items()]
        records += [(f"adam.v.{k}", v) for k, v in adam.v.items()]
    blob = json.dumps(header).encode("utf-8")

    def write(fh) -> None:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(records)))
        for name, tensor in records:
            _write_record(fh, name, tensor.data if isinstance(tensor, nm.Tensor) else tensor)

    write_atomic(path, write)


class _Reader:
    """Bounds-checked cursor over a checkpoint's bytes."""

    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.path = path
        self.pos = 0

    def fail(self, message: str, offset: int | None = None) -> ConfigError:
        where = self.pos if offset is None else offset
        return ConfigError(f"{self.path}: {message} (byte offset {where})")

    def take(self, n: int, what: str) -> int:
        """Advance past n bytes; returns their start offset."""
        start = self.pos
        if n > len(self.blob) - start:
            raise self.fail(f"truncated checkpoint: {what} runs past the end "
                            f"({len(self.blob) - start} bytes left)")
        self.pos = start + n
        return start

    def u32(self, what: str) -> int:
        return struct.unpack_from("<I", self.blob, self.take(4, what))[0]

    def text(self, n: int, what: str) -> str:
        start = self.take(n, what)
        try:
            return self.blob[start : self.pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail(f"{what} is not UTF-8", start) from exc


def _read_records(reader: _Reader) -> dict[str, np.ndarray]:
    blob = reader.blob
    count = reader.u32("record count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        start = reader.pos
        name = reader.text(reader.u32("record name length"), "record name")
        rank = reader.u32(f"rank of {name!r}")
        shape = struct.unpack_from(f"<{rank}Q", blob, reader.take(8 * rank, f"shape of {name!r}"))
        size = math.prod(shape)
        offset = reader.take(8 * size, f"data of {name!r}")
        try:
            arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(shape)
        except ValueError as exc:  # rank or extents numpy cannot represent
            raise reader.fail(f"bad shape for {name!r}: {exc}", start) from exc
        if not np.isfinite(arr).all():
            raise reader.fail(f"tensor {name!r} holds a non-finite value", offset)
        tensors[name] = arr.astype(np.float64)
    if reader.pos != len(blob):
        raise reader.fail(f"{len(blob) - reader.pos} trailing bytes after the last record")
    return tensors


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; any malformed or mismatched content, a non-finite
    value in any record included, raises ConfigError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from exc
    reader = _Reader(blob, path)
    reader.take(4, "magic")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a checkpoint (bad magic)")
    version = reader.u32("version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    header_start = reader.pos + 4
    header_text = reader.text(reader.u32("header length"), "header")
    tensors = _read_records(reader)

    try:
        header = json.loads(header_text)
        model_cfg = ModelConfig.from_dict(header["model_cfg"])
        train_cfg = TrainConfig.from_dict(header["train_cfg"])
        counters = {k: header[k] for k in ("step", "epoch", "adam_t")}
        for name, value in counters.items():
            if type(value) is not int or value < 0:  # JSON true loads as an int subclass
                raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")
        step, epoch, adam_t = counters.values()
        rng_state = header["rng_state"]
        np.random.default_rng(0).bit_generator.state = rng_state  # validates it
        # every encoder block and flow layer has records of its own; this bounds
        # the length of the layout listed below by the file's size
        if model_cfg.encoder_blocks + model_cfg.flow_layers > len(tensors):
            raise ConfigError("more encoder blocks and flow layers than records")
        shapes = {name: shape for name, (shape, _) in param_layout(model_cfg).items()}
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad checkpoint header: {exc!r} (byte offset {header_start})") from exc

    # every record is checked against the header's layout before anything is built
    expected = dict(shapes)
    for prefix in ("adam.m.", "adam.v."):
        if any(name.startswith(prefix) for name in tensors):  # optimizer state is all or none
            expected.update({prefix + name: shape for name, shape in shapes.items()})
    for name in sorted(expected.keys() | tensors.keys()):
        if name not in tensors:
            raise ConfigError(f"{path}: missing tensor {name}")
        if name not in expected:
            raise ConfigError(f"{path}: unexpected tensor {name!r}")
        if tensors[name].shape != expected[name]:
            raise ConfigError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                              f"config wants {expected[name]}")
    model = Model(model_cfg, {name: nm.Tensor(tensors[name], requires_grad=True) for name in shapes})
    adam_m = {k: tensors[f"adam.m.{k}"] for k in shapes if f"adam.m.{k}" in tensors}
    adam_v = {k: tensors[f"adam.v.{k}"] for k in shapes if f"adam.v.{k}" in tensors}
    return Checkpoint(
        model=model,
        train_cfg=train_cfg,
        step=step,
        epoch=epoch,
        rng_state=rng_state,
        adam_t=adam_t,
        adam_m=adam_m,
        adam_v=adam_v,
    )
