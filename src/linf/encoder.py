"""Convolutional feature extractor for LR images.

Head conv (3->C), R residual blocks (conv-ReLU-conv plus skip), tail conv
with a global skip from the head output. Spatial extents are preserved
throughout; inputs are shifted to [-0.5, 0.5] before the head conv.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from .errors import ConfigError

if TYPE_CHECKING:
    from .model import ModelConfig

KERNEL = 3  # every encoder conv is 3x3


def _he_conv(rng: np.random.Generator, cin: int, cout: int) -> np.ndarray:
    k = KERNEL
    return rng.normal(size=(k, k, cin, cout)) * np.sqrt(2.0 / (k * k * cin))


def init_encoder_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, nm.Tensor]:
    """Fresh parameter set; keys are stable and used by checkpoints."""
    c = cfg.encoder_channels
    params: dict[str, nm.Tensor] = {
        "head.w": nm.Tensor(_he_conv(rng, 3, c), requires_grad=True),
        "head.b": nm.Tensor(np.zeros(c), requires_grad=True),
    }
    for i in range(cfg.encoder_blocks):
        params[f"block{i}.w1"] = nm.Tensor(_he_conv(rng, c, c), requires_grad=True)
        params[f"block{i}.b1"] = nm.Tensor(np.zeros(c), requires_grad=True)
        params[f"block{i}.w2"] = nm.Tensor(_he_conv(rng, c, c), requires_grad=True)
        params[f"block{i}.b2"] = nm.Tensor(np.zeros(c), requires_grad=True)
    params["tail.w"] = nm.Tensor(_he_conv(rng, c, c), requires_grad=True)
    params["tail.b"] = nm.Tensor(np.zeros(c), requires_grad=True)
    return params


def _check_params(cfg: ModelConfig, params: dict[str, nm.Tensor]) -> None:
    want = (KERNEL, KERNEL, 3, cfg.encoder_channels)
    head = params.get("head.w")
    if head is None or head.shape != want:
        raise ConfigError(
            f"encoder params do not match config (head {None if head is None else head.shape},"
            f" want {want})"
        )
    for i in range(cfg.encoder_blocks):
        if f"block{i}.w1" not in params:
            raise ConfigError(f"encoder params missing block{i} for {cfg.encoder_blocks}-block config")


def encode_batch(x: nm.Tensor, cfg: ModelConfig, params: dict[str, nm.Tensor]) -> nm.Tensor:
    """Run the encoder on [N,H,W,3] (or [H,W,3]) RGB data in [0,1]."""
    _check_params(cfg, params)
    x = nm.sub(x, 0.5)
    head = nm.add(nm.conv2d(x, params["head.w"]), params["head.b"])
    h = head
    for i in range(cfg.encoder_blocks):
        inner = nm.relu(nm.add(nm.conv2d(h, params[f"block{i}.w1"]), params[f"block{i}.b1"]))
        h = nm.add(h, nm.add(nm.conv2d(inner, params[f"block{i}.w2"]), params[f"block{i}.b2"]))
    tail = nm.add(nm.conv2d(h, params["tail.w"]), params["tail.b"])
    return nm.add(tail, head)
