"""Convolutional feature extractor for LR images.

Head conv (3->C), R residual blocks (conv-ReLU-conv plus skip), tail conv
with a global skip from the head output. Spatial extents are preserved
throughout; inputs are shifted to [-0.5, 0.5] before the head conv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError
from .imaging import Image


@dataclass
class EncoderConfig:
    channels: int = 64
    residual_blocks: int = 4
    kernel: int = 3

    def __post_init__(self):
        if self.channels < 8:
            raise ConfigError("encoder channels must be >= 8")
        if self.residual_blocks < 1:
            raise ConfigError("encoder needs >= 1 residual block")
        if self.kernel % 2 == 0:
            raise ConfigError("encoder kernel must be odd")


@dataclass
class FeatureMap:
    """Per-pixel feature vectors; extents match the source LR image."""

    tensor: nm.Tensor  # [H, W, C]

    @property
    def height(self) -> int:
        return self.tensor.shape[0]

    @property
    def width(self) -> int:
        return self.tensor.shape[1]

    @property
    def channels(self) -> int:
        return self.tensor.shape[2]


def _he_conv(rng: np.random.Generator, k: int, cin: int, cout: int) -> np.ndarray:
    return rng.normal(size=(k, k, cin, cout)) * np.sqrt(2.0 / (k * k * cin))


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, nm.Tensor]:
    """Fresh parameter set; keys are stable and used by checkpoints."""
    c, k = cfg.channels, cfg.kernel
    params: dict[str, nm.Tensor] = {
        "head.w": nm.Tensor(_he_conv(rng, k, 3, c), requires_grad=True),
        "head.b": nm.Tensor(np.zeros(c), requires_grad=True),
    }
    for i in range(cfg.residual_blocks):
        params[f"block{i}.w1"] = nm.Tensor(_he_conv(rng, k, c, c), requires_grad=True)
        params[f"block{i}.b1"] = nm.Tensor(np.zeros(c), requires_grad=True)
        params[f"block{i}.w2"] = nm.Tensor(_he_conv(rng, k, c, c), requires_grad=True)
        params[f"block{i}.b2"] = nm.Tensor(np.zeros(c), requires_grad=True)
    params["tail.w"] = nm.Tensor(_he_conv(rng, k, c, c), requires_grad=True)
    params["tail.b"] = nm.Tensor(np.zeros(c), requires_grad=True)
    return params


def _check_params(cfg: EncoderConfig, params: dict[str, nm.Tensor]) -> None:
    c, k = cfg.channels, cfg.kernel
    head = params.get("head.w")
    if head is None or head.shape != (k, k, 3, c):
        raise ConfigError(
            f"encoder params do not match config (head {None if head is None else head.shape},"
            f" want {(k, k, 3, c)})"
        )
    for i in range(cfg.residual_blocks):
        if f"block{i}.w1" not in params:
            raise ConfigError(f"encoder params missing block{i} for {cfg.residual_blocks}-block config")


def encode_batch(x: nm.Tensor, cfg: EncoderConfig, params: dict[str, nm.Tensor]) -> nm.Tensor:
    """Run the encoder on [N,H,W,3] (or [H,W,3]) RGB data in [0,1]."""
    _check_params(cfg, params)
    x = nm.sub(x, 0.5)
    head = nm.add(nm.conv2d(x, params["head.w"]), params["head.b"])
    h = head
    for i in range(cfg.residual_blocks):
        inner = nm.relu(nm.add(nm.conv2d(h, params[f"block{i}.w1"]), params[f"block{i}.b1"]))
        h = nm.add(h, nm.add(nm.conv2d(inner, params[f"block{i}.w2"]), params[f"block{i}.b2"]))
    tail = nm.add(nm.conv2d(h, params["tail.w"]), params["tail.b"])
    return nm.add(tail, head)


def encode(img: Image, cfg: EncoderConfig, params: dict[str, nm.Tensor]) -> FeatureMap:
    """Encode one image into a FeatureMap with identical spatial extents."""
    return FeatureMap(encode_batch(nm.tensor(img.data), cfg, params))
