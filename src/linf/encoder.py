"""Convolutional feature extractor for LR images.

Head conv (3->C), R residual blocks (conv-ReLU-conv plus skip), tail conv
with a global skip from the head output. Spatial extents are preserved
throughout; inputs are shifted to [-0.5, 0.5] before the head conv.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import numerics as nm

if TYPE_CHECKING:
    from .model import ModelConfig

KERNEL = 3  # every encoder conv is 3x3; model.param_layout holds the shapes


def encode_batch(x: nm.Tensor, cfg: ModelConfig, params: dict[str, nm.Tensor]) -> nm.Tensor:
    """Run the encoder on [N,H,W,3] (or [H,W,3]) RGB data in [0,1]."""
    x = nm.sub(x, 0.5)
    head = nm.conv2d(x, params["head.w"], params["head.b"])
    h = head
    for i in range(cfg.encoder_blocks):
        inner = nm.conv2d(h, params[f"block{i}.w1"], params[f"block{i}.b1"], relu=True)
        h = nm.add(h, nm.conv2d(inner, params[f"block{i}.w2"], params[f"block{i}.b2"]))
    tail = nm.conv2d(h, params["tail.w"], params["tail.b"])
    return nm.add(tail, head)
