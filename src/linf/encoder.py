"""Convolutional feature extractor for LR images.

Head conv (3->C), R residual blocks (conv-ReLU-conv plus skip), tail conv
with a global skip from the head output. Spatial extents are preserved
throughout; inputs are shifted to [-0.5, 0.5] before the head conv.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import numerics as nm

if TYPE_CHECKING:
    from .model import Model

KERNEL = 3  # every encoder conv is 3x3; model.param_layout holds the shapes


def encode_batch(x: nm.Tensor, model: Model) -> nm.Tensor:
    """Run the encoder on [N,H,W,3] (or [H,W,3]) RGB data in [0,1]."""
    p = model.params
    x = nm.sub(x, 0.5)
    head = nm.conv2d(x, p["encoder.head.w"], p["encoder.head.b"])
    h = head
    for i in range(model.cfg.encoder_blocks):
        block = f"encoder.block{i}"
        inner = nm.conv2d(h, p[f"{block}.w1"], p[f"{block}.b1"], relu=True)
        h = nm.add(h, nm.conv2d(inner, p[f"{block}.w2"], p[f"{block}.b2"]))
    tail = nm.conv2d(h, p["encoder.tail.w"], p["encoder.tail.b"])
    return nm.add(tail, head)
