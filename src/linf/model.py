"""The full generator: encoder + local implicit conditioner + flow."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nm
from .encoder import KERNEL, encode_batch
from .errors import ConfigError
from .imaging import Image
from .implicit import WEIGHTING_FULL, WEIGHTING_NONE, ImplicitParams
from .flow import FlowModel, identity_jitter

LAYER_ORDER = "linear_first"  # within each pair: linear map, then injector

INIT_HE = "he"  # N(0, 2 / fan_in), fan_in = prod(shape[:-1])
INIT_FLOW = "flow"  # flow.identity_jitter with cfg.flow_init_std
INIT_ZERO = "zero"


@dataclass
class ModelConfig:
    """Every setting of the generator; the encoder, the conditioner and the
    flow all read this one object."""

    patch_side: int = 1  # n
    frequencies: int = 16  # K
    flow_layers: int = 10  # L
    encoder_channels: int = 64
    encoder_blocks: int = 4
    trunk_width: int = 256
    phase_hidden: int = 16
    ensemble_weighting: str = WEIGHTING_FULL
    flow_init_std: float = 0.01

    def __post_init__(self):
        if self.patch_side < 1:
            raise ConfigError("patch side must be >= 1")
        if self.flow_layers < 1:
            raise ConfigError("need >= 1 flow layer")
        if self.encoder_channels < 8:
            raise ConfigError("encoder channels must be >= 8")
        if self.encoder_blocks < 1:
            raise ConfigError("encoder needs >= 1 residual block")
        if self.frequencies < 1:
            raise ConfigError("need >= 1 frequency")
        if self.trunk_width < 1 or self.phase_hidden < 1:
            raise ConfigError("trunk_width and phase_hidden must be >= 1")
        if self.ensemble_weighting not in (WEIGHTING_FULL, WEIGHTING_NONE):
            raise ConfigError(f"unknown ensemble_weighting {self.ensemble_weighting!r}")
        if not 0 <= self.flow_init_std < math.inf:
            raise ConfigError("flow_init_std must be finite and >= 0")

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch_side * self.patch_side

    def to_dict(self) -> dict:
        d = asdict(self)
        d["layer_order"] = LAYER_ORDER
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        order = d.pop("layer_order", LAYER_ORDER)
        if order != LAYER_ORDER:
            raise ConfigError(f"unsupported flow layer order {order!r}")
        return cls(**d)


def param_layout(cfg: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Name -> (shape, init rule) of every parameter of the generator.

    The order is `Model.parameters()` order, which is also the checkpoint
    record order and the order in which `Model.create` draws. Allocates
    nothing, so a checkpoint's records can be checked against its header's
    config before any tensor is built. Every weight is followed by its
    bias, shaped like the weight's last axis and starting at zero.
    """
    c, k, w, d = cfg.encoder_channels, cfg.frequencies, cfg.trunk_width, cfg.patch_dim

    def conv(cin: int, cout: int) -> tuple[int, ...]:
        return (KERNEL, KERNEL, cin, cout)

    weights = [("encoder.head.w", conv(3, c), INIT_HE)]
    for i in range(cfg.encoder_blocks):
        weights += [(f"encoder.block{i}.w{j}", conv(c, c), INIT_HE) for j in (1, 2)]
    weights += [
        ("encoder.tail.w", conv(c, c), INIT_HE),
        ("implicit.amp.w", conv(c, 2 * k), INIT_HE),
        ("implicit.freq.w", conv(c, 2 * k), INIT_HE),
        ("implicit.phase.w1", (1, cfg.phase_hidden), INIT_HE),
        ("implicit.phase.w2", (cfg.phase_hidden, k), INIT_HE),
        ("implicit.trunk.w1", (8 * k, w), INIT_HE),
        ("implicit.trunk.w2", (w, w), INIT_HE),
        # a zero output head makes a fresh model the identity injector
        # (alpha=1, phi=0) for every query
        ("implicit.head.w", (w, 2 * cfg.flow_layers * d), INIT_ZERO),
    ]
    weights += [(f"flow.{i}.w", (d, d), INIT_FLOW) for i in range(cfg.flow_layers)]
    layout = {}
    for name, shape, init in weights:
        layout[name] = (shape, init)
        layout[name.replace(".w", ".b")] = ((shape[-1],), INIT_ZERO)
    return layout


def _section(params: dict[str, nm.Tensor], prefix: str) -> dict[str, nm.Tensor]:
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


class Model:
    """The three stages wired together over one ordered parameter dict.

    `params` holds every tensor of `param_layout(cfg)` under its layout
    name; the encoder, conditioner and flow read the same tensor objects.
    """

    def __init__(self, cfg: ModelConfig, params: dict[str, nm.Tensor]):
        self.cfg = cfg
        self._params = params
        self.encoder_params = _section(params, "encoder.")
        self.implicit_params = ImplicitParams(cfg, _section(params, "implicit."))
        layers = range(cfg.flow_layers)
        self.flow = FlowModel([params[f"flow.{i}.w"] for i in layers],
                              [params[f"flow.{i}.b"] for i in layers], cfg.patch_side)

    @classmethod
    def create(cls, cfg: ModelConfig, seed: int = 0) -> "Model":
        """Fresh parameters, drawn from one generator in layout order."""
        rng = np.random.default_rng(seed)
        params = {}
        for name, (shape, init) in param_layout(cfg).items():
            if init == INIT_HE:
                data = rng.normal(size=shape) * np.sqrt(2.0 / math.prod(shape[:-1]))
            elif init == INIT_FLOW:
                data = identity_jitter(rng, shape[0], cfg.flow_init_std)
            else:
                data = np.zeros(shape)
            params[name] = nm.Tensor(data, requires_grad=True)
        return cls(cfg, params)

    def parameters(self) -> dict[str, nm.Tensor]:
        return dict(self._params)

    def encode(self, img: Image) -> nm.Tensor:
        """Feature map [H, W, C] of one image, extents matching the image."""
        return encode_batch(nm.tensor(img.data), self.cfg, self.encoder_params)
