"""The full generator: encoder + local implicit conditioner + flow."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nm
from .encoder import encode_batch, init_encoder_params
from .errors import ConfigError
from .imaging import Image
from .implicit import WEIGHTING_FULL, WEIGHTING_NONE, ImplicitParams, init_implicit_params
from .flow import FlowModel

LAYER_ORDER = "linear_first"  # within each pair: linear map, then injector


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


class Model:
    """Parameter container with the three stages wired together."""

    def __init__(
        self,
        cfg: ModelConfig,
        encoder_params: dict[str, nm.Tensor],
        implicit_params: ImplicitParams,
        flow: FlowModel,
    ):
        self.cfg = cfg
        self.encoder_params = encoder_params
        self.implicit_params = implicit_params
        self.flow = flow

    @classmethod
    def create(cls, cfg: ModelConfig, seed: int = 0) -> "Model":
        rng = np.random.default_rng(seed)
        enc = init_encoder_params(cfg, rng)
        imp = init_implicit_params(cfg, rng)
        flow = FlowModel.create(
            cfg.patch_side, cfg.flow_layers, rng=rng, init_std=cfg.flow_init_std
        )
        return cls(cfg, enc, imp, flow)

    def parameters(self) -> dict[str, nm.Tensor]:
        out = {f"encoder.{k}": v for k, v in self.encoder_params.items()}
        out.update({f"implicit.{k}": v for k, v in self.implicit_params.t.items()})
        out.update(self.flow.parameters())
        return out

    def encode(self, img: Image) -> nm.Tensor:
        """Feature map [H, W, C] of one image, extents matching the image."""
        return encode_batch(nm.tensor(img.data), self.cfg, self.encoder_params)
