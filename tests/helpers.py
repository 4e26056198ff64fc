"""Shared builders for micro-scale models and synthetic conditions."""

import numpy as np

from linf import numerics as nm
from linf.implicit import ConditionerOutput
from linf.model import Model, ModelConfig


def micro_config(**overrides) -> ModelConfig:
    base = dict(
        patch_side=1,
        frequencies=4,
        flow_layers=3,
        encoder_channels=8,
        encoder_blocks=1,
        trunk_width=32,
        phase_hidden=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def micro_model(seed=0, **overrides) -> Model:
    return Model.create(micro_config(**overrides), seed=seed)


def identity_cond(layers, dim, batch=1) -> ConditionerOutput:
    zeros = np.zeros((batch, dim))
    return ConditionerOutput(
        [nm.tensor(np.zeros(batch)) for _ in range(layers)],
        [nm.tensor(np.ones((batch, dim))) for _ in range(layers)],
        [nm.tensor(zeros) for _ in range(layers)],
    )
