"""The parameter table: Model.create and the checkpoint records follow it."""

import math
from pathlib import Path

import numpy as np
import pytest

from linf.config import load_config
from linf.model import INIT_FLOW, INIT_HE, INIT_ZERO, Model, param_layout

from .helpers import micro_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _configs():
    return {
        "micro": micro_config(),
        "micro-patch2": micro_config(patch_side=2, encoder_blocks=3, flow_init_std=0.3),
        "desk": load_config(str(CONFIG_DIR / "desk.cfg"))[0],
        "patch3": load_config(str(CONFIG_DIR / "patch3.cfg"))[0],
    }


@pytest.mark.parametrize("name", ["micro", "micro-patch2", "desk", "patch3"])
def test_create_follows_layout(name):
    cfg = _configs()[name]
    layout = param_layout(cfg)
    params = Model.create(cfg, seed=3).parameters()
    assert list(params) == list(layout)
    for key, (shape, init) in layout.items():
        data = params[key].data
        assert data.shape == shape, key
        if init == INIT_ZERO:
            assert not data.any(), key
        elif init == INIT_FLOW:
            assert np.abs(data - np.eye(shape[0])).max() < 10 * cfg.flow_init_std, key
        else:
            assert init == INIT_HE
            assert 0.5 < data.std() * math.sqrt(math.prod(shape[:-1]) / 2.0) < 1.5, key


def test_first_draw_is_encoder_head():
    cfg = micro_config()
    head = Model.create(cfg, seed=11).parameters()["encoder.head.w"].data
    expected = np.random.default_rng(11).normal(size=head.shape) * np.sqrt(2.0 / 27)
    assert head.tobytes() == expected.tobytes()


def test_stages_share_the_parameter_tensors():
    model = Model.create(micro_config(), seed=0)
    params = model.parameters()
    assert model.encoder_params["head.w"] is params["encoder.head.w"]
    assert model.implicit_params["trunk.w2"] is params["implicit.trunk.w2"]
    assert model.flow.biases[-1] is params[f"flow.{model.cfg.flow_layers - 1}.b"]

