"""The parameter table: Model.create and the checkpoint records follow it."""

import math
from pathlib import Path

import numpy as np
import pytest

from linf.config import load_config
from linf.corpus import toy_corpus
from linf.imaging import Image
from linf.model import INIT_FLOW, INIT_HE, INIT_ZERO, Model, param_layout
from linf.pipeline import ENSEMBLE_FOURIER, ENSEMBLE_LOCAL, super_resolve
from linf.training import TrainConfig, loss_components, make_batch

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
    assert params is not model.params and list(params) == list(param_layout(model.cfg))
    assert all(model.params[name] is t for name, t in params.items())
    assert model.flow.weights[0] is params["flow.0.w"]
    assert model.flow.biases[-1] is params[f"flow.{model.cfg.flow_layers - 1}.b"]



class _ReadLog(dict):
    """A parameter dict that records every key read with `[]`."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_stages_read_params_by_layout_name():
    model = Model.create(micro_config(), seed=0)
    model.params = log = _ReadLog(model.params)
    cfg = TrainConfig(lr_crop=6, batch=2, pairs_per_image=4, stage=2, steps=1, lr_halve_at=())
    loss_components(make_batch(toy_corpus(2, 32, seed=1), cfg, np.random.default_rng(2)),
                    model, cfg)
    lr = Image(np.random.default_rng(3).random((4, 5, 3)))
    for ensemble in (ENSEMBLE_FOURIER, ENSEMBLE_LOCAL):
        super_resolve(lr, 2.0, 0.5, model, ensemble=ensemble, seed=4)
    layout = param_layout(model.cfg)
    assert log.read <= set(layout), sorted(log.read - set(layout))
    assert log.read == {name for name in layout if not name.startswith("flow.")}
