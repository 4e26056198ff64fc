"""Encoder contracts: shape preservation, zero linearity, differentiability."""

import numpy as np
import pytest

from linf import numerics as nm
from linf.encoder import encode_batch
from linf.errors import ConfigError
from linf.imaging import Image
from linf.model import Model, ModelConfig

from .test_tensor import numeric_grad, rel


def small_cfg(**overrides):
    return ModelConfig(**{"encoder_channels": 8, "encoder_blocks": 2, **overrides})


def encoder_params(cfg, seed):
    return Model.create(cfg, seed=seed).encoder_params


def encode(img, cfg, params):
    return encode_batch(nm.tensor(img.data), cfg, params)


class TestEncode:
    def test_zero_params_zero_output(self):
        cfg = small_cfg()
        params = encoder_params(cfg, 0)
        for t in params.values():
            t.assign_(np.zeros_like(t.data))
        img = Image(np.random.default_rng(1).random((6, 5, 3)))
        fm = encode(img, cfg, params)
        assert np.all(fm.data == 0.0)

    def test_extents_preserved_random_sizes(self):
        cfg = small_cfg()
        params = encoder_params(cfg, 2)
        rng = np.random.default_rng(3)
        for _ in range(12):
            h, w = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            fm = encode(Image(rng.random((h, w, 3))), cfg, params)
            assert fm.shape == (h, w, cfg.encoder_channels)

    def test_deterministic(self):
        cfg = small_cfg()
        params = encoder_params(cfg, 4)
        img = Image(np.random.default_rng(5).random((7, 7, 3)))
        a = encode(img, cfg, params).data
        b = encode(img, cfg, params).data
        np.testing.assert_array_equal(a, b)

    def test_head_kernel_gradient_vs_fd(self):
        cfg = small_cfg()
        params = encoder_params(cfg, 7)
        img = Image(np.random.default_rng(8).random((5, 4, 3)))
        readout = np.random.default_rng(9).normal(size=(5, 4, cfg.encoder_channels))

        with nm.GradTape() as tape:
            fm = encode(img, cfg, params)
            loss = nm.tsum(nm.mul(fm, nm.tensor(readout)))
        tape.backward(loss)

        def f():
            return float((encode(img, cfg, params).data * readout).sum())

        fd = numeric_grad(f, params["head.w"].data)
        assert rel(params["head.w"].grad, fd) < 1e-4


class TestModelConfigChecks:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"encoder_channels": 7},
            {"encoder_blocks": 0},
            {"frequencies": 0},
            {"ensemble_weighting": "half"},
            {"patch_side": 0},
            {"flow_layers": 0},
        ],
    )
    def test_bad_value_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ModelConfig(**overrides)
