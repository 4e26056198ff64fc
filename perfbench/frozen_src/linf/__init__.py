"""Arbitrary-scale super-resolution via a conditional normalizing flow over
local texture patches, conditioned on local implicit Fourier features.

Submodules import lazily so the CLI can cap BLAS threads before numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "Image": ("linf.imaging", "Image"),
    "read_image": ("linf.imaging", "read_image"),
    "write_image": ("linf.imaging", "write_image"),
    "psnr": ("linf.imaging", "psnr"),
    "ssim": ("linf.imaging", "ssim"),
    "diversity": ("linf.imaging", "diversity"),
    "Model": ("linf.model", "Model"),
    "ModelConfig": ("linf.model", "ModelConfig"),
    "super_resolve": ("linf.pipeline", "super_resolve"),
    "TrainConfig": ("linf.training", "TrainConfig"),
    "train": ("linf.training", "train"),
    "load_checkpoint": ("linf.training", "load_checkpoint"),
    "toy_corpus": ("linf.corpus", "toy_corpus"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module, attr = _EXPORTS[name]
        return getattr(importlib.import_module(module), attr)
    raise AttributeError(f"module 'linf' has no attribute {name!r}")
