"""Procedural texture corpus, shipped as code.

Four families in rotation: sinusoidal gratings, checkerboards, multi-octave
value noise, and piecewise-constant blobs. A fixed generator seed makes the
corpus a pure function of (count, size, seed).
"""

from __future__ import annotations

import numpy as np

from .imaging import Image
from .imaging import _bilinear_axis  # align-centers 1-D kernel, reused for noise octaves

TRAIN_SEED = 1234


def _smooth_noise(rng: np.random.Generator, size: int, cells: int) -> np.ndarray:
    grid = rng.random((cells, cells))
    up = _bilinear_axis(grid, size)
    return _bilinear_axis(up.T, size).T


def _grating(rng: np.random.Generator, size: int) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    freq = rng.uniform(0.03, 0.22)
    angle = rng.uniform(0.0, np.pi)
    phase = rng.uniform(0.0, 2 * np.pi)
    wave = np.sin(2 * np.pi * freq * (np.cos(angle) * yy + np.sin(angle) * xx) + phase)
    base = rng.uniform(0.3, 0.7, size=3)
    amp = rng.uniform(0.1, 0.3, size=3)
    return np.clip(base + wave[:, :, None] * amp, 0.0, 1.0)


def _checkerboard(rng: np.random.Generator, size: int) -> np.ndarray:
    period = int(rng.integers(3, 13))
    oy, ox = int(rng.integers(period)), int(rng.integers(period))
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    cells = ((yy + oy) // period + (xx + ox) // period) % 2
    c0 = rng.uniform(0.0, 0.45, size=3)
    c1 = rng.uniform(0.55, 1.0, size=3)
    return np.where(cells[:, :, None] == 0, c0, c1)


def _value_noise(rng: np.random.Generator, size: int) -> np.ndarray:
    acc = np.zeros((size, size))
    amp = 1.0
    total = 0.0
    for cells in (4, 8, 16):
        acc += amp * _smooth_noise(rng, size, cells)
        total += amp
        amp *= 0.5
    v = acc / total
    v = (v - v.min()) / max(v.max() - v.min(), 1e-9)
    c0 = rng.uniform(0.0, 0.4, size=3)
    c1 = rng.uniform(0.6, 1.0, size=3)
    return c0 + v[:, :, None] * (c1 - c0)


def _blobs(rng: np.random.Generator, size: int) -> np.ndarray:
    levels = int(rng.integers(3, 6))
    noise = _smooth_noise(rng, size, int(rng.integers(4, 9)))
    noise = (noise - noise.min()) / max(noise.max() - noise.min(), 1e-9)
    idx = np.minimum((noise * levels).astype(int), levels - 1)
    palette = rng.random((levels, 3))
    return palette[idx]


_FAMILIES = (_grating, _checkerboard, _value_noise, _blobs)


def toy_corpus(count: int = 32, size: int = 96, seed: int = TRAIN_SEED) -> list[Image]:
    """Deterministic procedural images, families in round-robin order."""
    rng = np.random.default_rng(seed)
    return [Image(np.clip(_FAMILIES[i % 4](rng, size), 0.0, 1.0)) for i in range(count)]

