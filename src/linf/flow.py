"""Coordinate-conditional normalizing flow over flattened texture patches.

`FlowModel` holds L layer pairs, each a dense invertible linear map followed
by an affine injector driven by the conditioner output. Working in row
convention (inputs [N, D]), the forward direction per pair k is

    h <- h @ W_k^T + beta_k          logdet += log|det W_k|
    h <- alpha_k * h + phi_k         logdet += sum(alpha_pre_k)

so the total log-determinant is input-independent given the condition.
The prior is a standard normal; `latents` draws its samples with the std
scaled by tau, and `FlowModel.inverse` maps them to patches.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm
from .errors import ShapeError, UsageError
from .implicit import ConditionerOutput
from .numerics.linalg import LuFactors, lu_factor

LOG_2PI = float(np.log(2.0 * np.pi))


def identity_jitter(rng: np.random.Generator, d: int, std: float) -> np.ndarray:
    """Initial flow weight: identity plus N(0, std^2) jitter keeps W invertible."""
    return np.eye(d) + std * rng.normal(size=(d, d))


def latents(count: int, d: int, tau: float, rng: np.random.Generator | None) -> np.ndarray:
    """[count, d] prior draws with std tau. tau=0 gives zeros (the conditional
    mean after `FlowModel.inverse`) and leaves `rng` untouched."""
    if not (math.isfinite(tau) and tau >= 0.0):
        raise UsageError(f"tau must be finite and >= 0, got {tau}")
    if tau == 0.0:
        return np.zeros((count, d))
    return tau * rng.standard_normal((count, d))


class FlowModel:
    """Stack of (linear, injector) pairs over D = 3 n^2 patch vectors.

    LU factors of each W_k are cached with the parameter version they were
    computed from and recomputed once the optimizer mutates W_k.
    """

    def __init__(self, weights: list[nm.Tensor], biases: list[nm.Tensor], patch_side: int):
        self.weights = weights
        self.biases = biases
        self.d = 3 * patch_side * patch_side
        for w in weights:
            if w.shape != (self.d, self.d):
                raise ShapeError(f"flow weight {w.shape} != ({self.d}, {self.d})")
        self.refresh()

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @classmethod
    def create(
        cls,
        patch_side: int,
        num_layers: int = 10,
        rng: np.random.Generator | None = None,
        init_std: float = 0.01,
    ) -> "FlowModel":
        """A standalone flow with freshly drawn weights and zero biases."""
        d = 3 * patch_side * patch_side
        rng = rng or np.random.default_rng(0)
        weights = [nm.Tensor(identity_jitter(rng, d, init_std), requires_grad=True)
                   for _ in range(num_layers)]
        biases = [nm.Tensor(np.zeros(d), requires_grad=True) for _ in range(num_layers)]
        return cls(weights, biases, patch_side)

    def lu(self, k: int) -> LuFactors:
        """LU factors of W_k, recomputed when its version has moved."""
        w = self.weights[k]
        version, factors = self._lu[k]
        if version != w._version:
            factors = lu_factor(w.data)
            self._lu[k] = (w._version, factors)
        return factors

    def refresh(self) -> None:
        """Drop cached LU factors after raw in-place weight edits (finite
        differencing); normal optimizer updates bump versions instead."""
        self._lu: list[tuple[int, LuFactors | None]] = [(-1, None)] * self.num_layers

    def _check(self, x: nm.Tensor, cond: ConditionerOutput) -> nm.Tensor:
        if x.ndim == 1:
            x = x.reshape(1, x.shape[0])
        if x.shape[1] != self.d:
            raise ShapeError(f"patch dim {x.shape[1]} != flow dim {self.d}")
        if cond.layers != self.num_layers:
            raise ShapeError(
                f"condition has {cond.layers} layer slices, flow has {self.num_layers}"
            )
        return x

    def forward(self, m: nm.Tensor, cond: ConditionerOutput) -> tuple[nm.Tensor, nm.Tensor]:
        """Map patches [N,D] to latents; returns (z, logdet [N])."""
        h = self._check(m, cond)
        nm.count("flow_forward", h.shape[0])
        logdet = nm.tensor(np.zeros(h.shape[0]))
        for k, w in enumerate(self.weights):
            h = nm.affine(h, nm.transpose(w), self.biases[k])
            logdet = nm.add(logdet, nm.logabsdet(w, lu=self.lu(k)))
            h = nm.add(nm.mul(cond.alpha[k], h), cond.phi[k])
            logdet = nm.add(logdet, nm.tsum(cond.alpha_pre[k], axis=1))
        return h, logdet

    def inverse(self, z: nm.Tensor, cond: ConditionerOutput) -> nm.Tensor:
        """Exact layer-by-layer inversion of forward."""
        h = self._check(z, cond)
        nm.count("flow_inverse", h.shape[0])
        for k in range(self.num_layers - 1, -1, -1):
            h = nm.div(nm.sub(h, cond.phi[k]), cond.alpha[k])
            h = nm.solve_rows(nm.sub(h, self.biases[k]), self.weights[k], lu=self.lu(k))
        return h

    def log_prob(self, m: nm.Tensor, cond: ConditionerOutput) -> nm.Tensor:
        """Exact log-density: standard-normal prior plus the change-of-variables term."""
        z, logdet = self.forward(m, cond)
        quad = nm.mul(-0.5, nm.tsum(nm.mul(z, z), axis=1))
        return nm.add(nm.add(quad, -0.5 * self.d * LOG_2PI), logdet)
