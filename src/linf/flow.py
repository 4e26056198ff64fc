"""Coordinate-conditional normalizing flow over flattened texture patches.

L layer pairs, each a dense invertible linear map followed by an affine
injector driven by the conditioner output. Working in row convention
(inputs [N, D]), the forward direction per pair k is

    h <- h @ W_k^T + beta_k          logdet += log|det W_k|
    h <- alpha_k * h + phi_k         logdet += sum(alpha_pre_k)

so the total log-determinant is input-independent given the condition.
The prior is a standard normal; sampling scales its std by tau.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from . import telemetry
from .errors import ShapeError, UsageError
from .implicit import ConditionerOutput
from .numerics.linalg import LuFactors, lu_factor

LOG_2PI = float(np.log(2.0 * np.pi))


def identity_jitter(rng: np.random.Generator, d: int, std: float) -> np.ndarray:
    """Initial flow weight: identity plus N(0, std^2) jitter keeps W invertible."""
    return np.eye(d) + std * rng.normal(size=(d, d))


class LinearFlowLayer:
    """Dense invertible layer h -> h W^T + beta with LU-backed inversion.

    LU factors are cached per parameter version and refreshed whenever the
    optimizer mutates W.
    """

    def __init__(self, weight: nm.Tensor, bias: nm.Tensor):
        if weight.ndim != 2 or weight.shape[0] != weight.shape[1]:
            raise ShapeError(f"flow weight must be square, got {weight.shape}")
        self.weight = weight
        self.bias = bias
        self._lu: LuFactors | None = None
        self._lu_version = -1

    @property
    def d(self) -> int:
        return self.weight.shape[0]

    def lu(self) -> LuFactors:
        if self._lu is None or self._lu_version != self.weight._version:
            self._lu = lu_factor(self.weight.data)
            self._lu_version = self.weight._version
        return self._lu

    def forward(self, h: nm.Tensor) -> tuple[nm.Tensor, nm.Tensor]:
        out = nm.add(nm.matmul(h, nm.transpose(self.weight)), self.bias)
        return out, nm.logabsdet(self.weight, lu=self.lu())

    def inverse(self, h: nm.Tensor) -> nm.Tensor:
        return nm.solve_rows(nm.sub(h, self.bias), self.weight, lu=self.lu())


class AffineInjectorLayer:
    """Stateless elementwise h -> alpha * h + phi from the conditioner."""

    @staticmethod
    def forward(h: nm.Tensor, alpha: nm.Tensor, phi: nm.Tensor, alpha_pre: nm.Tensor):
        return nm.add(nm.mul(alpha, h), phi), nm.tsum(alpha_pre, axis=1)

    @staticmethod
    def inverse(h: nm.Tensor, alpha: nm.Tensor, phi: nm.Tensor) -> nm.Tensor:
        return nm.div(nm.sub(h, phi), alpha)


class FlowModel:
    """Stack of (linear, injector) pairs over D = 3 n^2 patch vectors."""

    def __init__(self, layers: list[LinearFlowLayer], patch_side: int):
        self.layers = layers
        self.n = patch_side
        self.d = 3 * patch_side * patch_side
        for layer in layers:
            if layer.d != self.d:
                raise ShapeError(f"layer dim {layer.d} != model dim {self.d}")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

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
        layers = [
            LinearFlowLayer(
                nm.Tensor(identity_jitter(rng, d, init_std), requires_grad=True),
                nm.Tensor(np.zeros(d), requires_grad=True),
            )
            for _ in range(num_layers)
        ]
        return cls(layers, patch_side)

    def parameters(self) -> dict[str, nm.Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            out[f"flow.{i}.w"] = layer.weight
            out[f"flow.{i}.b"] = layer.bias
        return out

    def refresh(self) -> None:
        """Drop cached LU factors after raw in-place weight edits (finite
        differencing); normal optimizer updates bump versions instead."""
        for layer in self.layers:
            layer._lu_version = -1

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
        telemetry.counters.flow_forward += h.shape[0]
        logdet = nm.tensor(np.zeros(h.shape[0]))
        for k, layer in enumerate(self.layers):
            h, ld_lin = layer.forward(h)
            logdet = nm.add(logdet, ld_lin)
            h, ld_inj = AffineInjectorLayer.forward(
                h, cond.alpha[k], cond.phi[k], cond.alpha_pre[k]
            )
            logdet = nm.add(logdet, ld_inj)
        return h, logdet

    def inverse(self, z: nm.Tensor, cond: ConditionerOutput) -> nm.Tensor:
        """Exact layer-by-layer inversion of forward."""
        h = self._check(z, cond)
        telemetry.counters.flow_inverse += h.shape[0]
        for k in range(self.num_layers - 1, -1, -1):
            h = AffineInjectorLayer.inverse(h, cond.alpha[k], cond.phi[k])
            h = self.layers[k].inverse(h)
        return h

    def log_prob(self, m: nm.Tensor, cond: ConditionerOutput) -> nm.Tensor:
        """Exact log-density: standard-normal prior plus the change-of-variables term."""
        z, logdet = self.forward(m, cond)
        quad = nm.mul(-0.5, nm.tsum(nm.mul(z, z), axis=1))
        return nm.add(nm.add(quad, -0.5 * self.d * LOG_2PI), logdet)

    def sample(
        self,
        cond: ConditionerOutput,
        tau: float,
        rng: np.random.Generator | None = None,
        count: int | None = None,
    ) -> nm.Tensor:
        """Draw patches; z = tau * eps per component. tau=0 is the conditional
        mean and consumes no randomness. `count` draws that many patches from
        a broadcastable (batch-1) condition."""
        if tau < 0:
            raise UsageError("temperature must be >= 0")
        n = count if count is not None else cond.batch
        if tau == 0.0:
            z = np.zeros((n, self.d))
        else:
            if rng is None:
                raise UsageError("tau > 0 sampling needs an rng")
            z = tau * rng.standard_normal((n, self.d))
        return self.inverse(nm.tensor(z), cond)
