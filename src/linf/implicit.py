"""Local implicit conditioner.

Maps (feature map, query coordinate, cell size) to the per-layer scale and
shift parameters consumed by the flow, via per-neighbor Fourier features:
amplitudes and frequencies come from two conv heads over the feature map,
phases from a small MLP on the scalar cell size. The four nearest neighbors'
features are bilinearly weighted and concatenated into one vector so the
parameter-generating MLP and the flow run once per query. `condition` is the
one path from queries to a condition, shared by training and `sr`;
`ensemble_features` builds the concatenated vector with one taped op,
`numerics.fourier_gather`, which the `--ensemble local` loop also uses.

Neighbor order inside the concatenation is fixed: top-left, top-right,
bottom-left, bottom-right, cos block before sin block within each neighbor.
Weights are computed on the virtual (unclamped) lattice so they always form
a bilinear partition of unity; feature lookups and relative coordinates use
border-clamped lattice positions, which merges the weight mass of duplicated
border neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm

if TYPE_CHECKING:
    from .model import ModelConfig

ALPHA_CLAMP = 8.0  # pre-activation bound; alpha = exp(clamp(pre, -8, 8))

WEIGHTING_FULL = "full"
WEIGHTING_NONE = "none"


@dataclass
class ImplicitParams:
    """Tensor bundle plus the model config that fixes its layout."""

    cfg: ModelConfig
    t: dict[str, nm.Tensor]

    def __getitem__(self, key: str) -> nm.Tensor:
        return self.t[key]


@dataclass
class ConditionerOutput:
    """Per flow layer: scale pre-activation, scale, and shift, each [N, D]."""

    alpha_pre: list[nm.Tensor]
    alpha: list[nm.Tensor]
    phi: list[nm.Tensor]

    @property
    def layers(self) -> int:
        return len(self.alpha)

    @property
    def batch(self) -> int:
        return self.alpha[0].shape[0]


# -- lattice geometry ----------------------------------------------------------------


def neighborhood_geometry(
    height: int, width: int, x_q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized 2x2 neighborhoods for queries x_q of shape [Q, 2].

    Returns (indices [Q,4,2] clamped, coords [Q,4,2] clamped centers,
    weights [Q,4]). Entry order is TL, TR, BL, BR. The weight of an entry is
    the bilinear area opposite it within the virtual lattice cell.
    """
    x_q = np.atleast_2d(np.asarray(x_q, dtype=np.float64))
    q = x_q.shape[0]
    dy, dx = 2.0 / height, 2.0 / width
    first_y, first_x = 1.0 / height - 1.0, 1.0 / width - 1.0
    fy = (x_q[:, 0] - first_y) / dy
    fx = (x_q[:, 1] - first_x) / dx
    r0 = np.floor(fy).astype(int)
    c0 = np.floor(fx).astype(int)
    v = fy - r0
    u = fx - c0
    weights = np.stack([(1 - v) * (1 - u), (1 - v) * u, v * (1 - u), v * u], axis=1)
    rows = np.clip(np.stack([r0, r0, r0 + 1, r0 + 1], axis=1), 0, height - 1)
    cols = np.clip(np.stack([c0, c0 + 1, c0, c0 + 1], axis=1), 0, width - 1)
    indices = np.stack([rows, cols], axis=2)
    coords = np.empty((q, 4, 2))
    coords[:, :, 0] = (2.0 * rows + 1.0) / height - 1.0
    coords[:, :, 1] = (2.0 * cols + 1.0) / width - 1.0
    return indices, coords, weights


# -- Fourier features ---------------------------------------------------------------------


def bank_maps(fm_tensor: nm.Tensor, params: ImplicitParams) -> tuple[nm.Tensor, nm.Tensor]:
    """Amplitude and frequency maps over the whole feature map ([..,2K] each)."""
    amap = nm.conv2d(fm_tensor, params["amp.w"], params["amp.b"])
    fmap = nm.conv2d(fm_tensor, params["freq.w"], params["freq.b"])
    return amap, fmap


def phase_vector(cell, params: ImplicitParams) -> nm.Tensor:
    """Phases from the scalar cell size via the 2-layer MLP; [B, K] for B cells."""
    cells = np.atleast_1d(np.asarray(cell, dtype=np.float64)).reshape(-1, 1)
    h = nm.affine(cells, params["phase.w1"], params["phase.b1"], relu=True)
    return nm.affine(h, params["phase.w2"], params["phase.b2"])


def ensemble_features(
    amap_flat: nm.Tensor,
    fmap_flat: nm.Tensor,
    phases: nm.Tensor,
    x_q: np.ndarray,
    indices: np.ndarray,
    coords: np.ndarray,
    weights: np.ndarray,
    lattice_width: int,
    weighting: str = WEIGHTING_FULL,
) -> nm.Tensor:
    """Concatenated weighted Fourier features of the four neighbors: [Q, 8K].

    amap_flat/fmap_flat are bank maps flattened to [H*W, 2K]; phases is [Q, K]
    (already expanded per query); indices/coords/weights come from
    neighborhood_geometry, with row indices offset for stacked lattices
    (see condition). One taped op (`numerics.fourier_gather`).
    """
    rows = indices[:, :, 0] * lattice_width + indices[:, :, 1]
    delta = np.atleast_2d(x_q)[:, None, :] - coords  # [Q,4,2]
    return nm.fourier_gather(amap_flat, fmap_flat, phases, rows, delta,
                             weights if weighting == WEIGHTING_FULL else None)


# -- parameter generation -------------------------------------------------------------------


def conditioner(kappa: nm.Tensor, params: ImplicitParams) -> ConditionerOutput:
    """MLP trunk over kappa ([Q, 8K] or [8K]) producing per-layer (alpha, phi).

    The head output is sliced per layer as contiguous (alpha_pre_k, phi_k)
    blocks of D each, k ascending.
    """
    if kappa.ndim == 1:
        kappa = kappa.reshape(1, kappa.shape[0])
    nm.count("conditioner", kappa.shape[0])
    h = nm.affine(kappa, params["trunk.w1"], params["trunk.b1"], relu=True)
    h = nm.affine(h, params["trunk.w2"], params["trunk.b2"], relu=True)
    out = nm.affine(h, params["head.w"], params["head.b"])
    d = params.cfg.patch_dim
    alpha_pre, alpha, phi = [], [], []
    for k in range(params.cfg.flow_layers):
        pre = nm.clamp(out[:, 2 * k * d : (2 * k + 1) * d], -ALPHA_CLAMP, ALPHA_CLAMP)
        alpha_pre.append(pre)
        alpha.append(nm.exp(pre))
        phi.append(out[:, (2 * k + 1) * d : (2 * k + 2) * d])
    return ConditionerOutput(alpha_pre, alpha, phi)


def condition(
    params: ImplicitParams, amap_flat: nm.Tensor, fmap_flat: nm.Tensor, lattice: tuple[int, int],
    x_q: np.ndarray, phases: nm.Tensor, crop: np.ndarray | None = None,
) -> ConditionerOutput:
    """Condition for queries x_q [Q, 2] on an h x w lattice of bank maps.

    amap_flat/fmap_flat are [H*W, 2K] flattened bank maps and phases is
    [Q, K]. With `crop` [Q], the maps are B lattices stacked along H and
    query i reads lattice crop[i], whose rows start at h * crop[i].
    """
    h, w = lattice
    indices, coords, weights = neighborhood_geometry(h, w, x_q)
    if crop is not None:
        indices[:, :, 0] += h * crop[:, None]
    kappa = ensemble_features(amap_flat, fmap_flat, phases, x_q, indices, coords, weights, w,
                              params.cfg.ensemble_weighting)
    return conditioner(kappa, params)
