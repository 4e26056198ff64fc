"""Local implicit conditioner.

Maps (feature map, query coordinate, cell size) to the per-layer scale and
shift parameters consumed by the flow, via per-neighbor Fourier features:
amplitudes and frequencies come from two conv heads over the feature map,
phases from a small MLP on the scalar cell size. The four nearest neighbors'
features are bilinearly weighted and concatenated into one vector so the
parameter-generating MLP and the flow run once per query. `conditioner`
is the one path from neighbourhoods to a condition, shared by training, `sr`
and the `--ensemble local` loop; `condition` maps query coordinates to
their neighbourhoods first. `ensemble_features` builds the concatenated
vector with one taped op, `numerics.fourier_gather`.

Neighbor order inside the concatenation is fixed: top-left, top-right,
bottom-left, bottom-right, cos block before sin block within each neighbor.
Weights are computed on the virtual (unclamped) lattice so they always form
a bilinear partition of unity; feature lookups and relative coordinates use
border-clamped lattice positions, which merges the weight mass of duplicated
border neighbors.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm

if TYPE_CHECKING:
    from .model import Model

ALPHA_CLAMP = 8.0  # pre-activation bound; alpha = exp(clamp(pre, -8, 8))
TRUNK_BAND_ROWS = 512  # query rows per untaped conditioner band (see conditioner)

WEIGHTING_FULL = "full"
WEIGHTING_NONE = "none"


@dataclass
class ConditionerOutput:
    """Per flow layer: the injector's log-determinant [N] (the row sum of
    the clamped scale pre-activation), the scale and the shift, each [N, D].
    An untaped condition computes a layer's log-determinant and scale each
    time one is read (`numerics.lazy_conditioner_head`)."""

    logdet: Sequence[nm.Tensor]
    alpha: Sequence[nm.Tensor]
    phi: Sequence[nm.Tensor]

    @property
    def layers(self) -> int:
        return len(self.alpha)


# -- lattice geometry ----------------------------------------------------------------


def neighborhood_geometry(
    height: int, width: int, x_q: np.ndarray, crop: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized 2x2 neighborhoods for queries x_q [Q, 2]; the one place
    that maps a lattice position to a row of the row-major bank-map table.

    Returns (rows [Q,4] of the border-clamped neighbors, delta [Q,4,2] =
    x_q minus each clamped center, weights [Q,4]). Entry order is TL, TR,
    BL, BR. The weight of an entry is the bilinear area opposite it within
    the virtual lattice cell. With `crop` [Q], the table stacks B lattices
    and query i reads lattice crop[i], whose rows start at H*W*crop[i].
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
    r = np.clip(np.stack([r0, r0, r0 + 1, r0 + 1], axis=1), 0, height - 1)
    c = np.clip(np.stack([c0, c0 + 1, c0, c0 + 1], axis=1), 0, width - 1)
    delta = np.empty((q, 4, 2))
    delta[:, :, 0] = x_q[:, 0:1] - ((2.0 * r + 1.0) / height - 1.0)
    delta[:, :, 1] = x_q[:, 1:2] - ((2.0 * c + 1.0) / width - 1.0)
    rows = r * width + c
    if crop is not None:
        rows += height * width * crop[:, None]
    return rows, delta, weights


# -- Fourier features ---------------------------------------------------------------------


def bank_maps(fm_tensor: nm.Tensor, model: Model) -> tuple[nm.Tensor, nm.Tensor]:
    """Amplitude and frequency maps over the whole feature map ([..,2K] each)."""
    p = model.params
    amap = nm.conv2d(fm_tensor, p["implicit.amp.w"], p["implicit.amp.b"])
    fmap = nm.conv2d(fm_tensor, p["implicit.freq.w"], p["implicit.freq.b"])
    return amap, fmap


def phase_vector(cell, model: Model) -> nm.Tensor:
    """Phases from the scalar cell size via the 2-layer MLP; [B, K] for B cells."""
    p = model.params
    cells = np.atleast_1d(np.asarray(cell, dtype=np.float64)).reshape(-1, 1)
    h = nm.affine(cells, p["implicit.phase.w1"], p["implicit.phase.b1"], relu=True)
    return nm.affine(h, p["implicit.phase.w2"], p["implicit.phase.b2"])


def ensemble_features(
    amap_flat: nm.Tensor,
    fmap_flat: nm.Tensor,
    phases: nm.Tensor,
    rows: np.ndarray,
    delta: np.ndarray,
    weights: np.ndarray,
    weighting: str = WEIGHTING_FULL,
) -> nm.Tensor:
    """Concatenated weighted Fourier features of the four neighbors: [Q, 8K].

    amap_flat/fmap_flat are bank-map tables [rows, 2K]; phases is [Q, K]
    (already expanded per query); rows/delta/weights come from
    neighborhood_geometry. One taped op (`numerics.fourier_gather`).
    """
    return nm.fourier_gather(amap_flat, fmap_flat, phases, rows, delta,
                             weights if weighting == WEIGHTING_FULL else None)


# -- parameter generation -------------------------------------------------------------------


def conditioner(
    rows: np.ndarray, delta: np.ndarray, weights: np.ndarray,
    amap_flat: nm.Tensor, fmap_flat: nm.Tensor, phases: nm.Tensor, model: Model,
) -> ConditionerOutput:
    """Condition for Q queries given by their neighbour table rows [Q, 4],
    relative coordinates and weights (as neighborhood_geometry returns them)
    on bank-map tables [rows, 2K]; phases is [Q, K]. The one path from
    neighbourhoods to per-layer (logdet, alpha, phi), shared by training,
    `sr` and the `--ensemble local` loop.

    The features (`ensemble_features`) go through the MLP trunk and its
    head. The head output holds per layer contiguous (alpha_pre_k, phi_k)
    blocks of D each, k ascending. Under a tape the gather and the trunk
    run once over all Q rows and one op (`numerics.conditioner_head`)
    clamps, sums and exponentiates the alpha_pre blocks and hands out the
    phi blocks as views. Without one, the gather and both trunk layers run
    per band of TRUNK_BAND_ROWS rows, each band writing its rows of one
    [Q, trunk_width] buffer, so neither the [Q, 8K] features nor a first
    trunk layer ever exist whole. Row bands of the gather and of the trunk
    GEMMs give the whole call's bits; those of the head GEMM do not, so the
    head is one call, read through `numerics.lazy_conditioner_head`: each
    layer's alpha and log-det are computed only when the flow reads them.
    Both paths give the same bits.
    """
    q = rows.shape[0]
    nm.count("conditioner", q)
    p = model.params
    weighting = model.cfg.ensemble_weighting
    w1, b1 = p["implicit.trunk.w1"], p["implicit.trunk.b1"]
    w2, b2 = p["implicit.trunk.w2"], p["implicit.trunk.b2"]

    def trunk(phases, rows, delta, weights, out=None) -> nm.Tensor:
        kappa = ensemble_features(amap_flat, fmap_flat, phases, rows, delta, weights, weighting)
        return nm.affine(nm.affine(kappa, w1, b1, relu=True), w2, b2, relu=True, out=out)

    taped = nm.active_tape() is not None
    if taped:
        h = trunk(phases, rows, delta, weights)
    else:
        phases = nm.tensor(phases).data
        h = np.empty((q, w2.shape[1]))
        # a one-row GEMM takes numpy's vector path, whose bits differ, so a
        # last band of one row joins the band before it
        starts = list(range(0, max(q - 1, 1), TRUNK_BAND_ROWS))
        for start, stop in zip(starts, starts[1:] + [q]):
            band = slice(start, stop)
            trunk(phases[band], rows[band], delta[band], weights[band], out=h[band])
    head = nm.affine(h, p["implicit.head.w"], p["implicit.head.b"])
    del h
    layers, dim = model.cfg.flow_layers, model.cfg.patch_dim
    if taped:
        return ConditionerOutput(*nm.conditioner_head(head, layers, dim, ALPHA_CLAMP))
    return ConditionerOutput(*nm.lazy_conditioner_head(head.data, layers, dim, ALPHA_CLAMP))


def condition(
    model: Model, amap: nm.Tensor, fmap: nm.Tensor, x_q: np.ndarray,
    phases: nm.Tensor, crop: np.ndarray | None = None,
) -> ConditionerOutput:
    """Condition for queries x_q [Q, 2] on bank maps [H, W, 2K] or, with
    `crop` [Q], on B lattices [B, H, W, 2K] where query i reads lattice
    crop[i]. phases is [Q, K]. See conditioner."""
    height, width, k2 = amap.shape[-3:]
    rows, delta, weights = neighborhood_geometry(height, width, x_q, crop)
    return conditioner(rows, delta, weights, amap.reshape(-1, k2), fmap.reshape(-1, k2),
                       phases, model)
