"""Reference paths that the package's fused or batched code is tested against.

The package only runs the batched path of the local implicit conditioner
(`implicit.ensemble_features` over flattened bank maps). The functions below
compute the same quantities one query at a time, from a feature map tensor
[H, W, C], so tests can compare the two. `ensemble_features_chain` is the
taped op chain that the fused `numerics.fourier_gather` replaces, and
`cos_sin` with `cos`, `sin` and `concat` the chain behind its [cos | sin].
`conv2d_per_offset` is the convolution `numerics.conv2d` replaced: one
contiguous copy of the shifted input per kernel offset; `relu` the
activation that `numerics.affine` and `numerics.conv2d` fuse; and
`conditioner_head_chain` the per-layer `getitem`/`clamp`/exp chain that the
fused `numerics.conditioner_head` replaced. `getitem` (a taped copy of
`a[key]`) is not a method of `Tensor`, so the chains call it by name.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from linf import numerics as nm
from linf.numerics.tensor import Tensor, _as_tensor, _kink_margin, _make
from linf.implicit import (
    WEIGHTING_FULL,
    ImplicitParams,
    bank_maps,
    ensemble_features,
    neighborhood_geometry,
    phase_vector,
)


def getitem(a, key) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        buf = np.zeros_like(a.data)
        buf[key] = g
        return (buf,)

    return _make(a.data[key].copy(), (a,), bwd)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    _kink_margin(a.data, 0.0)
    return _make(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),))


def clamp(a, lo: float, hi: float) -> Tensor:
    a = _as_tensor(a)
    _kink_margin(a.data, lo, hi)
    return _make(
        np.clip(a.data, lo, hi),
        (a,),
        lambda g: (g * ((a.data >= lo) & (a.data <= hi)),),
    )


def cos(a) -> Tensor:
    a = _as_tensor(a)
    return _make(np.cos(a.data), (a,), lambda g: (-g * np.sin(a.data),))


def sin(a) -> Tensor:
    a = _as_tensor(a)
    return _make(np.sin(a.data), (a,), lambda g: (g * np.cos(a.data),))


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def bwd(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis) for i in range(len(parts))
        )

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


def cos_sin(a) -> Tensor:
    """[cos a | sin a] along the last axis, written into one buffer.

    Same values and gradient as concat([cos(a), sin(a)], axis=-1)."""
    a = _as_tensor(a)
    k = a.shape[-1]
    out = np.empty(a.shape[:-1] + (2 * k,))
    np.cos(a.data, out=out[..., :k])
    np.sin(a.data, out=out[..., k:])
    return _make(
        out, (a,), lambda g: (g[..., k:] * out[..., :k] - g[..., :k] * out[..., k:],)
    )


def conv2d_per_offset(x, kernel) -> Tensor:
    """Same-padded conv, [H,W,Cin] or [N,H,W,Cin] by [k,k,Cin,Cout]: one gemm
    per kernel offset on a contiguous copy of the shifted padded input;
    backward re-contracts against the retained padded input."""
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    k = kernel.shape[0]
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    n, h, w, cin = xd.shape
    cout = kernel.shape[3]
    pad = k // 2
    xp = np.pad(xd, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    flat = (n * h * w, cin)
    out = np.zeros((n * h * w, cout))
    for dy in range(k):
        for dx in range(k):
            xs = np.ascontiguousarray(xp[:, dy : dy + h, dx : dx + w, :]).reshape(flat)
            out += xs @ kernel.data[dy, dx]
    out = out.reshape(n, h, w, cout)

    def bwd(g):
        g2 = np.ascontiguousarray(g).reshape(n * h * w, cout)
        gk = np.empty_like(kernel.data) if kernel.requires_grad else None
        gxp = np.zeros_like(xp) if x.requires_grad else None
        for dy in range(k):
            for dx in range(k):
                xs = np.ascontiguousarray(xp[:, dy : dy + h, dx : dx + w, :]).reshape(flat)
                if gk is not None:
                    gk[dy, dx] = xs.T @ g2
                if gxp is not None:
                    gslice = (g2 @ kernel.data[dy, dx].T).reshape(n, h, w, cin)
                    gxp[:, dy : dy + h, dx : dx + w, :] += gslice
        if gxp is None:
            gx = None
        else:
            gx = gxp[:, pad : pad + h, pad : pad + w, :]
            gx = gx[0] if squeeze else gx
        return (gx, gk)

    return _make(out[0] if squeeze else out, (x, kernel), bwd)


def conditioner_head_chain(head, layers: int, dim: int, bound: float
                           ) -> tuple[list[Tensor], list[Tensor], list[Tensor]]:
    """`numerics.conditioner_head` as four taped ops per layer: a getitem and
    a clamp for alpha_pre_k, an exp for alpha_k and a getitem for phi_k."""
    head = _as_tensor(head)
    alpha_pre, alpha, phi = [], [], []
    for k in range(layers):
        pre = clamp(getitem(head, np.s_[:, 2 * k * dim : (2 * k + 1) * dim]), -bound, bound)
        alpha_pre.append(pre)
        alpha.append(nm.exp(pre))
        phi.append(getitem(head, np.s_[:, (2 * k + 1) * dim : (2 * k + 2) * dim]))
    return alpha_pre, alpha, phi


def conditioner_head_summed(head, layers: int, dim: int, bound: float
                            ) -> tuple[list[Tensor], list[Tensor], list[Tensor]]:
    """`conditioner_head_chain` with a tsum of each clipped block per query:
    the (logdet, alpha, phi) lists that `numerics.conditioner_head` returns,
    as five taped ops per layer."""
    alpha_pre, alpha, phi = conditioner_head_chain(head, layers, dim, bound)
    return [nm.tsum(pre, axis=1) for pre in alpha_pre], alpha, phi


def ensemble_features_chain(
    amap_flat: nm.Tensor,
    fmap_flat: nm.Tensor,
    phases: nm.Tensor,
    rows: np.ndarray,
    delta: np.ndarray,
    weights: np.ndarray,
    weighting: str = WEIGHTING_FULL,
) -> nm.Tensor:
    """`implicit.ensemble_features` as 18 taped ops: three row gathers, two
    column copies, the theta arithmetic, `cos_sin` and the weighting."""
    q = rows.shape[0]
    k2 = amap_flat.shape[1]
    k = k2 // 2
    flat_idx = rows.reshape(-1)
    a_g = nm.index_rows(amap_flat, flat_idx).reshape(q, 4, k2)
    # the 2K frequency channels pair up as K (dy, dx) vectors
    fy_g = nm.index_rows(getitem(fmap_flat, np.s_[:, 0::2]), flat_idx).reshape(q, 4, k)
    fx_g = nm.index_rows(getitem(fmap_flat, np.s_[:, 1::2]), flat_idx).reshape(q, 4, k)
    dots = nm.add(nm.mul(fy_g, delta[:, :, 0:1]), nm.mul(fx_g, delta[:, :, 1:2]))
    theta = nm.add(nm.mul(np.pi, dots), phases.reshape(q, 1, k))
    feats = nm.mul(a_g, cos_sin(theta))
    if weighting == WEIGHTING_FULL:
        feats = nm.mul(feats, nm.tensor(weights[:, :, None]))
    return feats.reshape(q, 8 * k)


@dataclass
class QueryPoint:
    """A patch-center query: coordinate in [-1,1]^2 and cell size 2/s."""

    x_q: np.ndarray  # (y, x)
    cell: float


@dataclass
class FourierBank:
    """Per-query amplitudes (2K), frequencies (K x 2), phases (K)."""

    amplitudes: nm.Tensor
    frequencies: nm.Tensor
    phases: nm.Tensor


@dataclass
class EnsembleNeighborhood:
    """The four lattice neighbors of a query with their bilinear weights."""

    indices: np.ndarray  # [4, 2] clamped (row, col)
    delta: np.ndarray  # [4, 2] query minus each clamped center
    weights: np.ndarray  # [4], sums to 1


def pixel_centers(n: int) -> np.ndarray:
    """Continuous-domain centers (2i+1)/n - 1 of an n-pixel axis."""
    return (2.0 * np.arange(n) + 1.0) / n - 1.0


def nearest_index(coord: np.ndarray, height: int, width: int) -> tuple[int, int]:
    """Nearest pixel center to a coordinate, ties toward the smaller index."""
    # invert the center formula; ceil(x - 0.5) rounds halves downward
    ry = np.ceil((coord[0] + 1.0) * height / 2.0 - 1.0)
    cx = np.ceil((coord[1] + 1.0) * width / 2.0 - 1.0)
    r = int(np.clip(ry, 0, height - 1))
    c = int(np.clip(cx, 0, width - 1))
    return r, c


def nearest_feature(fm: nm.Tensor, x_q: np.ndarray) -> tuple[nm.Tensor, np.ndarray]:
    """Feature vector at the closest LR pixel center, and that center's coordinate."""
    height, width = fm.shape[0], fm.shape[1]
    r, c = nearest_index(np.asarray(x_q, dtype=np.float64), height, width)
    coord = np.array([pixel_centers(height)[r], pixel_centers(width)[c]])
    return getitem(fm, (r, c)), coord


def ensemble_weights(x_q: np.ndarray, height: int, width: int) -> EnsembleNeighborhood:
    """Single-query neighborhood with bilinear area weights."""
    rows, delta, weights = neighborhood_geometry(height, width, np.atleast_2d(x_q))
    return EnsembleNeighborhood(np.stack(np.divmod(rows[0], width), axis=1), delta[0], weights[0])


def estimate_bank(
    fm: nm.Tensor,
    lattice_index: tuple[int, int],
    cell: float,
    params: ImplicitParams,
) -> FourierBank:
    """Fourier bank at one lattice position.

    The frequency head's 2K channels pair up row-major as K (dy, dx) vectors.
    """
    r, c = lattice_index
    amap, fmap = bank_maps(fm, params)
    k = params.cfg.frequencies
    amplitudes = getitem(amap, (r, c))
    frequencies = getitem(fmap, (r, c)).reshape(k, 2)
    phases = getitem(phase_vector(cell, params), 0)
    return FourierBank(amplitudes, frequencies, phases)


def fourier_features(bank: FourierBank, delta: np.ndarray) -> nm.Tensor:
    """Amplitude-modulated [cos; sin] features of the relative coordinate.

    theta_k = pi * <F_k, delta> + P_k; output = A * concat(cos theta, sin theta).
    """
    delta_t = nm.tensor(np.asarray(delta, dtype=np.float64))
    theta = nm.add(
        nm.mul(np.pi, nm.tsum(nm.mul(bank.frequencies, delta_t), axis=1)), bank.phases
    )
    return nm.mul(bank.amplitudes, concat([cos(theta), sin(theta)], axis=0))


def fourier_feature_ensemble(
    fm: nm.Tensor, query: QueryPoint, params: ImplicitParams
) -> nm.Tensor:
    """Single-query ensemble vector kappa in R^{8K}."""
    height, width = fm.shape[0], fm.shape[1]
    amap, fmap = bank_maps(fm, params)
    k2 = amap.shape[2]
    xq2 = np.atleast_2d(np.asarray(query.x_q, dtype=np.float64))
    rows, delta, weights = neighborhood_geometry(height, width, xq2)
    phases = phase_vector(query.cell, params)
    kappa = ensemble_features(
        amap.reshape(height * width, k2),
        fmap.reshape(height * width, k2),
        phases,
        rows,
        delta,
        weights,
        params.cfg.ensemble_weighting,
    )
    return getitem(kappa, 0)
