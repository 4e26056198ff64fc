"""End-to-end arbitrary-scale super-resolution.

The sH x sW output raster is tiled by ceil(sH/n) x ceil(sW/n) non-overlapping
n x n patches anchored top-left; border patches are generated at full size
and cropped so the flow dimension stays fixed. Texture (the residual of the
HR image over the bilinearly upsampled LR image) is modeled per patch and the
bilinear base is added back at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .encoder import encode_batch
from .errors import UsageError
from .flow import check_tau, latents
from .imaging import Image, bilinear_upsample
from .implicit import (
    bank_maps,
    condition,
    condition_rows,
    neighborhood_geometry,
    phase_vector,
)
from .model import Model

ENSEMBLE_FOURIER = "fourier"
ENSEMBLE_LOCAL = "local"
CHUNK_QUERIES = 4096  # queries per super_resolve chunk (see super_resolve)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass
class ScaleSpec:
    """Source extents plus the rounded target extents for a scale factor."""

    s: float
    height: int
    width: int

    def __post_init__(self):
        if not (math.isfinite(self.s) and self.s > 0):
            raise UsageError(f"scale must be finite and positive, got {self.s}")
        # the [sH, sW, 3] float64 output raster must have a size numpy can index
        if not (math.isfinite(self.s * max(self.height, self.width))
                and self.target_height * self.target_width * 24 <= np.iinfo(np.intp).max):
            raise UsageError(f"scale {self.s} gives an output raster too large to represent")

    @property
    def target_height(self) -> int:
        return max(1, round_half_up(self.s * self.height))

    @property
    def target_width(self) -> int:
        return max(1, round_half_up(self.s * self.width))

    @property
    def cell(self) -> float:
        return 2.0 / self.s


@dataclass
class PatchGrid:
    """Ceil tiling of the target raster into n x n patches.

    Patch (i, j) covers output rows [i*n, min((i+1)*n, sH)) and the matching
    columns; centers are those of the uncropped n x n footprint in the
    [-1, 1] continuous domain of the target raster.
    """

    n: int
    target_height: int
    target_width: int

    @property
    def rows(self) -> int:  # h = ceil(sH / n)
        return -(-self.target_height // self.n)

    @property
    def cols(self) -> int:  # w = ceil(sW / n)
        return -(-self.target_width // self.n)

    @property
    def num_patches(self) -> int:
        return self.rows * self.cols

    @property
    def patch_dim(self) -> int:
        return 3 * self.n * self.n

    def centers(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """[stop - start, 2] centers of patches start..stop-1 (all of them by
        default), in row-major (i, j) order."""
        n, sh, sw = self.n, self.target_height, self.target_width
        i, j = np.divmod(np.arange(start, self.num_patches if stop is None else stop), self.cols)
        return np.stack([(2.0 * n * i + n) / sh - 1.0, (2.0 * n * j + n) / sw - 1.0], axis=1)


def build_grid(spec: ScaleSpec, n: int) -> PatchGrid:
    if n < 1:
        raise UsageError("patch side must be >= 1")
    return PatchGrid(n, spec.target_height, spec.target_width)


def _lanes(count: int, n: int) -> np.ndarray:
    """[count, n] raster indices covered by `count` consecutive n-wide patches."""
    return (np.arange(count) * n)[:, None] + np.arange(n)[None, :]


def split_patches(arr: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """[sH, sW, 3] -> [h*w, 3n^2], edge-replicating past the raster borders."""
    n = grid.n
    if n == 1:
        return arr.reshape(grid.num_patches, 3)
    rows = np.minimum(_lanes(grid.rows, n), grid.target_height - 1)
    cols = np.minimum(_lanes(grid.cols, n), grid.target_width - 1)
    # gather to [h, n, w, n, 3], reorder to [h, w, n, n, 3], flatten per patch
    blocks = arr[rows[:, :, None, None], cols[None, None, :, :]]
    return blocks.transpose(0, 2, 1, 3, 4).reshape(grid.num_patches, grid.patch_dim)


def extract_targets(
    hr: Image,
    lr: Image,
    grid: PatchGrid,
    rng: np.random.Generator | None = None,
    dequant: float = 0.0,
) -> np.ndarray:
    """Per-patch flattened texture residuals, [h*w, 3n^2].

    Flattening is row-major over (row, col) with RGB innermost. Border
    patches read edge-replicated residual values beyond the raster; those
    lanes are cropped away on reassembly. Training mode adds centered
    uniform dequantization noise of total width `dequant`.
    """
    if hr.data.shape[:2] != (grid.target_height, grid.target_width):
        raise UsageError(
            f"hr extents {hr.data.shape[:2]} != grid target "
            f"{(grid.target_height, grid.target_width)}"
        )
    residual = hr.data - bilinear_upsample(lr, grid.target_height, grid.target_width).data
    targets = split_patches(residual, grid)
    if dequant > 0.0:
        if rng is None:
            raise UsageError("dequantization noise needs an rng")
        targets = targets + rng.uniform(-dequant / 2.0, dequant / 2.0, size=targets.shape)
    return targets


def reassemble(patches: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Inverse of split_patches: [h*w, 3n^2] -> [sH, sW, 3], borders cropped.

    The result may be a view of `patches`."""
    n = grid.n
    blocks = patches.reshape(grid.rows, grid.cols, n, n, 3).transpose(0, 2, 1, 3, 4)
    raster = blocks.reshape(grid.rows * n, grid.cols * n, 3)
    return raster[: grid.target_height, : grid.target_width]


def coverage_mask(grid: PatchGrid) -> np.ndarray:
    """Write counts per output pixel of the cropped patch footprints; tiling
    exactness means all ones."""
    n = grid.n
    rows = _lanes(grid.rows, n)[:, None, :, None]
    cols = _lanes(grid.cols, n)[None, :, None, :]
    rows, cols = np.broadcast_arrays(rows, cols)
    kept = (rows < grid.target_height) & (cols < grid.target_width)
    mask = np.zeros((grid.target_height, grid.target_width), dtype=int)
    np.add.at(mask, (rows[kept], cols[kept]), 1)
    return mask


def generate_texture_patches(
    model: Model,
    amap: nm.Tensor,
    fmap: nm.Tensor,
    centers: np.ndarray,
    phases: nm.Tensor,
    tau: float,
    rng: np.random.Generator,
    ensemble: str = ENSEMBLE_FOURIER,
) -> np.ndarray:
    """Run conditioner + flow inverse for a block of queries; returns [Q, D].

    amap/fmap are the image's bank maps [H, W, 2K] and phases is [Q, K]
    (`phase_vector` of the queries' cells). The block's latents are drawn
    from `rng` with std tau after its (first) condition, so they never
    coexist with its features or trunk buffer."""
    def draw() -> nm.Tensor:
        return nm.tensor(latents(centers.shape[0], model.cfg.patch_dim, tau, rng))

    if ensemble == ENSEMBLE_FOURIER:
        cond = condition(model, amap, fmap, centers, phases)
        return model.flow.inverse(draw(), cond).data
    if ensemble == ENSEMBLE_LOCAL:
        rows, delta, weights = neighborhood_geometry(*amap.shape[:2], centers)
        amap_flat, fmap_flat = (m.reshape(-1, m.shape[-1]) for m in (amap, fmap))
        out = np.zeros((centers.shape[0], model.cfg.patch_dim))
        z = None
        for nb in range(4):
            # as if neighbour nb were the whole neighbourhood: every slot
            # carries its features (with its own relative coordinate)
            cond_nb = condition_rows(
                model, amap_flat, fmap_flat, phases,
                np.repeat(rows[:, nb : nb + 1], 4, axis=1),
                np.repeat(delta[:, nb : nb + 1], 4, axis=1),
                weights,
            )
            z = draw() if z is None else z
            out += weights[:, nb : nb + 1] * model.flow.inverse(z, cond_nb).data
        return out
    raise UsageError(f"unknown ensemble mode {ensemble!r}")


def super_resolve(
    lr: Image,
    s: float,
    tau: float,
    model: Model,
    ensemble: str = ENSEMBLE_FOURIER,
    seed: int | None = None,
) -> Image:
    """Arbitrary-scale SR: one encode, h*w queries, bilinear base plus texture.

    tau=0 is fully deterministic and leaves the generator unused. With tau>0
    each chunk draws its latent rows from one generator seeded with `seed`,
    in row-major patch order, so the latents equal one up-front draw.

    Per image: the encoder and the bank maps, the texture patches, and at
    the end the bilinear base, to which the texture is added and which is
    clipped in place. Per chunk of CHUNK_QUERIES queries: its patch centers,
    the condition (`implicit.condition_rows`, banded and inverse-only), then
    its latents and the flow inverse. Phases depend only on the chunk size,
    so they are computed again only for a shorter last chunk.
    """
    spec = ScaleSpec(s, lr.height, lr.width)
    check_tau(tau)
    if ensemble not in (ENSEMBLE_FOURIER, ENSEMBLE_LOCAL):
        raise UsageError(f"unknown ensemble mode {ensemble!r}")
    grid = build_grid(spec, model.cfg.patch_side)
    d = grid.patch_dim
    rng = np.random.default_rng(seed)
    amap, fmap = bank_maps(encode_batch(nm.tensor(lr.data), model), model)
    patches = np.empty((grid.num_patches, d))
    phases = None
    for start in range(0, grid.num_patches, CHUNK_QUERIES):
        stop = min(start + CHUNK_QUERIES, grid.num_patches)
        if phases is None or phases.shape[0] != stop - start:
            phases = phase_vector(np.full(stop - start, spec.cell), model)
        patches[start:stop] = generate_texture_patches(
            model,
            amap,
            fmap,
            grid.centers(start, stop),
            phases,
            tau,
            rng,
            ensemble,
        )
    del amap, fmap
    out = bilinear_upsample(lr, grid.target_height, grid.target_width).data
    out += reassemble(patches, grid)
    return Image(np.clip(out, 0.0, 1.0, out=out))
