"""Grid tiling, texture targets, and end-to-end generation contracts."""

import numpy as np
import pytest

from linf import numerics as nm
from linf import pipeline
from linf.errors import UsageError
from linf.imaging import Image, bilinear_upsample
from linf.pipeline import (
    ENSEMBLE_LOCAL,
    ScaleSpec,
    build_grid,
    coverage_mask,
    extract_targets,
    reassemble,
    round_half_up,
    split_patches,
    super_resolve,
)

from .helpers import micro_model


def crop(grid, i, j):
    """(row_start, row_stop, col_start, col_stop) of patch (i, j) in the raster."""
    r0, c0 = i * grid.n, j * grid.n
    return r0, min(r0 + grid.n, grid.target_height), c0, min(c0 + grid.n, grid.target_width)


def naive_reassemble(patches, grid):
    """Per-patch loop oracle for reassemble."""
    out = np.empty((grid.target_height, grid.target_width, 3))
    n = grid.n
    for i in range(grid.rows):
        for j in range(grid.cols):
            block = patches[i * grid.cols + j].reshape(n, n, 3)
            r0, r1, c0, c1 = crop(grid, i, j)
            out[r0:r1, c0:c1] = block[: r1 - r0, : c1 - c0]
    return out


def naive_coverage_mask(grid):
    """Per-patch loop oracle for coverage_mask."""
    mask = np.zeros((grid.target_height, grid.target_width), dtype=int)
    for i in range(grid.rows):
        for j in range(grid.cols):
            r0, r1, c0, c1 = crop(grid, i, j)
            mask[r0:r1, c0:c1] += 1
    return mask


class TestScaleSpec:
    def test_rounding(self):
        spec = ScaleSpec(2.5, 10, 7)
        assert spec.target_height == 25
        assert spec.target_width == round_half_up(17.5)
        assert spec.cell == pytest.approx(0.8)

    def test_positive_scale_required(self):
        with pytest.raises(Exception):
            ScaleSpec(0.0, 4, 4)

    @pytest.mark.parametrize("s", [-1.0, float("nan"), float("inf")])
    def test_finite_positive_scale_required(self, s):
        with pytest.raises(UsageError):
            ScaleSpec(s, 4, 4)

    @pytest.mark.parametrize("s", [1e9, 1e300, 1e308])
    def test_unrepresentable_output_raster_rejected(self, s):
        with pytest.raises(UsageError, match="too large to represent"):
            ScaleSpec(s, 6, 6)

    def test_large_representable_raster_accepted(self):
        assert ScaleSpec(1e4, 6, 6).target_height == 60_000


class TestBuildGrid:
    def test_exact_division(self):
        grid = build_grid(ScaleSpec(4.0, 24, 24), 3)  # sH = 96
        assert grid.rows == 32 and grid.cols == 32

    def test_ceiling_with_crop(self):
        grid = PatchGrid = build_grid(ScaleSpec(97 / 24, 24, 24), 3)  # sH = 97
        assert grid.target_height == 97
        assert grid.rows == 33
        r0, r1, _, _ = crop(grid, 32, 0)
        assert r1 - r0 == 1  # last row crops to height 1

    def test_pixel_mode(self):
        grid = build_grid(ScaleSpec(2.0, 5, 9), 1)
        assert grid.rows == 10 and grid.cols == 18

    def test_ceil_bounds_invariant(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            h = int(rng.integers(1, 40))
            w = int(rng.integers(1, 40))
            s = float(rng.uniform(1.0, 4.0))
            n = int(rng.choice([1, 2, 3, 5]))
            grid = build_grid(ScaleSpec(s, h, w), n)
            assert grid.rows * n >= grid.target_height
            assert (grid.rows - 1) * n < grid.target_height
            assert grid.cols * n >= grid.target_width
            assert (grid.cols - 1) * n < grid.target_width

    def test_tiling_exactness_50_random_configs(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            h = int(rng.integers(1, 32))
            w = int(rng.integers(1, 32))
            s = float(rng.uniform(1.0, 4.0))
            n = int(rng.choice([1, 2, 3, 5]))
            grid = build_grid(ScaleSpec(s, h, w), n)
            mask = coverage_mask(grid)
            assert np.all(mask == 1), (h, w, s, n)
            np.testing.assert_array_equal(mask, naive_coverage_mask(grid))

    def test_centers_match_uncropped_footprint(self):
        grid = build_grid(ScaleSpec(2.0, 6, 6), 3)  # 12x12 target, 4x4 patches
        centers = grid.centers().reshape(grid.rows, grid.cols, 2)
        # patch (0,0) covers rows 0..2; center row = mean of pixel centers
        expect0 = ((2 * 0 + 1) / 12 - 1 + (2 * 2 + 1) / 12 - 1) / 2
        assert centers[0, 0, 0] == pytest.approx(expect0, abs=1e-15)


class TestExtractTargets:
    def test_zero_when_hr_is_bilinear_of_lr(self):
        rng = np.random.default_rng(72)
        lr = Image(rng.random((6, 6, 3)))
        hr = bilinear_upsample(lr, 12, 12)
        grid = build_grid(ScaleSpec(2.0, 6, 6), 3)
        targets = extract_targets(hr, lr, grid)
        np.testing.assert_allclose(targets, 0.0, atol=1e-15)

    def test_constant_pair_zero(self):
        lr = Image(np.full((4, 4, 3), 0.25))
        hr = Image(np.full((9, 9, 3), 0.25))
        grid = build_grid(ScaleSpec(2.25, 4, 4), 3)
        targets = extract_targets(hr, lr, grid)
        np.testing.assert_allclose(targets, 0.0, atol=1e-15)

    def test_reassembly_roundtrip(self):
        rng = np.random.default_rng(73)
        for n in (1, 2, 3, 5):
            lr = Image(rng.random((5, 7, 3)))
            s = 1.9
            spec = ScaleSpec(s, 5, 7)
            hr = Image(rng.random((spec.target_height, spec.target_width, 3)))
            grid = build_grid(spec, n)
            targets = extract_targets(hr, lr, grid)
            rebuilt = reassemble(targets, grid) + bilinear_upsample(
                lr, spec.target_height, spec.target_width
            ).data
            np.testing.assert_allclose(rebuilt, hr.data, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reassemble_inverts_split_bit_exact(self, n):
        rng = np.random.default_rng(83 + n)
        for s in (1.0, 1.9, 2.3, 3.1):
            spec = ScaleSpec(s, 5, 7)  # 5x7 -> ragged borders for n > 1
            grid = build_grid(spec, n)
            raster = rng.random((spec.target_height, spec.target_width, 3))
            patches = split_patches(raster, grid)
            rebuilt = reassemble(patches, grid)
            assert rebuilt.tobytes() == raster.tobytes(), (n, s)
            assert reassemble(patches, grid).tobytes() == naive_reassemble(patches, grid).tobytes()

    def test_extent_mismatch_rejected(self):
        lr = Image(np.zeros((4, 4, 3)))
        hr = Image(np.zeros((7, 8, 3)))
        grid = build_grid(ScaleSpec(2.0, 4, 4), 1)
        with pytest.raises(Exception):
            extract_targets(hr, lr, grid)

    def test_dequantization_noise_bounded(self):
        rng = np.random.default_rng(74)
        lr = Image(rng.random((4, 4, 3)))
        hr = bilinear_upsample(lr, 8, 8)
        grid = build_grid(ScaleSpec(2.0, 4, 4), 1)
        targets = extract_targets(hr, lr, grid, rng=np.random.default_rng(1), dequant=1 / 255)
        assert np.abs(targets).max() <= 0.5 / 255 + 1e-12


class TestSuperResolve:
    def test_fresh_model_tau0_is_bilinear(self):
        # zero conditioner head + exactly-identity flow -> zero texture
        model = micro_model(seed=20, flow_init_std=0.0)
        rng = np.random.default_rng(75)
        lr = Image(rng.random((6, 5, 3)))
        out = super_resolve(lr, 2.0, 0.0, model)
        base = bilinear_upsample(lr, 12, 10)
        np.testing.assert_allclose(out.data, base.data, atol=1e-12)

    def test_tau0_bit_deterministic(self):
        model = micro_model(seed=21)
        rng = np.random.default_rng(76)
        lr = Image(rng.random((5, 5, 3)))
        a = super_resolve(lr, 1.7, 0.0, model)
        b = super_resolve(lr, 1.7, 0.0, model)
        np.testing.assert_array_equal(a.data, b.data)

    def test_seeded_tau_positive_reproducible(self):
        model = micro_model(seed=22)
        rng = np.random.default_rng(77)
        lr = Image(rng.random((4, 6, 3)))
        a = super_resolve(lr, 2.3, 0.5, model, seed=99)
        b = super_resolve(lr, 2.3, 0.5, model, seed=99)
        c = super_resolve(lr, 2.3, 0.5, model, seed=100)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_chunking_does_not_change_output(self):
        model = micro_model(seed=23)
        rng = np.random.default_rng(78)
        lr = Image(rng.random((5, 5, 3)))
        a = super_resolve(lr, 2.0, 0.6, model, seed=7, chunk=4096)
        b = super_resolve(lr, 2.0, 0.6, model, seed=7, chunk=13)
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("tau,seed", [(0.0, None), (0.6, 8)])
    def test_chunk_sizes_agree(self, tau, seed):
        """chunk=4096 and chunk=num_patches make the same single pass and agree
        bit for bit. chunk=7 hands BLAS 7-row GEMMs, and BLAS picks its
        kernels by row count, which moves the last bits of some outputs; that
        difference is bounded here."""
        model = micro_model(seed=28)
        p = model.implicit_params
        p.t["head.w"].assign_(np.random.default_rng(84).normal(size=p["head.w"].shape) * 0.1)
        lr = Image(np.random.default_rng(85).random((5, 6, 3)))
        num_patches = build_grid(ScaleSpec(2.2, 5, 6), 1).num_patches
        small, whole, exact = (
            super_resolve(lr, 2.2, tau, model, seed=seed, chunk=chunk).data
            for chunk in (7, 4096, num_patches)
        )
        assert whole.tobytes() == exact.tobytes()
        np.testing.assert_allclose(small, whole, rtol=0.0, atol=1e-12)

    def test_bank_maps_once_per_image(self, monkeypatch):
        model = micro_model(seed=29)
        lr = Image(np.random.default_rng(86).random((5, 5, 3)))
        calls = []
        original = pipeline.bank_maps

        def counting_bank_maps(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(pipeline, "bank_maps", counting_bank_maps)
        super_resolve(lr, 3.0, 0.5, model, seed=1, chunk=7)  # 225 patches, 33 chunks
        assert len(calls) == 1

    @pytest.mark.parametrize("s,tau,chunk", [
        (float("nan"), 0.5, 64), (float("inf"), 0.5, 64), (-2.0, 0.5, 64),
        (2.0, -1.0, 64), (2.0, float("nan"), 64), (2.0, float("inf"), 64),
        (2.0, 0.5, 0), (2.0, 0.5, -3),
    ])
    def test_rejects_bad_scale_tau_or_chunk(self, s, tau, chunk):
        model = micro_model(seed=30)
        lr = Image(np.zeros((3, 3, 3)))
        with pytest.raises(UsageError):
            super_resolve(lr, s, tau, model, seed=1, chunk=chunk)

    def test_scale_one_zero_texture_identity(self):
        model = micro_model(seed=24, flow_init_std=0.0)
        rng = np.random.default_rng(79)
        lr = Image(rng.random((6, 6, 3)))
        out = super_resolve(lr, 1.0, 0.0, model)
        np.testing.assert_allclose(out.data, lr.data, atol=1e-12)

    @pytest.mark.parametrize("ensemble", [pipeline.ENSEMBLE_FOURIER, ENSEMBLE_LOCAL])
    @pytest.mark.parametrize("tau,seed", [(0.0, None), (0.6, 4)])
    def test_probe_leaves_output_bits(self, ensemble, tau, seed):
        model = micro_model(seed=26)
        head = model.implicit_params.t["head.w"]
        head.assign_(np.random.default_rng(81).normal(size=head.shape) * 0.1)
        lr = Image(np.random.default_rng(82).random((7, 6, 3)))
        plain = super_resolve(lr, 2.5, tau, model, ensemble=ensemble, seed=seed)
        with nm.probe() as p:
            probed = super_resolve(lr, 2.5, tau, model, ensemble=ensemble, seed=seed)
        assert p.passes["conditioner"] > 0 and p.kink_margin < np.inf
        assert probed.data.tobytes() == plain.data.tobytes()

    def test_pass_counts_fourier_vs_local(self):
        model = micro_model(seed=25, patch_side=3)
        rng = np.random.default_rng(80)
        lr = Image(rng.random((5, 4, 3)))
        spec = ScaleSpec(2.0, 5, 4)
        grid = build_grid(spec, 3)

        with nm.probe() as p:
            super_resolve(lr, 2.0, 0.0, model)
        assert p.passes["conditioner"] == grid.num_patches
        assert p.passes["flow_inverse"] == grid.num_patches

        with nm.probe() as p:
            super_resolve(lr, 2.0, 0.0, model, ensemble=ENSEMBLE_LOCAL)
        assert p.passes["conditioner"] == 4 * grid.num_patches
        assert p.passes["flow_inverse"] == 4 * grid.num_patches

    def test_local_ensemble_at_neighbor_center_matches_single_pass(self):
        # weight (1,0,0,0): the blend collapses to the single-neighbor
        # prediction, which equals the one-pass ensemble result
        from linf.implicit import bank_maps
        from linf.pipeline import generate_texture_patches

        from .oracles import pixel_centers

        model = micro_model(seed=27)
        rng = np.random.default_rng(82)
        p = model.implicit_params
        p.t["head.w"].assign_(rng.normal(size=p["head.w"].shape) * 0.1)
        lr = Image(rng.random((5, 5, 3)))
        amap, fmap = bank_maps(model.encode(lr), p)
        banks = amap.reshape(25, -1), fmap.reshape(25, -1)
        center = np.array([[pixel_centers(5)[2], pixel_centers(5)[1]]])
        z = 0.5 * rng.standard_normal((1, model.cfg.patch_dim))
        a = generate_texture_patches(model, *banks, (5, 5), center, 1.0, z)
        b = generate_texture_patches(
            model, *banks, (5, 5), center, 1.0, z, ensemble=ENSEMBLE_LOCAL
        )
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_local_and_fourier_agree_on_1x1_map(self):
        # a 1x1 feature map makes all four neighborhoods identical
        model = micro_model(seed=26)
        rng = np.random.default_rng(81)
        lr = Image(rng.random((1, 1, 3)))
        # give the head real weights so conditions are non-trivial
        p = model.implicit_params
        p.t["head.w"].assign_(rng.normal(size=p["head.w"].shape) * 0.1)
        a = super_resolve(lr, 3.0, 0.4, model, seed=5)
        b = super_resolve(lr, 3.0, 0.4, model, seed=5, ensemble=ENSEMBLE_LOCAL)
        np.testing.assert_allclose(a.data, b.data, atol=1e-9)
