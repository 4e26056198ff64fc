"""Grid tiling, texture targets, and end-to-end generation contracts."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from linf import numerics as nm
from linf import pipeline
from linf.config import load_config
from linf.corpus import toy_corpus
from linf.errors import UsageError
from linf.imaging import Image, bilinear_upsample
from linf.model import Model
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

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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

    @pytest.mark.parametrize("s,h,w,n", [(2.0, 6, 6, 3), (2.7, 13, 9, 3), (3.1, 7, 11, 1)])
    def test_center_slices_equal_the_axis_grid(self, s, h, w, n):
        """Centers of any patch range equal, bit for bit, the rows of the
        meshgrid of the grid's two axes."""
        grid = build_grid(ScaleSpec(s, h, w), n)
        sh, sw = grid.target_height, grid.target_width
        cy = (2.0 * n * np.arange(grid.rows) + n) / sh - 1.0
        cx = (2.0 * n * np.arange(grid.cols) + n) / sw - 1.0
        whole = np.stack(np.meshgrid(cy, cx, indexing="ij"), axis=-1).reshape(-1, 2)
        assert grid.centers().tobytes() == whole.tobytes()
        for start, stop in ((0, 1), (5, 13), (grid.num_patches - 4, grid.num_patches)):
            assert grid.centers(start, stop).tobytes() == whole[start:stop].tobytes()


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

    def test_identity_injector_chunked_latents_inverse_and_reassembly(self, monkeypatch):
        """A fresh micro model's zero head gives every query alpha = 1 and
        phi = 0, so this checks the chunked latents, the flow inverse and the
        reassembly, but not the conditioner, whose last bits depend on the
        rows per GEMM call; `test_chunk_sizes_agree` bounds that case."""
        model = micro_model(seed=23)
        rng = np.random.default_rng(78)
        lr = Image(rng.random((5, 5, 3)))
        a = super_resolve(lr, 2.0, 0.6, model, seed=7)
        monkeypatch.setattr(pipeline, "CHUNK_QUERIES", 13)
        b = super_resolve(lr, 2.0, 0.6, model, seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("tau,seed", [(0.0, None), (0.6, 8)])
    def test_chunk_sizes_agree(self, monkeypatch, tau, seed):
        """Chunks of 4096 and of num_patches queries make the same single
        pass and agree bit for bit. 7-query chunks hand BLAS 7-row GEMMs, and
        BLAS picks its kernels by row count, which moves the last bits of some
        outputs; that difference is bounded here."""
        model = micro_model(seed=28)
        head = model.params["implicit.head.w"]
        head.assign_(np.random.default_rng(84).normal(size=head.shape) * 0.1)
        lr = Image(np.random.default_rng(85).random((5, 6, 3)))
        num_patches = build_grid(ScaleSpec(2.2, 5, 6), 1).num_patches

        def run(chunk):
            monkeypatch.setattr(pipeline, "CHUNK_QUERIES", chunk)
            return super_resolve(lr, 2.2, tau, model, seed=seed).data

        small, whole, exact = (run(chunk) for chunk in (7, 4096, num_patches))
        assert whole.tobytes() == exact.tobytes()
        np.testing.assert_allclose(small, whole, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("chunk", [4096, 97])
    @pytest.mark.parametrize("tau,seed", [(0.0, None), (0.6, 8)])
    @pytest.mark.parametrize("patch_side", [1, 3])
    @pytest.mark.parametrize("ensemble", [pipeline.ENSEMBLE_FOURIER, ENSEMBLE_LOCAL])
    @pytest.mark.parametrize("weighting", ["full", "none"])
    def test_inverse_only_condition_equals_taped(self, monkeypatch, chunk, tau, seed,
                                                 patch_side, ensemble, weighting):
        """sr's untaped condition (banded gather and trunk, alpha read per
        layer, no log-det sums) gives the bits, pass counts and kink margin
        of the same call under a tape, which runs the taped conditioner on
        each chunk's whole features. Both images span two trunk bands."""
        model = micro_model(seed=36, patch_side=patch_side, ensemble_weighting=weighting)
        rng = np.random.default_rng(89)
        for t in model.params.values():
            t.assign_(t.data + 0.1 * rng.standard_normal(t.shape))
        lr = Image(rng.random((12, 13, 3)))
        s = 2.5 if patch_side == 1 else 6.5  # 990 and 754 patches
        monkeypatch.setattr(pipeline, "CHUNK_QUERIES", chunk)
        with nm.probe(margins=True) as plain_probe:
            plain = super_resolve(lr, s, tau, model, ensemble=ensemble, seed=seed)
        with nm.probe(margins=True) as taped_probe, nm.GradTape():
            taped = super_resolve(lr, s, tau, model, ensemble=ensemble, seed=seed)
        assert plain.data.tobytes() == taped.data.tobytes()
        assert plain_probe.passes == taped_probe.passes
        assert plain_probe.kink_margin == taped_probe.kink_margin < np.inf

    def test_bank_maps_once_per_image(self, monkeypatch):
        model = micro_model(seed=29)
        lr = Image(np.random.default_rng(86).random((5, 5, 3)))
        calls = []
        original = pipeline.bank_maps

        def counting_bank_maps(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(pipeline, "bank_maps", counting_bank_maps)
        monkeypatch.setattr(pipeline, "CHUNK_QUERIES", 7)
        super_resolve(lr, 3.0, 0.5, model, seed=1)  # 225 patches, 33 chunks
        assert len(calls) == 1

    def test_unknown_ensemble_fails_before_any_work(self, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("bank maps computed before the ensemble was checked")

        monkeypatch.setattr(pipeline, "bank_maps", must_not_run)
        with pytest.raises(UsageError, match="unknown ensemble mode 'bogus'"):
            super_resolve(Image(np.zeros((3, 3, 3))), 2.0, 0.0, micro_model(seed=29),
                          ensemble="bogus")

    @pytest.mark.parametrize("chunk", [4096, 97, 1])
    def test_per_chunk_latents_equal_one_upfront_draw(self, monkeypatch, chunk):
        model = micro_model(seed=31)
        lr = Image(np.random.default_rng(87).random((5, 6, 3)))
        num_patches = build_grid(ScaleSpec(2.0, 5, 6), 1).num_patches  # 120
        draws = []

        def recording_latents(count, d, tau, rng):
            draws.append(original(count, d, tau, rng))
            return draws[-1]

        original = pipeline.latents
        monkeypatch.setattr(pipeline, "latents", recording_latents)
        monkeypatch.setattr(pipeline, "CHUNK_QUERIES", chunk)
        super_resolve(lr, 2.0, 0.6, model, seed=9)
        assert len(draws) == -(-num_patches // chunk)
        upfront = original(num_patches, 3, 0.6, np.random.default_rng(9))
        assert np.concatenate(draws).tobytes() == upfront.tobytes()

    @pytest.mark.parametrize("ensemble,per_chunk", [
        (pipeline.ENSEMBLE_FOURIER, ["condition", "latents"]),
        (ENSEMBLE_LOCAL, ["condition", "latents"] + ["condition"] * 3),
    ])
    def test_latents_drawn_after_each_condition(self, monkeypatch, ensemble, per_chunk):
        """A chunk's latents never coexist with its features or trunk."""
        model = micro_model(seed=31)
        lr = Image(np.random.default_rng(87).random((5, 6, 3)))
        events = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("condition", "condition_rows", "latents"):
            label = "latents" if name == "latents" else "condition"
            monkeypatch.setattr(pipeline, name, recording(label, getattr(pipeline, name)))
        monkeypatch.setattr(pipeline, "CHUNK_QUERIES", 50)
        super_resolve(lr, 2.0, 0.6, model, ensemble=ensemble, seed=9)  # 120 patches, 3 chunks
        assert events == 3 * per_chunk

    def test_default_chunks_hold_at_most_chunk_queries(self, monkeypatch):
        model = micro_model(seed=32)
        lr = Image(np.random.default_rng(88).random((48, 48, 3)))
        sizes = []
        original = pipeline.generate_texture_patches

        def recording_generate(model, amap, fmap, centers, *rest):
            sizes.append(centers.shape[0])
            return original(model, amap, fmap, centers, *rest)

        monkeypatch.setattr(pipeline, "generate_texture_patches", recording_generate)
        super_resolve(lr, 4.0, 0.5, model, seed=3)  # 192 * 192 = 36864 patches
        assert len(sizes) == -(-36864 // 4096) == 9
        assert sum(sizes) == 36864
        assert max(sizes) <= pipeline.CHUNK_QUERIES

    def test_tau0_leaves_the_generator_untouched(self, monkeypatch):
        model = micro_model(seed=31)
        lr = Image(np.random.default_rng(87).random((5, 6, 3)))
        seen = []

        def recording_latents(count, d, tau, rng):
            seen.append((rng, rng.bit_generator.state))
            return original(count, d, tau, rng)

        original = pipeline.latents
        monkeypatch.setattr(pipeline, "latents", recording_latents)
        monkeypatch.setattr(pipeline, "CHUNK_QUERIES", 50)
        super_resolve(lr, 2.0, 0.0, model, seed=9)  # 120 patches, 3 chunks
        fresh = np.random.default_rng(9).bit_generator.state
        assert len(seen) == 3
        assert all(rng is seen[0][0] and state == fresh for rng, state in seen)
        assert seen[0][0].bit_generator.state == fresh

    def test_phases_once_per_chunk_size(self, monkeypatch):
        model = micro_model(seed=29)
        lr = Image(np.random.default_rng(86).random((5, 5, 3)))
        sizes = []
        original = pipeline.phase_vector

        def counting_phase_vector(cells, params):
            sizes.append(len(cells))
            return original(cells, params)

        monkeypatch.setattr(pipeline, "phase_vector", counting_phase_vector)
        monkeypatch.setattr(pipeline, "CHUNK_QUERIES", 7)
        super_resolve(lr, 3.0, 0.5, model, seed=1)  # 225 patches: 32 x 7, then 1
        assert sizes == [7, 1]

    @pytest.mark.parametrize("s,tau", [
        (float("nan"), 0.5), (float("inf"), 0.5), (-2.0, 0.5),
        (2.0, -1.0), (2.0, float("nan")), (2.0, float("inf")),
    ])
    def test_rejects_bad_scale_or_tau(self, s, tau):
        model = micro_model(seed=30)
        lr = Image(np.zeros((3, 3, 3)))
        with pytest.raises(UsageError):
            super_resolve(lr, s, tau, model, seed=1)

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
        head = model.params["implicit.head.w"]
        head.assign_(np.random.default_rng(81).normal(size=head.shape) * 0.1)
        lr = Image(np.random.default_rng(82).random((7, 6, 3)))
        plain = super_resolve(lr, 2.5, tau, model, ensemble=ensemble, seed=seed)
        with nm.probe(margins=True) as p:
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
        from linf.encoder import encode_batch
        from linf.implicit import bank_maps, phase_vector
        from linf.pipeline import generate_texture_patches

        from .oracles import pixel_centers

        model = micro_model(seed=27)
        rng = np.random.default_rng(82)
        head = model.params["implicit.head.w"]
        head.assign_(rng.normal(size=head.shape) * 0.1)
        lr = Image(rng.random((5, 5, 3)))
        banks = bank_maps(encode_batch(nm.tensor(lr.data), model), model)
        center = np.array([[pixel_centers(5)[2], pixel_centers(5)[1]]])
        phases = phase_vector(np.ones(1), model)  # cell 1.0
        # both draw the same latent row from equally seeded generators
        a = generate_texture_patches(model, *banks, center, phases, 0.5,
                                     np.random.default_rng(83))
        b = generate_texture_patches(
            model, *banks, center, phases, 0.5, np.random.default_rng(83),
            ensemble=ENSEMBLE_LOCAL,
        )
        np.testing.assert_allclose(a, b, atol=1e-12)

    @staticmethod
    def _working_set_bound(cfg, side, s):
        """One 4096-query chunk's [Q, trunk_width] trunk buffer and head
        output, which the head GEMM holds at once, plus the image-level
        arrays: the bank maps, the patch table, the output raster and the
        bilinear base. No slack: the two rasters exist only after the last
        chunk, and their bytes cover what a chunk holds beside the trunk and
        the head (its phases, centers and neighbourhood geometry)."""
        grid = build_grid(ScaleSpec(s, side, side), cfg.patch_side)
        q, d, layers = 4096, cfg.patch_dim, cfg.flow_layers
        trunk_bytes = q * cfg.trunk_width * 8
        head_bytes = q * 2 * d * layers * 8
        image_bytes = (2 * side * side * 2 * cfg.frequencies + grid.num_patches * d
                       + 2 * grid.target_height * grid.target_width * 3) * 8
        return grid, trunk_bytes + head_bytes + image_bytes

    @staticmethod
    def _traced_peak(*args, **kwargs):
        tracemalloc.start()
        try:
            super_resolve(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_patch3_working_set_bound(self):
        """Traced peak of a two-chunk patch3 super_resolve within
        _working_set_bound. Holding an [L, Q, D] alpha buffer beside the head
        output (8.4 MiB), or a chunk's [Q, D] latents during its condition
        (0.8 MiB), exceeds it."""
        cfg, _, _ = load_config(str(CONFIG_DIR / "patch3.cfg"))
        grid, bound = self._working_set_bound(cfg, 72, 2.7)
        assert 4096 < grid.num_patches <= 2 * 4096
        lr = toy_corpus(1, 72, seed=1)[0]
        assert self._traced_peak(lr, 2.7, 0.0, Model.create(cfg, seed=0)) <= bound

    def test_desk_working_set_bound(self):
        """Traced peak of a nine-chunk desk x4 super_resolve within
        _working_set_bound. Holding a chunk's whole [Q, 8K] features (4 MiB)
        beside its trunk buffer, or both full [Q, trunk_width] trunk layers
        at once, exceeds it."""
        cfg, _, _ = load_config(str(CONFIG_DIR / "desk.cfg"))
        grid, bound = self._working_set_bound(cfg, 48, 4.0)
        assert grid.num_patches == 9 * 4096
        lr = toy_corpus(1, 48, seed=1)[0]
        assert self._traced_peak(lr, 4.0, 0.5, Model.create(cfg, seed=0), seed=1) <= bound

    def test_local_and_fourier_agree_on_1x1_map(self):
        # a 1x1 feature map makes all four neighborhoods identical
        model = micro_model(seed=26)
        rng = np.random.default_rng(81)
        lr = Image(rng.random((1, 1, 3)))
        # give the head real weights so conditions are non-trivial
        head = model.params["implicit.head.w"]
        head.assign_(rng.normal(size=head.shape) * 0.1)
        a = super_resolve(lr, 3.0, 0.4, model, seed=5)
        b = super_resolve(lr, 3.0, 0.4, model, seed=5, ensemble=ENSEMBLE_LOCAL)
        np.testing.assert_allclose(a.data, b.data, atol=1e-9)
