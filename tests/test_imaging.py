"""Resampler, metric, and file-format contracts against independent oracles."""

import math

import numpy as np
import pytest

from linf import imaging
from linf.errors import ImageFormatError, ImageParseError, UsageError
from linf.imaging import Image
from linf.verify import _naive_bicubic


def rgb(arr2d):
    """Replicate a 2-D array across RGB channels."""
    a = np.asarray(arr2d, dtype=np.float64)
    return Image(np.repeat(a[:, :, None], 3, axis=2))


class TestBilinear:
    def test_constant_preserved(self):
        img = Image(np.full((3, 4, 3), 0.37))
        out = imaging.bilinear_upsample(img, 7, 9)
        np.testing.assert_array_equal(out.data, np.full((7, 9, 3), 0.37))

    def test_identity_scale_exact(self):
        board = rgb([[0.0, 1.0], [1.0, 0.0]])
        out = imaging.bilinear_upsample(board, 2, 2)
        np.testing.assert_array_equal(out.data, board.data)

    def test_2x2_to_4x4_frozen_weights(self):
        # frozen from the closed-form align-centers weights (independent script)
        src = Image(np.stack([
            np.array([[0.0, 1.0], [0.5, 0.25]]),
            np.array([[0.0, 1.0], [0.5, 0.25]]),
            np.array([[0.0, 1.0], [0.5, 0.25]]),
        ], axis=2))
        expected = np.array([
            [0.0, 0.25, 0.75, 1.0],
            [0.125, 0.296875, 0.640625, 0.8125],
            [0.375, 0.390625, 0.421875, 0.4375],
            [0.5, 0.4375, 0.3125, 0.25],
        ])
        out = imaging.bilinear_upsample(src, 4, 4)
        for ch in range(3):
            np.testing.assert_allclose(out.data[:, :, ch], expected, rtol=0, atol=1e-15)

    def test_zero_target_rejected(self):
        with pytest.raises(UsageError):
            imaging.bilinear_upsample(rgb([[0.5]]), 0, 3)

    @pytest.mark.parametrize("n_src,n_tgt", [(5, 17), (17, 5), (9, 9), (1, 4)])
    def test_axis_bits_equal_the_two_tap_formula(self, n_src, n_tgt):
        data = np.random.default_rng(n_src * n_tgt).random((n_src, 3, 3))
        pos = imaging._axis_positions(n_src, n_tgt)
        lo = np.floor(pos).astype(int)
        w = (pos - lo)[:, None, None]
        lo_rows, hi_rows = data[np.clip(lo, 0, n_src - 1)], data[np.clip(lo + 1, 0, n_src - 1)]
        want = (1.0 - w) * lo_rows + w * hi_rows
        assert imaging._bilinear_axis(data, n_tgt).tobytes() == want.tobytes()


class TestBicubic:
    def test_constant_preserved(self):
        img = Image(np.full((5, 5, 3), 0.62))
        out = imaging.bicubic_resample(img, 12, 3)
        np.testing.assert_allclose(out.data, 0.62, atol=1e-12)

    def test_identity_scale_exact(self):
        rng = np.random.default_rng(21)
        img = Image(rng.random((6, 7, 3)))
        out = imaging.bicubic_resample(img, 6, 7)
        np.testing.assert_array_equal(out.data, img.data)

    def test_ramp_downsample_vs_naive_oracle(self):
        ramp = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        img = rgb(ramp)
        out = imaging.bicubic_resample(img, 4, 4)
        oracle = _naive_bicubic(img.data, 4, 4)
        np.testing.assert_allclose(out.data, oracle, atol=1e-10)

    def test_random_resample_vs_naive_oracle(self):
        rng = np.random.default_rng(22)
        img = Image(rng.random((9, 6, 3)))
        for th, tw in [(5, 4), (13, 9), (9, 6)]:
            out = imaging.bicubic_resample(img, th, tw)
            np.testing.assert_allclose(out.data, _naive_bicubic(img.data, th, tw), atol=1e-10)


class TestPsnr:
    def test_identical_is_inf(self):
        img = rgb([[0.1, 0.2], [0.3, 0.4]])
        assert imaging.psnr(img, img) == math.inf
        assert imaging.psnr(img, img, on_y_channel=True) == math.inf

    def test_quarter_mse_value(self):
        a = Image(np.zeros((4, 4, 3)))
        b = Image(np.full((4, 4, 3), 0.5))
        assert imaging.psnr(a, b) == pytest.approx(6.020599913279624, abs=1e-9)
        assert imaging.psnr(a, b, on_y_channel=True) == pytest.approx(6.020599913279624, abs=1e-9)

    def test_random_pair_vs_direct_mse(self):
        rng = np.random.default_rng(23)
        a = Image(rng.random((5, 7, 3)))
        b = Image(rng.random((5, 7, 3)))
        mse = np.mean((a.data - b.data) ** 2)
        assert imaging.psnr(a, b) == pytest.approx(10 * math.log10(1 / mse), abs=1e-9)
        w = np.array([0.299, 0.587, 0.114])
        mse_y = np.mean((a.data @ w - b.data @ w) ** 2)
        assert imaging.psnr(a, b, on_y_channel=True) == pytest.approx(
            10 * math.log10(1 / mse_y), abs=1e-9
        )

    def test_symmetry_and_mismatch(self):
        rng = np.random.default_rng(24)
        a = Image(rng.random((4, 4, 3)))
        b = Image(rng.random((4, 4, 3)))
        assert imaging.psnr(a, b) == imaging.psnr(b, a)
        with pytest.raises(UsageError):
            imaging.psnr(a, Image(rng.random((4, 5, 3))))


def ssim_definition_oracle(a, b):
    """Straight-from-definition SSIM: explicit per-window weighted statistics."""
    size, sigma = 11, 1.5
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2 * sigma**2))
    win = np.outer(g, g)
    win /= win.sum()
    c1, c2 = 0.01**2, 0.03**2
    h, w, _ = a.data.shape
    per_channel = []
    for ch in range(3):
        vals = []
        for y in range(h - size + 1):
            for x in range(w - size + 1):
                px = a.data[y : y + size, x : x + size, ch]
                py = b.data[y : y + size, x : x + size, ch]
                mx = (win * px).sum()
                my = (win * py).sum()
                vx = (win * (px - mx) ** 2).sum()
                vy = (win * (py - my) ** 2).sum()
                cxy = (win * (px - mx) * (py - my)).sum()
                vals.append(
                    ((2 * mx * my + c1) * (2 * cxy + c2))
                    / ((mx**2 + my**2 + c1) * (vx + vy + c2))
                )
        per_channel.append(np.mean(vals))
    return float(np.mean(per_channel))


class TestSsim:
    def test_self_is_one(self):
        rng = np.random.default_rng(25)
        img = Image(rng.random((12, 12, 3)))
        assert imaging.ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_negative_content_below_one(self):
        rng = np.random.default_rng(26)
        img = Image(0.25 + 0.5 * rng.random((16, 16, 3)))
        flipped = Image(1.0 - img.data)
        assert imaging.ssim(img, flipped) < 1.0

    def test_fixed_pair_vs_definition_oracle(self):
        rng = np.random.default_rng(27)
        a = Image(rng.random((16, 16, 3)))
        b = Image(np.clip(a.data + 0.1 * rng.standard_normal((16, 16, 3)), 0, 1))
        assert abs(imaging.ssim(a, b) - ssim_definition_oracle(a, b)) <= 1e-6

    def test_too_small_rejected(self):
        img = rgb(np.zeros((8, 8)))
        with pytest.raises(UsageError):
            imaging.ssim(img, img)


class TestDiversity:
    def test_identical_samples_zero(self):
        img = rgb([[0.5, 0.1], [0.9, 0.3]])
        assert imaging.diversity([img.copy() for _ in range(5)]) == 0.0

    def test_two_point_std(self):
        a = Image(np.zeros((3, 3, 3)))
        b = Image(np.ones((3, 3, 3)))
        assert imaging.diversity([a, b]) == pytest.approx(0.5, abs=1e-15)

    def test_random_vs_direct_formula(self):
        rng = np.random.default_rng(28)
        samples = [Image(rng.random((4, 5, 3))) for _ in range(5)]
        stack = np.stack([s.data for s in samples])
        direct = np.sqrt(((stack - stack.mean(0)) ** 2).mean(0)).mean()
        assert imaging.diversity(samples) == pytest.approx(direct, abs=1e-9)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(29)
        samples = [Image(rng.random((4, 4, 3))) for _ in range(5)]
        d1 = imaging.diversity(samples)
        d2 = imaging.diversity(samples[::-1])
        assert d1 == d2

    def test_single_sample_rejected(self):
        with pytest.raises(UsageError):
            imaging.diversity([rgb([[0.5]])])


class TestFileIO:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(30)
        quantized = np.round(rng.random((7, 9, 3)) * 255) / 255.0
        img = Image(quantized)
        path = tmp_path / "x.ppm"
        imaging.write_image(img, str(path))
        back = imaging.read_image(str(path))
        np.testing.assert_array_equal(back.data, img.data)

    def test_1x1_white_pixel(self, tmp_path):
        path = tmp_path / "w.ppm"
        path.write_bytes(b"P6 1 1 255 \xff\xff\xff")
        img = imaging.read_image(str(path))
        np.testing.assert_array_equal(img.data, np.ones((1, 1, 3)))

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5 1 1 255 \x00")
        with pytest.raises(ImageParseError) as err:
            imaging.read_image(str(path))
        assert err.value.offset == 0

    def test_truncated_data_offset(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        path.write_bytes(b"P6 2 2 255 \xff\xff")
        with pytest.raises(ImageParseError):
            imaging.read_image(str(path))

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6 1 1 65535 \x00\x00\x00\x00\x00\x00")
        with pytest.raises(ImageFormatError):
            imaging.read_image(str(path))

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x10\x20\x30")
        img = imaging.read_image(str(path))
        np.testing.assert_allclose(img.data[0, 0], [0x10 / 255, 0x20 / 255, 0x30 / 255])

    def test_png_roundtrip_when_available(self, tmp_path):
        pytest.importorskip("PIL")
        rng = np.random.default_rng(31)
        img = Image(np.round(rng.random((5, 4, 3)) * 255) / 255.0)
        path = tmp_path / "x.png"
        imaging.write_image(img, str(path))
        back = imaging.read_image(str(path))
        np.testing.assert_array_equal(back.data, img.data)


def test_metric_report_csv():
    rep = imaging.MetricReport("img7", 2.0, 0.5, 31.25, 30.0, 0.91, 0.013)
    assert imaging.MetricReport.CSV_HEADER == "image_id,scale,tau,psnr_y,psnr_rgb,ssim,diversity"
    assert rep.csv_row() == "img7,2,0.5,31.250000,30.000000,0.910000,0.013000"
