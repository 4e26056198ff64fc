"""RGB images in [0,1], resampling, PPM/PNG I/O, and evaluation metrics.

Continuous image domain is [-1,1] per axis with pixel centers at
(2i+1)/N - 1; resampling uses the equivalent align-centers convention in
source-pixel units (y = (i+0.5)*src/tgt - 0.5).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .errors import ImageFormatError, ImageParseError, UsageError

# BT.601 full-range luma weights
_LUMA = np.array([0.299, 0.587, 0.114])

PSNR_IDENTICAL = math.inf


@dataclass
class Image:
    """Height x width x 3 raster, float64, values in [0,1]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise UsageError(f"image must be HxWx3, got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise UsageError("image extents must be >= 1")
        if not np.all(np.isfinite(arr)):
            raise UsageError("image holds non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise UsageError("image values must lie in [0,1]")
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def copy(self) -> "Image":
        return Image(self.data.copy())


@dataclass
class MetricReport:
    """One evaluation row; serialized per the CSV schema below."""

    image_id: str
    scale: float
    tau: float
    psnr_y: float
    psnr_rgb: float
    ssim: float
    diversity: float

    CSV_HEADER = "image_id,scale,tau,psnr_y,psnr_rgb,ssim,diversity"

    def csv_row(self) -> str:
        def fmt(v: float) -> str:
            return "inf" if math.isinf(v) else f"{v:.6f}"

        return (
            f"{self.image_id},{self.scale:g},{self.tau:g},"
            f"{fmt(self.psnr_y)},{fmt(self.psnr_rgb)},{fmt(self.ssim)},{fmt(self.diversity)}"
        )


# -- resampling -----------------------------------------------------------------


def _axis_positions(n_src: int, n_tgt: int) -> np.ndarray:
    """Continuous source positions of target pixel centers (align-centers)."""
    return (np.arange(n_tgt) + 0.5) * (n_src / n_tgt) - 0.5


def _bilinear_axis(data: np.ndarray, n_tgt: int) -> np.ndarray:
    """Interpolate along axis 0 with 2-tap linear weights, edge clamp."""
    n_src = data.shape[0]
    pos = _axis_positions(n_src, n_tgt)
    lo = np.floor(pos).astype(int)
    t = pos - lo
    i0 = np.clip(lo, 0, n_src - 1)
    i1 = np.clip(lo + 1, 0, n_src - 1)
    w = t.reshape((-1,) + (1,) * (data.ndim - 1))
    # (1 - w) * lo + w * hi, with the products formed in the gathered rows
    out = data[i0]
    out *= 1.0 - w
    hi = data[i1]
    hi *= w
    out += hi
    return out


def _cubic_kernel(d: np.ndarray, a: float = -0.5) -> np.ndarray:
    """Catmull-Rom-family cubic with parameter a."""
    ad = np.abs(d)
    ad2 = ad * ad
    ad3 = ad2 * ad
    near = (a + 2.0) * ad3 - (a + 3.0) * ad2 + 1.0
    far = a * ad3 - 5.0 * a * ad2 + 8.0 * a * ad - 4.0 * a
    return np.where(ad <= 1.0, near, np.where(ad < 2.0, far, 0.0))


def _bicubic_axis(data: np.ndarray, n_tgt: int) -> np.ndarray:
    """Interpolate along axis 0 with the 4-tap cubic kernel, edge clamp.

    Tap weights come from unclamped distances so they always sum to 1;
    indices are clamped to the edge.
    """
    n_src = data.shape[0]
    pos = _axis_positions(n_src, n_tgt)
    base = np.floor(pos).astype(int)
    out = np.zeros((n_tgt,) + data.shape[1:])
    for k in range(-1, 3):
        tap = base + k
        w = _cubic_kernel(pos - tap)
        idx = np.clip(tap, 0, n_src - 1)
        out += w.reshape((-1,) + (1,) * (data.ndim - 1)) * data[idx]
    return out


def bilinear_upsample(img: Image, target_h: int, target_w: int) -> Image:
    """Align-centers bilinear resampling (either direction)."""
    if target_h < 1 or target_w < 1:
        raise UsageError("target extents must be >= 1")
    out = _bilinear_axis(img.data, target_h)
    out = _bilinear_axis(out.transpose(1, 0, 2), target_w).transpose(1, 0, 2)
    return Image(np.clip(out, 0.0, 1.0, out=out))


def bicubic_resample(img: Image, target_h: int, target_w: int) -> Image:
    """Align-centers bicubic (a=-0.5) resampling with edge clamp."""
    if target_h < 1 or target_w < 1:
        raise UsageError("target extents must be >= 1")
    out = _bicubic_axis(img.data, target_h)
    out = _bicubic_axis(out.transpose(1, 0, 2), target_w).transpose(1, 0, 2)
    return Image(np.clip(out, 0.0, 1.0))


# -- metrics ------------------------------------------------------------------------


def luma(img: Image) -> np.ndarray:
    return img.data @ _LUMA


def psnr(a: Image, b: Image, on_y_channel: bool = False) -> float:
    """Peak signal-to-noise ratio in dB against peak 1.0."""
    if a.data.shape != b.data.shape:
        raise UsageError(f"psnr extent mismatch: {a.data.shape} vs {b.data.shape}")
    if on_y_channel:
        diff = luma(a) - luma(b)
    else:
        diff = a.data - b.data
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_IDENTICAL
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma * sigma))
    g /= g.sum()
    return np.outer(g, g)


def _window_filter(plane: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Valid-mode 2-D correlation with the (small) window."""
    k = window.shape[0]
    h, w = plane.shape
    out = np.zeros((h - k + 1, w - k + 1))
    for dy in range(k):
        for dx in range(k):
            out += window[dy, dx] * plane[dy : dy + h - k + 1, dx : dx + w - k + 1]
    return out


def ssim(a: Image, b: Image) -> float:
    """Single-scale SSIM: 11x11 Gaussian window sigma=1.5, averaged over channels."""
    if a.data.shape != b.data.shape:
        raise UsageError(f"ssim extent mismatch: {a.data.shape} vs {b.data.shape}")
    if min(a.height, a.width) < 11:
        raise UsageError("ssim needs extents >= 11")
    window = _gaussian_window()
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2
    vals = []
    for ch in range(3):
        x = a.data[:, :, ch]
        y = b.data[:, :, ch]
        mx = _window_filter(x, window)
        my = _window_filter(y, window)
        mxx = _window_filter(x * x, window)
        myy = _window_filter(y * y, window)
        mxy = _window_filter(x * y, window)
        vx = mxx - mx * mx
        vy = myy - my * my
        cxy = mxy - mx * my
        num = (2.0 * mx * my + c1) * (2.0 * cxy + c2)
        den = (mx * mx + my * my + c1) * (vx + vy + c2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


def diversity(samples: Sequence[Image]) -> float:
    """Mean over positions/channels of the per-pixel population std of samples.

    The per-pixel sample sets are canonicalized (sorted, shifted by their
    smallest member) before the std, making the result exactly permutation
    invariant and exactly 0 for identical samples.
    """
    if len(samples) < 2:
        raise UsageError("diversity needs at least 2 samples")
    shape = samples[0].data.shape
    for s in samples[1:]:
        if s.data.shape != shape:
            raise UsageError("diversity samples must share extents")
    stack = np.sort(np.stack([s.data for s in samples]), axis=0)
    stack -= stack[0]
    return float(np.mean(stack.std(axis=0)))


# -- file I/O -------------------------------------------------------------------------


def _to_bytes(img: Image) -> np.ndarray:
    return np.clip(np.round(img.data * 255.0), 0, 255).astype(np.uint8)


def write_atomic(path: str, write: Callable[[BinaryIO], object]) -> None:
    """Call `write` on a binary file next to `path` (`<path>.<pid>.tmp`) and
    rename it over `path`, so a write that fails leaves any earlier file at
    `path` as it was and no temporary file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_image(img: Image, path: str) -> None:
    """Write 8-bit PPM (P6); PNG when the path ends in .png and Pillow exists.

    The write is atomic (write_atomic). A path that cannot be written raises
    UsageError."""
    try:
        writer = _write_png if str(path).lower().endswith(".png") else _write_ppm
        write_atomic(path, lambda fh: writer(img, fh))
    except OSError as exc:
        raise UsageError(f"cannot write image {path}: {exc.strerror or exc}") from exc


def check_writable(path: str, what: str = "image") -> None:
    """Raise what writing `what` to `path` would raise, before any output
    exists: UsageError for a directory or a missing parent directory,
    ImageFormatError for a PNG image path without Pillow."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write {what} {path}: is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"cannot write {what} {path}: no directory {parent}")
    if what == "image" and str(path).lower().endswith(".png"):
        _pillow()


def read_image(path: str) -> Image:
    """Read a PPM (P6) or, with Pillow, a PNG file.

    A path that cannot be read raises UsageError; malformed content raises
    ImageParseError or ImageFormatError."""
    try:
        if str(path).lower().endswith(".png"):
            return _read_png(path)
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read image {path}: {exc.strerror or exc}") from exc
    return _parse_ppm(blob)


def _parse_ppm(blob: bytes) -> Image:
    if blob[:2] != b"P6":
        raise ImageParseError("not a binary PPM (P6) file", 0)
    pos = 2

    def next_token() -> tuple[bytes, int]:
        nonlocal pos
        while pos < len(blob):
            c = blob[pos : pos + 1]
            if c == b"#":  # comment to end of line
                while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        if pos >= len(blob):
            raise ImageParseError("unexpected end of header", pos)
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        return blob[start:pos], start

    fields = []
    for _ in range(3):
        tok, off = next_token()
        if not tok.isdigit():
            raise ImageParseError(f"expected integer header field, got {tok!r}", off)
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageParseError("non-positive image extents", pos)
    if maxval != 255:
        raise ImageFormatError(f"unsupported bit depth (maxval {maxval}, want 255)")
    if pos >= len(blob) or not blob[pos : pos + 1].isspace():
        raise ImageParseError("missing whitespace after maxval", pos)
    pos += 1
    need = width * height * 3
    if len(blob) - pos < need:
        raise ImageParseError(
            f"truncated pixel data ({len(blob) - pos} of {need} bytes)", len(blob)
        )
    raw = np.frombuffer(blob, dtype=np.uint8, count=need, offset=pos)
    return Image(raw.reshape(height, width, 3).astype(np.float64) / 255.0)


def _pillow():
    """Pillow's Image module; ImageFormatError when Pillow is not installed."""
    try:
        from PIL import Image as PilImage
    except ImportError as exc:
        raise ImageFormatError("PNG support requires Pillow (install extra 'png')") from exc
    return PilImage


def _write_ppm(img: Image, fh: BinaryIO) -> None:
    fh.write(f"P6\n{img.width} {img.height}\n255\n".encode("ascii"))
    fh.write(_to_bytes(img).tobytes())


def _write_png(img: Image, fh: BinaryIO) -> None:
    _pillow().fromarray(_to_bytes(img), mode="RGB").save(fh, format="PNG")


def _read_png(path: str) -> Image:
    with _pillow().open(path) as im:
        if im.mode != "RGB":
            im = im.convert("RGB")
        arr = np.asarray(im, dtype=np.float64) / 255.0
    return Image(arr)
