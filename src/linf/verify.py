"""Self-contained oracle suite behind `linf verify` and the acceptance tests.

Every check builds its own fixtures from fixed seeds and compares the
implementation against an independent route: numeric Jacobians, closed-form
Gaussian densities, naive-loop resamplers, brute-force counting. `fast`
covers the full battery with spot gradient checks; `full` adds the exhaustive
per-parameter gradient audit, the density-normalization integral, and the
temperature law.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics as nm
from .corpus import toy_corpus
from .flow import LOG_2PI, FlowModel, latents
from .imaging import Image, bicubic_resample, bilinear_upsample, diversity, psnr, ssim
from .implicit import ConditionerOutput
from .model import Model, ModelConfig
from .numerics import finite_diff_jacobian, lu_factor
from .pipeline import ENSEMBLE_LOCAL, ScaleSpec, build_grid, coverage_mask, super_resolve
from .training import TrainConfig, loss_components, make_batch


@dataclass
class VerifyCheck:
    name: str
    passed: bool
    detail: str
    seconds: float


def random_cond(rng, layers: int, dim: int, batch: int = 1, scale: float = 0.5) -> ConditionerOutput:
    """Random condition: alpha_pre ~ U[-scale, scale] for every layer, then phi ~ scale * N(0, 1)."""
    alpha_pre = [nm.tensor(rng.uniform(-scale, scale, size=(batch, dim))) for _ in range(layers)]
    return ConditionerOutput(
        [nm.tsum(t, axis=1) for t in alpha_pre],
        [nm.exp(t) for t in alpha_pre],
        [nm.tensor(rng.normal(size=(batch, dim)) * scale) for _ in range(layers)],
    )


def _probe_affine(flow: FlowModel, cond: ConditionerOutput) -> tuple[np.ndarray, np.ndarray]:
    d = flow.d
    b = flow.inverse(nm.tensor(np.zeros((1, d))), cond).data[0]
    cols = []
    for i in range(d):
        e = np.zeros((1, d))
        e[0, i] = 1.0
        cols.append(flow.inverse(nm.tensor(e), cond).data[0] - b)
    return b, np.stack(cols, axis=1)


# -- individual checks -----------------------------------------------------------------


def check_invertibility() -> tuple[bool, str]:
    """inverse(forward(m)) == m to 1e-8 over 10^3 pairs at n in {1, 3}."""
    worst = 0.0
    for n, seed in ((1, 100), (3, 101)):
        rng = np.random.default_rng(seed)
        flow = FlowModel.create(n, 10, rng=rng, init_std=0.1)
        m = rng.normal(size=(1000, flow.d))
        cond = random_cond(rng, flow.num_layers, flow.d, batch=1000)
        z, _ = flow.forward(nm.tensor(m), cond)
        err = float(np.abs(flow.inverse(z, cond).data - m).max())
        worst = max(worst, err)
    return worst <= 1e-8, f"max round-trip error {worst:.3e} (tol 1e-8)"


def check_logdet_vs_numeric_jacobian() -> tuple[bool, str]:
    """Analytic log-det vs FD-Jacobian log-det at D in {3, 27}; input independence."""
    details = []
    ok = True
    for n, seed in ((1, 110), (3, 111)):
        rng = np.random.default_rng(seed)
        flow = FlowModel.create(n, 10, rng=rng, init_std=0.05)
        cond = random_cond(rng, flow.num_layers, flow.d, scale=0.3)
        lds = []
        for _ in range(2):
            m = rng.normal(size=(1, flow.d))
            _, ld = flow.forward(nm.tensor(m), cond)
            lds.append(float(ld.data[0]))

            def f(x):
                return flow.forward(nm.tensor(x.reshape(1, -1)), cond)[0].data[0]

            numeric = lu_factor(finite_diff_jacobian(f, m.reshape(-1))).logabsdet()
            rel = abs(lds[-1] - numeric) / max(abs(numeric), 1e-12)
            ok &= rel <= 1e-4
            details.append(f"D={flow.d} rel {rel:.2e}")
        spread = abs(lds[0] - lds[1])
        ok &= spread <= 1e-12
        details.append(f"D={flow.d} input-dependence {spread:.1e}")
    return ok, "; ".join(details)


def check_gaussian_equivalence() -> tuple[bool, str]:
    """log_prob vs closed-form Gaussian with probed mean/covariance, 100 models."""
    rng = np.random.default_rng(120)
    worst = 0.0
    for _ in range(100):
        layers = int(rng.integers(1, 6))
        flow = FlowModel.create(1, layers, rng=rng, init_std=0.2)
        cond = random_cond(rng, layers, flow.d)
        b, a = _probe_affine(flow, cond)
        cov = a @ a.T
        m = rng.normal(size=flow.d)
        lp = float(flow.log_prob(nm.tensor(m.reshape(1, -1)), cond).data[0])
        f = lu_factor(cov)
        diff = m - b
        closed = -0.5 * flow.d * LOG_2PI - 0.5 * f.logabsdet() - 0.5 * diff @ f.solve(diff)
        worst = max(worst, abs(lp - closed))
    return worst <= 1e-6, f"max |delta log p| {worst:.2e} (tol 1e-6)"


def _micro_setup(seed: int):
    """Micro model + frozen batch with safe margins for FD differencing."""
    model_cfg = ModelConfig(
        patch_side=1, frequencies=4, flow_layers=3, encoder_channels=8,
        encoder_blocks=1, trunk_width=32, phase_hidden=8, flow_init_std=0.05,
    )
    cfg = TrainConfig(
        lr_crop=6, batch=1, pairs_per_image=12, stage=2, seed=seed,
        steps=1, lr_halve_at=(),
    )
    corpus = toy_corpus(4, 32, seed=900 + seed)
    model = Model.create(model_cfg, seed=seed)
    # non-zero conditioner head so every parameter group is exercised
    rng = np.random.default_rng(seed + 1)
    head = model.implicit_params.t["head.w"]
    head.assign_(rng.normal(size=head.shape) * 0.05)
    batch = make_batch(corpus, cfg, np.random.default_rng(seed + 2), patch_side=1)
    return model, batch, cfg


def _loss_fn(model, batch, cfg) -> Callable[[], float]:
    def f():
        model.flow.refresh()  # FD mutates W in place without version bumps
        return float(loss_components(batch, model, cfg)[0].data)

    return f


def check_gradient_audit(full: bool) -> tuple[bool, str]:
    """Stage-2 loss gradients vs central differences on the micro model.

    full=True checks every coordinate of every parameter group (criterion
    tolerance rel 1e-4); full=False checks one random direction per group.
    The fixture seed is chosen so no relu unit, L1 residual or alpha clamp
    input sits within 2e-4 of its kink, keeping central differences in a
    smooth neighborhood.
    """
    # the FD step shifts a kinked op's input by at most ~3e-5, so a 2e-4
    # margin keeps every one strictly on one side of its kink
    for seed in range(16):
        model, batch, cfg = _micro_setup(seed)
        with nm.probe(margins=True) as p:
            loss_components(batch, model, cfg)
        if p.kink_margin > 2e-4:
            break
    else:
        return False, "no kink-safe fixture found in 16 seeds"

    with nm.GradTape() as tape:
        total, _, _ = loss_components(batch, model, cfg)
    tape.backward(total)
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in model.parameters().items()}

    f = _loss_fn(model, batch, cfg)
    rng = np.random.default_rng(7)
    worst_name, worst = "", 0.0
    for name, p in model.parameters().items():
        if full:
            fd = nm.finite_diff_grad(f, p.data)
            rel = nm.grad_rel_error(analytic[name], fd)
        else:
            u = rng.normal(size=p.data.shape)
            u /= np.linalg.norm(u)
            flat = p.data.reshape(-1)
            uflat = u.reshape(-1)
            saved = flat.copy()
            flat += nm.FD_STEP * uflat
            fp = f()
            flat[:] = saved - nm.FD_STEP * uflat
            fm = f()
            flat[:] = saved
            directional_fd = (fp - fm) / (2 * nm.FD_STEP)
            directional_an = float((analytic[name] * u).sum())
            rel = abs(directional_an - directional_fd) / max(abs(directional_fd), 1e-10)
        if rel > worst:
            worst_name, worst = name, rel
    mode = "per-coordinate" if full else "directional"
    detail = f"{mode} worst {worst:.2e} at {worst_name} (tol 1e-4, seed {seed})"
    return worst <= 1e-4, detail


def check_density_normalization() -> tuple[bool, str]:
    """Importance-sampled integral of exp(log_prob) equals 1 within 2%."""
    rng = np.random.default_rng(130)
    worst = 0.0
    for _ in range(10):
        flow = FlowModel.create(1, 10, rng=rng, init_std=0.1)
        cond = random_cond(rng, flow.num_layers, flow.d)
        b, a = _probe_affine(flow, cond)
        cov = a @ a.T + 1e-12 * np.eye(flow.d)
        chol = np.linalg.cholesky(cov)
        f = lu_factor(cov)
        draws = rng.standard_normal((20_000, flow.d))
        xs = b + draws @ chol.T
        diffs = xs - b
        log_q = (
            -0.5 * flow.d * LOG_2PI
            - 0.5 * f.logabsdet()
            - 0.5 * np.einsum("ij,ij->i", diffs, f.solve(diffs.T).T)
        )
        log_p = flow.log_prob(nm.tensor(xs), cond).data
        est = float(np.mean(np.exp(log_p - log_q)))
        worst = max(worst, abs(est - 1.0))
    return worst <= 0.02, f"max |integral - 1| {worst:.2e} (tol 0.02)"


def check_temperature_law() -> tuple[bool, str]:
    """Per-component std ratio between tau 0.8 and 0.4 is 2 +/- 5%; tau=0 is the mean."""
    rng = np.random.default_rng(140)
    flow = FlowModel.create(1, 10, rng=rng, init_std=0.1)
    cond = random_cond(rng, flow.num_layers, flow.d)
    mean = flow.inverse(nm.tensor(np.zeros((1, flow.d))), cond).data
    tau0 = flow.inverse(nm.tensor(latents(1, flow.d, 0.0, None)), cond).data
    mean_err = float(np.abs(tau0 - mean).max())

    def sample_std(tau: float, seed: int) -> np.ndarray:
        z = latents(10_000, flow.d, tau, np.random.default_rng(seed))
        return flow.inverse(nm.tensor(z), cond).data.std(axis=0)

    s08, s04 = sample_std(0.8, 8), sample_std(0.4, 4)
    ratio = float(np.mean(s08 / s04))
    ok = abs(ratio - 2.0) <= 0.1 and mean_err <= 1e-9
    return ok, f"std ratio {ratio:.4f} (want 2.0 +/- 5%), tau=0 mean error {mean_err:.1e}"


def check_ensemble_economics() -> tuple[bool, str]:
    """1+1 passes per query vs 4+4; paths agree when neighborhoods coincide."""
    model_cfg = ModelConfig(
        patch_side=1, frequencies=4, flow_layers=4, encoder_channels=8,
        encoder_blocks=1, trunk_width=16, phase_hidden=8,
    )
    model = Model.create(model_cfg, seed=5)
    rng = np.random.default_rng(150)
    head = model.implicit_params.t["head.w"]
    head.assign_(rng.normal(size=head.shape) * 0.1)

    lr = Image(rng.random((4, 5, 3)))
    grid = build_grid(ScaleSpec(2.0, 4, 5), 1)
    with nm.probe() as fourier:
        super_resolve(lr, 2.0, 0.0, model)
    with nm.probe() as local:
        super_resolve(lr, 2.0, 0.0, model, ensemble=ENSEMBLE_LOCAL)
    fourier_counts, local_counts = (
        (p.passes["conditioner"], p.passes["flow_inverse"]) for p in (fourier, local)
    )
    q = grid.num_patches
    counts_ok = fourier_counts == (q, q) and local_counts == (4 * q, 4 * q)

    # 1x1 LR image -> all four neighbors clamp to the same lattice cell
    lr1 = Image(rng.random((1, 1, 3)))
    a = super_resolve(lr1, 3.0, 0.5, model, seed=3)
    b = super_resolve(lr1, 3.0, 0.5, model, seed=3, ensemble=ENSEMBLE_LOCAL)
    agree = float(np.abs(a.data - b.data).max())
    ok = counts_ok and agree <= 1e-9
    return ok, (
        f"fourier {fourier_counts}, local {local_counts} for {q} queries; "
        f"identical-neighborhood disagreement {agree:.1e}"
    )


def check_tiling_exactness() -> tuple[bool, str]:
    """Every output pixel written exactly once over 50 random configurations."""
    rng = np.random.default_rng(160)
    for _ in range(50):
        h = int(rng.integers(1, 40))
        w = int(rng.integers(1, 40))
        s = float(rng.uniform(1.0, 4.0))
        n = int(rng.choice([1, 2, 3, 5]))
        spec = ScaleSpec(s, h, w)
        grid = build_grid(spec, n)
        if grid.rows != math.ceil(spec.target_height / n):
            return False, f"ceil violated at {(h, w, s, n)}"
        mask = coverage_mask(grid)
        if not np.all(mask == 1):
            return False, f"coverage violated at {(h, w, s, n)}"
    return True, "50 random (H, W, s, n) configurations covered exactly once"


def check_metric_oracles() -> tuple[bool, str]:
    """PSNR/SSIM/diversity closed-form cases; resamplers vs naive loops."""
    msgs = []
    a = Image(np.zeros((4, 4, 3)))
    b = Image(np.full((4, 4, 3), 0.5))
    p = psnr(a, b)
    ok = abs(p - 6.020599913279624) <= 1e-9
    msgs.append(f"psnr {p:.6f}")

    rng = np.random.default_rng(170)
    img = Image(rng.random((12, 12, 3)))
    s = ssim(img, img)
    ok &= abs(s - 1.0) <= 1e-12
    msgs.append(f"ssim(a,a) {s}")

    d = diversity([img.copy() for _ in range(5)])
    ok &= d == 0.0
    msgs.append(f"diversity {d}")

    src = Image(rng.random((8, 8, 3)))
    fast_bc = bicubic_resample(src, 4, 4).data
    fast_bl = bilinear_upsample(src, 13, 11).data
    slow_bc = _naive_bicubic(src.data, 4, 4)
    slow_bl = _naive_bilinear(src.data, 13, 11)
    bc_err = float(np.abs(fast_bc - slow_bc).max())
    bl_err = float(np.abs(fast_bl - slow_bl).max())
    ok &= bc_err <= 1e-10 and bl_err <= 1e-10
    msgs.append(f"bicubic vs naive {bc_err:.1e}, bilinear vs naive {bl_err:.1e}")
    return ok, "; ".join(msgs)


def _cubic_w(d: float, a: float = -0.5) -> float:
    d = abs(d)
    if d <= 1:
        return (a + 2) * d**3 - (a + 3) * d**2 + 1
    if d < 2:
        return a * d**3 - 5 * a * d**2 + 8 * a * d - 4 * a
    return 0.0


def _naive_bicubic(src: np.ndarray, th: int, tw: int) -> np.ndarray:
    h, w, _ = src.shape
    out = np.zeros((th, tw, 3))
    for i in range(th):
        for j in range(tw):
            y = (i + 0.5) * h / th - 0.5
            x = (j + 0.5) * w / tw - 0.5
            by, bx = math.floor(y), math.floor(x)
            acc = np.zeros(3)
            for dy in range(-1, 3):
                for dx in range(-1, 3):
                    wy = _cubic_w(y - (by + dy))
                    wx = _cubic_w(x - (bx + dx))
                    sy = min(max(by + dy, 0), h - 1)
                    sx = min(max(bx + dx, 0), w - 1)
                    acc += wy * wx * src[sy, sx]
            out[i, j] = acc
    return np.clip(out, 0.0, 1.0)


def _naive_bilinear(src: np.ndarray, th: int, tw: int) -> np.ndarray:
    h, w, _ = src.shape
    out = np.zeros((th, tw, 3))
    for i in range(th):
        for j in range(tw):
            y = (i + 0.5) * h / th - 0.5
            x = (j + 0.5) * w / tw - 0.5
            y0, x0 = math.floor(y), math.floor(x)
            ty, tx = y - y0, x - x0

            def at(r, c):
                return src[min(max(r, 0), h - 1), min(max(c, 0), w - 1)]

            out[i, j] = (1 - ty) * ((1 - tx) * at(y0, x0) + tx * at(y0, x0 + 1)) + ty * (
                (1 - tx) * at(y0 + 1, x0) + tx * at(y0 + 1, x0 + 1)
            )
    return np.clip(out, 0.0, 1.0)


# -- suite runner ------------------------------------------------------------------------


LEVEL_FAST = "fast"
LEVEL_FULL = "full"


def run_suite(level: str = LEVEL_FAST) -> list[VerifyCheck]:
    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("flow-invertibility-roundtrip", check_invertibility),
        ("flow-logdet-vs-numeric-jacobian", check_logdet_vs_numeric_jacobian),
        ("flow-gaussian-equivalence", check_gaussian_equivalence),
        ("gradient-spot-checks", lambda: check_gradient_audit(full=False)),
        ("pipeline-tiling-exactness", check_tiling_exactness),
        ("ensemble-economics", check_ensemble_economics),
        ("metric-oracles", check_metric_oracles),
    ]
    if level == LEVEL_FULL:
        checks += [
            ("gradient-audit-full", lambda: check_gradient_audit(full=True)),
            ("density-normalization-d3", check_density_normalization),
            ("temperature-law", check_temperature_law),
        ]
    elif level != LEVEL_FAST:
        raise ValueError(f"unknown verify level {level!r}")

    results = []
    for name, fn in checks:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed oracle is a failed oracle
            passed, detail = False, f"exception: {exc!r}"
        results.append(VerifyCheck(name, passed, detail, time.perf_counter() - start))
    return results
