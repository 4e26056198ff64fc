"""Command-line surface: train, sr, sweep, metrics, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 runtime/training failure.
"""

from __future__ import annotations

import os

# LINF_THREADS caps BLAS parallelism; must land before numpy is imported
if "LINF_THREADS" in os.environ:
    os.environ.setdefault("OMP_NUM_THREADS", os.environ["LINF_THREADS"])
    os.environ.setdefault("OPENBLAS_NUM_THREADS", os.environ["LINF_THREADS"])
    os.environ.setdefault("MKL_NUM_THREADS", os.environ["LINF_THREADS"])

import argparse
import dataclasses
import glob
import sys
import time

import numpy as np

from . import numerics as nm
from .config import DataConfig, load_config
from .corpus import toy_corpus
from .errors import ConfigError, LinfError, TrainingError, UsageError
from .flow import check_tau
from .imaging import (
    Image, MetricReport, bicubic_resample, check_writable, diversity, psnr, read_image, ssim,
    write_image,
)
from .pipeline import ENSEMBLE_FOURIER, ENSEMBLE_LOCAL, ScaleSpec, build_grid, super_resolve
from .training import load_checkpoint, train
from .verify import LEVEL_FAST, LEVEL_FULL, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def default_tau(scale: float) -> float:
    """Documented default temperature table by scale band."""
    if scale <= 4.0:
        return 0.5
    if scale <= 6.0:
        return 0.4
    return 0.2


def _print_banner(command: str, options: dict) -> None:
    """Echo a command's fully resolved options."""
    print("\n".join([f"linf {command}"] + [f"  {k} = {options[k]}" for k in sorted(options)]))


def _load_corpus(data_cfg: DataConfig) -> list[Image]:
    if data_cfg.corpus == "toy":
        return toy_corpus(data_cfg.corpus_count, data_cfg.corpus_size)
    return _read_image_dir(data_cfg.corpus)


def _read_image_dir(path: str) -> list[Image]:
    patterns = ("*.ppm", "*.png")
    files = sorted(f for pat in patterns for f in glob.glob(os.path.join(path, pat)))
    if not files:
        raise ConfigError(f"no .ppm/.png images found in {path!r}")
    return [read_image(f) for f in files]


def cmd_train(args) -> int:
    model_cfg, train_cfg, data_cfg = load_config(args.config)
    # replace() runs the range checks on the overridden fields too
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
    if args.out is not None:
        data_cfg = dataclasses.replace(data_cfg, out_dir=args.out)
    _print_banner(
        "train",
        {**{f"model.{k}": v for k, v in model_cfg.to_dict().items()},
         **{f"train.{k}": v for k, v in train_cfg.to_dict().items()},
         "data.corpus": data_cfg.corpus,
         "data.out_dir": data_cfg.out_dir,
         "seed": train_cfg.seed},
    )
    corpus = _load_corpus(data_cfg)
    result = train(corpus, train_cfg, model_cfg, out_dir=data_cfg.out_dir,
                   resume=args.resume)
    print(f"finished {train_cfg.steps} steps; checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's generators take no negative seed
        raise UsageError(f"--seed must be >= 0, got {seed}")


def cmd_sr(args) -> int:
    tau = args.tau if args.tau is not None else default_tau(args.scale)
    # the seed, output, input and scale are checked before the model is loaded
    _check_seed(args.seed)
    check_writable(args.out)
    lr = read_image(args.input)
    spec = ScaleSpec(args.scale, lr.height, lr.width)
    ckpt = load_checkpoint(args.model)
    model = ckpt.model
    if args.weighting is not None:
        model.cfg.ensemble_weighting = args.weighting
    grid = build_grid(spec, model.cfg.patch_side)
    _print_banner(
        "sr",
        {"model": args.model, "input": args.input, "scale": args.scale,
         "tau": tau, "seed": args.seed, "ensemble": args.ensemble,
         "weighting": model.cfg.ensemble_weighting,
         "patch_n": model.cfg.patch_side, "out": args.out},
    )
    start = time.perf_counter()
    with nm.probe() as p:
        out = super_resolve(lr, args.scale, tau, model, seed=args.seed, ensemble=args.ensemble)
    elapsed = time.perf_counter() - start
    write_image(out, args.out)
    print(
        f"generated {grid.target_height}x{grid.target_width} from {lr.height}x{lr.width}: "
        f"{grid.rows}x{grid.cols} patches, {p.passes['conditioner']} conditioner passes, "
        f"{p.passes['flow_inverse']} flow passes, {elapsed:.2f}s"
    )
    return EXIT_OK


def _pair_spec(hr: Image, scale: float) -> ScaleSpec:
    """The LR extents a ground-truth image is reduced to, and its target raster."""
    return ScaleSpec(scale, max(2, int(hr.height // scale)), max(2, int(hr.width // scale)))


def _eval_pair(model, hr: Image, spec: ScaleSpec, tau: float, samples: int, seed: int,
               ensemble: str) -> tuple[float, float, float]:
    """(psnr_y, ssim, diversity) for one ground-truth image at one tau."""
    hr_crop = Image(hr.data[: spec.target_height, : spec.target_width])
    lr = bicubic_resample(hr_crop, spec.height, spec.width)
    outs = [
        super_resolve(lr, spec.s, tau, model, seed=seed + 1000 * k, ensemble=ensemble)
        for k in range(samples if tau > 0 else 1)
    ]
    div = diversity(outs) if len(outs) >= 2 else 0.0
    return psnr(outs[0], hr_crop, on_y_channel=True), ssim(outs[0], hr_crop), div


def _write_csv(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write csv {path}: {exc.strerror or exc}") from exc


def _parse_taus(text: str) -> list[float]:
    try:
        taus = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise UsageError(f"--taus must be comma-separated numbers, got {text!r}") from None
    if not taus:
        raise UsageError("no tau values given")
    for tau in taus:
        check_tau(tau)
    return taus


def cmd_sweep(args) -> int:
    # the arguments, the corpus and every pair's scale are checked before the
    # model is loaded or an image processed
    if not (np.isfinite(args.scale) and args.scale >= 1.0):  # the LR is the HR / the scale
        raise UsageError(f"sweep --scale must be finite and >= 1, got {args.scale}")
    taus = _parse_taus(args.taus)
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    _check_seed(args.seed)
    if args.out:
        check_writable(args.out, "csv")
    corpus = toy_corpus(8, 48) if args.corpus == "toy" else _read_image_dir(args.corpus)
    specs = [_pair_spec(hr, args.scale) for hr in corpus]
    ckpt = load_checkpoint(args.model)
    model = ckpt.model
    _print_banner(
        "sweep",
        {"model": args.model, "corpus": args.corpus, "scale": args.scale,
         "taus": taus, "samples": args.samples, "seed": args.seed, "out": args.out},
    )
    rows = ["tau,psnr_y,ssim,diversity"]
    for tau in taus:
        stats = [
            _eval_pair(model, hr, spec, tau, args.samples, args.seed + 31 * i, args.ensemble)
            for i, (hr, spec) in enumerate(zip(corpus, specs))
        ]
        finite = [s for s in stats if np.isfinite(s[0])]
        mean_psnr = float(np.mean([s[0] for s in finite])) if finite else float("inf")
        mean_ssim = float(np.mean([s[1] for s in stats]))
        mean_div = float(np.mean([s[2] for s in stats]))
        rows.append(f"{tau:g},{mean_psnr:.6f},{mean_ssim:.6f},{mean_div:.6f}")
    csv = "\n".join(rows) + "\n"
    if args.out:
        _write_csv(args.out, csv)
    print(csv, end="")
    return EXIT_OK


def cmd_metrics(args) -> int:
    if args.out:
        check_writable(args.out, "csv")
    ref = read_image(args.ref)
    tests = [read_image(p) for p in args.test]
    _print_banner("metrics", {"ref": args.ref, "test": list(args.test),
                              "scale": args.scale, "tau": args.tau})
    psnr_y = float(np.mean([psnr(t, ref, on_y_channel=True) for t in tests]))
    psnr_rgb = float(np.mean([psnr(t, ref) for t in tests]))
    ssim_v = float(np.mean([ssim(t, ref) for t in tests]))
    div = diversity(tests) if len(tests) >= 2 else 0.0
    report = MetricReport(
        image_id=args.id or os.path.splitext(os.path.basename(args.ref))[0],
        scale=args.scale, tau=args.tau,
        psnr_y=psnr_y, psnr_rgb=psnr_rgb, ssim=ssim_v, diversity=div,
    )
    print(MetricReport.CSV_HEADER)
    print(report.csv_row())
    if args.out:
        _write_csv(args.out, MetricReport.CSV_HEADER + "\n" + report.csv_row() + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    _print_banner("verify", {"level": args.level})
    checks = run_suite(args.level)
    width = max(len(c.name) for c in checks)
    failures = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:<{width}}  {c.seconds:7.2f}s  {c.detail}")
        if not c.passed:
            failures.append(c.name)
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return EXIT_VERIFY
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linf",
        description="Arbitrary-scale super-resolution with a patch-texture flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the optimization loop")
    p_train.add_argument("--config", required=True, help="key = value config file")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None, help="output directory override")
    p_train.add_argument("--resume", default=None, help="checkpoint to continue from")
    p_train.set_defaults(fn=cmd_train)

    p_sr = sub.add_parser("sr", help="super-resolve one image")
    p_sr.add_argument("input", help="input image (.ppm/.png)")
    p_sr.add_argument("--model", required=True)
    p_sr.add_argument("--scale", type=float, required=True)
    p_sr.add_argument("--tau", type=float, default=None)
    p_sr.add_argument("--seed", type=int, default=0)
    p_sr.add_argument("--out", required=True)
    p_sr.add_argument("--ensemble", choices=[ENSEMBLE_FOURIER, ENSEMBLE_LOCAL],
                      default=ENSEMBLE_FOURIER)
    p_sr.add_argument("--weighting", choices=["full", "none"], default=None)
    p_sr.set_defaults(fn=cmd_sr)

    p_sweep = sub.add_parser("sweep", help="temperature sweep over a corpus")
    p_sweep.add_argument("--model", required=True)
    p_sweep.add_argument("--corpus", required=True, help="image directory or 'toy'")
    p_sweep.add_argument("--scale", type=float, required=True)
    p_sweep.add_argument("--taus", required=True, help="comma-separated tau list")
    p_sweep.add_argument("--samples", type=int, default=5)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--ensemble", choices=[ENSEMBLE_FOURIER, ENSEMBLE_LOCAL],
                         default=ENSEMBLE_FOURIER)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_metrics = sub.add_parser("metrics", help="evaluate images against a reference")
    p_metrics.add_argument("--ref", required=True)
    p_metrics.add_argument("--test", nargs="+", required=True)
    p_metrics.add_argument("--scale", type=float, default=0.0)
    p_metrics.add_argument("--tau", type=float, default=0.0)
    p_metrics.add_argument("--id", default=None)
    p_metrics.add_argument("--out", default=None)
    p_metrics.set_defaults(fn=cmd_metrics)

    p_verify = sub.add_parser("verify", help="run the oracle suite")
    p_verify.add_argument("--level", choices=[LEVEL_FAST, LEVEL_FULL], default=LEVEL_FAST)
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except LinfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
