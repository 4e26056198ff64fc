"""Batch sampling, loss assembly, optimization, and checkpoint contracts."""

import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

import linf
from linf import numerics as nm
from linf import training
from linf.config import load_config
from linf.corpus import toy_corpus
from linf.errors import ConfigError, TrainingError
from linf.imaging import Image
from linf.model import Model
from linf.training import (
    TrainConfig,
    load_checkpoint,
    loss_components,
    make_batch,
    save_checkpoint,
    train,
)

from .helpers import micro_config, micro_model, with_header
from .oracles import adam_step_out_of_place


SRC = Path(linf.__file__).resolve().parents[1]
DESK = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"

# trains with `save_checkpoint` patched to end the process at once, without
# any cleanup, right after ckpt_epoch001.linf is written; argv: out_dir and
# the JSON of the toy corpus arguments, the train config and the model config
_CRASH_AFTER_FIRST_CHECKPOINT = r"""
import json, os, sys
from linf import training
from linf.corpus import toy_corpus
from linf.model import ModelConfig

original = training.save_checkpoint


def save_then_crash(path, *args, **kwargs):
    original(path, *args, **kwargs)
    if path.endswith("ckpt_epoch001.linf"):
        os._exit(0)


training.save_checkpoint = save_then_crash
out_dir, corpus, cfg, model_cfg = sys.argv[1], *map(json.loads, sys.argv[2:])
training.train(toy_corpus(*corpus), training.TrainConfig.from_dict(cfg),
               ModelConfig.from_dict(model_cfg), out_dir=out_dir)
sys.exit("the run went on past its first checkpoint")
"""


def tiny_train_cfg(**overrides) -> TrainConfig:
    base = dict(
        lr_crop=6, batch=2, pairs_per_image=12, steps=8, steps_per_epoch=4,
        lr_halve_at=(5,), seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestMakeBatch:
    def test_scale_one_targets_are_noise_only(self):
        corpus = toy_corpus(4, 32, seed=7)
        cfg = tiny_train_cfg(scale_min=1.0, scale_max=1.0)
        batch = make_batch(corpus, cfg, np.random.default_rng(0))
        assert np.abs(batch.targets).max() <= 0.5 / 255 + 1e-12

    def test_pairs_clamped_to_grid(self):
        corpus = toy_corpus(4, 32, seed=8)
        cfg = tiny_train_cfg(pairs_per_image=10_000, scale_min=1.5, scale_max=1.5)
        batch = make_batch(corpus, cfg, np.random.default_rng(1))
        expected = 9 * 9  # round(1.5 * 6) = 9, n = 1
        for b in range(cfg.batch):
            coords = batch.coords[batch.crop == b]
            assert coords.shape[0] == expected
            # without replacement: all queries distinct
            assert len({tuple(c) for c in map(tuple, coords)}) == expected

    def test_batch_is_stacked(self):
        corpus = toy_corpus(4, 32, seed=8)
        cfg = tiny_train_cfg(scale_min=2.0)  # crops of 12+ pixels: 36+ patches of side 2
        batch = make_batch(corpus, cfg, np.random.default_rng(1), patch_side=2)
        n = batch.coords.shape[0]
        assert batch.lr.shape == (cfg.batch, cfg.lr_crop, cfg.lr_crop, 3)
        assert batch.scales.shape == (cfg.batch,)
        assert batch.coords.shape == (n, 2) and batch.targets.shape == (n, 12)
        # queries are grouped by crop, crops in draw order
        np.testing.assert_array_equal(batch.crop, np.repeat(np.arange(cfg.batch), cfg.pairs))

    def test_scale_distribution_uniform(self):
        corpus = toy_corpus(2, 24, seed=9)
        cfg = tiny_train_cfg(lr_crop=4, batch=1, pairs_per_image=4)
        rng = np.random.default_rng(2)
        draws = []
        for _ in range(10_000):
            batch = make_batch(corpus, cfg, rng)
            draws.append(batch.scales[0])
        p = scipy.stats.kstest(draws, scipy.stats.uniform(loc=1.0, scale=3.0).cdf).pvalue
        assert p > 0.01

    def test_small_images_skipped_with_warning(self, caplog):
        small = Image(np.full((8, 8, 3), 0.5))
        big = Image(np.full((40, 40, 3), 0.5))
        cfg = tiny_train_cfg(scale_min=4.0, scale_max=4.0)  # crop 24 > 8
        with caplog.at_level("WARNING", logger="linf.training"):
            batch = make_batch([small, big], cfg, np.random.default_rng(3))
        assert batch.lr.shape[0] == batch.scales.shape[0] == cfg.batch
        assert any("skipping" in r.message for r in caplog.records)

    def test_all_images_too_small_raises(self):
        small = Image(np.full((4, 4, 3), 0.5))
        cfg = tiny_train_cfg(scale_min=4.0, scale_max=4.0)
        with pytest.raises(TrainingError):
            make_batch([small], cfg, np.random.default_rng(4))


@pytest.fixture(scope="class")
def desk_step():
    """One desk-config stage-2 step (2048 queries), traced: the bytes the
    tape holds at the end of forward and the backward's peak, both over what
    was allocated before the step."""
    model_cfg, train_cfg, _ = load_config(str(DESK))
    model = Model.create(model_cfg, seed=0)
    cfg = dataclasses.replace(train_cfg, stage=2)
    batch = make_batch(toy_corpus(2, 96, seed=2), cfg, np.random.default_rng(3),
                       patch_side=model_cfg.patch_side)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with nm.GradTape() as tape:
            total, _, _ = loss_components(batch, model, cfg)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return SimpleNamespace(q=batch.coords.shape[0], model_cfg=model_cfg,
                           lr_shape=batch.lr.shape, tape=held - before,
                           backward_peak=peak - before)


class TestLoss:
    def test_identity_model_zero_targets_l1_only_is_zero(self):
        # premise of the contract: targets exactly zero, identity flow,
        # zero-initialized conditioner head, L1 term alone
        corpus = [Image(np.full((32, 32, 3), 0.4))] * 2
        cfg = tiny_train_cfg(stage=2, lambda_nll=0.0, lambda_l1=1.0, dequant=0.0)
        model = Model.create(micro_config(flow_init_std=0.0), seed=0)
        batch = make_batch(corpus, cfg, np.random.default_rng(5))
        batch.targets[:] = 0.0
        total, _, l1 = loss_components(batch, model, cfg)
        assert float(total.data) == 0.0
        assert l1 == 0.0

    def test_zero_weights_zero_loss(self):
        corpus = toy_corpus(4, 32, seed=10)
        cfg = tiny_train_cfg(stage=2, lambda_nll=0.0, lambda_l1=0.0)
        model = Model.create(micro_config(), seed=1)
        batch = make_batch(corpus, cfg, np.random.default_rng(6))
        total, nll, l1 = loss_components(batch, model, cfg)
        assert float(total.data) == 0.0
        assert np.isfinite(nll)

    def test_stage1_excludes_l1(self):
        corpus = toy_corpus(4, 32, seed=11)
        cfg = tiny_train_cfg(stage=1)
        model = Model.create(micro_config(), seed=2)
        batch = make_batch(corpus, cfg, np.random.default_rng(7))
        total, nll, l1 = loss_components(batch, model, cfg)
        assert l1 == 0.0
        assert float(total.data) == pytest.approx(cfg.lambda_nll * nll, rel=1e-12)

    def test_probe_leaves_stage2_gradient_bits(self):
        corpus = toy_corpus(4, 32, seed=13)
        cfg = tiny_train_cfg(stage=2)
        model = Model.create(micro_config(), seed=4)
        head = model.params["implicit.head.w"]
        head.assign_(np.random.default_rng(9).normal(size=head.shape) * 0.05)
        batch = make_batch(corpus, cfg, np.random.default_rng(10))

        def grads():
            for p in model.parameters().values():
                p.zero_grad()
            with nm.GradTape() as tape:
                total, _, _ = loss_components(batch, model, cfg)
            tape.backward(total)
            return {k: p.grad.view(np.int64).copy() for k, p in model.parameters().items()}

        plain = grads()
        with nm.probe(margins=True) as p:
            probed = grads()
        assert p.passes["flow_forward"] == p.passes["flow_inverse"] == batch.coords.shape[0]
        assert 0.0 < p.kink_margin < np.inf
        assert plain.keys() == probed.keys()
        for k in plain:
            np.testing.assert_array_equal(probed[k], plain[k], err_msg=k)

    def test_desk_backward_peak_stays_at_its_forward_tape(self, desk_step):
        """One desk-config stage-2 step: the backward's traced peak exceeds
        what the tape holds at the end of forward by at most half of one
        [Q, trunk_width] float64 buffer. A relu-fused op masks its gradient
        in place and frees its saved output before its input-gradient GEMM,
        so no masked copy, mask and saved output pile up on the incoming
        gradient."""
        q, model_cfg = desk_step.q, desk_step.model_cfg
        assert q == 2048
        over = desk_step.backward_peak - desk_step.tape
        assert over <= q * model_cfg.trunk_width * 8 / 2, f"backward peak +{over / 2**20:.2f} MiB"

    def test_desk_forward_tape_holds_what_backward_reads(self, desk_step):
        """The same step's tape at the end of forward is at most the arrays
        that its backwards read, plus 1 MiB for the index arrays of the
        gather, the phase MLP and the tape's own objects. An output that no
        backward reads (a relu-less conv output feeding a residual add, the
        frequency bank map, the phases, the flow inverse's div output) adds
        nothing."""
        q, cfg = desk_step.q, desk_step.model_cfg
        b, h, w, _ = desk_step.lr_shape
        pixels, k, d, layers = b * h * w, cfg.frequencies, cfg.patch_dim, cfg.flow_layers
        read = 8 * (
            2 * q * cfg.trunk_width  # the two trunk outputs: relu masks and GEMM inputs
            + 2 * q * 8 * k  # the features (the first trunk GEMM's input) and [cos | sin]
            + q * 2 * d * layers  # the head, whose clamp mask backward reads
            + layers * q * d  # alpha
            # conv inputs: the shifted input, each block's two, the tail's and the bank maps'
            + pixels * 3 + (2 * cfg.encoder_blocks + 2) * pixels * cfg.encoder_channels
            + pixels * 2 * k  # the amplitude bank map, which the gather reads again
            # per flow layer two [Q, D] arrays each way (affine and injector
            # inputs forward, div's numerator and the solve inverse), and the
            # L1 residual
            + (4 * layers + 1) * q * d
        )
        assert desk_step.tape <= read + 2**20, (
            f"tape {desk_step.tape / 2**20:.2f} MiB, read {read / 2**20:.2f} MiB")

    def test_loss_finite_at_init_for_toy_batches(self):
        corpus = toy_corpus(8, 32, seed=12)
        cfg = tiny_train_cfg(stage=2)
        model = Model.create(micro_config(), seed=3)
        rng = np.random.default_rng(8)
        for _ in range(5):
            batch = make_batch(corpus, cfg, rng)
            total, nll, l1 = loss_components(batch, model, cfg)
            assert np.isfinite(float(total.data))


class TestTrainLoop:
    def test_nll_decreases_on_toy_corpus(self):
        corpus = toy_corpus(8, 32, seed=13)
        cfg = tiny_train_cfg(steps=60, steps_per_epoch=30, stage=1,
                             lambda_nll=1.0, learning_rate=3e-3)
        res = train(corpus, cfg, micro_config())
        assert res.history[-1][2] < res.history[0][2]

    def test_stage1_median_drop_over_200_steps(self):
        # 5-run median of the stage-1 NLL drop stays >= 20%
        corpus = toy_corpus(16, 64)
        drops = []
        for seed in range(5):
            cfg = TrainConfig(lr_crop=8, batch=4, pairs_per_image=64, steps=200,
                              steps_per_epoch=200, lr_halve_at=(), stage=1, seed=seed)
            res = train(corpus, cfg, micro_config())
            nll = [row[2] for row in res.history]
            first, last = np.mean(nll[:20]), np.mean(nll[-20:])
            drops.append((first - last) / abs(first))
        assert np.median(drops) >= 0.20, drops

    def test_deterministic_replay(self):
        corpus = toy_corpus(4, 32, seed=14)
        cfg = tiny_train_cfg(steps=6)
        a = train(corpus, cfg, micro_config())
        b = train(corpus, cfg, micro_config())
        assert a.history == b.history
        for (k, pa), pb in zip(a.model.parameters().items(), b.model.parameters().values()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_checkpoint_bytes_reproducible(self, tmp_path):
        corpus = toy_corpus(4, 32, seed=15)
        cfg = tiny_train_cfg(steps=4, steps_per_epoch=2)
        train(corpus, cfg, micro_config(), out_dir=str(tmp_path / "a"))
        train(corpus, cfg, micro_config(), out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "ckpt_final.linf").read_bytes()
        b = (tmp_path / "b" / "ckpt_final.linf").read_bytes()
        assert a == b

    def test_each_checkpoint_written_once(self, tmp_path, monkeypatch):
        """3 steps at 2 per epoch: the epoch-1 checkpoint, then the final
        one (step 3, epoch 2), each written once; counting the writes
        changes neither the files nor the history."""
        corpus = toy_corpus(4, 32, seed=15)
        cfg = tiny_train_cfg(steps=3, steps_per_epoch=2)
        plain = train(corpus, cfg, micro_config(), out_dir=str(tmp_path / "plain"))
        written = []
        original = training.save_checkpoint

        def counting_save(path, *args):
            written.append(os.path.basename(path))
            return original(path, *args)

        monkeypatch.setattr(training, "save_checkpoint", counting_save)
        counted = train(corpus, cfg, micro_config(), out_dir=str(tmp_path / "counted"))
        assert written == ["ckpt_epoch001.linf", "ckpt_final.linf"]
        assert counted.history == plain.history
        assert [row[:2] for row in counted.history] == [(1, 1), (2, 1), (3, 2)]
        names = sorted(os.listdir(tmp_path / "plain"))
        assert names == ["ckpt_epoch001.linf", "ckpt_final.linf", "train_log.csv"]
        assert sorted(os.listdir(tmp_path / "counted")) == names
        for name in names:
            assert (tmp_path / "counted" / name).read_bytes() == (
                tmp_path / "plain" / name).read_bytes()
        final = load_checkpoint(counted.checkpoint_path)
        assert counted.checkpoint_path == str(tmp_path / "counted" / "ckpt_final.linf")
        assert (final.step, final.epoch) == (3, 2)

    def test_resume_equals_uninterrupted(self, tmp_path):
        corpus = toy_corpus(4, 32, seed=16)
        cfg = tiny_train_cfg(steps=8, steps_per_epoch=4)
        full = train(corpus, cfg, micro_config(), out_dir=str(tmp_path / "full"))
        half = train(
            corpus, tiny_train_cfg(steps=4, steps_per_epoch=4), micro_config(),
            out_dir=str(tmp_path / "half"),
        )
        resumed = train(corpus, cfg, None, out_dir=str(tmp_path / "resumed"),
                        resume=str(tmp_path / "half" / "ckpt_epoch001.linf"))
        assert resumed.history == full.history[4:]
        for (k, pf), pr in zip(
            full.model.parameters().items(), resumed.model.parameters().values()
        ):
            np.testing.assert_array_equal(pf.data, pr.data, err_msg=k)

    def test_log_written_before_a_crash_resumes_exactly(self, tmp_path):
        """A run ended by os._exit right after its first checkpoint leaves
        the log rows that checkpoint covers; resuming in the same directory
        then gives the log and final checkpoint bytes of an uninterrupted
        run."""
        corpus_args = (4, 32, 16)
        cfg = tiny_train_cfg(steps=20, steps_per_epoch=10)
        full = tmp_path / "full"
        train(toy_corpus(*corpus_args), cfg, micro_config(), out_dir=str(full))
        run = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-c", _CRASH_AFTER_FIRST_CHECKPOINT, str(run),
             json.dumps(corpus_args), json.dumps(cfg.to_dict()),
             json.dumps(micro_config().to_dict())],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert sorted(os.listdir(run)) == ["ckpt_epoch001.linf", "train_log.csv"]
        train(toy_corpus(*corpus_args), cfg, None, out_dir=str(run),
              resume=str(run / "ckpt_epoch001.linf"))
        for name in ("train_log.csv", "ckpt_final.linf"):
            assert (run / name).read_bytes() == (full / name).read_bytes(), name

    def test_resume_truncates_log_to_checkpoint_step(self, tmp_path):
        corpus = toy_corpus(4, 32, seed=16)
        cfg = tiny_train_cfg(steps=6, steps_per_epoch=3)
        train(corpus, cfg, micro_config(), out_dir=str(tmp_path / "full"))
        run = tmp_path / "run"
        train(corpus, cfg, micro_config(), out_dir=str(run))
        train(corpus, cfg, None, out_dir=str(run), resume=str(run / "ckpt_epoch001.linf"))
        log = (run / "train_log.csv").read_text()
        assert [row.split(",")[0] for row in log.splitlines()[1:]] == list("123456")
        assert log == (tmp_path / "full" / "train_log.csv").read_text()

    def test_resume_warns_once_of_a_log_that_ends_before_the_checkpoint(self, tmp_path, caplog):
        corpus = toy_corpus(4, 32, seed=16)
        cfg = tiny_train_cfg(steps=6, steps_per_epoch=3)
        run = tmp_path / "run"
        train(corpus, cfg, micro_config(), out_dir=str(run))
        log = run / "train_log.csv"
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:3]))  # the header and steps 1-2
        with caplog.at_level("WARNING", logger="linf.training"):
            train(corpus, cfg, None, out_dir=str(run), resume=str(run / "ckpt_epoch001.linf"))
        warned = [r.getMessage() for r in caplog.records]
        assert len(warned) == 1
        assert "end at step 2, before the checkpoint's step 3" in warned[0]
        assert log.read_text() == "".join(lines[:3] + lines[4:])  # steps 1-2 and 4-6

    def test_resume_into_a_fresh_directory_is_silent(self, tmp_path, caplog):
        corpus = toy_corpus(4, 32, seed=16)
        cfg = tiny_train_cfg(steps=6, steps_per_epoch=3)
        train(corpus, cfg, micro_config(), out_dir=str(tmp_path / "run"))
        with caplog.at_level("WARNING", logger="linf.training"):
            resumed = train(corpus, cfg, None, out_dir=str(tmp_path / "fresh"),
                            resume=str(tmp_path / "run" / "ckpt_epoch001.linf"))
        assert caplog.records == []
        assert [row[0] for row in resumed.history] == [4, 5, 6]

    @pytest.mark.parametrize("row", ["xx,1,2,3,4,5\n", "\n", "-2,1,2,3,4,5\n", "2.0,1\n"])
    def test_resume_rejects_a_log_row_without_an_integer_step(self, tmp_path, row):
        corpus = toy_corpus(4, 32, seed=16)
        cfg = tiny_train_cfg(steps=6, steps_per_epoch=3)
        run = tmp_path / "run"
        train(corpus, cfg, micro_config(), out_dir=str(run))
        log = run / "train_log.csv"
        lines = log.read_text().splitlines(keepends=True)
        lines[2] = row
        log.write_text("".join(lines))
        with pytest.raises(ConfigError, match=r"train_log\.csv:3: step .* is not an integer"):
            train(corpus, cfg, None, out_dir=str(run), resume=str(run / "ckpt_epoch001.linf"))
        assert log.read_text() == "".join(lines)  # left as it was

    def test_resume_rejects_a_binary_log(self, tmp_path):
        corpus = toy_corpus(4, 32, seed=16)
        cfg = tiny_train_cfg(steps=3, steps_per_epoch=3)
        run = tmp_path / "run"
        train(corpus, cfg, micro_config(), out_dir=str(run))
        (run / "train_log.csv").write_bytes(b"step\n\xff\xfe\n")
        with pytest.raises(ConfigError, match="not a text log"):
            train(corpus, cfg, None, out_dir=str(run), resume=str(run / "ckpt_epoch001.linf"))

    def test_resume_rejects_a_different_model_config(self, tmp_path):
        corpus = toy_corpus(4, 32, seed=16)
        train(corpus, tiny_train_cfg(steps=4), micro_config(), out_dir=str(tmp_path))
        ckpt = str(tmp_path / "ckpt_final.linf")
        with pytest.raises(ConfigError, match=r"trunk_width \(16 vs 32\)"):
            train(corpus, tiny_train_cfg(steps=6), micro_config(trunk_width=16), resume=ckpt)
        resumed = train(corpus, tiny_train_cfg(steps=6), micro_config(), resume=ckpt)
        assert [row[0] for row in resumed.history] == [5, 6]

    def test_resume_needs_optimizer_state(self, tmp_path):
        path = str(tmp_path / "weights_only.linf")
        model = Model.create(micro_config(), seed=0)
        save_checkpoint(path, model, tiny_train_cfg(), 0, 0, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="optimizer state"):
            train(toy_corpus(2, 32), None, resume=path)

    def test_train_log_csv_schema(self, tmp_path):
        corpus = toy_corpus(4, 32, seed=17)
        cfg = tiny_train_cfg(steps=4, steps_per_epoch=2)
        train(corpus, cfg, micro_config(), out_dir=str(tmp_path))
        lines = (tmp_path / "train_log.csv").read_text().strip().splitlines()
        assert lines[0] == "step,epoch,nll,l1,total,lr"
        assert len(lines) == 5

    def test_singular_weight_rejitter(self, caplog):
        corpus = toy_corpus(4, 32, seed=18)
        cfg = tiny_train_cfg(steps=3)
        model = Model.create(micro_config(), seed=0)
        weight = model.flow.weights[0]
        w = weight.data.copy()
        w[0] = w[1]  # exactly singular
        weight.assign_(w)
        batch = make_batch(corpus, cfg, np.random.default_rng(9))
        from linf.errors import SingularMatrixError

        with pytest.raises(SingularMatrixError):
            loss_components(batch, model, cfg)

        # the loop rejects the step, re-jitters W, and keeps going
        with caplog.at_level("WARNING", logger="linf.training"):
            res = train(corpus, cfg, model=model)
        assert any("re-jittered" in r.message for r in caplog.records)
        assert len(res.history) >= 1  # later steps succeeded
        from linf.numerics import lu_factor

        lu_factor(weight.data)  # no longer singular

    def test_learning_rate_halving_schedule(self):
        corpus = toy_corpus(4, 32, seed=21)
        cfg = tiny_train_cfg(steps=8, lr_halve_at=(3, 6), learning_rate=1e-3)
        res = train(corpus, cfg, micro_config())
        lrs = [row[5] for row in res.history]
        assert lrs[:2] == [1e-3, 1e-3]
        assert lrs[2:5] == [5e-4, 5e-4, 5e-4]
        assert lrs[5:] == [2.5e-4, 2.5e-4, 2.5e-4]


class TestAdam:
    def test_step_bit_equal_to_out_of_place_update(self):
        """Several steps at several learning rates, one parameter without a
        gradient in every other step: the in-place update gives the bits of
        the out-of-place one."""
        model = micro_model(seed=21)
        params = model.parameters()
        adam = training.Adam(params, TrainConfig())
        want = {k: p.data.copy() for k, p in params.items()}
        m = {k: a.copy() for k, a in adam.m.items()}
        v = {k: a.copy() for k, a in adam.v.items()}
        rng = np.random.default_rng(22)
        for t, lr in enumerate((1e-4, 3e-3, 1e-4, 2.5e-5, 0.5), 1):
            for k, p in params.items():
                p.grad = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2)
            if t % 2:
                params["flow.0.w"].grad = None
            grads = {k: p.grad for k, p in params.items()}
            adam.step(lr)
            want, m, v = adam_step_out_of_place(want, grads, m, v, t, lr, adam.beta1,
                                                adam.beta2, adam.eps)
            for k, p in params.items():
                for got, ref in ((p.data, want[k]), (adam.m[k], m[k]), (adam.v[k], v[k])):
                    assert got.tobytes() == ref.tobytes(), f"step {t} {k}"

    def test_train_updates_in_place_and_frees_gradients(self, monkeypatch):
        """Every parameter array and every moment array is the one the run
        started with, and no parameter holds a gradient once Adam has read
        it: neither when the next batch is drawn nor after the run."""
        model = micro_model(seed=23)
        arrays = {k: p.data for k, p in model.parameters().items()}
        adams = []

        class RecordingAdam(training.Adam):
            def __init__(self, *args):
                super().__init__(*args)
                adams.append((self, dict(self.m), dict(self.v)))

        grads_at_batch = []
        original = training.make_batch

        def recording_make_batch(*args, **kwargs):
            grads_at_batch.append([k for k, p in model.parameters().items() if p.grad is not None])
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "Adam", RecordingAdam)
        monkeypatch.setattr(training, "make_batch", recording_make_batch)
        res = train(toy_corpus(4, 32, seed=24), tiny_train_cfg(steps=3), model=model)
        assert len(res.history) == 3 and res.model is model
        (adam, m, v), = adams
        assert adam.t == 3
        for k, p in model.parameters().items():
            assert p.data is arrays[k], k
            assert adam.m[k] is m[k] and adam.v[k] is v[k], k
            assert p.grad is None, k
        assert grads_at_batch == [[]] * 3


class TestConfigRanges:
    @pytest.mark.parametrize("field,value", [
        ("batch", 0), ("pairs_per_image", -1), ("steps_per_epoch", 0),
        ("scale_max", math.inf), ("scale_max", math.nan), ("scale_min", 0.0),
        ("steps", -1), ("dequant", -1.0), ("dequant", math.inf),
        ("learning_rate", math.nan), ("learning_rate", 0.0), ("lambda_nll", math.nan),
        ("lambda_l1", math.inf), ("adam_beta1", 1.0), ("adam_beta2", -0.1),
        ("adam_eps", 0.0), ("seed", -1), ("lr_halve_at", (5, 0)), ("lr_crop", 1),
        ("stage", 3),
    ])
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(ConfigError, match=f"train.{field} must be"):
            tiny_train_cfg(**{field: value})

    def test_edges_admitted(self):
        cfg = tiny_train_cfg(steps=0, pairs_per_image=0, lambda_nll=0.0, lambda_l1=0.0,
                             adam_beta1=0.0, adam_beta2=0.0, dequant=0.0, seed=0,
                             lr_halve_at=(), scale_min=4.0, scale_max=4.0)
        assert cfg.pairs == 36

    def test_checkpoint_header_checked(self, tmp_path):
        cfg = tiny_train_cfg()
        cfg.learning_rate = math.nan  # assignment skips the checks; the loader must not
        path = str(tmp_path / "nan.linf")
        save_checkpoint(path, Model.create(micro_config(), seed=0), cfg, 0, 0,
                        np.random.default_rng(0))
        with pytest.raises(ConfigError, match="train.learning_rate must be"):
            load_checkpoint(path)


class TestCheckpointIO:
    def test_roundtrip_params_and_state(self, tmp_path):
        corpus = toy_corpus(4, 32, seed=19)
        cfg = tiny_train_cfg(steps=3, steps_per_epoch=3)
        res = train(corpus, cfg, micro_config(), out_dir=str(tmp_path))
        ckpt = load_checkpoint(str(tmp_path / "ckpt_final.linf"))
        assert ckpt.step == 3
        assert ckpt.train_cfg.lr_crop == cfg.lr_crop
        for name, p in res.model.parameters().items():
            np.testing.assert_array_equal(ckpt.model.parameters()[name].data, p.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.linf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ConfigError):
            load_checkpoint(str(path))

    def test_header_is_json_with_config_echo(self, tmp_path):
        import json
        import struct

        corpus = toy_corpus(4, 32, seed=20)
        cfg = tiny_train_cfg(steps=2, steps_per_epoch=2)
        train(corpus, cfg, micro_config(), out_dir=str(tmp_path))
        blob = (tmp_path / "ckpt_final.linf").read_bytes()
        assert blob[:4] == b"LINF"
        hlen = struct.unpack_from("<I", blob, 8)[0]
        header = json.loads(blob[12 : 12 + hlen])
        assert header["model_cfg"]["patch_side"] == 1
        assert header["model_cfg"]["layer_order"] == "linear_first"
        assert header["train_cfg"]["lr_crop"] == cfg.lr_crop
        assert "rng_state" in header

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="absent.linf"):
            load_checkpoint(str(tmp_path / "absent.linf"))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = _trained_checkpoint(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ConfigError, match="trailing"):
            load_checkpoint(path)

    def test_record_shape_checked_against_config(self, tmp_path):
        model = Model.create(micro_config(), seed=0)
        model.cfg = micro_config(trunk_width=16)  # header disagrees with the tensors
        path = str(tmp_path / "m.linf")
        save_checkpoint(path, model, tiny_train_cfg(), 0, 0, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("override,message", [
        ({"encoder_channels": 16}, "tensor 'encoder.block0.b1' has shape"),
        ({"encoder_blocks": 2}, "missing tensor encoder.block1.b1"),
        ({"trunk_width": 10**7}, "tensor 'implicit.head.w' has shape"),  # 728 TiB if built
        ({"flow_layers": 10**9}, "more encoder blocks and flow layers than records"),
    ])
    def test_header_config_checked_before_allocation(self, tmp_path, override, message):
        model = Model.create(micro_config(), seed=0)
        model.cfg = micro_config(**override)
        path = str(tmp_path / "m.linf")
        save_checkpoint(path, model, tiny_train_cfg(), 0, 0, np.random.default_rng(0))
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["step", "epoch", "adam_t"])
    @pytest.mark.parametrize("value", [-1, 2.5, "3", True])
    def test_counters_must_be_non_negative_integers(self, tmp_path, field, value):
        path = tmp_path / "m.linf"
        save_checkpoint(str(path), Model.create(micro_config(), seed=0), tiny_train_cfg(), 2, 1,
                        np.random.default_rng(0))
        path.write_bytes(with_header(path.read_bytes(), **{field: value}))
        with pytest.raises(ConfigError, match="bad checkpoint header") as info:
            load_checkpoint(str(path))
        message = str(info.value)
        assert f"{field} must be an integer >= 0, got {value!r}" in message
        assert message.endswith("(byte offset 12)")

    def test_fuzzed_checkpoints_load_or_raise_config_error(self, tmp_path):
        blob = open(_trained_checkpoint(tmp_path), "rb").read()
        header_end, boundaries, data_spans = _layout(blob)
        rng = np.random.default_rng(0)
        cuts = set(range(header_end + 1))
        cuts |= {b + d for b in boundaries for d in (-1, 0, 1)}
        cuts |= set(rng.integers(0, len(blob), size=200).tolist())
        path = str(tmp_path / "fuzz.linf")
        for cut in sorted(c for c in cuts if c < len(blob)):
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            with pytest.raises(ConfigError):
                load_checkpoint(path)
        # a flip inside tensor data only changes a value, so flip the other bytes
        framing = np.ones(len(blob), dtype=bool)
        for start, stop in data_spans:
            framing[start:stop] = False
        for pos in rng.choice(np.flatnonzero(framing), size=200):
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << int(rng.integers(8))
            with open(path, "wb") as fh:
                fh.write(flipped)
            try:
                load_checkpoint(path)
            except ConfigError:
                pass

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = _trained_checkpoint(tmp_path)
        before = open(path, "rb").read()
        listing = sorted(os.listdir(tmp_path))
        written = []
        original = training._write_record

        def failing_write(fh, name, arr):
            if len(written) == 5:
                raise OSError("disk full")
            written.append(name)
            original(fh, name, arr)

        monkeypatch.setattr(training, "_write_record", failing_write)
        model = Model.create(micro_config(), seed=9)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, tiny_train_cfg(), 7, 2, np.random.default_rng(1))
        assert open(path, "rb").read() == before
        assert sorted(os.listdir(tmp_path)) == listing


def _trained_checkpoint(tmp_path) -> str:
    """A micro checkpoint with Adam state, written by a 2-step run."""
    cfg = tiny_train_cfg(steps=2, steps_per_epoch=2)
    train(toy_corpus(4, 32, seed=22), cfg, micro_config(), out_dir=str(tmp_path))
    return str(tmp_path / "ckpt_final.linf")


def _layout(blob: bytes) -> tuple[int, list[int], list[tuple[int, int]]]:
    """(end of the JSON header, start offset of every record plus the file
    end, the byte span of every record's tensor data)."""
    hlen = struct.unpack_from("<I", blob, 8)[0]
    json.loads(blob[12 : 12 + hlen])
    pos = 12 + hlen + 4
    boundaries, data_spans = [pos], []
    for _ in range(struct.unpack_from("<I", blob, 12 + hlen)[0]):
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
        rank = struct.unpack_from("<I", blob, pos)[0]
        shape = struct.unpack_from(f"<{rank}Q", blob, pos + 4)
        pos += 4 + 8 * rank
        data_spans.append((pos, pos + 8 * math.prod(shape)))
        pos = data_spans[-1][1]
        boundaries.append(pos)
    assert pos == len(blob)
    return 12 + hlen, boundaries, data_spans
