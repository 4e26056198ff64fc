"""CLI exit codes, banners, and CSV schemas (all in-process via main())."""

import errno
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from linf import cli, imaging
from linf.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VERIFY, default_tau, main
from linf.config import _FIELD_TYPES, DataConfig, build_configs, load_config, parse_config_text
from linf.corpus import toy_corpus
from linf.errors import ConfigError, UsageError
from linf.imaging import Image, write_image
from linf.model import Model, ModelConfig
from linf.training import TrainConfig, save_checkpoint

from .helpers import full_disk_open, micro_config, with_header

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMOKE_CONFIG = """
# desk smoke run
[model]
patch_side = 1
frequencies = 4
flow_layers = 3
encoder_channels = 8
encoder_blocks = 1
trunk_width = 16
phase_hidden = 8

[train]
steps = 4
steps_per_epoch = 2
batch = 1
lr_crop = 6
pairs_per_image = 8
lr_halve_at = 3

[data]
corpus = toy
corpus_count = 4
corpus_size = 32
"""


@pytest.fixture
def smoke_config_path(tmp_path):
    path = tmp_path / "smoke.cfg"
    path.write_text(SMOKE_CONFIG)
    return str(path)


@pytest.fixture
def micro_checkpoint(tmp_path):
    model = Model.create(micro_config(), seed=0)
    rng = np.random.default_rng(1)
    head = model.params["implicit.head.w"]
    head.assign_(rng.normal(size=head.shape) * 0.05)
    path = tmp_path / "model.linf"
    save_checkpoint(str(path), model, TrainConfig(), 0, 0, np.random.default_rng(0))
    return str(path)


class TestConfigParsing:
    def test_sections_and_comments(self):
        values = parse_config_text(SMOKE_CONFIG)
        assert values["model.patch_side"] == "1"
        assert values["train.lr_halve_at"] == "3"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            build_configs({"train.warp_speed": "9"})
        assert "train.warp_speed" in str(err.value)

    def test_missing_file_named(self, tmp_path):
        missing = str(tmp_path / "nope.cfg")
        with pytest.raises(ConfigError) as err:
            load_config(missing)
        assert "nope.cfg" in str(err.value)

    def test_full_roundtrip(self, smoke_config_path):
        model_cfg, train_cfg, data_cfg = load_config(smoke_config_path)
        assert model_cfg.frequencies == 4
        assert train_cfg.lr_halve_at == (3,)
        assert data_cfg.corpus == "toy"

    def test_every_field_roundtrips(self):
        # one non-default value per field, so each field's parser is exercised
        expected = (
            ModelConfig(
                patch_side=2, frequencies=5, flow_layers=3, encoder_channels=9,
                encoder_blocks=2, trunk_width=17, phase_hidden=6,
                ensemble_weighting="none", flow_init_std=0.125,
            ),
            TrainConfig(
                lr_crop=12, scale_min=1.5, scale_max=3.25, pairs_per_image=40, batch=3,
                lambda_nll=0.25, lambda_l1=0.5, stage=2, learning_rate=0.002,
                lr_halve_at=(7, 9, 11), steps=12, steps_per_epoch=4, adam_beta1=0.8,
                adam_beta2=0.99, adam_eps=1e-7, seed=5, dequant=0.01, flips=False,
            ),
            DataConfig(corpus="imgs", corpus_count=4, corpus_size=40, out_dir="runs/x"),
        )

        def render(value):
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, tuple):
                return ", ".join(str(v) for v in value)
            return repr(value) if isinstance(value, float) else str(value)

        lines = []
        for section, cfg in zip(("model", "train", "data"), expected):
            lines.append(f"[{section}]")
            for f in fields(cfg):
                assert getattr(cfg, f.name) != f.default, f.name
                lines.append(f"{f.name} = {render(getattr(cfg, f.name))}")
        assert build_configs(parse_config_text("\n".join(lines))) == expected

    @pytest.mark.parametrize(
        "key,raw,value",
        [
            ("train.lr_halve_at", "", ()),
            ("train.lr_halve_at", "1000 1500", (1000, 1500)),
            ("train.lr_halve_at", "1000,1500", (1000, 1500)),
            ("train.pairs_per_image", "64", 64),
            ("train.flips", "off", False),
            ("train.flips", "Yes", True),
            ("model.flow_init_std", "1e-3", 1e-3),
        ],
    )
    def test_value_forms(self, key, raw, value):
        section, name = key.split(".")
        cfgs = dict(zip(("model", "train", "data"), build_configs({key: raw})))
        assert getattr(cfgs[section], name) == value

    @pytest.mark.parametrize(
        "key,raw",
        [
            ("train.pairs_per_image", ""),
            ("train.pairs_per_image", "2.5"),
            ("train.lr_halve_at", "1000, x"),
            ("train.flips", "maybe"),
            ("model.frequencies", "sixteen"),
            ("train.scale_min", "low"),
        ],
    )
    def test_bad_value_named(self, key, raw):
        with pytest.raises(ConfigError) as err:
            build_configs({key: raw})
        assert f"bad value for {key!r}" in str(err.value)


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["desk.cfg", "patch3.cfg"])
    def test_loads_and_builds_model(self, name):
        model_cfg, train_cfg, data_cfg = load_config(str(CONFIG_DIR / name))
        model = Model.create(model_cfg, seed=0)
        assert model.cfg is model_cfg
        assert train_cfg.steps == 2000 and data_cfg.corpus == "toy"

    def test_desk_values(self):
        # acceptance criterion 9 trains from this file
        model_cfg, train_cfg, data_cfg = load_config(str(CONFIG_DIR / "desk.cfg"))
        assert model_cfg == ModelConfig(
            patch_side=1, frequencies=16, flow_layers=10, encoder_channels=32,
            encoder_blocks=4, trunk_width=256,
        )
        assert train_cfg == TrainConfig(
            lr_crop=16, batch=8, steps=2000, lr_halve_at=(1000, 1500),
            steps_per_epoch=500, stage=2, learning_rate=1e-4, seed=0,
        )
        assert (data_cfg.corpus, data_cfg.corpus_count, data_cfg.corpus_size) == ("toy", 32, 96)


def _with_value(text: str, section: str, key: str, raw: str) -> str:
    """`text` with `key = raw` set in [section]."""
    lines = [ln for ln in text.splitlines() if ln.partition("=")[0].strip() != key]
    at = lines.index(f"[{section}]") + 1
    return "\n".join(lines[:at] + [f"{key} = {raw}"] + lines[at:])


class TestDefaultTau:
    def test_bands(self):
        assert default_tau(2.0) == 0.5
        assert default_tau(3.0) == 0.5
        assert default_tau(4.0) == 0.5
        assert default_tau(6.0) == 0.4
        assert default_tau(8.0) == 0.2
        assert default_tau(12.0) == 0.2


class TestTrainCommand:
    def test_missing_config_exit2(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_USAGE
        assert "absent.cfg" in capsys.readouterr().err

    def test_unknown_key_exit2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[train]\nwarp_speed = 9\n")
        code = main(["train", "--config", str(path)])
        assert code == EXIT_USAGE
        assert "warp_speed" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["directory", "undecodable", "repeated-key"])
    def test_unreadable_or_repeated_config_exit2(self, tmp_path, capsys, case):
        path = tmp_path / "bad.cfg"
        text = SMOKE_CONFIG.replace("\nsteps = 4\n", "\nsteps = 4\nsteps = 2\n")
        if case == "directory":
            path.mkdir()
        elif case == "undecodable":
            path.write_bytes(SMOKE_CONFIG.encode() + b"# \xff\n")
        else:
            path.write_text(text)
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if case == "repeated-key":
            lineno = text.splitlines().index("steps = 2") + 1
            assert f"{path}:{lineno}: key 'train.steps' given twice" in err
        else:
            assert f"cannot read config {path}: " in err

    def test_smoke_run_writes_checkpoint(self, smoke_config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", smoke_config_path, "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "ckpt_final.linf").exists()
        assert (out / "train_log.csv").exists()
        banner = capsys.readouterr().out
        assert "seed = 0" in banner  # resolved config echoed
        assert "train.steps = 4" in banner

    def test_resume_with_another_model_config_exit2(self, smoke_config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", smoke_config_path, "--out", str(out)]) == EXIT_OK
        ckpt = str(out / "ckpt_epoch001.linf")
        other = tmp_path / "other.cfg"
        other.write_text(SMOKE_CONFIG.replace("trunk_width = 16", "trunk_width = 24"))
        code = main(["train", "--config", str(other), "--out", str(out), "--resume", ckpt])
        assert code == EXIT_USAGE
        assert "trunk_width (24 vs 16)" in capsys.readouterr().err
        code = main(["train", "--config", smoke_config_path, "--out", str(out), "--resume", ckpt])
        assert code == EXIT_OK

    def test_resume_past_steps_exit2_and_out_untouched(self, smoke_config_path, tmp_path,
                                                        capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", smoke_config_path, "--out", str(out)]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        short = tmp_path / "short.cfg"
        short.write_text(SMOKE_CONFIG.replace("steps = 4", "steps = 1"))
        code = main(["train", "--config", str(short), "--out", str(out),
                     "--resume", str(out / "ckpt_epoch002.linf")])
        assert code == EXIT_USAGE
        assert "train.steps = 1 is below the checkpoint's step 4" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("field,value", [("step", -3), ("adam_t", -2), ("epoch", 2.7)])
    def test_resume_from_bad_counter_exit2(self, smoke_config_path, tmp_path, capsys,
                                           field, value):
        out = tmp_path / "run"
        assert main(["train", "--config", smoke_config_path, "--out", str(out)]) == EXIT_OK
        ckpt = out / "ckpt_epoch001.linf"
        ckpt.write_bytes(with_header(ckpt.read_bytes(), **{field: value}))
        code = main(["train", "--config", smoke_config_path, "--out", str(out),
                     "--resume", str(ckpt)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad checkpoint header" in err and f"{field} must be an integer >= 0" in err

    @pytest.mark.parametrize("case", ["out-under-a-file", "log-is-a-directory"])
    def test_unwritable_out_exit2_before_first_step(self, smoke_config_path, tmp_path,
                                                    capsys, monkeypatch, case):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a training step ran before --out was checked")

        monkeypatch.setattr("linf.training.make_batch", must_not_run)
        if case == "out-under-a-file":
            (tmp_path / "afile").write_text("")
            out = tmp_path / "afile" / "run"
        else:
            out = tmp_path / "run"
            (out / "train_log.csv").mkdir(parents=True)
        code = main(["train", "--config", smoke_config_path, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / 'train_log.csv'}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["ckpt_final.linf", "ckpt_epoch001.linf"])
    def test_checkpoint_name_taken_by_a_directory_exit2_before_first_step(
            self, tmp_path, capsys, monkeypatch, name):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a training step ran before the checkpoint names were checked")

        one_step = SMOKE_CONFIG.replace("steps = 4", "steps = 1").replace(
            "steps_per_epoch = 2", "steps_per_epoch = 1")
        path = tmp_path / "one.cfg"
        path.write_text(one_step)
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)
        (out / "ckpt_epoch002.linf").mkdir()  # a later epoch than this run reaches
        monkeypatch.setattr("linf.training.make_batch", must_not_run)
        code = main(["train", "--config", str(path), "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: cannot write checkpoint {out / name}: Is a directory\n"
        monkeypatch.undo()
        (out / name).rmdir()
        assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_OK

    def test_failed_checkpoint_write_exit2(self, tmp_path, capsys, monkeypatch):
        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        path = tmp_path / "one.cfg"
        path.write_text(SMOKE_CONFIG.replace("steps = 4", "steps = 1"))
        monkeypatch.setattr("linf.training.save_checkpoint", disk_full)
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (f"error: cannot write checkpoint {out / 'ckpt_final.linf'}: "
                       f"{os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("key,raw", [
        ("batch", "0"), ("pairs_per_image", "-1"), ("corpus_count", "0"),
        ("steps_per_epoch", "0"), ("scale_max", "inf"), ("steps", "-1"), ("dequant", "-1"),
        ("learning_rate", "nan"), ("out_dir", ""), ("patch_side", "0"), ("flow_layers", "0"),
        ("encoder_channels", "7"), ("trunk_width", "0"), ("ensemble_weighting", "half"),
        ("flow_init_std", "nan"),
    ])
    def test_out_of_range_value_exit2(self, tmp_path, capsys, key, raw):
        section = next(s for s, types in _FIELD_TYPES.items() if key in types)
        path = tmp_path / "bad.cfg"
        path.write_text(_with_value(SMOKE_CONFIG, section, key, raw))
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "run")]
                    if key != "out_dir" else ["train", "--config", str(path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}.{key}") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--out", "")])
    def test_overrides_range_checked(self, smoke_config_path, capsys, flag, value):
        assert main(["train", "--config", smoke_config_path, flag, value]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in runs that exit 3
    def test_fuzzed_config_values_exit_cleanly(self, tmp_path, monkeypatch, capsys):
        # one key of a one-step micro desk config at a time: edge values for
        # every key, and seeded random values for the numeric ones
        monkeypatch.chdir(tmp_path)  # relative out_dir values land here
        base = dict(parse_config_text((CONFIG_DIR / "desk.cfg").read_text()))
        base.update(parse_config_text(SMOKE_CONFIG))
        base.update({"train.steps": "1", "train.steps_per_epoch": "1", "train.batch": "2",
                     "train.lr_crop": "8", "data.corpus_count": "2", "data.out_dir": "run"})
        path = tmp_path / "fuzz.cfg"
        path.write_text("\n".join(f"{k} = {v}" for k, v in base.items()))
        assert main(["train", "--config", str(path)]) == EXIT_OK  # the unmutated base runs
        rng = np.random.default_rng(11)
        kinds = {f"{s}.{k}": kind for s, types in _FIELD_TYPES.items() for k, kind in types.items()}
        for key, kind in kinds.items():
            values = ["0", "1", "-1", "nan", "inf", "-inf", "1e300", "", "x"]
            if kind is int or kind == int | None:
                values += [str(v) for v in rng.integers(-3, 4, size=3)]
            elif kind is float:
                values += [repr(float(v)) for v in rng.choice([-1, 1], 3) * 10.0 ** rng.uniform(-12, 12, 3)]
            for raw in values:
                path.write_text("\n".join(f"{k} = {v}" for k, v in {**base, key: raw}.items()))
                start = time.perf_counter()
                try:
                    code = main(["train", "--config", str(path)])
                except Exception as exc:  # noqa: BLE001 - report the case
                    pytest.fail(f"{key} = {raw!r}: {exc!r}")
                assert code in (EXIT_OK, EXIT_USAGE, EXIT_RUNTIME), (key, raw)
                assert time.perf_counter() - start < 5.0, (key, raw)
        assert "Traceback" not in capsys.readouterr().err

    def test_same_seed_identical_checkpoints(self, smoke_config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", smoke_config_path, "--out", str(out_a)]) == EXIT_OK
        assert main(["train", "--config", smoke_config_path, "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "ckpt_final.linf").read_bytes() == (out_b / "ckpt_final.linf").read_bytes()


class TestSrCommand:
    def _write_input(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "in.ppm"
        write_image(Image(rng.random((6, 6, 3))), str(path))
        return str(path)

    def test_default_tau_in_banner(self, micro_checkpoint, tmp_path, capsys):
        inp = self._write_input(tmp_path)
        code = main(["sr", inp, "--model", micro_checkpoint, "--scale", "3",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "tau = 0.5" in out

    def test_default_tau_scale8(self, micro_checkpoint, tmp_path, capsys):
        inp = self._write_input(tmp_path)
        code = main(["sr", inp, "--model", micro_checkpoint, "--scale", "8",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == EXIT_OK
        assert "tau = 0.2" in capsys.readouterr().out

    def test_nonpositive_scale_exit2(self, micro_checkpoint, tmp_path, capsys):
        inp = self._write_input(tmp_path)
        code = main(["sr", inp, "--model", micro_checkpoint, "--scale", "-1",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("scale,tau", [("2", "-1"), ("2", "nan"), ("nan", "0.5"),
                                           ("1e300", "0.5")])
    def test_bad_tau_or_scale_exit2(self, micro_checkpoint, tmp_path, capsys, monkeypatch,
                                    scale, tau):
        def must_not_run(*args, **kwargs):
            raise AssertionError("called before --tau and --scale were checked")

        monkeypatch.setattr(cli, "load_checkpoint", must_not_run)
        inp = self._write_input(tmp_path)
        code = main(["sr", inp, "--model", micro_checkpoint, "--scale", scale, "--tau", tau,
                     "--out", str(tmp_path / "o.ppm")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""  # no banner
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not (tmp_path / "o.ppm").exists()

    def test_negative_seed_exit2_before_loading(self, micro_checkpoint, tmp_path, capsys,
                                                monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("called before --seed was checked")

        monkeypatch.setattr(cli, "load_checkpoint", must_not_run)
        inp = self._write_input(tmp_path)
        code = main(["sr", inp, "--model", micro_checkpoint, "--scale", "2", "--seed", "-1",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

    def test_out_of_memory_exit3(self, micro_checkpoint, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 44.7 GiB for an array")

        monkeypatch.setattr(cli, "super_resolve", no_memory)
        inp = self._write_input(tmp_path)
        code = main(["sr", inp, "--model", micro_checkpoint, "--scale", "2",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "44.7 GiB" in err and err.count("\n") == 1
        assert not (tmp_path / "o.ppm").exists()

    def test_tau0_outputs_byte_identical(self, micro_checkpoint, tmp_path):
        inp = self._write_input(tmp_path)
        for name in ("a.ppm", "b.ppm"):
            assert main(["sr", inp, "--model", micro_checkpoint, "--scale", "2",
                         "--tau", "0", "--out", str(tmp_path / name)]) == EXIT_OK
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    @pytest.mark.parametrize("damage", ["truncated", "missing", "oversized"])
    def test_bad_checkpoint_exit2(self, micro_checkpoint, tmp_path, capsys, damage):
        inp = self._write_input(tmp_path)
        model = tmp_path / "damaged.linf"
        if damage == "truncated":
            blob = open(micro_checkpoint, "rb").read()
            model.write_bytes(blob[: len(blob) // 2])
        elif damage == "oversized":  # header asks for a 728 TiB trunk
            micro = Model.create(micro_config(), seed=0)
            micro.cfg = micro_config(trunk_width=10**7)
            save_checkpoint(str(model), micro, TrainConfig(), 0, 0, np.random.default_rng(0))
        code = main(["sr", inp, "--model", str(model), "--scale", "2",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "damaged.linf" in err
        assert not (tmp_path / "o.ppm").exists()

    @pytest.mark.parametrize("case", ["missing-input", "directory-input", "missing-out-dir"])
    def test_image_io_error_exit2(self, micro_checkpoint, tmp_path, capsys, case):
        inp = self._write_input(tmp_path)
        out = str(tmp_path / "o.ppm")
        if case == "missing-input":
            inp = str(tmp_path / "missing.ppm")
        elif case == "directory-input":
            inp = str(tmp_path)
        else:
            out = str(tmp_path / "nodir" / "o.ppm")
        code = main(["sr", inp, "--model", micro_checkpoint, "--scale", "2", "--out", out])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ") and "Traceback" not in err

    @pytest.mark.parametrize("case", ["missing-out-dir", "directory-out", "png-without-pillow"])
    def test_unwritable_out_fails_before_loading(
        self, micro_checkpoint, tmp_path, capsys, monkeypatch, case
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("called before --out was checked")

        monkeypatch.setattr(cli, "load_checkpoint", must_not_run)
        monkeypatch.setattr(cli, "super_resolve", must_not_run)
        inp = self._write_input(tmp_path)
        out, expected = {
            "missing-out-dir": (tmp_path / "nodir" / "o.ppm", EXIT_USAGE),
            "directory-out": (tmp_path, EXIT_USAGE),
            "png-without-pillow": (tmp_path / "o.png", EXIT_RUNTIME),
        }[case]
        if case == "png-without-pillow":
            monkeypatch.setitem(sys.modules, "PIL", None)  # import fails as without Pillow
        code = main(["sr", inp, "--model", micro_checkpoint, "--scale", "2", "--out", str(out)])
        assert code == expected
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("case", ["scale-1e300", "missing-input"])
    def test_bad_input_or_scale_fails_before_loading(
        self, micro_checkpoint, tmp_path, capsys, monkeypatch, case
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("called before the input and scale were checked")

        monkeypatch.setattr(cli, "load_checkpoint", must_not_run)
        monkeypatch.setattr(cli, "super_resolve", must_not_run)
        inp, scale = self._write_input(tmp_path), "2"
        if case == "scale-1e300":
            scale = "1e300"
        else:
            inp = str(tmp_path / "missing.ppm")
        code = main(["sr", inp, "--model", micro_checkpoint, "--scale", scale,
                     "--out", str(tmp_path / "o.ppm")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o.ppm").exists()

    def test_fuzzed_ppm_input_exits_cleanly(self, micro_checkpoint, tmp_path, capsys):
        # every truncation, and a seeded sample of single-bit flips, of a small PPM
        blob = Path(self._write_input(tmp_path)).read_bytes()
        path = tmp_path / "fuzz.ppm"

        def run(data: bytes) -> int:
            path.write_bytes(data)
            return main(["sr", str(path), "--model", micro_checkpoint, "--scale", "1.5",
                         "--tau", "0", "--out", str(tmp_path / "o.ppm")])

        for cut in range(len(blob)):
            assert run(blob[:cut]) in (EXIT_USAGE, EXIT_RUNTIME), cut
        rng = np.random.default_rng(0)
        for bit in rng.choice(8 * len(blob), size=150, replace=False):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << int(bit % 8)
            assert run(bytes(flipped)) in (EXIT_OK, EXIT_USAGE, EXIT_RUNTIME), bit
        assert "Traceback" not in capsys.readouterr().err

    def test_weighting_override_in_banner(self, micro_checkpoint, tmp_path, capsys):
        inp = self._write_input(tmp_path)
        code = main(["sr", inp, "--model", micro_checkpoint, "--scale", "2", "--tau", "0",
                     "--weighting", "none", "--out", str(tmp_path / "o.ppm")])
        assert code == EXIT_OK
        assert "weighting = none" in capsys.readouterr().out

    def test_pass_counts_printed(self, micro_checkpoint, tmp_path, capsys):
        inp = self._write_input(tmp_path)
        main(["sr", inp, "--model", micro_checkpoint, "--scale", "2", "--tau", "0",
              "--out", str(tmp_path / "o.ppm")])
        out = capsys.readouterr().out
        assert "12x12 patches" in out and "144 conditioner passes" in out


class TestSweepCommand:
    def test_tau0_diversity_zero(self, micro_checkpoint, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for i, img in enumerate(toy_corpus(2, 24, seed=3)):
            write_image(img, str(corpus_dir / f"img{i}.ppm"))
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", micro_checkpoint, "--corpus", str(corpus_dir),
                     "--scale", "2", "--taus", "0", "--out", str(out_csv)])
        assert code == EXIT_OK
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "tau,psnr_y,ssim,diversity"
        assert lines[1].split(",")[3] == "0.000000"

    def test_empty_corpus_exit2(self, micro_checkpoint, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["sweep", "--model", micro_checkpoint, "--corpus", str(empty),
                     "--scale", "2", "--taus", "0"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("bad", [
        ["--samples", "0", "--taus", "0.5"],
        ["--scale", "0"],
        ["--scale", "nan"],
        ["--scale", "1e-300"],
        ["--scale", "0.5"],
        ["--scale", "1e300"],
        ["--taus", "abc"],
        ["--seed", "-1"],
    ], ids=["samples-0", "scale-0", "scale-nan", "scale-1e-300", "scale-0.5", "scale-1e300",
            "taus-abc", "seed-negative"])
    def test_bad_arguments_exit2_before_loading(
        self, micro_checkpoint, tmp_path, capsys, monkeypatch, bad
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("called before the arguments were checked")

        monkeypatch.setattr(cli, "load_checkpoint", must_not_run)
        monkeypatch.setattr(cli, "super_resolve", must_not_run)
        argv = {"--scale": "2", "--taus": "0"}
        argv.update(zip(bad[::2], bad[1::2]))
        code = main(["sweep", "--model", micro_checkpoint, "--corpus", "toy",
                     *[x for kv in argv.items() for x in kv]])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", ["missing-dir", "directory"])
    def test_unwritable_out_exit2_before_loading(
        self, micro_checkpoint, tmp_path, capsys, monkeypatch, case
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("called before --out was checked")

        monkeypatch.setattr(cli, "load_checkpoint", must_not_run)
        monkeypatch.setattr(cli, "toy_corpus", must_not_run)
        out = tmp_path / "nodir" / "x.csv" if case == "missing-dir" else tmp_path
        code = main(["sweep", "--model", micro_checkpoint, "--corpus", "toy",
                     "--scale", "2", "--taus", "0", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write csv {out}") and err.count("\n") == 1

    def test_failed_csv_write_exit2(self, tmp_path):
        with pytest.raises(UsageError, match="cannot write csv"):
            cli._write_csv(str(tmp_path / "nodir" / "x.csv"), "tau\n")

    def test_csv_write_failing_midway_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        cli._write_csv(str(path), "tau,psnr\n0,30\n")
        before = path.read_bytes()
        monkeypatch.setattr(imaging, "open", full_disk_open(5), raising=False)
        with pytest.raises(UsageError, match="cannot write csv .*: No space left on device"):
            cli._write_csv(str(path), "tau,psnr\n0.5,29\n")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_trained_model_tau_ordering_and_diversity_ratio(self, tmp_path, capsys):
        # mean output maximizes PSNR; diversity scales linearly in tau. The
        # linearity measurement needs samples clear of the [0,1] clamp, so the
        # model is density-trained until its sample std is small and the eval
        # images keep mid-range values.
        from linf.training import TrainConfig, train

        corpus = toy_corpus(6, 32, seed=30)
        cfg = TrainConfig(lr_crop=8, batch=2, pairs_per_image=32, steps=400,
                          steps_per_epoch=200, lr_halve_at=(), stage=1, seed=1,
                          lambda_nll=1.0, learning_rate=3e-3)
        res = train(corpus, cfg, micro_config(), out_dir=str(tmp_path / "run"))
        ckpt = str(tmp_path / "run" / "ckpt_final.linf")

        corpus_dir = tmp_path / "imgs"
        corpus_dir.mkdir()
        for i, img in enumerate(toy_corpus(2, 48, seed=31)):
            write_image(Image(0.3 + 0.4 * img.data), str(corpus_dir / f"img{i}.ppm"))
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", ckpt, "--corpus", str(corpus_dir),
                     "--scale", "2", "--taus", "0,0.4,0.8", "--out", str(out_csv)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out_csv.read_text().strip().splitlines()[1:]]
        by_tau = {float(r[0]): (float(r[1]), float(r[3])) for r in rows}
        assert by_tau[0.0][0] >= by_tau[0.8][0]  # psnr(tau=0) >= psnr(tau=0.8)
        assert by_tau[0.0][1] == 0.0
        assert by_tau[0.8][1] < 0.1  # trained: samples no longer saturate
        ratio = by_tau[0.8][1] / by_tau[0.4][1]
        assert abs(ratio - 2.0) <= 0.1  # affine flow: diversity linear in tau


class TestMetricsCommand:
    def test_csv_schema(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        ref = tmp_path / "ref.ppm"
        t1 = tmp_path / "t1.ppm"
        t2 = tmp_path / "t2.ppm"
        base = rng.random((16, 16, 3))
        write_image(Image(base), str(ref))
        write_image(Image(np.clip(base + 0.02, 0, 1)), str(t1))
        write_image(Image(np.clip(base - 0.02, 0, 1)), str(t2))
        code = main(["metrics", "--ref", str(ref), "--test", str(t1), str(t2),
                     "--scale", "2", "--tau", "0.5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-2] == "image_id,scale,tau,psnr_y,psnr_rgb,ssim,diversity"
        assert out[-1].startswith("ref,2,0.5,")


    @pytest.mark.parametrize("case", ["missing-dir", "directory"])
    def test_unwritable_out_exit2_before_reading(self, tmp_path, capsys, monkeypatch, case):
        def must_not_run(*args, **kwargs):
            raise AssertionError("called before --out was checked")

        monkeypatch.setattr(cli, "read_image", must_not_run)
        out = tmp_path / "nodir" / "m.csv" if case == "missing-dir" else tmp_path
        code = main(["metrics", "--ref", "r.ppm", "--test", "t.ppm", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write csv {out}") and err.count("\n") == 1

    def test_missing_ref_exit2(self, tmp_path, capsys):
        test = tmp_path / "t.ppm"
        write_image(Image(np.full((12, 12, 3), 0.5)), str(test))
        code = main(["metrics", "--ref", str(tmp_path / "missing.ppm"), "--test", str(test)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read image") and "missing.ppm" in err


class TestVerifyCommand:
    def test_fast_level_passes(self, capsys):
        code = main(["verify", "--level", "fast"])
        assert code == EXIT_OK
        assert "all" in capsys.readouterr().out

    def test_full_level_includes_normalization_integral(self, capsys):
        code = main(["verify", "--level", "full"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "density-normalization-d3" in out
        assert "gradient-audit-full" in out
        assert "temperature-law" in out

    def test_injected_inverse_bug_detected(self, monkeypatch, capsys):
        import copy

        from linf import numerics as nm
        from linf.flow import FlowModel

        inverse = FlowModel.inverse

        def broken_inverse(self, z, cond):
            # transposed weights: wrong unless every W is symmetric
            flipped = copy.copy(self)
            flipped.weights = [nm.transpose(w) for w in self.weights]
            return inverse(flipped, z, cond)

        monkeypatch.setattr(FlowModel, "inverse", broken_inverse)
        code = main(["verify", "--level", "fast"])
        assert code == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "flow-invertibility-roundtrip" in out.splitlines()[-1]
