"""The allocator policy set when linf.numerics is imported: freed heap memory
is kept, so a repeated sr call faults in (almost) no fresh pages."""

import ctypes
import platform
import resource
from pathlib import Path

import pytest

from linf import numerics as nm
from linf.config import load_config
from linf.corpus import toy_corpus
from linf.imaging import bicubic_resample
from linf.model import Model
from linf.pipeline import super_resolve

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_second_sr_call_faults_under_1000_pages():
    model_cfg, _, _ = load_config(str(CONFIG_DIR / "desk.cfg"))
    model = Model.create(model_cfg, seed=0)
    lr = bicubic_resample(toy_corpus(1, 96, seed=1)[0], 48, 48)
    assert nm.keep_freed_pages()
    super_resolve(lr, 4.0, 0.5, model, seed=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    super_resolve(lr, 4.0, 0.5, model, seed=1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000  # about 25,000 when glibc unmaps and trims what it frees


class _Libc:
    """A stand-in libc whose mallopt refuses every setting."""

    def __init__(self, calls):
        def mallopt(param, value):
            calls.append((param, value))
            return 0

        self.mallopt = mallopt


def test_missing_libc_is_a_silent_no_op(monkeypatch):
    def no_libc(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert nm.keep_freed_pages() is False


def test_refused_mallopt_is_a_silent_no_op(monkeypatch):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name, *args, **kwargs: _Libc(calls))
    assert nm.keep_freed_pages() is False
    # the refused mmap threshold stops it before the trim threshold is set
    assert calls == [(nm.M_MMAP_THRESHOLD, nm.KEEP_BYTES)]
