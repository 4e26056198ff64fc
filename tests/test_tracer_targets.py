"""Every entry point the benchmark's tracer wraps still exists, and its
spans count what the benchmark reports; no benchmark is started.
`perfbench/tracer.py` is loaded from its file and not changed."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from linf import numerics as nm
from linf.corpus import toy_corpus
from linf.imaging import Image
from linf.pipeline import ENSEMBLE_FOURIER, ScaleSpec, build_grid, super_resolve
from linf.training import TrainConfig, loss_components, make_batch

from .helpers import micro_model

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _targets():
    return [pytest.param(module, attr, id=name) for name, module, attr, _ in _tracer().TARGETS]


@pytest.mark.parametrize("module,attr", _targets())
def test_target_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        # methods are wrapped through the class's own __dict__
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(method)), f"{module}.{attr}"
    else:
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"


def test_conv_gflop_same_with_bias():
    # the tracer counts conv2d's GFLOP from args[0] and args[1]; the bias,
    # passed third, must leave the count as it is
    tracer = _tracer()
    x, k, b = np.ones((2, 5, 6, 3)), np.ones((3, 3, 3, 8)), np.ones(8)
    recorder = tracer.SpanRecorder()
    with tracer.traced(recorder):
        nm.conv2d(x, k, b)
        nm.conv2d(x, k)
    (name, *_, with_bias), (_, *_, without) = recorder.spans
    assert name == "numerics.conv2d"
    assert with_bias == without == 2.0 * 2 * 5 * 6 * 9 * 3 * 8 / 1e9


def _conditioner_passes(run) -> tuple[int, float]:
    """(span count, summed pass count) of the tracer's `implicit.conditioner`
    spans while run() runs."""
    tracer = _tracer()
    recorder = tracer.SpanRecorder()
    with tracer.traced(recorder):
        run()
    counts = [span[5] for span in recorder.spans if span[0] == "implicit.conditioner"]
    return len(counts), sum(counts)


def test_conditioner_span_counts_one_pass_per_sr_query():
    # untaped sr must reach the wrapped conditioner, or the benchmark's
    # implicit.conditioner metrics read 0 on its sr workloads
    model = micro_model(seed=41)
    lr = Image(np.random.default_rng(42).random((7, 9, 3)))
    queries = build_grid(ScaleSpec(2.5, 7, 9), model.cfg.patch_side).num_patches

    def run():
        super_resolve(lr, 2.5, 0.0, model, ensemble=ENSEMBLE_FOURIER)

    assert _conditioner_passes(run) == (1, queries)


def test_conditioner_span_counts_one_pass_per_training_query():
    cfg = TrainConfig(lr_crop=6, batch=2, pairs_per_image=12, stage=2, seed=0)
    batch = make_batch(toy_corpus(2, 32, seed=5), cfg, np.random.default_rng(43))
    model = micro_model(seed=44)

    def run():
        with nm.GradTape():
            loss_components(batch, model, cfg)

    assert _conditioner_passes(run) == (1, batch.coords.shape[0])
