"""Every entry point the benchmark's tracer wraps still exists; no benchmark
is started. `perfbench/tracer.py` is loaded from its file and not changed."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

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
    for _, module, _, _ in tracer.TARGETS:
        importlib.import_module(module)
    from linf import numerics as nm

    x, k, b = np.ones((2, 5, 6, 3)), np.ones((3, 3, 3, 8)), np.ones(8)
    recorder = tracer.SpanRecorder()
    with tracer.traced(recorder):
        nm.conv2d(x, k, b)
        nm.conv2d(x, k)
    (name, *_, with_bias), (_, *_, without) = recorder.spans
    assert name == "numerics.conv2d"
    assert with_bias == without == 2.0 * 2 * 5 * 6 * 9 * 3 * 8 / 1e9
