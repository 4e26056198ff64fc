"""Every entry point the benchmark's tracer wraps still exists; no benchmark
is started. `perfbench/tracer.py` is loaded from its file and not changed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [pytest.param(module, attr, id=name) for name, module, attr, _ in tracer.TARGETS]


@pytest.mark.parametrize("module,attr", _targets())
def test_target_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        # methods are wrapped through the class's own __dict__
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(method)), f"{module}.{attr}"
    else:
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
