"""Span recorder that times linf's layers from outside the program.

`traced(recorder)` replaces the public entry points listed in TARGETS with
wrappers that record one span each: name, start, end, the span that was
open when it began (its parent), the benchmark phase, and an optional count
derived from the call's arguments. A function is replaced in every linf
module that holds it, because names imported with `from ... import` are
looked up in the importing module (`pipeline.bank_maps`,
`training.conditioner`). Methods are replaced on their class. Everything is
put back when the context exits.

A layer's self time is its spans' duration minus the part covered by their
child spans, so work in functions that are not wrapped (elementwise tensor
ops, glue code) counts toward the nearest wrapped caller. Backward closures
run inside `GradTape.backward`, so `numerics.conv2d` and `numerics.matmul`
time the forward pass only.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _shape(x) -> tuple:
    return np.shape(getattr(x, "data", x))


def _conv_gflop(args, result) -> float:
    x, kernel = _shape(args[0]), _shape(args[1])
    k, _, cin, cout = kernel
    return 2.0 * float(np.prod(x[:-1])) * k * k * cin * cout / 1e9


def _matmul_gflop(args, result) -> float:
    (m, k), (_, n) = _shape(args[0]), _shape(args[1])
    return 2.0 * m * k * n / 1e9


def _rows(x) -> int:
    shape = _shape(x)
    return shape[0] if len(shape) == 2 else 1


# span name, defining module, attribute ("Class.method" for methods), count
TARGETS = (
    ("numerics.conv2d", "linf.numerics.tensor", "conv2d", _conv_gflop),
    ("numerics.matmul", "linf.numerics.tensor", "matmul", _matmul_gflop),
    ("numerics.index_rows", "linf.numerics.tensor", "index_rows", None),
    ("numerics.lu_factor", "linf.numerics.linalg", "lu_factor", None),
    ("numerics.backward", "linf.numerics.tensor", "GradTape.backward",
     lambda args, result: len(args[0])),
    ("encoder.encode_batch", "linf.encoder", "encode_batch", None),
    ("implicit.bank_maps", "linf.implicit", "bank_maps", None),
    ("implicit.phase_vector", "linf.implicit", "phase_vector", None),
    ("implicit.neighborhood_geometry", "linf.implicit", "neighborhood_geometry", None),
    ("implicit.ensemble_features", "linf.implicit", "ensemble_features", None),
    ("implicit.conditioner", "linf.implicit", "conditioner",
     lambda args, result: _rows(args[0])),
    ("flow.inverse", "linf.flow", "FlowModel.inverse", lambda args, result: _rows(args[1])),
    ("flow.log_prob", "linf.flow", "FlowModel.log_prob", None),
    ("pipeline.super_resolve", "linf.pipeline", "super_resolve", None),
    ("pipeline.generate_texture_patches", "linf.pipeline", "generate_texture_patches", None),
    ("pipeline.reassemble", "linf.pipeline", "reassemble", None),
    ("imaging.bilinear_upsample", "linf.imaging", "bilinear_upsample", None),
    ("imaging.bicubic_resample", "linf.imaging", "bicubic_resample", None),
    ("training.train", "linf.training", "train", None),
    ("training.make_batch", "linf.training", "make_batch", None),
    ("training.loss_components", "linf.training", "loss_components", None),
    ("training.adam", "linf.training", "Adam.step", None),
    ("training.save_checkpoint", "linf.training", "save_checkpoint",
     lambda args, result: os.path.getsize(args[0])),
    ("training.load_checkpoint", "linf.training", "load_checkpoint", None),
    ("training.rejitters", "linf.training", "_rejitter_flow", None),
)


class SpanRecorder:
    """Spans kept in memory as [name, start, end, parent index, phase, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "op"
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.phase, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced_call

    def totals(self, phase: str) -> dict[str, dict]:
        """Per span name: self seconds, call count and summed count, in `phase`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, span_phase, count) in enumerate(self.spans):
            if span_phase != phase:
                continue
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "count": 0.0})
            entry["self_s"] += end - start - child[i]
            entry["calls"] += 1
            entry["count"] += count or 0.0
        return out


@contextmanager
def traced(recorder: SpanRecorder):
    """Install a wrapper for every TARGETS entry; restore the originals on exit."""
    modules = [m for name, m in list(sys.modules.items()) if name == "linf" or name.startswith("linf.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for name, module, attr, count in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                undo.append((cls, method, original))
                setattr(cls, method, recorder.wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = recorder.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield recorder
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# per-layer metric: (span name, field); fields are normalised per step or image
PER_LAYER = {
    "numerics.conv2d.ms": ("numerics.conv2d", "ms"),
    "numerics.conv2d.calls": ("numerics.conv2d", "calls"),
    "numerics.conv2d.gflop": ("numerics.conv2d", "count"),
    "numerics.matmul.ms": ("numerics.matmul", "ms"),
    "numerics.matmul.gflop": ("numerics.matmul", "count"),
    "numerics.index_rows.ms": ("numerics.index_rows", "ms"),
    "numerics.backward.ms": ("numerics.backward", "ms"),
    "numerics.tape.entries": ("numerics.backward", "count"),
    "numerics.lu_factor.ms": ("numerics.lu_factor", "ms"),
    "numerics.lu_factor.calls": ("numerics.lu_factor", "calls"),
    "encoder.encode_batch.ms": ("encoder.encode_batch", "ms"),
    "encoder.encode_batch.calls": ("encoder.encode_batch", "calls"),
    "implicit.bank_maps.ms": ("implicit.bank_maps", "ms"),
    "implicit.bank_maps.calls": ("implicit.bank_maps", "calls"),
    "implicit.phase_vector.ms": ("implicit.phase_vector", "ms"),
    "implicit.neighborhood_geometry.ms": ("implicit.neighborhood_geometry", "ms"),
    "implicit.ensemble_features.ms": ("implicit.ensemble_features", "ms"),
    "implicit.conditioner.ms": ("implicit.conditioner", "ms"),
    "implicit.conditioner.queries": ("implicit.conditioner", "per_query"),
    "flow.inverse.ms": ("flow.inverse", "ms"),
    "flow.inverse.queries": ("flow.inverse", "per_query"),
    "flow.log_prob.ms": ("flow.log_prob", "ms"),
    "pipeline.generate_texture_patches.ms": ("pipeline.generate_texture_patches", "ms"),
    "pipeline.generate_texture_patches.calls": ("pipeline.generate_texture_patches", "calls"),
    "pipeline.reassemble.ms": ("pipeline.reassemble", "ms"),
    "pipeline.super_resolve.self_ms": ("pipeline.super_resolve", "ms"),
    "imaging.bilinear_upsample.ms": ("imaging.bilinear_upsample", "ms"),
    "imaging.bicubic_resample.ms": ("imaging.bicubic_resample", "ms"),
    "training.make_batch.ms": ("training.make_batch", "ms"),
    "training.loss_components.ms": ("training.loss_components", "ms"),
    "training.adam.ms": ("training.adam", "ms"),
    "training.save_checkpoint.ms": ("training.save_checkpoint", "ms"),
    "training.save_checkpoint.bytes": ("training.save_checkpoint", "count"),
    "training.load_checkpoint.ms": ("training.load_checkpoint", "setup_ms"),
    "training.rejitters": ("training.rejitters", "calls"),
}


def layer_metrics(recorder: SpanRecorder, units: int, setups: int,
                  queries_per_unit: int) -> dict[str, float]:
    """PER_LAYER values: per step or image over the traced operations, per
    set-up for `setup_ms`, and passes per query for `per_query`."""
    ops = recorder.totals("op")
    setup = recorder.totals("setup")
    empty = {"self_s": 0.0, "calls": 0, "count": 0.0}
    out = {}
    for metric, (span, field) in PER_LAYER.items():
        t = ops.get(span, empty)
        if field == "ms":
            value = 1000.0 * t["self_s"] / units
        elif field == "setup_ms":
            value = 1000.0 * setup.get(span, empty)["self_s"] / setups
        elif field == "per_query":
            value = t["count"] / (units * queries_per_unit)
        else:
            value = t[field] / units
        out[metric] = float(value)
    return out
