"""Dense float64 tensors with define-by-run reverse-mode differentiation.

Gradients are recorded only while a :class:`GradTape` is active; outside a
tape every operation is a plain numpy computation. The tape owns the graph:
one (output, parents, backward) record per op, in creation order, which is
already a valid topological order, so backward replays it in reverse and
releases each record once the sweep has passed it. A :func:`probe` block
reads pass counts and kink margins out of whatever runs inside it.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..errors import ConfigError, ShapeError, UsageError
from .linalg import LuFactors

_state = threading.local()  # this thread's open tapes and probes


def _stack(name: str) -> list:
    stack = getattr(_state, name, None)
    if stack is None:
        stack = []
        setattr(_state, name, stack)
    return stack


def active_tape() -> "GradTape | None":
    stack = _stack("tapes")
    return stack[-1] if stack else None


@dataclass(eq=False)  # nested probes are told apart by identity
class Probe:
    """What ran inside a probe() block: per-query pass counts by name (a
    batched pass over Q rows counts Q), and, for a probe opened with
    margins=True, the smallest distance of any kinked op's input (relu in
    affine and conv2d, absolute, and the clamp in conditioner_head and
    lazy_conditioner_head) from its kink; inf when no margin was read."""

    passes: dict[str, int] = field(default_factory=dict)
    kink_margin: float = np.inf


@contextmanager
def probe(margins: bool = False) -> Iterator[Probe]:
    """Open a Probe for the block; probes nest and each sees all inner work.
    Kink margins cost a pass over each kinked op's input, so they are read
    only while a probe that asks for them is open. Probing reads inputs and
    never changes a result bit."""
    p = Probe()
    stacks = [_stack("probes")] + ([_stack("margin_probes")] if margins else [])
    for stack in stacks:
        stack.append(p)
    try:
        yield p
    finally:
        for stack in stacks:
            stack.remove(p)


def count(name: str, n: int) -> None:
    """Report n per-query passes of `name` to every open probe."""
    for p in getattr(_state, "probes", ()):
        p.passes[name] = p.passes.get(name, 0) + n


def _kink_margin(x: np.ndarray, *kinks: float) -> None:
    """Report x's smallest distance from any of its op's kinks to every open
    probe that reads margins."""
    probes = getattr(_state, "margin_probes", None)
    if probes:
        margin = min(float(np.abs(x - k).min(initial=np.inf)) for k in kinks)
        for p in probes:
            p.kink_margin = min(p.kink_margin, margin)


def _relu_in_place(out: np.ndarray) -> None:
    """Clip a fused op's pre-activation at zero in place, after a probe has
    read its kink margin."""
    _kink_margin(out, 0.0)
    np.maximum(out, 0.0, out=out)


def _relu_mask(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """g masked by a fused relu's output: the gradient through the clip."""
    return g * (out > 0.0)


class Tensor:
    """N-dimensional float64 array, optionally participating in a tape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    # -- shape / value access ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    # -- in-place mutation (optimizer use only) -------------------------------

    def assign_(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.data.shape:
            raise ShapeError(f"assign_ shape {values.shape} != {self.data.shape}")
        self.data = values.copy()

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- reshaping -------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


class GradTape:
    """Ordered record of taped operations; context manager.

    Creation order of op outputs is a topological order of the graph, so the
    reverse sweep visits every node after all of its consumers. A record
    with several outputs gets one gradient per output, None for an output
    that received none. Each record is released as soon as the sweep has
    passed it, so a tape runs backward once; the record count (len) stays
    as it was.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple, Callable] | None] = []

    def __enter__(self) -> "GradTape":
        _stack("tapes").append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _stack("tapes")
        if not stack or stack[-1] is not self:
            raise UsageError("GradTape exited out of order")
        stack.pop()

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, out: Tensor | tuple[Tensor, ...], parents: tuple,
                backward_fn: Callable) -> None:
        for o in out if isinstance(out, tuple) else (out,):
            o.requires_grad = True
        self._records.append((out, parents, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Set .grad on every leaf (a tensor not produced on this tape) that
        loss depends on; taped intermediates keep no gradient."""
        if loss.size != 1:
            raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
        records = self._records
        if records and records[-1] is None:
            raise UsageError("backward already ran on this tape and released its graph")
        pending: dict[int, tuple[Tensor, np.ndarray]] = {
            id(loss): (loss, np.ones_like(loss.data))
        }
        for i in range(len(records) - 1, -1, -1):
            out, parents, backward_fn = records[i]
            records[i] = None
            if isinstance(out, Tensor):
                g = pending.pop(id(out), (out, None))[1]
                if g is None:
                    continue
            else:  # several outputs: None for each one that received no gradient
                g = [pending.pop(id(o), (o, None))[1] for o in out]
                if all(x is None for x in g):
                    continue
            for parent, pg in zip(parents, backward_fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                prev = pending.get(id(parent))
                if prev is None:
                    pending[id(parent)] = (parent, pg)
                else:
                    pending[id(parent)] = (parent, prev[1] + pg)
        # whatever is left belongs to leaves (tensors not produced on this tape)
        for tensor, g in pending.values():
            tensor.grad = g if tensor.grad is None else tensor.grad + g


# -- helpers -------------------------------------------------------------------


def tensor(data, requires_grad: bool = False) -> Tensor:
    if isinstance(data, Tensor):
        if not requires_grad or data.requires_grad:
            return data
        return Tensor(data.data, requires_grad=True)
    return Tensor(data, requires_grad)


def _make(data, parents: tuple, backward_fn: Callable):
    """Create an op output (a tuple of them for a tuple of arrays), recording
    it when a tape is active."""
    out = tuple(map(Tensor, data)) if isinstance(data, tuple) else Tensor(data)
    tape = active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        tape._record(out, parents, backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape`."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise arithmetic ------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        ),
    )


def div(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    return _make(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def neg(a) -> Tensor:
    a = tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = tensor(a)
    out_data = np.exp(a.data)
    return _make(out_data, (a,), lambda g: (g * out_data,))


def absolute(a) -> Tensor:
    a = tensor(a)
    _kink_margin(a.data, 0.0)
    return _make(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def _scatter_rounds(rows: np.ndarray) -> list[np.ndarray]:
    """Positions of `rows` in rounds: round r holds the r-th occurrence of
    every row that occurs more than r times, so no round repeats a row.
    Adding round by round gives each row its contributions in index order,
    the same additions in the same order as np.add.at."""
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    first = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    rank = np.arange(rows.size) - np.repeat(first, np.diff(np.append(first, rows.size)))
    by_rank = order[np.argsort(rank, kind="stable")]
    ends = np.cumsum(np.bincount(rank))
    return np.split(by_rank, ends[:-1]) if rows.size else []


def fourier_gather(amp, freq, phases, idx: np.ndarray, delta: np.ndarray,
                   weights: np.ndarray | None = None) -> Tensor:
    """Weighted Fourier features of gathered neighbour rows, [Q, N*2K].

    amp and freq are [R, 2K] row tables (freq's channels pair up as K
    (fy, fx) vectors), phases is [Q, K], idx [Q, N] rows into the tables,
    delta [Q, N, 2] relative coordinates and weights [Q, N] or None. Per
    neighbour theta = pi*(fy*dy + fx*dx) + phase and the output is
    amp * [cos theta | sin theta] * weight, written into one buffer. Same
    values and gradients as the taped op chain kept in tests/oracles.py.

    The record keeps the output, [cos | sin] and the caller's idx, delta
    and weights; backward gathers the amplitudes from amp again with the
    same rows, and scatters the table gradients in rounds of distinct rows
    (see _scatter_rounds)."""
    amp, freq, phases = tensor(amp), tensor(freq), tensor(phases)
    q, n = idx.shape
    k2 = amp.shape[1]
    k = k2 // 2
    rows = idx.reshape(-1)
    dy, dx = delta[:, :, 0:1], delta[:, :, 1:2]
    # each temporary is freed before the next buffer is allocated, so the
    # allocator can hand its pages on instead of faulting in fresh ones;
    # indexing gathers the rows of a strided column half directly, where
    # np.take would first copy the whole half table
    theta = freq.data[rows, 0::2].reshape(q, n, k)
    theta *= dy
    fx_dx = freq.data[rows, 1::2].reshape(q, n, k)
    fx_dx *= dx
    theta += fx_dx
    del fx_dx
    theta *= np.pi
    theta += phases.data.reshape(q, 1, k)
    cs = np.empty((q, n, k2))
    np.cos(theta, out=cs[..., :k])
    np.sin(theta, out=cs[..., k:])
    del theta
    w = None if weights is None else weights[:, :, None]
    # without a tape nothing reads [cos | sin] again, so scale it in place
    taped = active_tape() is not None and (amp.requires_grad or freq.requires_grad
                                           or phases.requires_grad)
    out = np.multiply(cs, np.take(amp.data, rows, axis=0).reshape(q, n, k2),
                      out=None if taped else cs)
    if w is not None:
        out *= w

    def bwd(g):
        g = g.reshape(q, n, k2)
        if w is not None:
            g = g * w
        rounds = [(pos, rows[pos]) for pos in _scatter_rounds(rows)]
        g_amp = np.zeros_like(amp.data)
        g_a = (g * cs).reshape(q * n, k2)
        for pos, at in rounds:
            g_amp[at] += g_a[pos]
        del g_a
        g_cs = g * np.take(amp.data, rows, axis=0).reshape(q, n, k2)
        g_theta = g_cs[..., k:] * cs[..., :k]
        g_theta -= g_cs[..., :k] * cs[..., k:]
        del g_cs
        g_phases = g_theta.sum(axis=1, keepdims=True).reshape(q, k)
        g_theta *= np.pi
        # the dy and dx gradients interleave as freq's (fy, fx) columns do
        g_f = np.empty((q, n, k2))
        np.multiply(g_theta, dy, out=g_f[..., 0::2])
        np.multiply(g_theta, dx, out=g_f[..., 1::2])
        del g_theta
        g_f = g_f.reshape(q * n, k2)
        g_freq = np.zeros_like(freq.data)
        for pos, at in rounds:
            g_freq[at] += g_f[pos]
        return (g_amp, g_freq, g_phases)

    return _make(out.reshape(q, n * k2), (amp, freq, phases), bwd)


def affine(x, w, b, relu: bool = False, out: np.ndarray | None = None) -> Tensor:
    """x @ w + b, optionally through relu, in one output buffer: `out` when
    given (a C-contiguous [rows, cols] array, e.g. a row band of a larger
    buffer), else a new one.

    Same values and gradients as relu(add(matmul(x, w), b)); a probe reads
    the pre-activation's kink margin."""
    x, w, b = tensor(x), tensor(w), tensor(b)
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"affine expects 2-D operands, got {x.shape} @ {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine inner extents disagree: {x.shape} @ {w.shape}")
    out = np.matmul(x.data, w.data, out=out)
    out += b.data
    if relu:
        _relu_in_place(out)

    def bwd(g):
        if relu:
            g = _relu_mask(g, out)
        return (g @ w.data.T, x.data.T @ g, g.sum(axis=0))

    return _make(out, (x, w, b), bwd)


def conditioner_head(head, layers: int, dim: int, bound: float
                     ) -> tuple[list[Tensor], list[Tensor], list[Tensor]]:
    """Per-layer (logdet, alpha, phi) lists from a [Q, 2*dim*layers] head
    output laid out as (pre_k, phi_k) column blocks, k ascending: with
    alpha_pre_k = clip(pre_k, -bound, bound), logdet_k is its per-query row
    sum [Q] (the injector's log-determinant), alpha_k = exp(alpha_pre_k)
    and phi_k = the head's phi_k block, both [Q, dim].

    One taped op with 3*layers outputs. The pre blocks are clipped into one
    [layers, Q, dim] buffer, summed per query and exponentiated in place, so
    that buffer becomes alpha; every phi_k is a view of the head.
    Backward reads the clamp mask from the head and writes one head
    gradient. Values and gradients are bit-identical to the per-layer
    getitem/clamp/exp chain in tests/oracles.py with a tsum of each clipped
    block, whose sum of zero-padded slice gradients turns a -0.0 into +0.0;
    a probe reads the clamp's kink margin."""
    head = tensor(head)
    q = head.shape[0]
    blocks = head.data.reshape(q, layers, 2, dim)
    raw = blocks[:, :, 0].transpose(1, 0, 2)  # [layers, Q, dim] view
    _kink_margin(raw, -bound, bound)
    alpha = np.empty((layers, q, dim))
    np.clip(raw, -bound, bound, out=alpha)
    logdet = alpha.sum(axis=2)
    np.exp(alpha, out=alpha)

    def bwd(gs):
        g_head = np.zeros(head.shape)
        g_blocks = g_head.reshape(q, layers, 2, dim)
        written = 0
        for k in range(layers):
            g_sum, g_alpha, g_phi = gs[k], gs[layers + k], gs[2 * layers + k]
            g_pre = None if g_sum is None else g_sum[:, None]
            if g_alpha is not None:
                g_alpha = g_alpha * alpha[k]
                g_pre = g_alpha if g_pre is None else g_pre + g_alpha
            if g_pre is not None:
                np.multiply(g_pre, (raw[k] >= -bound) & (raw[k] <= bound),
                            out=g_blocks[:, k, 0])
                written += 1
            if g_phi is not None:
                g_blocks[:, k, 1] = g_phi
                written += 1
        if written > 1:
            g_head += 0.0  # as adding zero-padded slices does: -0.0 becomes +0.0
        return (g_head,)

    outs = _make((*logdet, *alpha, *(blocks[:, k, 1] for k in range(layers))), (head,), bwd)
    return list(outs[:layers]), list(outs[layers : 2 * layers]), list(outs[2 * layers :])


class _PerLayer(Sequence):
    """`layers` tensors; tensor k is made by make(k) each time it is read."""

    def __init__(self, layers: int, make: Callable[[int], np.ndarray]):
        self._layers = range(layers)
        self._make = make

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, k: int) -> Tensor:
        return Tensor(self._make(self._layers[k]))


def lazy_conditioner_head(head: np.ndarray, layers: int, dim: int, bound: float
                          ) -> tuple[Sequence[Tensor], Sequence[Tensor], list[Tensor]]:
    """Untaped conditioner_head: the same (logdet, alpha, phi) bits, but
    logdet_k and alpha_k are computed from the head's pre_k block each time
    one is read, so no [layers, Q, dim] buffer exists and no row sum is
    formed unless a reader asks for it (the flow's inverse reads alpha only).
    Each phi_k is a view of the head. A probe reads the clamp's kink margin
    once, over all pre blocks, here."""
    blocks = head.reshape(head.shape[0], layers, 2, dim)
    _kink_margin(blocks[:, :, 0], -bound, bound)

    def logdet(k: int) -> np.ndarray:
        return np.clip(blocks[:, k, 0], -bound, bound).sum(axis=1)

    def alpha(k: int) -> np.ndarray:
        pre = np.clip(blocks[:, k, 0], -bound, bound)
        return np.exp(pre, out=pre)

    return (_PerLayer(layers, logdet), _PerLayer(layers, alpha),
            [Tensor(blocks[:, k, 1]) for k in range(layers)])


# -- structure ops ----------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    return _make(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


def transpose(a) -> Tensor:
    a = tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {a.shape}")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a, shape: tuple) -> Tensor:
    a = tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def index_rows(a, idx: np.ndarray) -> Tensor:
    """Gather rows along axis 0; backward scatter-adds (duplicates allowed)."""
    a = tensor(a)
    idx = np.asarray(idx)

    def bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return _make(a.data[idx], (a,), bwd)


def tsum(a, axis=None) -> Tensor:
    a = tensor(a)

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(a.data.sum(axis=axis), (a,), bwd)


def tmean(a) -> Tensor:
    a = tensor(a)
    return mul(tsum(a), 1.0 / a.size)


# -- linear-algebra primitives ----------------------------------------------------


def logabsdet(w, lu: LuFactors) -> Tensor:
    """log|det W| from W's LU factors; backward uses d log|det W| = W^{-T}."""
    w = tensor(w)

    def bwd(g):
        return (float(g) * lu.inverse().T,)

    return _make(np.float64(lu.logabsdet()), (w,), bwd)


def solve_rows(y, w, lu: LuFactors) -> Tensor:
    """Row-wise solve by W's LU factors: X with X @ W.T == Y, i.e. X = Y @ W^{-T}."""
    y, w = tensor(y), tensor(w)
    x = lu.solve(y.data.T).T

    def bwd(g):
        gy = lu.solve_transposed(g.T).T  # G @ W^{-1}
        gw = -gy.T @ x
        return (gy, gw)

    return _make(x, (y, w), bwd)


# -- convolution --------------------------------------------------------------------


CONV_BAND_ROWS = 1024  # padded-width output rows per conv2d band; keeps its sums in cache


def conv2d(x, kernel, bias=None, relu: bool = False) -> Tensor:
    """Same-padded 2-D convolution in HWC layout, plus an optional bias and
    relu.

    `x` is [H,W,Cin] or [N,H,W,Cin]; `kernel` is [k,k,Cin,Cout] with k odd;
    `bias` is [Cout] or None; zero padding. Each image is padded once into
    a flat [(H+2p)*Wp, Cin] row table (Wp = W+2p), so for kernel offset
    (dy, dx) the output row r*Wp+c of the padded-width grid reads table row
    (r+dy)*Wp+c+dx: one gemm per offset on a contiguous row slice, no copy.
    The grid is done in bands of about CONV_BAND_ROWS rows; each band sums
    its offsets' products in (dy, dx) order in two reused buffers, and its
    crop to the W real columns and the bias add are one numpy add into the
    output. With relu the output is clipped at zero in place, after a probe
    has read the pre-activation's kink margin.

    The record keeps only the output; the padded table is freed when the
    forward returns. Backward rebuilds it from x for the kernel gradient,
    which contracts a contiguous [N*H*W, Cin] copy of each shifted slice;
    the input gradient adds g @ K[dy, dx].T into the shifted slice of a
    padded buffer; with relu, g is first masked by output > 0.

    Values and gradients are bit-identical to add(conv2d_per_offset(x, k),
    bias), through relu when asked, in tests/oracles.py, which runs one
    gemm per offset over the whole batch, when Cout is a multiple of 8, as
    in every shipped config. For other Cout, OpenBLAS may round the N tail
    of the smaller band gemms differently (a few ulp); so may batches of
    several 1x1 images, where numpy runs a gemv per image in place of one
    gemm.
    """
    x, kernel = tensor(x), tensor(kernel)
    if kernel.ndim != 4 or kernel.shape[0] != kernel.shape[1]:
        raise ShapeError(f"kernel must be [k,k,Cin,Cout], got {kernel.shape}")
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"conv2d kernel size must be odd, got {k}")
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4:
        raise ShapeError(f"conv2d input must be [H,W,C] or [N,H,W,C], got {x.shape}")
    n, h, w, cin = xd.shape
    if cin != kernel.shape[2]:
        raise ShapeError(
            f"conv2d channel mismatch: input {cin} vs kernel {kernel.shape[2]}"
        )
    cout = kernel.shape[3]
    if bias is not None:
        bias = tensor(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"conv2d bias must be [{cout}], got {bias.shape}")
    pad = k // 2
    wp = w + 2 * pad

    def padded() -> np.ndarray:
        xp = np.zeros((n, h + 2 * pad, wp, cin))
        xp[:, pad : pad + h, pad : pad + w] = xd
        return xp

    band = max(1, min(h, CONV_BAND_ROWS // wp))  # image rows per band
    xrows = padded().reshape(n, -1, cin)
    out = np.empty((n, h, w, cout))
    acc = np.empty((n, band * wp, cout))
    prod = np.empty_like(acc)
    for r0 in range(0, h, band):
        r1 = min(h, r0 + band)
        rows = (r1 - r0 - 1) * wp + w  # the band's last row ends at its last real column
        acc_b, prod_b = acc[:, :rows], prod[:, :rows]
        acc_b.fill(0.0)
        for dy in range(k):
            for dx in range(k):
                start = (r0 + dy) * wp + dx
                np.matmul(xrows[:, start : start + rows], kernel.data[dy, dx], out=prod_b)
                acc_b += prod_b
        crop = acc[:, : (r1 - r0) * wp].reshape(n, r1 - r0, wp, cout)[:, :, :w]
        if bias is None:
            out[:, r0:r1] = crop
        else:
            np.add(crop, bias.data, out=out[:, r0:r1])
    out = out[0] if squeeze else out
    if relu:
        _relu_in_place(out)

    def bwd(g_out):
        if relu:
            g_out = _relu_mask(g_out, out)
        g2 = np.ascontiguousarray(g_out).reshape(n * h * w, cout)
        gk = gx = None
        if kernel.requires_grad:
            xp = padded()
            gk = np.empty_like(kernel.data)
            xs = np.empty((n, h, w, cin))  # reused for every shifted slice
            for dy in range(k):
                for dx in range(k):
                    np.copyto(xs, xp[:, dy : dy + h, dx : dx + w])
                    np.matmul(xs.reshape(-1, cin).T, g2, out=gk[dy, dx])
        if x.requires_grad:
            gxp = np.zeros((n, h + 2 * pad, wp, cin))
            gs = np.empty((n, h, w, cin))  # reused for every offset's product
            for dy in range(k):
                for dx in range(k):
                    np.matmul(g2, kernel.data[dy, dx].T, out=gs.reshape(-1, cin))
                    gxp[:, dy : dy + h, dx : dx + w] += gs
            gx = gxp[:, pad : pad + h, pad : pad + w]
            gx = gx[0] if squeeze else gx
        if bias is None:
            return (gx, gk)
        return (gx, gk, _unbroadcast(g_out, bias.shape))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(out, parents, bwd)
