"""Autodiff primitives against finite-difference and naive-loop oracles."""

import importlib
import threading

import numpy as np
import pytest

from linf import implicit
from linf import numerics as nm
from linf.errors import ConfigError, ShapeError, UsageError

from .oracles import concat, conv2d_per_offset, cos, cos_sin, ensemble_features_chain, sin

# the submodule; `nm.tensor` is the constructor function
tensor_module = importlib.import_module("linf.numerics.tensor")


def naive_conv2d(x, k):
    """Sliding-window oracle: explicit loops, zero padding, same extents."""
    h, w, cin = x.shape
    ks, _, _, cout = k.shape
    pad = ks // 2
    out = np.zeros((h, w, cout))
    for y in range(h):
        for xx in range(w):
            for dy in range(ks):
                for dx in range(ks):
                    sy, sx = y + dy - pad, xx + dx - pad
                    if 0 <= sy < h and 0 <= sx < w:
                        for ci in range(cin):
                            out[y, xx] += x[sy, sx, ci] * k[dy, dx, ci]
    return out


def numeric_grad(loss_fn, arr, step=1e-5):
    g = np.empty_like(arr)
    flat = arr.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        s = flat[i]
        flat[i] = s + step
        fp = loss_fn()
        flat[i] = s - step
        fm = loss_fn()
        flat[i] = s
        gf[i] = (fp - fm) / (2 * step)
    return g


def rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


class TestMatmul:
    def test_identity(self):
        a = nm.tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nm.matmul(nm.tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_case(self):
        out = nm.matmul(nm.tensor([[1.0, 2.0]]), nm.tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nm.matmul(nm.tensor(np.ones((2, 3))), nm.tensor(np.ones((2, 3))))

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = np.random.default_rng(0)
        a = nm.Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        b = nm.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        with nm.GradTape() as tape:
            loss = nm.tsum(nm.matmul(a, b))
        tape.backward(loss)
        np.testing.assert_allclose(a.grad, np.ones((5, 3)) @ b.data.T, rtol=1e-12)
        fd = numeric_grad(lambda: (a.data @ b.data).sum(), a.data)
        assert rel(a.grad, fd) < 1e-6


class TestConv2d:
    def test_1x1_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = nm.tensor(rng.random((4, 5, 1)))
        k = nm.tensor(np.ones((1, 1, 1, 1)))
        out = nm.conv2d(x, k)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_kernel(self):
        rng = np.random.default_rng(2)
        x = nm.tensor(rng.random((3, 3, 2)))
        out = nm.conv2d(x, nm.tensor(np.zeros((3, 3, 2, 4))))
        assert np.all(out.data == 0.0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            nm.conv2d(nm.tensor(np.zeros((3, 3, 1))), nm.tensor(np.zeros((2, 2, 1, 1))))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 5, 3))
        k = rng.normal(size=(3, 3, 3, 2))
        out = nm.conv2d(nm.tensor(x), nm.tensor(k))
        oracle = naive_conv2d(x, k)
        np.testing.assert_allclose(out.data, oracle, rtol=1e-10, atol=1e-14)

    def test_batched_matches_per_image(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(3, 4, 4, 2))
        k = rng.normal(size=(3, 3, 2, 5))
        batched = nm.conv2d(nm.tensor(xs), nm.tensor(k)).data
        for i in range(3):
            single = nm.conv2d(nm.tensor(xs[i]), nm.tensor(k)).data
            np.testing.assert_allclose(batched[i], single, rtol=1e-12)

    def test_gradients_vs_fd(self):
        rng = np.random.default_rng(5)
        x = nm.Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
        k = nm.Tensor(rng.normal(size=(3, 3, 2, 2)) * 0.3, requires_grad=True)
        w = rng.normal(size=(4, 3, 2))  # fixed readout to make the loss non-trivial
        with nm.GradTape() as tape:
            loss = nm.tsum(nm.mul(nm.conv2d(x, k), nm.tensor(w)))
        tape.backward(loss)

        def f():
            return (nm.conv2d(nm.tensor(x.data), nm.tensor(k.data)).data * w).sum()

        assert rel(x.grad, numeric_grad(f, x.data)) < 1e-7
        assert rel(k.grad, numeric_grad(f, k.data)) < 1e-7


def _conv_shapes(rng, count, couts):
    """Seeded (x shape, cout): row and column strips first, then random shapes."""
    shapes = [((1, 1, 1, 3), 8), ((2, 1, 37, 8), 32), ((3, 29, 1, 32), 8), ((1, 40, 40, 32), 32)]
    for _ in range(count):
        n, h, w = (int(e) for e in rng.integers(1, [9, 41, 41]))
        shapes.append(((n, h, w, int(rng.choice([3, 8, 32]))), int(rng.choice(couts))))
    return shapes


def _conv_pair(shape, cout, rng):
    """(fused, oracle): conv2d(x, k, b) and add(per-offset conv, b), outputs
    and the x, k, b gradients under one random readout."""
    arrays = [rng.normal(size=shape), rng.normal(size=(3, 3, shape[-1], cout)) / 8.0,
              rng.normal(size=cout)]
    seed = int(rng.integers(1 << 30))
    fused = _readout_grads(nm.conv2d, arrays, seed)
    oracle = _readout_grads(lambda x, k, b: nm.add(conv2d_per_offset(x, k), b), arrays, seed)
    return fused, oracle


class TestConv2dShiftedGemm:
    """The copy-free conv against the per-offset-copy conv it replaced."""

    # 40 rows per band puts band boundaries into most of these shapes; the
    # default gives them one band
    @pytest.mark.parametrize("band_rows", [40, None])
    def test_bit_identical_to_per_offset_oracle(self, monkeypatch, band_rows):
        if band_rows is not None:
            monkeypatch.setattr(tensor_module, "CONV_BAND_ROWS", band_rows)
        rng = np.random.default_rng(601)
        for shape, cout in _conv_shapes(rng, 24, [8, 32]):
            (out, grads), (out_o, grads_o) = _conv_pair(shape, cout, rng)
            assert out.flags.c_contiguous
            assert out.tobytes() == out_o.tobytes(), (shape, cout)
            for name, g, g_o in zip(("x", "kernel", "bias"), grads, grads_o):
                assert g.tobytes() == g_o.tobytes(), (shape, cout, name)

    def test_unkept_bits_within_1e_13(self):
        # Cout not a multiple of 8 (OpenBLAS's small-matrix kernel rounds an N
        # tail differently from its regular kernel), and batched 1x1 images
        # (a gemv per image in place of one gemm)
        rng = np.random.default_rng(602)
        cases = _conv_shapes(rng, 8, [60]) + [((2, 1, 1, 32), 32), ((5, 1, 1, 3), 8)]
        for shape, cout in cases:
            (out, grads), (out_o, grads_o) = _conv_pair(shape, cout, rng)
            assert np.max(np.abs(out - out_o)) <= 1e-13, shape
            for g, g_o in zip(grads, grads_o):
                assert np.max(np.abs(g - g_o)) <= 1e-13, shape

    def test_unbatched_input_with_bias(self):
        rng = np.random.default_rng(603)
        (out, grads), (out_o, grads_o) = _conv_pair((5, 7, 8), 8, rng)
        assert out.shape == (5, 7, 8) and grads[0].shape == (5, 7, 8)
        assert out.tobytes() == out_o.tobytes()
        for g, g_o in zip(grads, grads_o):
            assert g.tobytes() == g_o.tobytes()

    def test_bias_is_one_tape_record(self):
        x = nm.Tensor(np.ones((4, 4, 3)), requires_grad=True)
        with nm.GradTape() as tape:
            nm.conv2d(x, np.ones((3, 3, 3, 8)), np.ones(8))
        assert len(tape) == 1

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            nm.conv2d(np.ones((4, 4, 3)), np.ones((3, 3, 3, 8)), np.ones(7))

    def test_forward_pads_and_copies_no_slices(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("conv2d forward made a padded or per-offset copy")

        rng = np.random.default_rng(604)
        x, k, b = rng.normal(size=(2, 9, 11, 8)), rng.normal(size=(3, 3, 8, 8)), rng.normal(size=8)
        expected = nm.add(conv2d_per_offset(x, k), b).data
        monkeypatch.setattr(np, "pad", refuse)
        monkeypatch.setattr(np, "ascontiguousarray", refuse)
        assert np.array_equal(nm.conv2d(x, k, b).data, expected)


class TestBackward:
    def test_square(self):
        x = nm.Tensor(3.0, requires_grad=True)
        with nm.GradTape() as tape:
            loss = nm.mul(x, x)
        tape.backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_linear_case(self):
        rng = np.random.default_rng(6)
        w = nm.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = rng.normal(size=(3, 1))
        with nm.GradTape() as tape:
            loss = nm.tsum(nm.matmul(w, nm.tensor(v)))
        tape.backward(loss)
        np.testing.assert_allclose(w.grad, np.ones((4, 1)) @ v.T, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = nm.Tensor(np.ones(3), requires_grad=True)
        with nm.GradTape() as tape:
            y = nm.mul(x, x)
        with pytest.raises(UsageError):
            tape.backward(y)

    def test_reused_operand_accumulates(self):
        x = nm.Tensor(2.0, requires_grad=True)
        with nm.GradTape() as tape:
            loss = nm.add(nm.mul(x, x), nm.mul(3.0, x))  # x^2 + 3x -> 2x + 3 = 7
        tape.backward(loss)
        assert x.grad == pytest.approx(7.0)

    def test_no_tape_records_nothing(self):
        x = nm.Tensor(2.0, requires_grad=True)
        with nm.GradTape() as tape:
            nm.mul(x, x)
        y = nm.mul(x, x)  # no tape active
        assert len(tape) == 1 and not y.requires_grad

    def test_only_leaves_keep_grad(self):
        x = nm.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with nm.GradTape() as tape:
            y = nm.mul(x, x)
            loss = nm.tsum(y)
        tape.backward(loss)
        assert y.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        assert len(tape) == 2  # the records are released, not removed

    def test_second_backward_rejected(self):
        x = nm.Tensor(3.0, requires_grad=True)
        with nm.GradTape() as tape:
            loss = nm.mul(x, x)
        tape.backward(loss)
        with pytest.raises(UsageError, match="already ran"):
            tape.backward(loss)
        assert x.grad == pytest.approx(6.0)


PRIMITIVE_CASES = [
    ("add", lambda a, b: nm.add(a, b), 2),
    ("sub", lambda a, b: nm.sub(a, b), 2),
    ("mul", lambda a, b: nm.mul(a, b), 2),
    ("div", lambda a, b: nm.div(a, nm.add(nm.absolute(b), 0.5)), 2),
    ("exp", lambda a: nm.exp(a), 1),
    ("cos", lambda a: cos(a), 1),
    ("sin", lambda a: sin(a), 1),
    ("cos_sin", lambda a: cos_sin(a), 1),
    ("relu_shifted", lambda a: nm.relu(nm.add(a, 0.2)), 1),
    ("neg", lambda a: nm.neg(a), 1),
    ("reshape", lambda a: nm.reshape(a, (a.size,)), 1),
    ("sum_axis0", lambda a: nm.tsum(a, axis=0), 1),
    ("mean_all", lambda a: nm.tmean(a), 1),
]


@pytest.mark.parametrize("name,op,arity", [c for c in PRIMITIVE_CASES])
def test_primitive_gradcheck_20_random_shapes(name, op, arity):
    """Each taped primitive vs central differences on 20 random shapes."""
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    for _ in range(20):
        shape = tuple(int(e) for e in rng.integers(1, 5, size=int(rng.integers(1, 4))))
        datas = [rng.normal(size=shape) for _ in range(arity)]
        args = [nm.Tensor(d.copy(), requires_grad=True) for d in datas]
        with nm.GradTape() as tape:
            out = op(*args)
            readout = rng.normal(size=out.shape)
            loss = nm.tsum(nm.mul(out, nm.tensor(readout)))
        tape.backward(loss)
        for i, a in enumerate(args):
            def f(idx=i):
                fresh = [nm.tensor(args[j].data if j == idx else datas[j]) for j in range(arity)]
                return float(nm.tsum(nm.mul(op(*fresh), nm.tensor(readout))).data)

            fd = numeric_grad(f, a.data)
            assert rel(a.grad, fd) < 1e-4, f"{name} arg{i} shape {shape}"


def _readout_grads(build, arrays, seed):
    """(output, grads of every array) for a random linear readout of build(*tensors)."""
    tensors = [nm.Tensor(a.copy(), requires_grad=True) for a in arrays]
    with nm.GradTape() as tape:
        out = build(*tensors)
        readout = np.random.default_rng(seed).normal(size=out.shape)
        loss = nm.tsum(nm.mul(out, nm.tensor(readout)))
    tape.backward(loss)
    return out.data, [t.grad for t in tensors]


def _affine_chain(x, w, b, relu):
    out = nm.add(nm.matmul(x, w), b)
    return nm.relu(out) if relu else out


class TestFusedOps:
    @pytest.mark.parametrize("relu", [False, True])
    def test_affine_gradcheck_random_shapes(self, relu):
        rng = np.random.default_rng(91 + relu)
        for _ in range(10):
            m, k, n = (int(e) for e in rng.integers(1, 6, size=3))
            arrays = [rng.normal(size=(m, k)), rng.normal(size=(k, n)), rng.normal(size=n)]
            readout = rng.normal(size=(m, n))
            tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
            with nm.GradTape() as tape:
                loss = nm.tsum(nm.mul(nm.affine(*tensors, relu=relu), nm.tensor(readout)))
            tape.backward(loss)

            def f():
                return float((nm.affine(*arrays, relu=relu).data * readout).sum())

            for t in tensors:
                assert rel(t.grad, numeric_grad(f, t.data)) < 1e-4, (relu, m, k, n)

    @pytest.mark.parametrize("relu", [False, True])
    def test_affine_bit_identical_to_op_chain(self, relu):
        rng = np.random.default_rng(93)
        arrays = [rng.normal(size=(67, 40)), rng.normal(size=(40, 29)), rng.normal(size=29)]
        fused, fused_grads = _readout_grads(
            lambda x, w, b: nm.affine(x, w, b, relu=relu), arrays, seed=94
        )
        chain, chain_grads = _readout_grads(
            lambda x, w, b: _affine_chain(x, w, b, relu), arrays, seed=94
        )
        assert fused.tobytes() == chain.tobytes()
        for g_fused, g_chain in zip(fused_grads, chain_grads):
            assert g_fused.tobytes() == g_chain.tobytes()

    def test_cos_sin_bit_identical_to_op_chain(self):
        theta = np.random.default_rng(95).normal(size=(33, 4, 16)) * 5.0
        fused, (g_fused,) = _readout_grads(cos_sin, [theta], seed=96)
        chain, (g_chain,) = _readout_grads(
            lambda t: concat([cos(t), sin(t)], axis=-1), [theta], seed=96
        )
        assert fused.tobytes() == chain.tobytes()
        assert g_fused.tobytes() == g_chain.tobytes()

    def test_affine_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nm.affine(np.ones((2, 3)), np.ones((2, 3)), np.ones(3))


def _ensemble_case(case, rng):
    """(arrays [amap_flat, fmap_flat, phases], ensemble_features args after
    them) for one query layout of the four-neighbour ensemble."""
    h, w, k, q = 5, 7, 3, 40
    # a third of the queries outside the lattice, so clamped borders duplicate rows
    x_q = rng.uniform(-1.3, 1.3, size=(q, 2))
    indices, coords, weights = implicit.neighborhood_geometry(h, w, x_q)
    lattices = 1
    if case == "stacked":
        lattices = 3
        indices[:, :, 0] += h * rng.integers(lattices, size=q)[:, None]
    if case == "local":  # the --ensemble local pass of neighbour 2
        indices = np.repeat(indices[:, 2:3], 4, axis=1)
        coords = np.repeat(coords[:, 2:3], 4, axis=1)
    arrays = [rng.normal(size=(lattices * h * w, 2 * k)), rng.normal(size=(lattices * h * w, 2 * k)),
              rng.normal(size=(q, k))]
    return arrays, (x_q, indices, coords, weights, w)


class TestFourierGather:
    @pytest.mark.parametrize("weighting", ["full", "none"])
    @pytest.mark.parametrize("case", ["clamped", "stacked", "local"])
    def test_bit_identical_to_op_chain(self, case, weighting):
        rng = np.random.default_rng(98)
        arrays, args = _ensemble_case(case, rng)
        if case == "clamped":
            rows = args[1][:, :, 0] * args[4] + args[1][:, :, 1]
            assert any(len(set(r)) < 4 for r in rows)  # duplicates are exercised
        fused, fused_grads = _readout_grads(
            lambda a, f, p: implicit.ensemble_features(a, f, p, *args, weighting), arrays, seed=99
        )
        chain, chain_grads = _readout_grads(
            lambda a, f, p: ensemble_features_chain(a, f, p, *args, weighting), arrays, seed=99
        )
        np.testing.assert_array_equal(fused.view(np.int64), chain.view(np.int64))
        for g_fused, g_chain in zip(fused_grads, chain_grads):
            np.testing.assert_array_equal(g_fused.view(np.int64), g_chain.view(np.int64))

    def test_untaped_output_matches_taped(self):
        rng = np.random.default_rng(100)
        arrays, args = _ensemble_case("clamped", rng)
        taped, _ = _readout_grads(
            lambda a, f, p: implicit.ensemble_features(a, f, p, *args), arrays, seed=101
        )
        plain = implicit.ensemble_features(*[nm.tensor(a) for a in arrays], *args)
        np.testing.assert_array_equal(plain.data.view(np.int64), taped.view(np.int64))

    @pytest.mark.parametrize("weighted", [True, False])
    def test_gradcheck(self, weighted):
        rng = np.random.default_rng(102 + weighted)
        idx = rng.integers(4, size=(3, 4))  # 3 queries over 4 rows, with repeats
        delta = rng.normal(size=(3, 4, 2)) * 0.5
        weights = rng.random((3, 4)) if weighted else None
        datas = [rng.normal(size=(4, 4)), rng.normal(size=(4, 4)), rng.normal(size=(3, 2))]
        readout = rng.normal(size=(3, 16))
        tensors = [nm.Tensor(d.copy(), requires_grad=True) for d in datas]
        with nm.GradTape() as tape:
            out = nm.fourier_gather(*tensors, idx, delta, weights)
            loss = nm.tsum(nm.mul(out, nm.tensor(readout)))
        tape.backward(loss)

        def f():
            return float((nm.fourier_gather(*datas, idx, delta, weights).data * readout).sum())

        for t, d in zip(tensors, datas):
            assert rel(t.grad, numeric_grad(f, d)) < 1e-7

    def test_one_tape_record_per_ensemble(self):
        rng = np.random.default_rng(104)
        arrays, args = _ensemble_case("stacked", rng)
        tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
        with nm.GradTape() as tape:
            implicit.ensemble_features(*tensors, *args)
        assert len(tape) == 1


class TestStructureOps:
    def test_concat_and_getitem_grads(self):
        rng = np.random.default_rng(7)
        a = nm.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = nm.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.normal(size=(3, 3))
        with nm.GradTape() as tape:
            cat = concat([a, b], axis=1)
            loss = nm.tsum(nm.mul(cat[:, 1:4], nm.tensor(w)))
        tape.backward(loss)

        def f():
            c = np.concatenate([a.data, b.data], axis=1)
            return (c[:, 1:4] * w).sum()

        assert rel(a.grad, numeric_grad(f, a.data)) < 1e-7
        assert rel(b.grad, numeric_grad(f, b.data)) < 1e-7

    def test_index_rows_scatter_adds_duplicates(self):
        x = nm.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        idx = np.array([0, 0, 2])
        with nm.GradTape() as tape:
            loss = nm.tsum(nm.index_rows(x, idx))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_broadcasting_unreduces_grad(self):
        a = nm.Tensor(np.ones((4, 1, 3)), requires_grad=True)
        b = nm.Tensor(np.ones((1, 5, 3)) * 2, requires_grad=True)
        with nm.GradTape() as tape:
            loss = nm.tsum(nm.mul(a, b))
        tape.backward(loss)
        assert a.grad.shape == (4, 1, 3) and np.all(a.grad == 10.0)
        assert b.grad.shape == (1, 5, 3) and np.all(b.grad == 4.0)

    def test_clamp_gradient_mask(self):
        x = nm.Tensor(np.array([-9.0, 0.5, 9.0]), requires_grad=True)
        with nm.GradTape() as tape:
            loss = nm.tsum(nm.clamp(x, -8.0, 8.0))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])



# inputs on a grid of quarters, so every distance below is exact
_KINK_INPUT = np.array([[-1.5, 0.75, 2.25], [3.5, -0.25, 1.0]])


class TestProbe:
    def test_counts_do_not_leak_between_blocks(self):
        with nm.probe() as first:
            nm.count("conditioner", 5)
            nm.count("conditioner", 2)
        nm.count("conditioner", 100)  # no probe open: reported to no one
        with nm.probe() as second:
            nm.count("flow_inverse", 3)
        assert first.passes == {"conditioner": 7}
        assert second.passes == {"flow_inverse": 3}
        assert second.kink_margin == np.inf

    def test_nested_probes_both_see_inner_work(self):
        with nm.probe() as outer:
            nm.count("conditioner", 1)
            nm.relu(np.array([2.0, -3.0]))
            with nm.probe() as inner:
                nm.count("conditioner", 4)
                nm.absolute(np.array([0.5, -1.0]))
            nm.count("flow_forward", 2)
        assert inner.passes == {"conditioner": 4}
        assert inner.kink_margin == 0.5
        assert outer.passes == {"conditioner": 5, "flow_forward": 2}
        assert outer.kink_margin == 0.5

    @pytest.mark.parametrize("op,want", [
        (nm.relu, 0.25),
        (nm.absolute, 0.25),
        (lambda a: nm.clamp(a, -1.0, 3.0), 0.5),  # 3.5 is 0.5 above hi, -1.5 0.5 below lo
        (lambda a: nm.clamp(a, -2.0, 2.0), 0.25),  # 2.25 is 0.25 above hi
    ], ids=["relu", "absolute", "clamp-outside", "clamp-inside"])
    def test_kink_margin_is_the_hand_computed_minimum(self, op, want):
        with nm.probe() as p:
            op(_KINK_INPUT)
        assert p.kink_margin == want
        assert p.passes == {}

    def test_affine_relu_margin_reads_the_preactivation(self):
        # x @ w + b = [[-0.75, 0.5], [1.25, -1.5]]; the output after relu
        # holds exact zeros, so a margin read after the write would be 0
        x, w, b = np.eye(2), np.array([[-1.0, 0.0], [1.0, -2.0]]), np.array([0.25, 0.5])
        with nm.probe() as p:
            out = nm.affine(x, w, b, relu=True)
        assert p.kink_margin == 0.5
        assert out.data.min() == 0.0
        with nm.probe() as p:
            nm.affine(x, w, b)  # no relu, no kink
        assert p.kink_margin == np.inf

    def test_empty_input_reports_no_margin(self):
        with nm.probe() as p:
            nm.relu(np.zeros((0, 3)))
            nm.clamp(np.zeros(0), -1.0, 1.0)
        assert p.kink_margin == np.inf

    def test_probes_are_per_thread(self):
        with nm.probe() as p:
            worker = threading.Thread(target=lambda: (nm.count("conditioner", 9),
                                                      nm.relu(np.array([0.0]))))
            worker.start()
            worker.join()
        assert p.passes == {} and p.kink_margin == np.inf
