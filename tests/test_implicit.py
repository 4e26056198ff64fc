"""Conditioner mechanism against scalar-transcription and closed-form oracles."""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from linf import numerics as nm
from linf import implicit
from linf.config import load_config
from linf.implicit import ALPHA_CLAMP, conditioner, neighborhood_geometry, phase_vector
from linf.model import Model

from .helpers import micro_model
from linf.corpus import toy_corpus
from linf.training import TrainConfig, loss_components, make_batch
from .oracles import (
    FourierBank,
    QueryPoint,
    conditioner_head_summed,
    ensemble_weights,
    estimate_bank,
    fourier_feature_ensemble,
    fourier_features,
    nearest_feature,
    pixel_centers,
)
from .test_tensor import numeric_grad, rel

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def scalar_fourier_oracle(amps, freqs, phases, delta):
    """Direct per-component transcription of the feature formula."""
    k = len(phases)
    out = np.zeros(2 * k)
    for i in range(k):
        theta = np.pi * (freqs[i, 0] * delta[0] + freqs[i, 1] * delta[1]) + phases[i]
        out[i] = amps[i] * np.cos(theta)
        out[k + i] = amps[k + i] * np.sin(theta)
    return out


def bilinear_weight_oracle(x_q, y0, x0, dy, dx):
    """Closed-form bilinear coefficients w.r.t. a cell anchored at (y0, x0)."""
    v = (x_q[0] - y0) / dy
    u = (x_q[1] - x0) / dx
    return np.array([(1 - v) * (1 - u), (1 - v) * u, v * (1 - u), v * u])


def feature_map_from(rng, h, w, c):
    return nm.tensor(rng.normal(size=(h, w, c)))


class TestNearestFeature:
    def test_exact_center(self):
        rng = np.random.default_rng(40)
        fm = feature_map_from(rng, 4, 6, 3)
        y = pixel_centers(4)[2]
        x = pixel_centers(6)[1]
        v, coord = nearest_feature(fm, np.array([y, x]))
        np.testing.assert_array_equal(v.data, fm.data[2, 1])
        np.testing.assert_allclose(coord, [y, x])

    def test_corner_clamps_to_origin_pixel(self):
        rng = np.random.default_rng(41)
        fm = feature_map_from(rng, 3, 5, 2)
        v, coord = nearest_feature(fm, np.array([-1.0, -1.0]))
        np.testing.assert_array_equal(v.data, fm.data[0, 0])
        np.testing.assert_allclose(coord, [pixel_centers(3)[0], pixel_centers(5)[0]])

    def test_random_queries_vs_brute_force(self):
        rng = np.random.default_rng(42)
        fm = feature_map_from(rng, 7, 5, 2)
        ys = pixel_centers(7)
        xs = pixel_centers(5)
        for _ in range(100):
            q = rng.uniform(-1.05, 1.05, size=2)
            v, _ = nearest_feature(fm, q)
            # exhaustive distance scan; ties toward smaller index via argmin order
            d2 = (ys[:, None] - q[0]) ** 2 + (xs[None, :] - q[1]) ** 2
            r, c = np.unravel_index(np.argmin(d2), d2.shape)
            np.testing.assert_array_equal(v.data, fm.data[r, c])


class TestFourierFeatures:
    def test_zero_amplitudes(self):
        bank = FourierBank(
            nm.tensor(np.zeros(8)), nm.tensor(np.ones((4, 2))), nm.tensor(np.ones(4))
        )
        out = fourier_features(bank, np.array([0.3, -0.2]))
        assert np.all(out.data == 0.0)

    def test_unit_amp_zero_freq_phase(self):
        bank = FourierBank(
            nm.tensor(np.ones(8)), nm.tensor(np.zeros((4, 2))), nm.tensor(np.zeros(4))
        )
        out = fourier_features(bank, np.array([0.7, 0.1]))
        np.testing.assert_array_equal(out.data, [1, 1, 1, 1, 0, 0, 0, 0])

    def test_random_vs_scalar_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            amps = rng.normal(size=2 * k)
            freqs = rng.normal(size=(k, 2))
            phases = rng.normal(size=k)
            delta = rng.normal(size=2) * 0.5
            bank = FourierBank(nm.tensor(amps), nm.tensor(freqs), nm.tensor(phases))
            out = fourier_features(bank, delta)
            np.testing.assert_allclose(
                out.data, scalar_fourier_oracle(amps, freqs, phases, delta), atol=1e-12
            )

    def test_phase_2pi_periodicity(self):
        rng = np.random.default_rng(44)
        amps = rng.normal(size=6)
        freqs = rng.normal(size=(3, 2))
        phases = rng.normal(size=3)
        delta = rng.normal(size=2)
        a = fourier_features(FourierBank(nm.tensor(amps), nm.tensor(freqs), nm.tensor(phases)), delta)
        b = fourier_features(
            FourierBank(nm.tensor(amps), nm.tensor(freqs), nm.tensor(phases + 2 * np.pi)), delta
        )
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)


class TestEstimateBank:
    def test_zero_heads(self):
        model = micro_model(seed=1)
        p = model.params
        for key in ("implicit.amp.w", "implicit.amp.b", "implicit.freq.w", "implicit.freq.b"):
            p[key].assign_(np.zeros_like(p[key].data))
        fm = feature_map_from(np.random.default_rng(45), 4, 4, 8)
        bank = estimate_bank(fm, (1, 2), 0.5, model)
        assert np.all(bank.amplitudes.data == 0.0)
        assert np.all(bank.frequencies.data == 0.0)

    def test_zero_phase_mlp(self):
        model = micro_model(seed=2)
        p = model.params
        for key in ("implicit.phase.w1", "implicit.phase.b1",
                    "implicit.phase.w2", "implicit.phase.b2"):
            p[key].assign_(np.zeros_like(p[key].data))
        fm = feature_map_from(np.random.default_rng(46), 3, 3, 8)
        bank = estimate_bank(fm, (0, 0), 1.0, model)
        assert np.all(bank.phases.data == 0.0)

    def test_head_gradients_vs_fd(self):
        model = micro_model(seed=3)
        p = model.params
        rng = np.random.default_rng(47)
        fm_data = rng.normal(size=(4, 4, 8))
        delta = np.array([0.11, -0.07])
        readout = rng.normal(size=2 * model.cfg.frequencies)

        def compute():
            fm = nm.tensor(fm_data)
            bank = estimate_bank(fm, (2, 1), 0.8, model)
            feats = fourier_features(bank, delta)
            return nm.tsum(nm.mul(feats, nm.tensor(readout)))

        with nm.GradTape() as tape:
            loss = compute()
        tape.backward(loss)
        for key in ("implicit.amp.w", "implicit.freq.w", "implicit.phase.w2", "implicit.phase.w1"):
            analytic = p[key].grad
            fd = numeric_grad(lambda: float(compute().data), p[key].data)
            assert rel(analytic, fd) < 1e-4, key


class TestEnsembleWeights:
    def test_weight_one_at_neighbor_center(self):
        h, w = 5, 4
        q = np.array([pixel_centers(h)[2], pixel_centers(w)[1]])
        nb = ensemble_weights(q, h, w)
        np.testing.assert_allclose(nb.weights, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(nb.indices[0], [2, 1])

    def test_quarter_at_centroid(self):
        h, w = 4, 4
        ys, xs = pixel_centers(h), pixel_centers(w)
        q = np.array([(ys[1] + ys[2]) / 2, (xs[1] + xs[2]) / 2])
        nb = ensemble_weights(q, h, w)
        np.testing.assert_allclose(nb.weights, [0.25] * 4, atol=1e-14)

    def test_random_vs_closed_form(self):
        rng = np.random.default_rng(48)
        h, w = 6, 9
        dy, dx = 2.0 / h, 2.0 / w
        for _ in range(200):
            q = rng.uniform(-0.99, 0.99, size=2)
            nb = ensemble_weights(q, h, w)
            ys, xs = pixel_centers(h), pixel_centers(w)
            y0 = ys[0] + np.floor((q[0] - ys[0]) / dy) * dy
            x0 = xs[0] + np.floor((q[1] - xs[0]) / dx) * dx
            np.testing.assert_allclose(
                nb.weights, bilinear_weight_oracle(q, y0, x0, dy, dx), atol=1e-12
            )

    def test_partition_of_unity_10k_queries(self):
        rng = np.random.default_rng(49)
        h, w = 7, 3
        q = rng.uniform(-1.2, 1.2, size=(10_000, 2))  # includes border overshoot
        _, _, weights = neighborhood_geometry(h, w, q)
        assert np.all(weights >= 0.0) and np.all(weights <= 1.0 + 1e-15)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_crop_offsets_rows_by_whole_lattices(self):
        rng = np.random.default_rng(56)
        h, w = 4, 7
        q = rng.uniform(-1.2, 1.2, size=(30, 2))
        crop = rng.integers(5, size=30)
        rows, delta, weights = neighborhood_geometry(h, w, q)
        rows_c, delta_c, weights_c = neighborhood_geometry(h, w, q, crop)
        np.testing.assert_array_equal(rows_c, rows + h * w * crop[:, None])
        assert delta_c.tobytes() == delta.tobytes()
        assert weights_c.tobytes() == weights.tobytes()

    def test_border_duplicates_renormalized(self):
        nb = ensemble_weights(np.array([-1.0, -1.0]), 3, 3)
        # all four clamped entries collapse onto pixel (0,0); mass still sums to 1
        assert {tuple(ix) for ix in nb.indices} == {(0, 0)}
        assert nb.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestFourierFeatureEnsemble:
    def test_zero_banks_zero_kappa(self):
        model = micro_model(seed=4)
        p = model.params
        for key in ("implicit.amp.w", "implicit.amp.b"):
            p[key].assign_(np.zeros_like(p[key].data))
        fm = feature_map_from(np.random.default_rng(50), 4, 4, 8)
        kappa = fourier_feature_ensemble(fm, QueryPoint(np.array([0.1, 0.2]), 0.7), model)
        assert np.all(kappa.data == 0.0)
        assert kappa.shape == (8 * model.cfg.frequencies,)

    def test_neighbor_center_isolates_one_slot(self):
        model = micro_model(seed=5)
        rng = np.random.default_rng(51)
        fm = feature_map_from(rng, 5, 5, 8)
        q = np.array([pixel_centers(5)[2], pixel_centers(5)[3]])
        kappa = fourier_feature_ensemble(fm, QueryPoint(q, 0.5), model).data
        k = model.cfg.frequencies
        # which slot the center lands in depends on fp rounding of the cell
        # anchor; the contract is weight ~1 there and ~0 elsewhere
        nb = ensemble_weights(q, 5, 5)
        slot = int(np.argmax(nb.weights))
        assert nb.weights[slot] == pytest.approx(1.0, abs=1e-12)
        assert tuple(nb.indices[slot]) == (2, 3)
        bank = estimate_bank(fm, (2, 3), 0.5, model)
        expected = fourier_features(bank, nb.delta[slot]).data
        np.testing.assert_allclose(
            kappa[slot * 2 * k : (slot + 1) * 2 * k], expected, atol=1e-12
        )
        others = np.delete(kappa.reshape(4, 2 * k), slot, axis=0)
        np.testing.assert_allclose(others, 0.0, atol=1e-12)

    def test_kappa_vs_composed_oracles(self):
        model = micro_model(seed=6)
        rng = np.random.default_rng(52)
        fm = feature_map_from(rng, 6, 4, 8)
        k = model.cfg.frequencies
        for _ in range(10):
            q = rng.uniform(-0.9, 0.9, size=2)
            kappa = fourier_feature_ensemble(fm, QueryPoint(q, 0.6), model).data
            nb = ensemble_weights(q, 6, 4)
            for slot in range(4):
                bank = estimate_bank(fm, tuple(nb.indices[slot]), 0.6, model)
                feats = scalar_fourier_oracle(
                    bank.amplitudes.data,
                    bank.frequencies.data,
                    bank.phases.data,
                    nb.delta[slot],
                )
                np.testing.assert_allclose(
                    kappa[slot * 2 * k : (slot + 1) * 2 * k],
                    nb.weights[slot] * feats,
                    atol=1e-12,
                )

    def test_weighting_none_skips_amplitude_scaling(self):
        model = micro_model(seed=7, ensemble_weighting="none")
        rng = np.random.default_rng(53)
        fm = feature_map_from(rng, 5, 5, 8)
        q = rng.uniform(-0.5, 0.5, size=2)
        kappa = fourier_feature_ensemble(fm, QueryPoint(q, 0.5), model).data
        k = model.cfg.frequencies
        nb = ensemble_weights(q, 5, 5)
        for slot in range(4):
            bank = estimate_bank(fm, tuple(nb.indices[slot]), 0.5, model)
            feats = scalar_fourier_oracle(
                bank.amplitudes.data, bank.frequencies.data, bank.phases.data,
                nb.delta[slot],
            )
            np.testing.assert_allclose(
                kappa[slot * 2 * k : (slot + 1) * 2 * k], feats, atol=1e-12
            )

    def test_fixed_neighbor_order_no_canonicalization(self):
        """Permuting neighbor slots (with matched weights) changes kappa."""
        model = micro_model(seed=8)
        rng = np.random.default_rng(54)
        fm = feature_map_from(rng, 5, 5, 8)
        q = rng.uniform(-0.4, 0.4, size=2)
        amap, fmap = implicit.bank_maps(fm, model)
        amap_f = amap.reshape(25, 2 * model.cfg.frequencies)
        fmap_f = fmap.reshape(25, 2 * model.cfg.frequencies)
        rows, delta, w = neighborhood_geometry(5, 5, np.atleast_2d(q))
        phases = phase_vector(0.5, model)
        kappa = implicit.ensemble_features(amap_f, fmap_f, phases, rows, delta, w).data
        perm = [1, 0, 3, 2]
        kappa_perm = implicit.ensemble_features(
            amap_f, fmap_f, phases, rows[:, perm], delta[:, perm], w[:, perm],
        ).data
        assert not np.allclose(kappa, kappa_perm)


class TestCondition:
    def test_stacked_lattices_match_single_lattice_calls(self):
        """B lattices stacked along H, each query offset to its own crop's
        rows, condition like B separate single-lattice calls."""
        model = micro_model(seed=12)
        p = model.params
        rng = np.random.default_rng(57)
        p["implicit.head.w"].assign_(rng.normal(size=p["implicit.head.w"].shape) * 0.05)
        h, w = 5, 6
        amap, fmap = implicit.bank_maps(nm.tensor(rng.normal(size=(3, h, w, 8))), model)
        crop = np.repeat(np.arange(3), [7, 4, 9])
        x_q = rng.uniform(-1.0, 1.0, size=(crop.size, 2))
        phases = implicit.phase_vector(rng.uniform(0.2, 2.0, size=crop.size), model)
        stacked = implicit.condition(model, amap, fmap, x_q, phases, crop)
        for b in range(3):
            rows = crop == b
            single = implicit.condition(
                model, nm.tensor(amap.data[b]), nm.tensor(fmap.data[b]), x_q[rows],
                nm.tensor(phases.data[rows]),
            )
            for part in ("logdet", "alpha", "phi"):
                for got, want in zip(getattr(stacked, part), getattr(single, part)):
                    np.testing.assert_allclose(got.data[rows], want.data, rtol=0, atol=1e-12)


def _neighbourhood(rng, model, q):
    """conditioner's arguments for q random queries on a random 4x5 table."""
    rows, delta, weights = neighborhood_geometry(4, 5, rng.uniform(-1, 1, size=(q, 2)))
    amap, fmap = (nm.tensor(rng.normal(size=(20, 2 * model.cfg.frequencies))) for _ in range(2))
    return rows, delta, weights, amap, fmap, phase_vector(rng.uniform(0.2, 2.0, size=q), model), model


class TestConditioner:
    def test_zero_head_identity_injector(self):
        model = micro_model(seed=9)
        rng = np.random.default_rng(55)
        cond = conditioner(*_neighbourhood(rng, model, 5))
        for k in range(model.cfg.flow_layers):
            np.testing.assert_array_equal(cond.alpha[k].data, 1.0)
            np.testing.assert_array_equal(cond.phi[k].data, 0.0)

    def test_clamp_bounds(self):
        model = micro_model(seed=10)
        p = model.params
        # push the first alpha_pre slot to a raw 20 via the head bias; the
        # other two of D = 3 stay at 0, so the layer's log-det is the bound
        bias = np.zeros_like(p["implicit.head.b"].data)
        bias[0] = 20.0
        p["implicit.head.b"].assign_(bias)
        cond = conditioner(*_neighbourhood(np.random.default_rng(0), model, 1))
        assert cond.logdet[0].data[0] == ALPHA_CLAMP
        assert cond.alpha[0].data[0, 0] == pytest.approx(np.exp(8.0))

    def test_trunk_gradients_vs_fd(self):
        model = micro_model(seed=11)
        p = model.params
        # non-zero head so gradients reach the trunk
        rng = np.random.default_rng(56)
        p["implicit.head.w"].assign_(rng.normal(size=p["implicit.head.w"].shape) * 0.05)
        args = _neighbourhood(rng, model, 3)
        readouts = [rng.normal(size=(3, model.cfg.patch_dim)) for _ in range(model.cfg.flow_layers)]

        def compute():
            cond = conditioner(*args)
            total = nm.tensor(0.0)
            for k in range(model.cfg.flow_layers):
                total = nm.add(total, nm.tsum(nm.mul(cond.alpha[k], nm.tensor(readouts[k]))))
                total = nm.add(total, nm.tsum(nm.mul(cond.phi[k], nm.tensor(readouts[k]))))
            return total

        with nm.GradTape() as tape:
            loss = compute()
        tape.backward(loss)
        for key in ("implicit.trunk.w1", "implicit.trunk.w2", "implicit.head.w"):
            fd = numeric_grad(lambda: float(compute().data), p[key].data)
            assert rel(p[key].grad, fd) < 1e-4, key


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


class TestConditionerHead:
    """numerics.conditioner_head against the per-layer chain it replaced
    with a tsum of each clipped block, bit for bit: outputs, gradients,
    signs of zero and the kink margin."""

    LAYERS, Q = 4, 37

    def _head(self, dim):
        rng = np.random.default_rng(71)
        head = 6.0 * rng.standard_normal((self.Q, 2 * dim * self.LAYERS))
        head[:5, :] = 20.0 * np.sign(head[:5, :])  # clamp-saturated rows
        head[5, :3] = [ALPHA_CLAMP, -ALPHA_CLAMP, 0.0]  # on the kinks
        head[5, dim : dim + 3] = [1.0, -0.0, 2.0]
        head[6].reshape(self.LAYERS, 2, dim)[:, 0] = -0.0  # every pre block -0.0
        return head

    def _run(self, split, head, dim, used):
        """(outputs, head gradient, tape records, kink margin) of a readout
        loss over the outputs named in `used`; -0.0 sits in every readout."""
        rng = np.random.default_rng(72)
        h = nm.tensor(head, requires_grad=True)
        with nm.probe(margins=True) as p, nm.GradTape() as tape:
            parts = split(h, self.LAYERS, dim, ALPHA_CLAMP)
            records = len(tape)
            total = nm.tensor(0.0)
            for part, outs in zip(("logdet", "alpha", "phi"), parts):
                for k, t in enumerate(outs):
                    if (part, k) in used or part in used:
                        r = rng.standard_normal(t.shape)
                        r[::3] = -0.0
                        if r.ndim == 2:
                            r[1::3, 0] = 0.0
                        total = nm.add(total, nm.tsum(nm.mul(t, nm.tensor(r))))
        tape.backward(total)
        return [t.data for outs in parts for t in outs], h.grad, records, p.kink_margin

    @pytest.mark.parametrize("used", [
        {"logdet", "alpha", "phi"},  # as the flow's forward uses them
        {"alpha", "phi"},  # as its inverse does
        {"logdet"},  # the pre blocks' row sums
        {("phi", 2)},  # a single contribution keeps -0.0
        {("logdet", 0)},  # ... and the clamp mask's -0.0
    ], ids=["all", "alpha-phi", "pre", "one-phi", "one-pre"])
    def test_bit_identical_to_chain(self, used):
        for dim in (3, 27):
            head = self._head(dim)
            fused = self._run(nm.conditioner_head, head, dim, used)
            chain = self._run(conditioner_head_summed, head, dim, used)
            assert len(fused[0]) == len(chain[0]) == 3 * self.LAYERS
            for got, want in zip(fused[0], chain[0]):
                np.testing.assert_array_equal(_bits(got), _bits(want))
            np.testing.assert_array_equal(_bits(fused[1]), _bits(chain[1]))
            assert (fused[2], chain[2]) == (1, 5 * self.LAYERS)
            assert fused[3] == chain[3] == 0.0  # two entries sit on a kink
            # the sums cover a row of -0.0 (whose sign tsum decides, compared
            # above) and the saturated rows' multiples of the bound
            for k in range(self.LAYERS):
                assert fused[0][k][6] == 0.0
                assert np.all(fused[0][k][:5] % ALPHA_CLAMP == 0.0)
            # the cases reach both signs of zero and the saturated mask
            assert np.any(_bits(chain[1]) == _bits(np.float64(0.0)))
            if len(used) == 1 and isinstance(next(iter(used)), tuple):
                assert np.any(_bits(chain[1]) == _bits(np.float64(-0.0)))
            else:
                assert not np.any(_bits(chain[1]) == _bits(np.float64(-0.0)))

    def test_outputs_are_views_without_a_tape(self):
        head = nm.tensor(self._head(3))
        logdet, alpha, phi = nm.conditioner_head(head, self.LAYERS, 3, ALPHA_CLAMP)
        assert all(np.shares_memory(t.data, head.data) for t in phi)
        assert all(t.data.flags.c_contiguous for t in logdet + alpha)
        assert [t.shape for t in logdet] == [(self.Q,)] * self.LAYERS
        # one buffer for all layers' alphas, one for their sums, nothing else
        assert len({id(t.data.base) for t in alpha}) == 1
        assert len({id(t.data.base) for t in logdet}) == 1

    @pytest.mark.parametrize("dim", [3, 27])
    def test_lazy_head_bit_identical(self, monkeypatch, dim):
        """lazy_conditioner_head gives conditioner_head's bits, signs of zero
        and kink margin; it reads the margin once, over all pre blocks, and
        makes a layer's alpha or log-det only when it is read."""
        head = self._head(dim)
        with nm.probe(margins=True) as eager_probe:
            eager = nm.conditioner_head(nm.tensor(head), self.LAYERS, dim, ALPHA_CLAMP)
        tensor_module = importlib.import_module("linf.numerics.tensor")
        margins = []
        original = tensor_module._kink_margin

        def counting(x, *kinks):
            margins.append(x.shape)
            original(x, *kinks)

        monkeypatch.setattr(tensor_module, "_kink_margin", counting)
        with nm.probe(margins=True) as lazy_probe:
            lazy = nm.lazy_conditioner_head(head, self.LAYERS, dim, ALPHA_CLAMP)
        assert margins == [(self.Q, self.LAYERS, dim)]
        assert lazy_probe.kink_margin == eager_probe.kink_margin == 0.0
        assert all(np.shares_memory(t.data, head) for t in lazy[2])
        for got, want in zip(lazy, eager):
            assert len(got) == len(want) == self.LAYERS
            for k in range(self.LAYERS):
                np.testing.assert_array_equal(_bits(got[k].data), _bits(want[k].data))
        assert lazy[1][0].data is not lazy[1][0].data  # computed again at each read
        assert not np.shares_memory(lazy[1][1].data, head)
        with pytest.raises(IndexError):
            lazy[1][self.LAYERS]
        assert margins == [(self.Q, self.LAYERS, dim)]
        # without a margin probe no margin is computed
        with nm.probe() as plain:
            nm.lazy_conditioner_head(head, self.LAYERS, dim, ALPHA_CLAMP)
        assert plain.kink_margin == np.inf

    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("patch_side", [1, 3])
    def test_loss_gradients_bit_identical_to_chain(self, monkeypatch, stage, patch_side):
        cfg = TrainConfig(lr_crop=6, batch=2, pairs_per_image=12, stage=stage, seed=0)
        corpus = toy_corpus(2, 32, seed=5)

        def run():
            model = micro_model(seed=12, patch_side=patch_side)
            rng = np.random.default_rng(73)
            for t in model.parameters().values():
                t.assign_(t.data + 0.05 * rng.standard_normal(t.shape))
            bias = model.parameters()["implicit.head.b"]
            b = bias.data.copy()
            b[:2] = [9.0, -9.0]  # two alpha_pre columns clamp-saturated
            bias.assign_(b)
            batch = make_batch(corpus, cfg, np.random.default_rng(74), patch_side=patch_side)
            with nm.probe(margins=True) as p, nm.GradTape() as tape:
                total, _, _ = loss_components(batch, model, cfg)
            tape.backward(total)
            grads = {k: t.grad for k, t in model.parameters().items()}
            return total.data, grads, p.kink_margin, len(tape)

        fused = run()
        monkeypatch.setattr(nm, "conditioner_head", conditioner_head_summed)
        chain = run()
        np.testing.assert_array_equal(_bits(fused[0]), _bits(chain[0]))
        assert fused[1].keys() == chain[1].keys()
        for name in fused[1]:
            np.testing.assert_array_equal(_bits(fused[1][name]), _bits(chain[1][name]),
                                          err_msg=name)
        assert fused[2] == chain[2]
        assert chain[3] - fused[3] == 5 * 3 - 1  # micro model: 3 flow layers


class TestBandedTrunk:
    """Without a tape `conditioner` gathers the features and runs the
    trunk in row bands, and reads each layer's alpha and log-det off the
    head output when asked; under a tape it runs the trunk over one whole
    gather. Both give the same bits, kink margin and pass counts,
    for whole, partial and single bands."""

    @staticmethod
    def _model(name):
        if name == "micro":
            model = micro_model(seed=13)
        else:
            cfg, _, _ = load_config(str(CONFIG_DIR / f"{name}.cfg"))
            model = Model.create(cfg, seed=0)
        rng = np.random.default_rng(75)
        for key, t in model.params.items():
            if key.startswith("implicit."):
                t.assign_(0.2 * rng.standard_normal(t.shape))
        return model

    @pytest.mark.parametrize("name", ["desk", "patch3", "micro"])
    def test_banded_equals_taped(self, name):
        """Both ensembles' neighbourhoods (the Fourier one, and the local
        loop's one neighbour in every slot), both weightings; desk and
        micro have patch side 1, patch3 side 3."""
        model = self._model(name)
        rng = np.random.default_rng(76)
        k2 = 2 * model.cfg.frequencies
        amap, fmap = (nm.tensor(rng.standard_normal((7 * 9, k2))) for _ in range(2))
        # 4096 and 1168 span several bands, 1168 ends in a partial one, 513
        # ends one row past a band and 97 and 1 fit in one
        assert 97 < implicit.TRUNK_BAND_ROWS <= 1168 // 2
        for q in (4096, 1168, 513, 97, 1):
            rows, delta, weights = neighborhood_geometry(7, 9, rng.uniform(-1, 1, size=(q, 2)))
            phases = phase_vector(rng.uniform(0.2, 2.0, size=q), model)
            local = (np.repeat(rows[:, 2:3], 4, axis=1), np.repeat(delta[:, 2:3], 4, axis=1))
            for weighting in (implicit.WEIGHTING_FULL, implicit.WEIGHTING_NONE):
                model.cfg.ensemble_weighting = weighting
                for ensemble, (r, dl) in (("fourier", (rows, delta)), ("local", local)):
                    args = (r, dl, weights, amap, fmap, phases, model)
                    with nm.probe(margins=True) as banded_probe:
                        banded = implicit.conditioner(*args)
                    with nm.probe(margins=True) as taped_probe, nm.GradTape() as tape:
                        taped = implicit.conditioner(*args)
                    assert len(tape) == 4  # three affine records and the head op
                    where = f"{name} Q={q} {weighting} {ensemble}"
                    for part in ("alpha", "phi", "logdet"):
                        got, want = getattr(banded, part), getattr(taped, part)
                        assert len(got) == len(want) == model.cfg.flow_layers
                        for k in range(model.cfg.flow_layers):
                            np.testing.assert_array_equal(
                                _bits(got[k].data), _bits(want[k].data), err_msg=f"{where} {part}")
                    assert banded_probe.kink_margin == taped_probe.kink_margin < np.inf
                    assert banded_probe.passes == taped_probe.passes == {"conditioner": q}

    def test_no_whole_features_without_a_tape(self, monkeypatch):
        """The untaped gather never sees more than TRUNK_BAND_ROWS rows."""
        model = self._model("micro")
        rng = np.random.default_rng(77)
        amap, fmap = (nm.tensor(rng.standard_normal((20, 8))) for _ in range(2))
        q = 3 * implicit.TRUNK_BAND_ROWS + 1
        rows, delta, weights = neighborhood_geometry(4, 5, rng.uniform(-1, 1, size=(q, 2)))
        gathered = []
        original = implicit.ensemble_features

        def recording(*args):
            gathered.append(args[3].shape[0])
            return original(*args)

        monkeypatch.setattr(implicit, "ensemble_features", recording)
        cond = implicit.conditioner(rows, delta, weights, amap, fmap,
                                    phase_vector(np.ones(q), model), model)
        b = implicit.TRUNK_BAND_ROWS
        assert gathered == [b, b, b + 1]  # a last band of one row joins the one before
        assert cond.phi[0].shape == (q, model.cfg.patch_dim)

    @pytest.mark.parametrize("stage, records", [(1, 106), (2, 152)])
    def test_desk_step_tape_records(self, stage, records):
        model_cfg, train_cfg, _ = load_config(str(CONFIG_DIR / "desk.cfg"))
        cfg = dataclasses.replace(train_cfg, stage=stage)
        batch = make_batch(toy_corpus(2, 96, seed=2), cfg, np.random.default_rng(3))
        with nm.GradTape() as tape:
            loss_components(batch, Model.create(model_cfg, seed=0), cfg)
        assert len(tape) == records
