"""Flow bijectivity, exact log-det, Gaussian equivalence, and sampling laws."""

import numpy as np
import pytest

from linf import numerics as nm
from linf.errors import UsageError
from linf.flow import LOG_2PI, FlowModel, latents
from linf.numerics import finite_diff_jacobian, lu_factor
from linf.verify import random_cond

from .helpers import identity_cond


def identity_flow(patch_side=1, layers=3):
    return FlowModel.create(patch_side, layers, rng=np.random.default_rng(0), init_std=0.0)


def random_flow(rng, patch_side=1, layers=3, init_std=0.2):
    return FlowModel.create(patch_side, layers, rng=rng, init_std=init_std)


def probe_affine_map(flow, cond):
    """Recover (mean b, basis matrix A) of z -> m by probing unit vectors."""
    d = flow.d
    b = flow.inverse(nm.tensor(np.zeros((1, d))), cond).data[0]
    cols = []
    for i in range(d):
        e = np.zeros((1, d))
        e[0, i] = 1.0
        cols.append(flow.inverse(nm.tensor(e), cond).data[0] - b)
    return b, np.stack(cols, axis=1)


def gaussian_logpdf(m, mean, cov):
    d = len(mean)
    diff = m - mean
    f = lu_factor(cov)
    return -0.5 * d * LOG_2PI - 0.5 * f.logabsdet() - 0.5 * diff @ f.solve(diff)


class TestForward:
    def test_identity_flow(self):
        flow = identity_flow()
        cond = identity_cond(flow.num_layers, flow.d)
        m = np.array([[0.3, -0.2, 0.7]])
        z, logdet = flow.forward(nm.tensor(m), cond)
        np.testing.assert_array_equal(z.data, m)
        np.testing.assert_array_equal(logdet.data, [0.0])

    def test_single_diagonal_pair(self):
        flow = FlowModel([nm.tensor(np.diag([2.0, 2.0, 2.0]))], [nm.tensor(np.zeros(3))],
                         patch_side=1)
        cond = identity_cond(1, 3)
        m = np.array([[0.1, -0.4, 0.9]])
        z, logdet = flow.forward(nm.tensor(m), cond)
        np.testing.assert_allclose(z.data, 2.0 * m, rtol=1e-15)
        assert logdet.data[0] == pytest.approx(3.0 * np.log(2.0), rel=1e-14)

    def test_logdet_vs_numeric_jacobian_and_input_independence(self):
        rng = np.random.default_rng(60)
        flow = random_flow(rng)
        cond = random_cond(rng, flow.num_layers, flow.d)
        logdets = []
        for _ in range(5):
            m = rng.normal(size=(1, flow.d))
            _, ld = flow.forward(nm.tensor(m), cond)
            logdets.append(ld.data[0])

            def f(x):
                return flow.forward(nm.tensor(x.reshape(1, -1)), cond)[0].data[0]

            jac = finite_diff_jacobian(f, m.reshape(-1))
            numeric = lu_factor(jac).logabsdet()
            assert abs(ld.data[0] - numeric) / abs(numeric) < 1e-4
        assert max(logdets) - min(logdets) <= 1e-12


class TestInverse:
    def test_identity_flow(self):
        flow = identity_flow()
        cond = identity_cond(flow.num_layers, flow.d)
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(flow.inverse(nm.tensor(z), cond).data, z)

    def test_roundtrip_1000_random_pairs(self):
        rng = np.random.default_rng(61)
        flow = random_flow(rng, patch_side=1, layers=4)
        m = rng.normal(size=(1000, flow.d))
        cond = random_cond(rng, flow.num_layers, flow.d, batch=1000)
        z, _ = flow.forward(nm.tensor(m), cond)
        back = flow.inverse(z, cond)
        assert np.abs(back.data - m).max() <= 1e-8

    def test_affine_superposition(self):
        rng = np.random.default_rng(62)
        flow = random_flow(rng)
        cond = random_cond(rng, flow.num_layers, flow.d)
        z1 = rng.normal(size=(1, flow.d))
        z2 = rng.normal(size=(1, flow.d))
        f = lambda z: flow.inverse(nm.tensor(z), cond).data
        lhs = f(z1 + z2)
        rhs = f(z1) + f(z2) - f(np.zeros((1, flow.d)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestLogProb:
    def test_identity_flow_at_origin(self):
        flow = identity_flow()
        cond = identity_cond(flow.num_layers, flow.d)
        lp = flow.log_prob(nm.tensor(np.zeros((1, flow.d))), cond)
        assert lp.data[0] == pytest.approx(-0.5 * flow.d * LOG_2PI, rel=1e-14)

    def test_shift_only_translates_gaussian(self):
        # forward adds phi (z = m + phi), so the conditional mean is -phi and
        # the density is the unit Gaussian evaluated at (m - mean)
        flow = identity_flow(layers=1)
        shift = np.array([[0.3, -0.1, 0.6]])
        cond = identity_cond(1, 3)
        cond.phi[0] = nm.tensor(shift)
        mean = flow.inverse(nm.tensor(np.zeros((1, 3))), cond).data
        np.testing.assert_allclose(mean, -shift, atol=1e-15)
        m = np.array([[0.5, 0.5, 0.5]])
        lp = flow.log_prob(nm.tensor(m), cond)
        expected = -0.5 * 3 * LOG_2PI - 0.5 * np.sum((m - mean) ** 2)
        assert lp.data[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_probed_gaussian_closed_form(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            flow = random_flow(rng, layers=int(rng.integers(1, 5)))
            cond = random_cond(rng, flow.num_layers, flow.d)
            b, a = probe_affine_map(flow, cond)
            cov = a @ a.T
            m = rng.normal(size=flow.d)
            lp = flow.log_prob(nm.tensor(m.reshape(1, -1)), cond).data[0]
            assert abs(lp - gaussian_logpdf(m, b, cov)) <= 1e-6


def sample(flow, cond, tau, rng, count=1):
    """Patches from the prior at temperature tau, mapped through the flow."""
    return flow.inverse(nm.tensor(latents(count, flow.d, tau, rng)), cond)


class TestSample:
    def test_tau_zero_is_mean_and_consumes_no_rng(self):
        rng = np.random.default_rng(64)
        flow = random_flow(rng)
        cond = random_cond(rng, flow.num_layers, flow.d)
        probe = np.random.default_rng(123)
        state_before = probe.bit_generator.state
        out = sample(flow, cond, 0.0, probe)
        assert probe.bit_generator.state == state_before
        mean = flow.inverse(nm.tensor(np.zeros((1, flow.d))), cond).data
        np.testing.assert_array_equal(out.data, mean)

    def test_negative_tau_rejected(self):
        probe = np.random.default_rng(0)
        state_before = probe.bit_generator.state
        for tau in (-0.1, float("nan"), float("inf")):
            with pytest.raises(UsageError, match="tau must be finite and >= 0"):
                latents(1, 3, tau, probe)
        assert probe.bit_generator.state == state_before

    def test_identity_flow_tau1_standard_normal(self):
        import scipy.stats

        flow = identity_flow()
        cond = identity_cond(flow.num_layers, flow.d)
        rng = np.random.default_rng(65)
        draws = sample(flow, cond, 1.0, rng, count=10_000).data
        for comp in range(flow.d):
            p = scipy.stats.kstest(draws[:, comp], "norm").pvalue
            assert p > 0.01

    def test_tau_ratio_scales_std_linearly(self):
        rng = np.random.default_rng(66)
        flow = random_flow(rng)
        cond = random_cond(rng, flow.num_layers, flow.d)
        s08 = sample(flow, cond, 0.8, np.random.default_rng(1), count=10_000).data.std(axis=0)
        s04 = sample(flow, cond, 0.4, np.random.default_rng(2), count=10_000).data.std(axis=0)
        ratio = s08 / s04
        assert np.all(np.abs(ratio - 2.0) < 0.1)
        assert abs(ratio.mean() - 2.0) < 0.05


class TestLuCache:
    def test_cache_refreshes_on_parameter_update(self):
        rng = np.random.default_rng(68)
        flow = random_flow(rng, layers=1)
        w = flow.weights[0]
        before = flow.lu(0)
        assert flow.lu(0) is before  # cached while W unchanged
        w.assign_(w.data + 0.05 * rng.normal(size=w.shape))
        after = flow.lu(0)
        assert after is not before
        assert after.logabsdet() != before.logabsdet()


class TestCounters:
    def test_row_counting(self):
        flow = identity_flow()
        cond = identity_cond(flow.num_layers, flow.d, batch=7)
        with nm.probe() as p:
            flow.forward(nm.tensor(np.zeros((7, flow.d))), cond)
            flow.inverse(nm.tensor(np.zeros((7, flow.d))), cond)
        assert p.passes["flow_forward"] == 7
        assert p.passes["flow_inverse"] == 7


class TestGradientsThroughFlow:
    def test_log_prob_param_gradients_vs_fd(self):
        """Differentiating the log-det: d log|det W| = tr(W^{-1} dW)."""
        rng = np.random.default_rng(67)
        flow = random_flow(rng, layers=2)
        m = rng.normal(size=(4, flow.d))
        cond_arrays = [
            (rng.uniform(-0.5, 0.5, size=(4, flow.d)), rng.normal(size=(4, flow.d)) * 0.3)
            for _ in range(flow.num_layers)
        ]

        def build_cond():
            from linf.implicit import ConditionerOutput

            alpha_pre = [nm.tensor(a) for a, _ in cond_arrays]
            return ConditionerOutput(
                alpha_pre,
                [nm.exp(t) for t in alpha_pre],
                [nm.tensor(p) for _, p in cond_arrays],
            )

        def compute():
            flow.refresh()  # FD perturbs W in place, bypassing version bumps
            return nm.neg(nm.tmean(flow.log_prob(nm.tensor(m), build_cond())))

        with nm.GradTape() as tape:
            loss = compute()
        tape.backward(loss)

        from .test_tensor import numeric_grad, rel

        for k in range(flow.num_layers):
            for name, p in (("w", flow.weights[k]), ("b", flow.biases[k])):
                fd = numeric_grad(lambda: float(compute().data), p.data)
                assert rel(p.grad, fd) < 1e-4, f"flow.{k}.{name}"
