"""LU factorization against exact recursive-determinant and round-trip oracles."""

import numpy as np
import pytest

from linf import numerics as nm
from linf.errors import SingularMatrixError
from linf.numerics.linalg import lu_factor


def cofactor_det(a):
    """Exact recursive determinant by cofactor expansion (oracle, D <= 8)."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def well_conditioned(rng, d):
    return np.eye(d) + 0.3 * rng.normal(size=(d, d))


class TestLuFactor:
    def test_diag_logdet(self):
        f = lu_factor(np.diag([2.0, 3.0]))
        assert f.logabsdet() == pytest.approx(np.log(6.0), rel=1e-14)

    def test_identity_d27(self):
        f = lu_factor(np.eye(27))
        assert f.logabsdet() == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(f.inverse(), np.eye(27), atol=1e-14)

    def test_logdet_vs_cofactor_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = well_conditioned(rng, 8)
            det = cofactor_det(a)
            f = lu_factor(a)
            assert f.logabsdet() == pytest.approx(np.log(abs(det)), rel=1e-8)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(12)
        for d in (1, 2, 5, 13, 27):
            a = well_conditioned(rng, d)
            f = lu_factor(a)
            lower = np.tril(f.lu, -1) + np.eye(d)
            upper = np.triu(f.lu)
            rec = lower @ upper
            np.testing.assert_allclose(rec, a[f.perm], rtol=1e-10, atol=1e-12)

    def test_singular_rejected(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            lu_factor(a)

    def test_solve_reconstructs_inverse(self):
        rng = np.random.default_rng(13)
        for d in (2, 9, 27):
            a = well_conditioned(rng, d)
            inv = lu_factor(a).inverse()
            err = np.abs(a @ inv - np.eye(d)).max()
            assert err <= 1e-8

    def test_solve_transposed(self):
        rng = np.random.default_rng(14)
        a = well_conditioned(rng, 7)
        b = rng.normal(size=(7, 3))
        x = lu_factor(a).solve_transposed(b)
        np.testing.assert_allclose(a.T @ x, b, atol=1e-10)


class TestTapedLinalgPrimitives:
    def test_logabsdet_matches_lu(self):
        rng = np.random.default_rng(15)
        a = well_conditioned(rng, 6)
        out = nm.logabsdet(nm.tensor(a), lu=lu_factor(a))
        assert float(out.data) == pytest.approx(lu_factor(a).logabsdet(), rel=1e-14)

    def test_logabsdet_gradient_is_inverse_transpose(self):
        rng = np.random.default_rng(16)
        w = nm.Tensor(well_conditioned(rng, 5), requires_grad=True)
        with nm.GradTape() as tape:
            out = nm.logabsdet(w, lu=lu_factor(w.data))
        tape.backward(out)
        np.testing.assert_allclose(w.grad, np.linalg.inv(w.data).T, rtol=1e-10)

    def test_solve_rows_value_and_grads(self):
        rng = np.random.default_rng(17)
        w = nm.Tensor(well_conditioned(rng, 4), requires_grad=True)
        y = nm.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        readout = rng.normal(size=(6, 4))
        with nm.GradTape() as tape:
            x = nm.solve_rows(y, w, lu=lu_factor(w.data))
            loss = nm.tsum(nm.mul(x, nm.tensor(readout)))
        tape.backward(loss)
        np.testing.assert_allclose(x.data @ w.data.T, y.data, atol=1e-10)

        def f_y():
            return ((np.linalg.solve(w.data, y.data.T).T) * readout).sum()

        from .test_tensor import numeric_grad, rel

        assert rel(y.grad, numeric_grad(f_y, y.data)) < 1e-6
        assert rel(w.grad, numeric_grad(f_y, w.data)) < 1e-6
