"""Dense, Flatten and activation layers."""

import numpy as np
import pytest

from grad_check import numeric_grad
from repro.nn.activations import ReLU, Sigmoid, Tanh, sigmoid, softmax
from repro.nn.dense import Dense, Flatten


class TestDense:
    def test_forward_value(self):
        d = Dense(2, 1, rng=0)
        d.weight.data[...] = [[2.0, -1.0]]
        d.bias.data[:] = [0.5]
        y = d.forward(np.array([[1.0, 3.0]], dtype=np.float32))
        assert y.item() == pytest.approx(2.0 - 3.0 + 0.5)

    def test_gradients_numeric(self, rng):
        d = Dense(4, 3, rng=1)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        g = rng.normal(size=(5, 3)).astype(np.float32)

        def loss():
            return float((d.forward(x) * g).sum())

        d.zero_grad()
        d.forward(x)
        gx = d.backward(g)
        np.testing.assert_allclose(gx, numeric_grad(loss, x), rtol=2e-2,
                                   atol=2e-2)
        np.testing.assert_allclose(d.weight.grad,
                                   numeric_grad(loss, d.weight.data),
                                   rtol=2e-2, atol=2e-2)

    def test_shape_validation(self):
        d = Dense(4, 2, rng=0)
        with pytest.raises(ValueError):
            d.forward(np.zeros((3, 5), dtype=np.float32))

    def test_flops(self):
        d = Dense(128, 2, rng=0)
        assert d.flops(8) == 8 * (2 * 128 + 1) * 2


class TestFlatten:
    def test_roundtrip(self, rng):
        f = Flatten()
        x = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        y = f.forward(x)
        assert y.shape == (2, 60)
        np.testing.assert_array_equal(f.backward(y), x)

    def test_output_shape(self):
        assert Flatten().output_shape((3, 4, 5)) == (60,)


class TestReLU:
    def test_forward(self):
        r = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
        np.testing.assert_array_equal(r.forward(x), [[0, 0, 2.0]])

    def test_backward_masks(self):
        r = ReLU()
        x = np.array([[-1.0, 3.0]], dtype=np.float32)
        r.forward(x)
        g = np.array([[5.0, 7.0]], dtype=np.float32)
        np.testing.assert_array_equal(r.backward(g), [[0.0, 7.0]])

    def test_shape_preserved(self):
        assert ReLU().output_shape((128, 10, 10)) == (128, 10, 10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_one_pass_equals_the_where_form(self, rng, dtype, training):
        """Same function as ``np.where(x > 0, x, 0)`` on ties with zero,
        signed zeros, infinities and NaN (which it maps to 0, as the
        backward mask does); the input is neither written nor aliased."""
        x = rng.normal(size=(4, 50)).astype(dtype)
        x[0, :10] = [0.0, -0.0, np.inf, -np.inf, np.nan,
                     np.nan, -0.0, 0.0, 1.0, -1.0]
        before = x.copy()
        r = ReLU()
        r.train() if training else r.eval()
        out = r.forward(x)
        ref = np.where(x > 0, x, 0)
        assert not np.isnan(ref).any()
        np.testing.assert_array_equal(out, ref)
        assert out.dtype == dtype and not np.shares_memory(out, x)
        np.testing.assert_array_equal(x, before)
        if training:
            np.testing.assert_array_equal(r._mask, x > 0)
            g = np.ones_like(x)
            np.testing.assert_array_equal(r.backward(g), (x > 0).astype(dtype))
        else:
            assert r._mask is None


class TestSigmoidTanh:
    def test_sigmoid_range_and_symmetry(self, rng):
        # float32 saturates to exactly 0/1 in the far tails; bounds are
        # inclusive there.
        x = rng.normal(size=100).astype(np.float32) * 10
        s = sigmoid(x)
        assert np.all((s >= 0) & (s <= 1))
        np.testing.assert_allclose(sigmoid(-x), 1 - s, atol=1e-6)

    def test_sigmoid_extreme_stability(self):
        x = np.array([-1e4, 1e4], dtype=np.float32)
        s = sigmoid(x)
        assert np.isfinite(s).all()
        assert s[0] == pytest.approx(0.0, abs=1e-30)
        assert s[1] == pytest.approx(1.0)

    def test_sigmoid_layer_gradient(self, rng):
        layer = Sigmoid()
        x = rng.normal(size=(3, 4)).astype(np.float32)
        g = rng.normal(size=(3, 4)).astype(np.float32)
        layer.forward(x)
        gx = layer.backward(g)
        num = numeric_grad(lambda: float((layer.forward(x) * g).sum()), x)
        np.testing.assert_allclose(gx, num, rtol=2e-2, atol=2e-2)

    def test_tanh_layer_gradient(self, rng):
        layer = Tanh()
        x = rng.normal(size=(3, 4)).astype(np.float32)
        g = rng.normal(size=(3, 4)).astype(np.float32)
        layer.forward(x)
        gx = layer.backward(g)
        num = numeric_grad(lambda: float((layer.forward(x) * g).sum()), x)
        np.testing.assert_allclose(gx, num, rtol=2e-2, atol=2e-2)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        p = softmax(rng.normal(size=(5, 7)), axis=1)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(5), rtol=1e-6)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0),
                                   rtol=1e-6)

    def test_extreme_logits_stable(self):
        p = softmax(np.array([[1e4, 0.0, -1e4]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)
