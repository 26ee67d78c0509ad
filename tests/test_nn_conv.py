"""Conv2D: forward values, gradients, shapes, error handling."""

import re

import numpy as np
import pytest

from grad_check import numeric_grad
from repro.nn.conv import Conv2D
from repro.nn.deconv import Deconv2D
from repro.nn.fft_conv import FFTConv2D
from repro.nn.im2col import matmul_col2im
from repro.nn.pooling import MaxPool2D
from repro.nn.winograd import WinogradConv2D
from test_nn_im2col import budget, planned


def _loss_through(layer, x, g):
    return float((layer.forward(x) * g).sum())


class TestForward:
    def test_identity_kernel(self):
        conv = Conv2D(1, 1, 1, rng=0)
        conv.weight.data[...] = 1.0
        conv.bias.data[...] = 0.0
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        np.testing.assert_allclose(conv.forward(x), x)

    def test_bias_added(self):
        conv = Conv2D(1, 2, 1, rng=0)
        conv.weight.data[...] = 0.0
        conv.bias.data[:] = [1.5, -2.0]
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        y = conv.forward(x)
        assert np.all(y[0, 0] == 1.5)
        assert np.all(y[0, 1] == -2.0)

    def test_sum_kernel(self):
        conv = Conv2D(1, 1, 3, pad=0, rng=0)
        conv.weight.data[...] = 1.0
        conv.bias.data[...] = 0.0
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        assert conv.forward(x).item() == pytest.approx(9.0)

    def test_output_shape_stride2(self):
        conv = Conv2D(3, 8, 3, stride=2, rng=0)
        x = np.zeros((4, 3, 16, 16), dtype=np.float32)
        assert conv.forward(x).shape == (4, 8, 8, 8)
        assert conv.output_shape((3, 16, 16)) == (8, 8, 8)

    @pytest.mark.parametrize("shape", [(0, 4, 6, 6), (4, 6, 6), (6, 6),
                                       (1, 1, 4, 6, 6)])
    @pytest.mark.parametrize("layer_cls", [Conv2D, WinogradConv2D,
                                           FFTConv2D])
    def test_malformed_input_fails_at_the_layer_with_its_name(self, shape,
                                                              layer_cls):
        """The ablation forwards too: a 3-D batch died in a tuple unpack
        there, and an empty one ran on nothing."""
        args = (4, 2) if layer_cls is WinogradConv2D else (4, 2, 3)
        conv = layer_cls(*args, name="enc_conv7", rng=0)
        with pytest.raises(ValueError, match=r"enc_conv7: expected \(N, 4, "
                           r"H, W\) with N >= 1, got " + re.escape(str(shape))):
            conv.forward(np.zeros(shape, dtype=np.float32))

    def test_wrong_channels_raises(self):
        conv = Conv2D(3, 8, 3, rng=0)
        with pytest.raises(ValueError, match="channels"):
            conv.forward(np.zeros((1, 4, 8, 8), dtype=np.float32))

    def test_contiguous_output(self):
        conv = Conv2D(2, 4, 3, rng=0)
        y = conv.forward(np.zeros((2, 2, 8, 8), dtype=np.float32))
        assert y.flags["C_CONTIGUOUS"]


class TestBackward:
    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0), (2, 0)])
    def test_input_gradient_numeric(self, stride, pad, rng):
        conv = Conv2D(2, 3, 3, stride=stride, pad=pad, rng=1)
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
        g = rng.normal(size=conv.forward(x).shape).astype(np.float32)
        conv.zero_grad()
        conv.forward(x)
        gx = conv.backward(g)
        num = numeric_grad(lambda: _loss_through(conv, x, g), x)
        np.testing.assert_allclose(gx, num, rtol=2e-2, atol=2e-2)

    def test_weight_gradient_numeric(self, rng):
        conv = Conv2D(2, 2, 3, rng=1)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        g = rng.normal(size=conv.forward(x).shape).astype(np.float32)
        conv.zero_grad()
        conv.forward(x)
        conv.backward(g)
        num = numeric_grad(lambda: _loss_through(conv, x, g),
                           conv.weight.data)
        np.testing.assert_allclose(conv.weight.grad, num, rtol=2e-2,
                                   atol=2e-2)

    def test_bias_gradient_is_sum(self, rng):
        conv = Conv2D(1, 2, 3, rng=1)
        x = rng.normal(size=(2, 1, 4, 4)).astype(np.float32)
        g = rng.normal(size=conv.forward(x).shape).astype(np.float32)
        conv.zero_grad()
        conv.forward(x)
        conv.backward(g)
        np.testing.assert_allclose(conv.bias.grad, g.sum(axis=(0, 2, 3)),
                                   rtol=1e-4)

    def test_grad_accumulates(self, rng):
        conv = Conv2D(1, 1, 3, rng=1)
        x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        g = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        conv.zero_grad()
        conv.forward(x)
        conv.backward(g)
        once = conv.weight.grad.copy()
        conv.forward(x)
        conv.backward(g)
        np.testing.assert_allclose(conv.weight.grad, 2 * once, rtol=1e-5)

    def test_backward_before_forward_raises(self):
        conv = Conv2D(1, 1, 3, rng=0)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 4, 4), dtype=np.float32))


@pytest.fixture
def ops():
    """The fused functions the test's passes plan, by name, as they do."""
    names = []
    with planned(lambda op, *_: names.append(op.__name__)):
        yield names


class TestDataGradientForms:
    """At stride 1 the data gradient runs as the convolution it is (flipped
    kernels, swapped channel axes, pad ``k - 1 - pad``) where the weights are
    no larger than ``grad_out``; everywhere else it stays ``matmul_col2im``."""

    @pytest.mark.parametrize("band_bytes", [2048, 1 << 40],
                             ids=["banded", "one-shot"])
    @pytest.mark.parametrize("channels", [(3, 4), (4, 4)])
    @pytest.mark.parametrize("pad_of", [lambda k: 0, lambda k: (k - 1) // 2,
                                        lambda k: k - 1],
                             ids=["valid", "same", "full"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_gather_form_equals_scatter_form(self, rng, ops, k, pad_of,
                                             channels, band_bytes):
        c, f = channels
        pad = pad_of(k)
        conv = Conv2D(c, f, k, pad=pad, rng=1)
        x = rng.normal(size=(2, c, 10, 13)).astype(np.float32)
        with budget(band_bytes, fold_below=1):
            g = rng.normal(size=conv.forward(x).shape).astype(np.float32)
            got = conv.backward(g)
            assert "matmul_col2im" not in ops
            want = matmul_col2im(conv.weight.data.reshape(f, -1).T, g,
                                 x.shape, k, 1, pad)
        assert got.shape == x.shape and got.dtype == np.float32
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=1e-5,
                                   atol=1e-5 * np.abs(want).max())

    @pytest.mark.parametrize("conv,shape", [
        (dict(kernel_size=3, pad=3), (2, 4, 8, 8)),         # pad > k - 1
        (dict(kernel_size=3, stride=2), (2, 4, 9, 8)),      # strided
        (dict(kernel_size=3), (1, 4, 3, 3)),                # weight-heavy
    ], ids=["overpadded", "strided", "weight-heavy"])
    def test_the_rule_keeps_the_scatter_form(self, rng, ops, conv, shape):
        conv = Conv2D(4, 4, rng=1, **conv)
        x = rng.normal(size=shape).astype(np.float32)
        g = rng.normal(size=conv.forward(x).shape).astype(np.float32)
        if conv.stride == 1 and conv.pad < conv.kernel_size:
            assert conv.weight.size > g.size
        gx = conv.backward(g)
        assert ops.count("matmul_col2im") == 1 and gx.shape == x.shape
        num = numeric_grad(lambda: _loss_through(conv, x, g), x)
        np.testing.assert_allclose(gx, num, rtol=2e-2, atol=2e-2)

    def test_input_grad_false_skips_both_forms(self, rng, ops):
        for stride in (1, 2):
            conv = Conv2D(2, 3, 3, stride=stride, rng=1)
            x = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
            g = rng.normal(size=conv.forward(x).shape).astype(np.float32)
            conv.backward(g)
            want = conv.weight.grad.copy(), conv.bias.grad.copy()
            conv.zero_grad()
            del ops[:]
            assert conv.backward(g, input_grad=False) is None
            assert set(ops) <= {"lowered_outer"}      # the weight gradient
            np.testing.assert_array_equal(conv.weight.grad, want[0])
            np.testing.assert_array_equal(conv.bias.grad, want[1])


class TestAccounting:
    def test_flops_hand_computed(self):
        conv = Conv2D(3, 8, 3, stride=1, pad=1, rng=0)
        # 4x4 output, per output pixel: 2*3*9 MACs -> flops
        expected = 2 * (1 * 8 * 4 * 4 * 3 * 9) + 1 * 8 * 4 * 4
        assert conv.flops(1, input_shape=(3, 4, 4)) == expected

    def test_flops_scale_with_batch(self):
        conv = Conv2D(3, 8, 3, rng=0)
        f1 = conv.flops(1, input_shape=(3, 8, 8))
        f4 = conv.flops(4, input_shape=(3, 8, 8))
        assert f4 == 4 * f1

    def test_param_count(self):
        conv = Conv2D(3, 128, 3, rng=0)
        assert conv.num_params() == 128 * 3 * 9 + 128

    @pytest.mark.parametrize("make, field, least, value", [
        (lambda: Conv2D(0, 1, 3, name="c"), "in_channels", 1, "0"),
        (lambda: Conv2D(1, 1, 3, stride=0, name="c"), "stride", 1, "0"),
        (lambda: Conv2D(1, 1, 3, pad=-1, name="c"), "pad", 0, "-1"),
        (lambda: Conv2D(3, 4, 3, stride=1.5, name="c"), "stride", 1, "1.5"),
        (lambda: Conv2D(3, 4, 3, pad=0.5, name="c"), "pad", 0, "0.5"),
        (lambda: Conv2D(3, 4.0, 3, name="c"), "out_channels", 1, "4.0"),
        (lambda: Deconv2D(3, 4, 4, stride=2.0, name="c"), "stride", 1, "2.0"),
        (lambda: Deconv2D(3, 4, 2, stride=4, name="c"),
         r"kernel_size - stride \(pad=None\)", 0, "-2"),
        (lambda: MaxPool2D(2.0, name="c"), "kernel_size", 1, "2.0"),
        (lambda: MaxPool2D(2, stride=float("nan"), name="c"), "stride", 1,
         "nan")])
    def test_invalid_construction(self, make, field, least, value):
        """Refused when built, by layer, field and value: a fractional
        stride or pad used to construct and then fail at the first
        ``forward``, deep inside NumPy."""
        with pytest.raises(ValueError, match=rf"^c: {field} must be an "
                           rf"integer >= {least}, got {value}$"):
            make()

    def test_numpy_integers_are_kept_as_int(self):
        conv = Conv2D(*np.array([3, 4, 3]), stride=np.int8(2), pad=np.int64(1))
        deconv = Deconv2D(*np.array([4, 3, 4]), stride=np.int32(2))
        pool = MaxPool2D(np.int64(2))
        sizes = [conv.in_channels, conv.out_channels, conv.kernel_size,
                 conv.stride, conv.pad, deconv.in_channels,
                 deconv.out_channels, deconv.kernel_size, deconv.stride,
                 deconv.pad, pool.kernel_size, pool.stride]
        assert sizes == [3, 4, 3, 2, 1, 4, 3, 4, 2, 1, 2, 2]
        assert {type(size) for size in sizes} == {int}
        x = np.ones((1, 3, 8, 8), np.float32)
        assert pool.forward(deconv.forward(conv.forward(x))).shape \
            == (1, 3, 4, 4)
