"""Deconv2D: the conv-swap trick, gradients, upsampling shapes."""

import re

import numpy as np
import pytest

from grad_check import numeric_grad
from repro.nn.conv import Conv2D
from repro.nn.deconv import Deconv2D
from repro.nn.im2col import col2im


class TestSwapTrick:
    """Paper SIII-C: deconv forward == conv backward-data and vice versa."""

    def test_deconv_forward_equals_conv_backward_data(self, rng):
        """With shared weights, Deconv2D.forward(x) must equal the input
        gradient of the mirrored Conv2D fed x as output gradient."""
        conv = Conv2D(3, 4, 3, stride=2, pad=1, rng=2)  # 3ch -> 4ch conv
        deconv = Deconv2D(4, 3, 3, stride=2, pad=1, rng=3)
        # Conv weight (out=4, in=3, k, k) == deconv weight (in=4, out=3,...)
        deconv.weight.data[...] = conv.weight.data
        deconv.bias.data[...] = 0.0
        x_img = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
        y = conv.forward(x_img)              # (2, 4, 5, 5)
        conv.zero_grad()
        g = rng.normal(size=y.shape).astype(np.float32)
        grad_data = conv.backward(g)         # (2, 3, 9, 9)
        up = deconv.forward(g)               # same computation, as a forward
        np.testing.assert_allclose(up, grad_data, rtol=1e-4, atol=1e-5)

    def test_deconv_backward_data_equals_conv_forward(self, rng):
        conv = Conv2D(3, 4, 3, stride=2, pad=1, rng=2)
        conv.bias.data[...] = 0.0
        deconv = Deconv2D(4, 3, 3, stride=2, pad=1, rng=3)
        deconv.weight.data[...] = conv.weight.data
        x = rng.normal(size=(1, 4, 5, 5)).astype(np.float32)
        up = deconv.forward(x)               # (1, 3, 9, 9)
        g = rng.normal(size=up.shape).astype(np.float32)
        deconv.zero_grad()
        grad_in = deconv.backward(g)
        np.testing.assert_allclose(grad_in, conv.forward(g), rtol=1e-4,
                                   atol=1e-5)


def scatter_reference(d, x):
    """The deconv forward written out as GEMM + ``col2im`` scatter — the
    conv backward-data routine itself, in the lowering's per-image
    ``(N, C*k*k, h*w)`` layout."""
    n, c = x.shape[:2]
    k, s, p = d.kernel_size, d.stride, d.pad
    out_shape = (n,) + d.output_shape(x.shape[1:])
    x_mat = x.reshape(n, c, -1)
    w_mat = d.weight.data.reshape(c, -1)
    return (col2im(np.matmul(w_mat.T, x_mat), out_shape, k, k, s, p)
            + d.bias.data[None, :, None, None])


def _geometries():
    for k in (2, 3, 4, 5):
        for s in (1, 2, 3):
            yield k, s, 0
            # The default pad (k - s) // 2: rejected by the constructor
            # when negative (k < s), the case above when zero.
            if (k - s) // 2 > 0:
                yield k, s, None


class TestAgainstScatterReference:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("k,s,pad", list(_geometries()))
    def test_forward_matches_col2im_scatter(self, rng, k, s, pad, batch,
                                            training):
        """Includes k < stride, where some output parities get no tap and
        must hold the bias alone, and non-square inputs."""
        d = Deconv2D(3, 2, k, stride=s, pad=pad, rng=5)
        d.bias.data[...] = rng.normal(size=2).astype(np.float32)
        d.train() if training else d.eval()
        x = rng.normal(size=(batch, 3, 5, 7)).astype(np.float32)
        out = d.forward(x)
        ref = scatter_reference(d, x)
        assert out.shape == ref.shape and out.flags.c_contiguous
        # Same terms summed in the same order per element.
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("k,s,pad", [(3, 1, 1), (4, 2, 1), (2, 3, 0),
                                         (5, 2, 0)])
    def test_forward_matches_direct_loops(self, rng, k, s, pad):
        """Every (input pixel, tap) pair placed by hand: independent of
        ``col2im`` and of the GEMM."""
        d = Deconv2D(3, 2, k, stride=s, pad=pad, rng=5)
        d.bias.data[...] = rng.normal(size=2).astype(np.float32)
        x = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        out = d.forward(x)
        full = np.zeros((2, 2, 3 * s + k, 4 * s + k))
        for i in range(4):
            for j in range(5):
                # (N, C) x (C, F, k, k) -> (N, F, k, k)
                full[:, :, i * s:i * s + k, j * s:j * s + k] += np.einsum(
                    "nc,cfab->nfab", x[:, :, i, j], d.weight.data)
        ref = (full[:, :, pad:pad + out.shape[2], pad:pad + out.shape[3]]
               + d.bias.data[None, :, None, None])
        assert out.dtype == np.float32 and not np.shares_memory(out, x)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)

    def test_in_place_weight_edit_changes_next_forward(self, rng):
        """No packed copy of the weights may outlive an in-place edit of a
        single element (what an optimizer step or a numeric gradient
        check does)."""
        d = Deconv2D(2, 2, 3, stride=1, rng=4).train()
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        before = d.forward(x)
        d.weight.data[1, 0, 2, 1] += 0.5
        after = d.forward(x)
        np.testing.assert_array_equal(after, scatter_reference(d, x))
        assert np.abs(after - before).max() > 0.1


class TestShapes:
    def test_upsample_2x(self):
        d = Deconv2D(8, 4, 4, stride=2, rng=0)
        x = np.zeros((2, 8, 12, 12), dtype=np.float32)
        assert d.forward(x).shape == (2, 4, 24, 24)
        assert d.output_shape((8, 12, 12)) == (4, 24, 24)

    def test_stride1_same(self):
        d = Deconv2D(4, 4, 5, stride=1, rng=0)
        x = np.zeros((1, 4, 10, 10), dtype=np.float32)
        assert d.forward(x).shape == (1, 4, 10, 10)

    @pytest.mark.parametrize("shape", [(0, 4, 6, 6), (4, 6, 6), (6, 6),
                                       (1, 1, 4, 6, 6)])
    def test_malformed_input_fails_at_the_layer_with_its_name(self, shape):
        deconv = Deconv2D(4, 2, 4, stride=2, name="dec_deconv2", rng=0)
        with pytest.raises(ValueError, match=r"dec_deconv2: expected \(N, 4, "
                           r"H, W\) with N >= 1, got " + re.escape(str(shape))):
            deconv.forward(np.zeros(shape, dtype=np.float32))

    def test_wrong_channels_raises(self):
        d = Deconv2D(4, 2, 4, stride=2, rng=0)
        with pytest.raises(ValueError, match="channels"):
            d.forward(np.zeros((1, 3, 8, 8), dtype=np.float32))


class TestGradients:
    def test_input_gradient_numeric(self, rng):
        d = Deconv2D(3, 2, 4, stride=2, pad=1, rng=4)
        x = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        g = rng.normal(size=d.forward(x).shape).astype(np.float32)

        def loss():
            return float((d.forward(x) * g).sum())

        d.zero_grad()
        d.forward(x)
        gx = d.backward(g)
        num = numeric_grad(loss, x)
        np.testing.assert_allclose(gx, num, rtol=2e-2, atol=2e-2)

    def test_weight_gradient_numeric(self, rng):
        d = Deconv2D(2, 2, 3, stride=1, rng=4)
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        g = rng.normal(size=d.forward(x).shape).astype(np.float32)

        def loss():
            return float((d.forward(x) * g).sum())

        d.zero_grad()
        d.forward(x)
        d.backward(g)
        num = numeric_grad(loss, d.weight.data)
        np.testing.assert_allclose(d.weight.grad, num, rtol=2e-2, atol=2e-2)

    def test_bias_gradient(self, rng):
        d = Deconv2D(2, 3, 4, stride=2, rng=4)
        x = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
        g = rng.normal(size=d.forward(x).shape).astype(np.float32)
        d.zero_grad()
        d.forward(x)
        d.backward(g)
        np.testing.assert_allclose(d.bias.grad, g.sum(axis=(0, 2, 3)),
                                   rtol=1e-4)


class TestAccounting:
    def test_flops_match_mirrored_conv_volume(self):
        d = Deconv2D(8, 4, 4, stride=2, pad=1, rng=0)
        f = d.flops(2, input_shape=(8, 6, 6))
        macs = 2 * 2 * 8 * 6 * 6 * 4 * 16
        assert f == macs + 2 * 4 * 12 * 12

    def test_params(self):
        d = Deconv2D(8, 4, 4, rng=0)
        assert d.num_params() == 8 * 4 * 16 + 4
