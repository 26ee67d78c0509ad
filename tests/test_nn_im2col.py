"""im2col/col2im: shapes, values, the adjoint property, and Conv2D on top of
the lowering against a convolution written out as nested loops.

Columns are per-image and channel-major: ``cols[n, (c, i, j), (y, x)]`` is
tap ``(i, j)`` of channel ``c`` in the patch at output position ``(y, x)``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.conv import Conv2D
from repro.nn.im2col import (
    _FOLD_BELOW, _batch_matmul, _batch_outer, col2im, conv_output_size,
    deconv_output_size, im2col)


class TestOutputSizes:
    def test_same_padding_stride1(self):
        assert conv_output_size(224, 3, 1, 1) == 224

    def test_stride2(self):
        assert conv_output_size(224, 3, 2, 1) == 112

    def test_no_padding(self):
        assert conv_output_size(7, 3, 1, 0) == 5

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)

    def test_deconv_doubles(self):
        assert deconv_output_size(48, 4, 2, 1) == 96

    def test_deconv_identity(self):
        assert deconv_output_size(10, 5, 1, 2) == 10

    def test_deconv_invalid_raises(self):
        with pytest.raises(ValueError):
            deconv_output_size(1, 1, 1, 3)

    def test_conv_deconv_inverse_sizes(self):
        # deconv with mirrored params inverts conv spatial size (even input).
        for h in (8, 16, 64):
            down = conv_output_size(h, 3, 2, 1)
            up = deconv_output_size(down, 4, 2, 1)
            assert up == h


class TestIm2Col:
    def test_shape(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=np.float32).reshape(2, 3, 5, 5)
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2, 3 * 9, 5 * 5)

    def test_center_patch_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols = im2col(x, 3, 3, 1, 0)
        # first patch = rows 0-2, cols 0-2
        expected = x[0, 0, 0:3, 0:3].reshape(-1)
        np.testing.assert_array_equal(cols[0, :, 0], expected)

    def test_padding_zeros(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        cols = im2col(x, 3, 3, 1, 1)
        # corner patch includes 5 padded zeros
        assert cols[0, :, 0].sum() == 4.0

    def test_stride_skips(self):
        x = np.arange(36, dtype=np.float32).reshape(1, 1, 6, 6)
        cols = im2col(x, 2, 2, 2, 0)
        assert cols.shape == (1, 4, 9)
        np.testing.assert_array_equal(cols[0, :, 0], [0, 1, 6, 7])
        np.testing.assert_array_equal(cols[0, :, 1], [2, 3, 8, 9])

    def test_channel_major_rows_are_tap_images(self):
        """Row (c, i, j) of image n is the strided (oh, ow) image of that
        tap: the layout contract ``W @ cols`` relies on."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 7, 6)).astype(np.float32)
        cols = im2col(x, 3, 2, 2, 0).reshape(2, 3, 3, 2, 3, 3)
        for i in range(3):
            for j in range(2):
                np.testing.assert_array_equal(
                    cols[:, :, i, j], x[:, :, i:i + 5:2, j:j + 5:2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_preserved(self, dtype):
        x = np.ones((1, 2, 5, 5), dtype=dtype)
        assert im2col(x, 3, 3, 1, 1).dtype == dtype
        assert im2col(x, 1, 1, 1, 0).dtype == dtype

    def test_input_not_written(self):
        x = np.arange(50, dtype=np.float32).reshape(1, 2, 5, 5)
        before = x.copy()
        im2col(x, 3, 3, 2, 1)
        np.testing.assert_array_equal(x, before)


#: generated (N, C, H, W, k, stride, pad): non-square, k > stride and k < stride
_geometry = dict(
    n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(3, 9),
    w=st.integers(3, 9), k=st.integers(1, 4), stride=st.integers(1, 3),
    pad=st.integers(0, 2), seed=st.integers(0, 10**6),
)


class TestCol2Im:
    def test_roundtrip_non_overlapping(self):
        # kernel == stride: col2im(im2col(x)) == x exactly
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, 2, 2, 2, 0)
        back = col2im(cols, x.shape, 2, 2, 2, 0)
        np.testing.assert_allclose(back, x, rtol=1e-6)

    def test_overlap_counts(self):
        # all-ones columns scatter to per-pixel patch-coverage counts:
        # 4x4 input, 3x3 kernel, pad 0 -> 2x2 patches
        x_shape = (1, 1, 4, 4)
        cols = np.ones((1, 9, 4), dtype=np.float32)
        img = col2im(cols, x_shape, 3, 3, 1, 0)
        # corner covered by one patch; center pixels by all four
        assert img[0, 0, 0, 0] == 1.0
        assert img[0, 0, 1, 1] == 4.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            col2im(np.ones((5, 5)), (1, 1, 4, 4), 3, 3, 1, 0)
        # A row-major (N*oh*ow, C*kh*kw) patch matrix is not this layout.
        with pytest.raises(ValueError):
            col2im(np.ones((4, 9)), (1, 1, 4, 4), 3, 3, 1, 0)

    @settings(max_examples=60, deadline=None)
    @given(**_geometry)
    def test_adjoint_property(self, n, c, h, w, k, stride, pad, seed):
        """col2im is the exact adjoint of im2col:
        <im2col(x), y> == <x, col2im(y)> for all x, y."""
        if min(h, w) + 2 * pad < k:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w))
        cols = im2col(x, k, k, stride, pad)
        oh = conv_output_size(h, k, stride, pad)
        ow = conv_output_size(w, k, stride, pad)
        assert cols.shape == (n, c * k * k, oh * ow)
        y = rng.normal(size=cols.shape)
        back = col2im(y, x.shape, k, k, stride, pad)
        assert back.shape == x.shape
        lhs, rhs = float((cols * y).sum()), float((x * back).sum())
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


class TestBatchGemm:
    """Per-image GEMMs and the one folded GEMM (few columns per image) are
    the same contraction; both sides of the threshold, and batch 1."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("p", [5, _FOLD_BELOW - 1, _FOLD_BELOW, 200])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_against_einsum(self, rng, n, p, dtype):
        a = rng.normal(size=(6, 7)).astype(np.float32)
        b = rng.normal(size=(n, 7, p)).astype(dtype)
        g = rng.normal(size=(n, 6, p)).astype(dtype)
        for lhs in (a, np.ascontiguousarray(a.T).T):     # a weight .T view
            out = _batch_matmul(lhs, b)
            assert out.shape == (n, 6, p) and out.flags.c_contiguous
            assert out.dtype == dtype
            np.testing.assert_allclose(
                out, np.einsum("mk,nkp->nmp", a.astype(np.float64), b),
                rtol=1e-4, atol=1e-4)
        outer = _batch_outer(g, b)
        assert outer.shape == (6, 7) and outer.dtype == dtype
        np.testing.assert_allclose(
            outer, np.einsum("nmp,nkp->mk", g.astype(np.float64), b),
            rtol=1e-4, atol=1e-3)

    def test_batch_equals_stacked_single_images_across_the_threshold(self):
        """An 11x11 output (121 columns) folds, 12x12 (144) does not; either
        way image i of a batch is what image i alone gives."""
        rng = np.random.default_rng(5)
        for hw in (11, 12):
            conv = Conv2D(3, 4, 3, rng=1)
            x = rng.normal(size=(3, 3, hw, hw)).astype(np.float32)
            g = rng.normal(size=(3, 4, hw, hw)).astype(np.float32)
            out = conv.forward(x)
            conv.zero_grad()
            gin = conv.backward(g)
            gw = conv.weight.grad.copy()
            conv.zero_grad()
            for i in range(3):
                np.testing.assert_allclose(conv.forward(x[i:i + 1])[0], out[i],
                                           rtol=1e-5, atol=1e-5)
                np.testing.assert_allclose(conv.backward(g[i:i + 1])[0], gin[i],
                                           rtol=1e-5, atol=1e-5)
            np.testing.assert_allclose(conv.weight.grad, gw, rtol=1e-4,
                                       atol=1e-4)


def direct_conv(x, weight, bias, stride, pad):
    """Cross-correlation written out as nested loops: no lowering, no GEMM."""
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    out = np.zeros((n, f, oh, ow), dtype=np.float64)
    for b in range(n):
        for o in range(f):
            for y in range(oh):
                for z in range(ow):
                    patch = xp[b, :, y * stride:y * stride + kh,
                               z * stride:z * stride + kw]
                    out[b, o, y, z] = (patch * weight[o]).sum() + bias[o]
    return out


class TestConvOnTheLowering:
    """Conv2D over generated (N, C, H, W, k, stride, pad), non-square
    included, against the nested loops."""

    @settings(max_examples=40, deadline=None)
    @given(f=st.integers(1, 4), dtype=st.sampled_from([np.float32, np.float64]),
           **_geometry)
    def test_conv_forward_matches_direct_loops(self, n, c, h, w, k, stride,
                                               pad, seed, f, dtype):
        if min(h, w) + 2 * pad < k:
            return
        rng = np.random.default_rng(seed)
        conv = Conv2D(c, f, k, stride=stride, pad=pad, rng=seed)
        conv.bias.data[...] = rng.normal(size=f).astype(np.float32)
        x = rng.normal(size=(n, c, h, w)).astype(dtype)
        before = x.copy()
        out = conv.forward(x)
        ref = direct_conv(x, conv.weight.data, conv.bias.data, stride, pad)
        # The layout contract: NCHW, C-contiguous, a fresh array in the
        # input's dtype (float32 weights do not demote a float64 input).
        assert out.shape == ref.shape and out.flags.c_contiguous
        assert out.dtype == dtype
        assert not np.shares_memory(out, x)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(f=st.integers(1, 3), **_geometry)
    def test_conv_backward_is_the_adjoint_of_forward(self, n, c, h, w, k,
                                                     stride, pad, seed, f):
        """<forward(x) - bias, g> == <x, backward(g)> in float64, and the
        weight gradient is the direct-loop forward's derivative."""
        if min(h, w) + 2 * pad < k:
            return
        rng = np.random.default_rng(seed)
        conv = Conv2D(c, f, k, stride=stride, pad=pad, rng=seed)
        x = rng.normal(size=(n, c, h, w))
        out = conv.forward(x)
        g = rng.normal(size=out.shape)
        conv.zero_grad()
        grad_in = conv.backward(g)
        assert grad_in.shape == x.shape and grad_in.dtype == np.float64
        lhs, rhs = float((out * g).sum()), float((x * grad_in).sum())
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))
        # d<conv(x), g>/dW[o] = sum over positions of g * patch: linear in
        # W, so <W, weight.grad> == <conv(x), g> (bias is zero).
        w_dot = float((conv.weight.data.astype(np.float64)
                       * conv.weight.grad).sum())
        assert abs(w_dot - lhs) < 1e-3 * max(1.0, abs(lhs))
        np.testing.assert_allclose(conv.bias.grad, g.sum(axis=(0, 2, 3)),
                                   rtol=1e-4, atol=1e-4)
