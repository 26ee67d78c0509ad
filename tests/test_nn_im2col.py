"""im2col/col2im: shapes, values, the adjoint property, Conv2D on top of
the lowering against a convolution written out as nested loops, and the
banded fused forms against the same layers run in one shot.

Columns are per-image and channel-major: ``cols[n, (c, i, j), (y, x)]`` is
tap ``(i, j)`` of channel ``c`` in the patch at output position ``(y, x)``."""

import contextlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import Sequential
from repro.core.initializers import undrawn
from repro.core.module import run_layers
from repro.models import build_hep_net
from repro.models.climate import PAPER_DECODER, PAPER_ENCODER, ClimateNet
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.deconv import Deconv2D
from repro.nn.im2col import (
    _BAND_BYTES, _FOLD_BELOW, _THIN_BELOW, _bands, _batch_matmul,
    _batch_outer, _patches, col2im, conv_output_size, deconv_output_size,
    im2col)
from repro.nn.pooling import MaxPool2D
from repro.nn.winograd import WinogradConv2D

#: the module itself (``repro.nn.im2col`` the attribute is the function)
lowering = sys.modules["repro.nn.im2col"]


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


def np_pad_patches(x, kh, kw, stride, pad):
    """``_patches`` as it was: the zero border by ``np.pad``."""
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return _patches(x, kh, kw, stride, 0)


class TestPatches:
    @settings(max_examples=100, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           layout=st.sampled_from(["contiguous", "strided", "transposed"]),
           **{**_geometry, "pad": st.integers(0, 3)})
    def test_the_zero_border_is_np_pads(self, n, c, h, w, k, stride, pad,
                                        seed, dtype, layout):
        """``np.zeros`` plus one slice assignment write the bytes ``np.pad``
        writes (in 50-100 us more a call), whatever the input's strides."""
        assume(min(h, w) + 2 * pad >= k)
        rng = np.random.default_rng(seed)
        if layout == "transposed":
            x = rng.normal(size=(n, c, w, h)).astype(dtype).transpose(0, 1, 3, 2)
        else:
            x = rng.normal(size=(n, c, h, 2 * w)).astype(dtype)
            x = x[..., ::2] if layout == "strided" else x[..., :w].copy()
        assert x.flags.c_contiguous == (layout == "contiguous")
        got, ref = (f(x, k, k, stride, pad)
                    for f in (_patches, np_pad_patches))
        assert got.dtype == ref.dtype == dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert not got.flags.writeable


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
    """Per-image GEMMs and the one folded GEMM (few columns per image, and
    more weight rows than columns) are the same contraction; both sides of
    both thresholds, and batch 1."""

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

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("p", [5, _FOLD_BELOW - 1, _FOLD_BELOW])
    @pytest.mark.parametrize("more", [-1, 0, 1])
    def test_folds_where_the_weights_outweigh_the_columns(self, rng,
                                                          monkeypatch,
                                                          n, p, more):
        """``m`` rows of weights against ``p`` columns an image: folded for
        ``m > p`` under ``_FOLD_BELOW`` columns, batched from ``m == p`` on
        (hybrid ``conv4``: 16 filters, 4x4 images). The batched forms are the
        only calls of ``np.matmul`` by name; the forms agree to rounding."""
        m = p + more
        folds = n > 1 and p < _FOLD_BELOW and m > p
        assert lowering._folds(n, m, p) == folds
        a = rng.normal(size=(m, 7)).astype(np.float32)
        b = rng.normal(size=(n, 7, p)).astype(np.float32)
        g = rng.normal(size=(n, m, p)).astype(np.float32)
        batched, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: (
            batched.append(args[0].shape), matmul(*args, **kwargs))[1])
        out, outer = _batch_matmul(a, b), _batch_outer(g, b)
        assert batched == ([] if folds else [a.shape, g.shape])
        monkeypatch.setattr(lowering, "_folds", lambda *args: not folds)
        other, other_outer = _batch_matmul(a, b), _batch_outer(g, b)
        assert len(batched) == 2        # ... and now the other two ran
        np.testing.assert_allclose(other, out, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(other_outer, outer, rtol=1e-5,
                                   atol=1e-5 * np.abs(outer).max())

    def test_batch_equals_stacked_single_images_across_the_threshold(self):
        """A 3x3 output (9 columns against 16 filters) folds, 11x11 (121) and
        12x12 (144) do not; either way image i of a batch is what image i
        alone gives."""
        rng = np.random.default_rng(5)
        for hw in (3, 11, 12):
            conv = Conv2D(3, 16, 3, rng=1)
            x = rng.normal(size=(3, 3, hw, hw)).astype(np.float32)
            g = rng.normal(size=(3, 16, hw, hw)).astype(np.float32)
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


class TestGradOutIsCheckedAtTheBoundary:
    """``backward`` rejects, by layer name, a ``grad_out`` that is not the
    forward's output shape: one of another size used to die inside
    ``matmul``, one of equal size (twice the batch of half-height maps) was
    silently reshaped and used. ``lowered_outer`` checks ``g``'s batch and
    positions itself, before it picks a form."""

    LAYERS = {Conv2D: lambda: Conv2D(3, 4, 3, rng=0),
              Deconv2D: lambda: Deconv2D(3, 4, 3, stride=1, rng=0),
              WinogradConv2D: lambda: WinogradConv2D(3, 4, rng=0)}

    @pytest.mark.parametrize("layer_cls", LAYERS)
    @pytest.mark.parametrize("shape", [
        (2, 4, 7, 7), (8, 4, 4, 8), (4, 4, 64), (4, 8, 8, 4)])
    def test_backward_names_the_layer(self, layer_cls, shape):
        layer = self.LAYERS[layer_cls]()
        layer.forward(np.ones((4, 3, 8, 8), np.float32))
        with pytest.raises(ValueError, match=rf"{layer.name}: expected "
                           r"grad_out of shape \(4, 4, 8, 8\), got"):
            layer.backward(np.ones(shape, np.float32))
        assert not layer.weight.grad.any() and not layer.bias.grad.any()
        layer.backward(np.ones((4, 4, 8, 8), np.float32))
        assert layer.weight.grad.any()

    @pytest.mark.parametrize("band_bytes", [1, _BAND_BYTES])
    @pytest.mark.parametrize("shape", [(8, 4, 4, 8), (4, 4, 7, 8), (4, 4, 63)])
    def test_lowered_outer_checks_before_it_picks_a_form(self, band_bytes,
                                                         shape):
        x = np.zeros((4, 3, 8, 8), np.float32)
        with budget(band_bytes, fold_below=1), winograd_everywhere() as calls:
            with pytest.raises(ValueError, match="does not lower an image"):
                lowering.lowered_outer(np.ones(shape, np.float32), x,
                                       3, 3, 1, 1)
            assert not calls
            for flat in (False, True):      # (N, M, oh, ow) or (N, M, oh*ow)
                g = np.ones((4, 4, 64) if flat else (4, 4, 8, 8), np.float32)
                assert lowering.lowered_outer(g, x, 3, 3, 1, 1).shape \
                    == (4, 27)


@contextlib.contextmanager
def budget(band_bytes, fold_below=_FOLD_BELOW, thin_below=_THIN_BELOW):
    """Run with the band budget (and the fold threshold, and the separable
    form's thin-side cap) turned, so test-sized layers band the way 100 MB
    ones do."""
    saved = lowering._BAND_BYTES, lowering._FOLD_BELOW, lowering._THIN_BELOW
    lowering._BAND_BYTES, lowering._FOLD_BELOW, lowering._THIN_BELOW = \
        band_bytes, fold_below, thin_below
    try:
        yield
    finally:
        (lowering._BAND_BYTES, lowering._FOLD_BELOW,
         lowering._THIN_BELOW) = saved


@contextlib.contextmanager
def separable_everywhere():
    """Every banded layer takes the separable form, whatever the rows-moved
    rule says. The rule never picks ``k <= stride`` or a wide thin side,
    but the form may not lean on the rule to be right. Yields the calls."""
    calls = []
    saved = (lowering._separable, lowering._separable_col2im,
             lowering._row_lowering)

    def spy(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    lowering._separable = lambda *args: True
    lowering._separable_col2im, lowering._row_lowering = map(spy, saved[1:])
    try:
        yield calls
    finally:
        (lowering._separable, lowering._separable_col2im,
         lowering._row_lowering) = saved


@contextlib.contextmanager
def winograd_everywhere(on=True):
    """Every banded 3x3 / stride-1 layer takes the F(4x4, 3x3) form
    whatever the multiplies rule says, or (``on=False``: the lowering as it
    was before the form) none does, or (``on=None``) the rule decides.
    Yields the input shapes of the calls that took it, a weight gradient's
    as ``("outer", shape)``."""
    calls = []
    saved = lowering._winograd, lowering._tile_lowering, lowering._tile_outer

    def spy(fn, outer):
        def wrapped(*args):
            calls.append(("outer", args[1].shape) if outer else args[1].shape)
            return fn(*args)
        return wrapped

    lowering._tile_lowering = spy(saved[1], False)
    lowering._tile_outer = spy(saved[2], True)
    if on is not None:
        lowering._winograd = lambda *shape: on
    try:
        yield calls
    finally:
        (lowering._winograd, lowering._tile_lowering,
         lowering._tile_outer) = saved


@contextlib.contextmanager
def rules_fitted_on_the_big_nets():
    """The three shape rules before they read small shapes: fold on the
    column count alone, pad by ``np.pad``, cut whole-image bands greedily."""
    saved = lowering._folds, lowering._patches, lowering._bands

    def greedy(n, rows, oh, ow, itemsize, multiple=1):
        bands = saved[2](n, rows, oh, ow, itemsize, multiple)
        if bands and bands[0][2:] == (0, oh):
            step = max(lowering._BAND_BYTES // (rows * ow * itemsize),
                       -(-lowering._FOLD_BELOW // ow)) // oh
            bands = [(i, min(i + step, n), 0, oh) for i in range(0, n, step)]
        return bands

    lowering._folds = lambda n, rows, p: n > 1 and p < lowering._FOLD_BELOW
    lowering._patches, lowering._bands = np_pad_patches, greedy
    try:
        yield
    finally:
        lowering._folds, lowering._patches, lowering._bands = saved


def train_step(layer_cls, shape, f, k, stride, pad, dtype, seed):
    """One training forward + backward of a freshly seeded layer:
    ``(output, grad_in, weight.grad, bias.grad, kept columns)``."""
    rng = np.random.default_rng(seed)
    layer = layer_cls(shape[1], f, k, stride=stride, pad=pad, rng=seed)
    layer.bias.data[...] = rng.normal(size=f).astype(np.float32)
    x = rng.normal(size=shape).astype(dtype)
    out = layer.forward(x)
    kept = layer._cache[1] if layer_cls is Conv2D else None
    grad_in = layer.backward(rng.normal(size=out.shape).astype(dtype))
    return out, grad_in, layer.weight.grad, layer.bias.grad, kept


class TestBands:
    """``_bands`` cuts ``(n, rows, oh*ow)`` columns by the byte budget."""

    ROW = 10 * 8 * 4            # bytes of one output row: rows=10, ow=8, f32

    def bands(self, n, oh, band_bytes, fold_below=1):
        with budget(band_bytes, fold_below):
            return _bands(n, 10, oh, 8, 4)

    def test_whole_batch_that_fits_goes_in_one_shot(self):
        assert self.bands(3, 7, 3 * 7 * self.ROW) is None
        assert self.bands(3, 7, 3 * 7 * self.ROW - 1) is not None

    def test_an_image_below_the_fold_is_never_banded(self):
        # 7 rows of 8 columns = 56 < 57: one shot at any budget, so the
        # weights are streamed once for the whole batch (_batch_matmul).
        assert self.bands(3, 7, 1, fold_below=57) is None
        assert self.bands(3, 7, 1, fold_below=56) is not None
        with budget(1):
            assert _bands(8, 10**4, 11, 11, 4) is None      # 121 columns
            assert _bands(8, 10**4, 12, 12, 4) is not None  # 144

    def test_one_row_bands(self):
        assert self.bands(2, 3, 1) == [
            (0, 1, 0, 1), (0, 1, 1, 2), (0, 1, 2, 3),
            (1, 2, 0, 1), (1, 2, 1, 2), (1, 2, 2, 3)]

    def test_ragged_last_band_is_evened_out(self):
        # Room for 5 rows, 7 to cut: 4 + 3, not 5 + 2.
        assert self.bands(1, 7, 5 * self.ROW) == [(0, 1, 0, 4), (0, 1, 4, 7)]
        assert self.bands(1, 7, 3 * self.ROW) == [
            (0, 1, 0, 3), (0, 1, 3, 6), (0, 1, 6, 7)]

    def test_small_images_band_in_groups(self):
        # Room for two whole 4-row images and a bit: 3 images go 2 + 1.
        assert self.bands(3, 4, 9 * self.ROW) == [(0, 2, 0, 4), (2, 3, 0, 4)]

    def test_groups_of_images_are_evened_out(self):
        # Room for 28 of the hybrid net's 32 conv2 images: 16 + 16, not
        # 28 + 4; the first band stays the largest (_band_buffer sizes by it).
        assert _bands(32, 144, 16, 16, 4) == [(0, 16, 0, 16), (16, 32, 0, 16)]
        assert self.bands(10, 4, 17 * self.ROW) == [
            (0, 4, 0, 4), (4, 7, 0, 4), (7, 10, 0, 4)]

    @given(n=st.integers(1, 70), oh=st.integers(1, 5), room=st.integers(1, 30))
    def test_whole_image_bands_tile_the_batch_within_one_image(self, n, oh,
                                                               room):
        bands = self.bands(n, oh, room * oh * self.ROW)
        if n <= room:
            assert bands is None
            return
        assert [b[2:] for b in bands] == [(0, oh)] * len(bands)
        assert [b[0] for b in bands] + [n] == [0] + [b[1] for b in bands]
        sizes = [i1 - i0 for i0, i1, _, _ in bands]
        assert len(sizes) == -(-n // room)      # no more bands than greedy
        assert min(sizes) >= sizes[0] - 1 and max(sizes) == sizes[0] <= room

    def test_a_band_has_fold_below_columns_whatever_the_budget(self):
        # 20 columns at 8 a row: 3-row bands although the budget says 1.
        assert self.bands(1, 6, 1, fold_below=20) == [
            (0, 1, 0, 3), (0, 1, 3, 6)]


class TestBandedEqualsOneShot:
    """A layer cut into bands computes what the same layer computes in one
    shot: forward, ``grad_in``, ``weight.grad``, ``bias.grad``, to
    summation-order tolerance and in the same dtypes."""

    @staticmethod
    def check(layer_cls, shape, f, k, stride, pad, dtype, seed, band_bytes):
        args = (layer_cls, shape, f, k, stride, pad, dtype, seed)
        with budget(1 << 40):
            ref = train_step(*args)
        with budget(band_bytes, fold_below=1):
            got = train_step(*args)
        if layer_cls is Conv2D:
            assert ref[4] is not None       # one shot keeps its columns
        tol = dict(rtol=1e-4, atol=1e-4) if dtype == np.float32 \
            else dict(rtol=1e-10, atol=1e-10)
        for a, b in zip(got[:4], ref[:4]):
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_allclose(a, b, **tol)
        return got

    @settings(max_examples=80, deadline=None)
    @given(layer_cls=st.sampled_from([Conv2D, Deconv2D]),
           f=st.integers(1, 4),
           dtype=st.sampled_from([np.float32, np.float64]),
           band_bytes=st.sampled_from([1, 300, 1000, 3000, 10000, 40000]),
           **_geometry)
    def test_generated_geometries(self, layer_cls, n, c, h, w, k, stride,
                                  pad, seed, f, dtype, band_bytes):
        if layer_cls is Conv2D:
            if min(h, w) + 2 * pad < k:
                return
        elif (min(h, w) - 1) * stride - 2 * pad + k <= 0:
            return
        self.check(layer_cls, (n, c, h, w), f, k, stride, pad, dtype, seed,
                   band_bytes)

    @pytest.mark.parametrize("layer_cls", [Conv2D, Deconv2D])
    @pytest.mark.parametrize("band_bytes", [
        1,          # one-row bands
        1100,       # one or two rows (conv: 2+2+2+2+1 of 9)
        12000,      # whole images (conv: 2+1 of 3)
    ])
    def test_band_shapes_each_exercised(self, layer_cls, band_bytes):
        got = self.check(layer_cls, (3, 2, 9, 7), 3, 3, 1, 1, np.float32, 5,
                         band_bytes)
        assert got[4] is None               # banded: only x is cached

    def test_stride_that_does_not_divide(self):
        """(H + 2p - k) % stride != 0: the last input rows feed no output
        row, and no band may read or write them."""
        for h, k, s, p in [(8, 3, 2, 0), (10, 4, 3, 1), (9, 2, 3, 0)]:
            assert (h + 2 * p - k) % s != 0
            for band_bytes in (1, 700):
                self.check(Conv2D, (2, 2, h, h + 1), 3, k, s, p, np.float64,
                           h, band_bytes)

    @pytest.mark.parametrize("layer_cls", [Conv2D, Deconv2D])
    def test_image_below_the_fold_is_bit_equal_at_any_budget(self, layer_cls):
        """11x11 = 121 columns < _FOLD_BELOW: never banded, so a one-byte
        budget changes nothing, and a conv keeps the columns it built."""
        args = (layer_cls, (3, 2, 11, 11), 4, 3, 1, 1, np.float32, 9)
        ref = train_step(*args)
        with budget(1):
            got = train_step(*args)
        for a, b in zip(got[:4], ref[:4]):
            np.testing.assert_array_equal(a, b)
        if layer_cls is Conv2D:
            assert got[4] is not None
            with budget(1):
                banded = train_step(layer_cls, (3, 2, 12, 12), 4, 3, 1, 1,
                                    np.float32, 9)
            assert banded[4] is None        # 144 columns: banded

    def test_one_by_one_conv_columns_are_the_input(self):
        """A 1x1/stride-1 lowering is a view of ``x``: nothing to band."""
        with budget(1, fold_below=1):
            *_, kept = train_step(Conv2D, (2, 3, 12, 12), 4, 1, 1, 0,
                                  np.float32, 2)
        assert kept is not None


class TestSeparableEqualsOneShot:
    """The separable form (row taps gathered, column taps carried by the
    GEMM) computes what the one-shot path computes: forward, ``grad_in``,
    ``weight.grad``, ``bias.grad``, within 1e-5 relative, in the same dtype,
    C-contiguous. Forced on everywhere: ``k < stride`` (parities no tap
    reaches), ``k % stride != 0`` (tap counts differ by phase), non-square
    images and one-row bands included."""

    @staticmethod
    def check(layer_cls, shape, f, k, stride, pad, dtype, seed, band_bytes):
        args = (layer_cls, shape, f, k, stride, pad, dtype, seed)
        with budget(1 << 40):
            ref = train_step(*args)
        with budget(band_bytes, fold_below=1), separable_everywhere() as calls:
            got = train_step(*args)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        assert got[0].flags.c_contiguous
        for a, b in zip(got[:4], ref[:4]):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())
        return calls

    @settings(max_examples=150, deadline=None)
    @given(layer_cls=st.sampled_from([Conv2D, Deconv2D]),
           n=st.integers(1, 3), c=st.integers(1, 4), f=st.integers(1, 4),
           h=st.integers(3, 10), w=st.integers(3, 10), k=st.integers(1, 5),
           stride=st.integers(1, 3), pad=st.integers(0, 2),
           dtype=st.sampled_from([np.float32, np.float64]),
           band_bytes=st.sampled_from([1, 300, 1000, 3000, 10000]),
           seed=st.integers(0, 10**6))
    def test_generated_geometries(self, layer_cls, n, c, h, w, f, k, stride,
                                  pad, dtype, band_bytes, seed):
        if layer_cls is Conv2D:
            assume(min(h, w) + 2 * pad >= k)
        else:
            assume((min(h, w) - 1) * stride - 2 * pad + k > 0)
        self.check(layer_cls, (n, c, h, w), f, k, stride, pad, dtype, seed,
                   band_bytes)

    @pytest.mark.parametrize("layer_cls, k, stride, pad", [
        (Deconv2D, 5, 1, 2), (Deconv2D, 4, 2, 1),       # the decoder's
        (Deconv2D, 2, 3, 0), (Deconv2D, 1, 2, 0),       # k < stride
        (Deconv2D, 5, 2, 1), (Deconv2D, 4, 3, 2),       # k % stride != 0
        (Conv2D, 5, 2, 2), (Conv2D, 3, 1, 1), (Conv2D, 2, 3, 1),
        (Conv2D, 5, 3, 0), (Conv2D, 4, 2, 3),
    ])
    def test_both_passes_take_the_form(self, layer_cls, k, stride, pad):
        for band_bytes in (1, 2000):
            calls = self.check(layer_cls, (2, 3, 9, 7), 4, k, stride, pad,
                               np.float32, 3, band_bytes)
            # Forward one way, the data gradient the other; a stride-1
            # conv's data gradient is the conv it is.
            both = layer_cls is Deconv2D or stride > 1
            assert band_bytes > 1 and not calls or set(calls) == (
                {"_row_lowering", "_separable_col2im"} if both
                else {"_row_lowering"})

    @pytest.mark.parametrize("layer_cls", [Conv2D, Deconv2D])
    def test_a_one_shot_layer_never_asks_the_rule(self, layer_cls):
        """Small layers keep the parent's path bit for bit: whatever the
        rule would say, it is not consulted."""
        args = (layer_cls, (3, 2, 12, 12), 4, 5, 1, 2, np.float32, 9)
        ref = train_step(*args)
        with separable_everywhere() as calls:
            got = train_step(*args)
        assert not calls
        for a, b in zip(got[:4], ref[:4]):
            np.testing.assert_array_equal(a, b)

    def test_the_cap_is_the_constant(self):
        """``dec_deconv3`` (108 -> 54, 4x4/2) sits under the cap and
        ``dec_deconv2`` (216 -> 108) over it; turning it moves both."""
        rule = lowering._separable
        assert rule(108, 54, 4, 2, False) and not rule(216, 108, 4, 2, False)
        with budget(_BAND_BYTES, thin_below=217):
            assert lowering._separable(216, 108, 4, 2, False)
        with budget(_BAND_BYTES, thin_below=108):
            assert not lowering._separable(108, 54, 4, 2, False)
        # ... but never past the rows: nothing to separate at k <= stride
        with budget(_BAND_BYTES, thin_below=10**9):
            assert not lowering._separable(1, 64, 2, 2, False)
            assert not lowering._separable(64, 8, 3, 1, True)


class TestWinogradFormEqualsTheLayers:
    """The banded F(4x4, 3x3) form of ``lowered_matmul`` computes what the
    whole-image ``WinogradConv2D(tile_size=4)`` computes (same transforms,
    other GEMM shapes: 1e-5 relative in float32, 1e-12 in float64) and what
    the direct form computes (1e-4, 1e-12), in the input's dtype,
    C-contiguous, with and without an epilogue, and its data gradient is the
    adjoint of its forward. The form of ``lowered_outer`` computes what its
    direct form computes (1e-5, 1e-12). Forced on everywhere: outputs that
    are no multiple of 4 (the last tile row and column are cropped, a
    gradient's zero-filled), pads 0-2 (what a data gradient's flipped-kernel
    conv uses) and one-tile-row bands included."""

    @staticmethod
    def layers(c, f, pad, seed):
        rng = np.random.default_rng(seed)
        conv = Conv2D(c, f, 3, pad=pad, rng=seed)
        conv.bias.data[...] = rng.normal(size=f)
        whole = WinogradConv2D(c, f, pad=pad, tile_size=4)
        whole.weight, whole.bias = conv.weight, conv.bias
        return conv, whole

    @staticmethod
    def close(got, ref, tol):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.flags.c_contiguous
        assert np.abs(got - ref).max() <= tol * max(1.0, np.abs(ref).max())

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 5), f=st.integers(1, 5),
           h=st.integers(1, 14), w=st.integers(1, 14), pad=st.integers(0, 2),
           dtype=st.sampled_from([np.float32, np.float64]),
           band_bytes=st.sampled_from([1, 3000, 20000, _BAND_BYTES]),
           seed=st.integers(0, 10**6))
    def test_generated_geometries(self, n, c, f, h, w, pad, dtype,
                                  band_bytes, seed):
        assume(min(h, w) + 2 * pad >= 3)
        conv, whole = self.layers(c, f, pad, seed)
        x = np.random.default_rng(seed).normal(size=(n, c, h, w)) \
            .astype(dtype)
        with budget(1 << 40):
            direct = conv.forward(x)
        with budget(band_bytes, fold_below=1), winograd_everywhere() as calls:
            assume(lowering._lowering_bands(x, 3, 3, 1, pad))
            got = conv.forward(x)
            assert calls == [x.shape]
            loose, tight = (1e-4, 1e-5) if dtype == np.float32 \
                else (1e-12, 1e-12)
            self.close(got, direct, loose)
            self.close(got, whole.forward(x), tight)
            if got.shape[2] % 2 or got.shape[3] % 2:
                return
            # the head of a fused eval group: each band through bias,
            # pool and ReLU while it is in cache
            then = [MaxPool2D(2).eval(), ReLU().eval()]
            fused = conv.eval().forward(x, then)
            assert calls == [x.shape] * 2
            np.testing.assert_array_equal(fused, run_layers(then, got))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 5), f=st.integers(1, 5),
           h=st.integers(1, 14), w=st.integers(1, 14), pad=st.integers(0, 2),
           dtypes=st.tuples(*[st.sampled_from([np.float32, np.float64])] * 2),
           band_bytes=st.sampled_from([1, 3000, 20000, _BAND_BYTES]),
           seed=st.integers(0, 10**6))
    def test_generated_weight_gradients(self, n, c, f, h, w, pad, dtypes,
                                        band_bytes, seed):
        """``lowered_outer`` as ``Conv2D.backward`` calls it and, through a
        stride-1 ``Deconv2D`` whose input is ``g`` and whose output
        gradient is ``x``, the other way round."""
        assume(min(h, w) + 2 * pad >= 3)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w)).astype(dtypes[0])
        g = rng.normal(size=(n, f, h + 2 * pad - 2, w + 2 * pad - 2)) \
            .astype(dtypes[1])
        deconv = Deconv2D(f, c, 3, stride=1, pad=pad, rng=seed)
        with budget(band_bytes, fold_below=1):
            assume(lowering._lowering_bands(x, 3, 3, 1, pad))
            with winograd_everywhere(False):
                direct = lowering.lowered_outer(g, x, 3, 3, 1, pad)
            with winograd_everywhere() as calls:
                got = lowering.lowered_outer(g, x, 3, 3, 1, pad)
                assert calls == [("outer", x.shape)]
                deconv.forward(g)
                deconv.backward(x)
                assert ("outer", x.shape) in calls[1:]
        assert got.dtype == np.result_type(g, x)
        tol = 1e-5 if got.dtype == np.float32 else 1e-12
        self.close(got, direct, tol)
        self.close(deconv.weight.grad.reshape(f, -1),     # float32, as stored
                   direct.astype(np.float32), max(tol, 1e-6))

    @pytest.mark.parametrize("size, band_bytes", [(24, 1), (36, 20000)])
    def test_bands_are_whole_pool_windows(self, size, band_bytes, rng):
        """A 3x3 pool behind the conv: bands of 3 tile rows (12 output
        rows), the least that is whole tiles and whole windows."""
        conv, _ = self.layers(3, 4, 1, 2)
        x = rng.normal(size=(2, 3, size, size)).astype(np.float32)
        then = [MaxPool2D(3).eval()]
        with budget(band_bytes, fold_below=1), winograd_everywhere() as calls:
            fused = conv.eval().forward(x, then)
            whole = run_layers(then, conv.forward(x))
        assert len(calls) == 2
        np.testing.assert_allclose(fused, whole, rtol=1e-5, atol=1e-5)

    def test_a_training_step_in_the_form_is_its_own_adjoint(self):
        """A 64 -> 64 layer the rule itself picks (64 tiles for 64
        channels), banded by a turned budget, in float64: the forward in the
        form, ``Conv2D.backward``'s data gradient in the form (the conv of
        ``grad_out`` with the flipped kernels) and its weight gradient in
        the form, against central differences along random directions."""
        rng = np.random.default_rng(3)
        conv = Conv2D(64, 64, 3, rng=3)
        conv.weight.data = conv.weight.data.astype(np.float64)
        x = rng.normal(size=(4, 64, 16, 16))
        g = rng.normal(size=x.shape)

        def loss():
            return float((conv.forward(x) * g).sum())

        with budget(1 << 20), winograd_everywhere(on=None) as calls:
            conv.forward(x)
            grad_in = conv.backward(g)
            assert calls == [x.shape, ("outer", x.shape), g.shape]
            for array, grad in [(x, grad_in),
                                (conv.weight.data, conv.weight.grad),
                                (conv.bias.data, conv.bias.grad)]:
                step = rng.normal(size=array.shape)
                array += 1e-4 * step
                up = loss()
                array -= 2e-4 * step
                down = loss()
                array += 1e-4 * step
                slope = (up - down) / 2e-4
                assert abs(slope - (grad * step).sum()) \
                    <= 1e-7 * max(1.0, abs(slope))


class TestTheTileFormPools:
    """A fused eval ``Conv2D`` -> ``MaxPool2D(k)`` -> ``ReLU`` group whose
    conv takes the F(4x4, 3x3) form pools the 4x4 blocks of its product
    before it weaves them (``k`` dividing 4) and adds the bias after the
    pool, and is bit for bit the layer-by-layer net: ``fmax`` commutes with
    a per-channel add under round-to-nearest, NaN included, and the slabs
    are paired rows first, then columns, as ``MaxPool2D.forward`` pairs
    them."""

    @staticmethod
    def group(c, f, pad, k, bias_scale, seed):
        conv = Conv2D(c, f, 3, pad=pad, rng=seed)
        conv.bias.data[...] = np.random.default_rng(seed).normal(
            scale=bias_scale, size=f)
        return Sequential([conv, ReLU(), MaxPool2D(k)]).eval()

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([2, 4]), c=st.integers(32, 40),
           f=st.integers(32, 40), pad=st.integers(0, 2),
           tile_rows=st.tuples(st.integers(5, 7), st.integers(5, 7)),
           ragged=st.tuples(st.booleans(), st.booleans()),
           bias_scale=st.sampled_from([1.0, 1e3, 1e6]),
           dtype=st.sampled_from([np.float32, np.float64]),
           band_bytes=st.sampled_from([1, 40000]),
           seed=st.integers(0, 2**16))
    def test_bit_equal_to_layer_by_layer(self, k, c, f, pad, tile_rows,
                                         ragged, bias_scale, dtype,
                                         band_bytes, seed):
        # oh % 4 is 0 or 2 (a ragged last tile row, cropped after the pool)
        oh, ow = (4 * t - 2 * (r and k == 2)
                  for t, r in zip(tile_rows, ragged))
        assert lowering._winograd(2, c, f, oh, ow)
        net = self.group(c, f, pad, k, bias_scale, seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, c, oh - 2 * pad + 2, ow - 2 * pad + 2)) \
            .astype(dtype)
        x[1, :, :6] = 0.0           # whole tiles of exact zeros: tied windows
        flat = x.reshape(-1)        # NaN and inf spread over whole tiles
        picks = rng.choice(flat.size, size=12, replace=False)
        flat[picks] = np.resize(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0],
                                         dtype), picks.size)
        with budget(band_bytes, fold_below=1), np.errstate(invalid="ignore"), \
                winograd_everywhere(None) as calls:
            want = run_layers(net.layers, x)
            got = net.forward(x)
        assert calls == [x.shape] * 2
        assert got.dtype == want.dtype == dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def lowered_layers(net, input_shape):
    """``(layer, its input shape, its output shape)`` for each conv / deconv
    of ``net`` (a ``Sequential``). Shapes only: nothing is computed."""
    shape = tuple(input_shape)
    for layer in net.layers:
        out = layer.output_shape(shape)
        if layer.kind in ("conv", "deconv"):
            yield layer, shape, out
        shape = out


def lowering_forms(net, input_shape, n):
    """``name -> "one-shot" | "direct" | "separable" | "winograd"``: the
    form the forward of each conv / deconv of ``net`` takes on ``(n,) +
    input_shape`` float32 inputs, in training or in a fused eval group."""
    forms = {}
    for layer, shape, out in lowered_layers(net, input_shape):
        c, f = layer.in_channels, layer.out_channels
        k, s, p = layer.kernel_size, layer.stride, layer.pad
        if layer.kind == "conv":
            x = np.broadcast_to(np.float32(0), (n,) + shape)
            banded = any(lowering._lowering_bands(x, k, k, s, p, held)
                         for held in (0, f))
            form = "winograd" if (k, s) == (3, 1) and lowering._winograd(
                n, c, f, *out[1:]) else "separable" \
                if lowering._separable(f, c, k, s, True) else "direct"
        else:
            banded = _bands(n, f * k * k, *shape[1:], 4)
            form = "separable" if lowering._separable(c, f, k, s, False) \
                else "direct"
        forms[layer.name] = form if banded else "one-shot"
    return forms


def separable_layers(net, input_shape, n):
    """Names of the conv / deconv layers of ``net`` that take the separable
    form."""
    return [name for name, form
            in lowering_forms(net, input_shape, n).items()
            if form == "separable"]


def winograd_weight_gradients(net, input_shape, n):
    """Names of the conv / deconv layers of ``net`` whose weight gradient
    (``lowered_outer``: banded without an epilogue's rows) takes the
    F(4x4, 3x3) form on ``(n,) + input_shape`` float32 inputs."""
    names = []
    for layer, shape, out in lowered_layers(net, input_shape):
        # a deconv lowers its output gradient onto its input
        x, g = (shape, out) if layer.kind == "conv" else (out, shape)
        k, s, p = layer.kernel_size, layer.stride, layer.pad
        if (k, s) == (3, 1) and lowering._winograd(n, x[0], *g) \
                and lowering._lowering_bands(
                    np.broadcast_to(np.float32(0), (n,) + x), k, k, s, p):
            names.append(layer.name)
    return names


def gemm_forms(net, input_shape, n):
    """``name -> "banded" | "folded" | "batched"``: how the forward GEMM of
    each conv / deconv of ``net`` runs on ``(n,) + input_shape`` float32
    inputs; a conv's weight gradient has the same shapes."""
    forms = {}
    for layer, shape, out in lowered_layers(net, input_shape):
        f, k = layer.out_channels, layer.kernel_size
        if layer.kind == "conv":
            x = np.broadcast_to(np.float32(0), (n,) + shape)
            banded = lowering._lowering_bands(x, k, k, layer.stride, layer.pad)
            rows, columns = f, out[1] * out[2]
        else:
            banded = _bands(n, f * k * k, *shape[1:], 4)
            rows, columns = f * k * k, shape[1] * shape[2]
        forms[layer.name] = "banded" if banded else \
            "folded" if lowering._folds(n, rows, columns) else "batched"
    return forms


class TestTheRuleIsATable:
    """Which layers of the nets this repo runs take the separable form: the
    four thin ones of the benchmark ClimateNet, and nothing at paper width,
    in the HEP net or in the hybrid trainer's. Which take the F(4x4, 3x3)
    form: the banded 3x3 / stride-1 ones with 32 channels on either side and
    a tile per channel, so HEP-128 ``conv2`` / ``conv3`` and the ClimateNets'
    ``enc_conv2`` / ``enc_conv4`` / ``enc_conv6`` where the images are large
    enough, and nothing in the hybrid trainer's net, the weight gradients
    of the same layers included. And which one-shot
    layers fold their batch into one GEMM: those whose weights outweigh an
    image's columns, so every deep layer of the wide nets and, of the
    16-filter hybrid net, only the 2x2 one."""

    @staticmethod
    def climate(width):
        enc = [(int(c * width), k, s) for c, k, s in PAPER_ENCODER]
        dec = [(int(c * width), k, s) for c, k, s in PAPER_DECODER]
        dec[-1] = (16,) + PAPER_DECODER[-1][1:]
        with undrawn():
            return ClimateNet(16, 3, enc, dec)

    def forms(self, net, size, n):
        enc = separable_layers(net.encoder, (16, size, size), n)
        feats = net.encoder.output_shape((16, size, size))
        return enc + separable_layers(net.decoder, feats, n)

    def test_benchmark_climate_net(self):
        assert self.forms(self.climate(1 / 4), 256, 2) == [
            "enc_conv1", "dec_deconv3", "dec_deconv4", "dec_deconv5"]

    @pytest.mark.parametrize("size, n", [(64, 8), (768, 1), (768, 2)])
    def test_paper_width_climate_net_stays(self, size, n):
        assert self.forms(self.climate(1), size, n) == []

    @pytest.mark.parametrize("filters, size, n", [
        (128, 224, 2), (128, 64, 8),        # hep_infer, hep_train
        (16, 32, 32)])                      # hybrid_train
    def test_hep_nets_stay(self, filters, size, n):
        net = build_hep_net(filters=filters, rng=0)
        assert separable_layers(net, (3, size, size), n) == []
        # ... nor does a data gradient, a conv with flipped kernels or,
        # where 128 x 128 weights outgrow grad_out, a scatter at the cap.
        assert not lowering._separable(filters, filters, 3, 1, True)
        assert not lowering._separable(128, 128, 3, 1, False)

    @pytest.mark.parametrize("filters, size, n, forms", [
        (128, 224, 2, "direct winograd winograd direct one-shot"),
        (128, 64, 8, "direct winograd winograd one-shot one-shot"),
        (16, 32, 32, "direct direct one-shot one-shot one-shot")])
    def test_forms_of_the_hep_nets(self, filters, size, n, forms):
        """``hep_infer``, ``hep_train``, ``hybrid_train``: ``conv1`` has 3
        channels, ``conv4`` at 28x28 has 98 tiles for 128 channels."""
        with undrawn():
            net = build_hep_net(filters=filters)
        assert list(lowering_forms(net, (3, size, size), n).values()) \
            == forms.split()
        if filters == 128 and n == 8:
            # ... and the data gradients of conv2 (32x32) and conv3 (16x16),
            # flipped-kernel convs of the same shapes, take it too.
            assert lowering._winograd(8, 128, 128, 32, 32)
            assert lowering._winograd(8, 128, 128, 16, 16)
        # ... and so do the weight gradients of the same layers, no others
        assert winograd_weight_gradients(net, (3, size, size), n) == [
            f"conv{i}" for i, form in enumerate(forms.split(), 1)
            if form == "winograd"]

    @pytest.mark.parametrize("width, size, n, winograd", [
        (1 / 4, 256, 2, [4]),           # climate_infer: 64 -> 96 at 64x64
        (1, 64, 8, [2]),                # 64 -> 128 at 32x32
        (1, 768, 1, [2, 4]), (1, 768, 2, [2, 4, 6])])
    def test_forms_of_the_climate_nets(self, width, size, n, winograd):
        """``enc_conv6`` (512 -> 768 at 96x96) has 576 tiles an image, and
        at quarter width (128 -> 192 at 32x32) 64: with the batch, fewer
        than channels."""
        net = self.climate(width)
        forms = lowering_forms(net.encoder, (16, size, size), n)
        assert [name for name, form in forms.items() if form == "winograd"] \
            == [f"enc_conv{i}" for i in winograd]
        assert winograd_weight_gradients(net.encoder, (16, size, size), n) \
            == [f"enc_conv{i}" for i in winograd]
        feats = net.encoder.output_shape((16, size, size))
        assert "winograd" not in lowering_forms(net.decoder, feats, n).values()
        assert not winograd_weight_gradients(net.decoder, feats, n)

    def test_the_rule_reads_shapes_only(self):
        rule = lowering._winograd
        assert rule(2, 128, 128, 112, 112) and rule(2, 64, 96, 64, 64)
        assert not rule(2, 16, 32, 128, 128)    # enc_conv2: a thin side
        assert rule(1, 32, 32, 24, 24) and not rule(1, 32, 31, 24, 24)
        assert rule(2, 128, 128, 32, 32) and not rule(2, 128, 128, 28, 28)
        assert rule(1, 128, 192, 55, 53)        # 14 x 14 tiles, cropped

    def test_folds_of_the_hep_nets(self):
        forms = dict(zip(("conv1", "conv2", "conv3", "conv4", "conv5"),
                         "batched banded batched batched folded".split()))
        hybrid = build_hep_net(filters=16, rng=0)
        assert gemm_forms(hybrid, (3, 32, 32), 32) == forms
        # conv3 (8x8) and conv4 (4x4) folded before the rule read the
        # weights: 16 rows of them do not outweigh 64 or 16 columns.
        assert not lowering._folds(32, 16, 64) and lowering._folds(32, 16, 4)
        with undrawn():
            hep = build_hep_net(filters=128)
        forms = "batched banded banded folded folded".split()
        assert list(gemm_forms(hep, (3, 64, 64), 8).values()) == forms
        forms = "banded banded banded banded batched".split()     # n == 2
        assert list(gemm_forms(hep, (3, 224, 224), 2).values()) == forms

    def test_folds_of_the_paper_width_climate_net(self):
        """``(8, 16, 64, 64)``: the 8x8 and 4x4 layers, up to 95 MB of
        weights against 64 or 16 columns, are what folding is for."""
        net = self.climate(1)
        assert gemm_forms(net.encoder, (16, 64, 64), 8) == dict(
            {f"enc_conv{i}": "banded" for i in (1, 2, 3, 4)},
            **{f"enc_conv{i}": "folded" for i in (5, 6, 7, 8, 9)})
        feats = net.encoder.output_shape((16, 64, 64))
        assert feats[1:] == (4, 4)
        assert gemm_forms(net.decoder, feats, 8) == {
            "dec_deconv1": "folded", "dec_deconv2": "folded",
            "dec_deconv3": "banded", "dec_deconv4": "banded",
            "dec_deconv5": "banded"}

    def test_no_big_net_layer_asks_the_weights(self, monkeypatch):
        """Every one-shot conv / deconv of the 128-filter HEP nets and of both
        ClimateNets decides as it did on columns alone. (The paper-width
        ClimateNet's three heads, 1 / 3 / 4 filters on a 4x4 grid, are the
        one exception in the tree: batched now, to the same bits.)"""
        decided, folds = [], lowering._folds

        def spy(n, rows, p):
            decided.append((folds(n, rows, p), n > 1 and p < _FOLD_BELOW))
            return decided[-1][0]

        monkeypatch.setattr(lowering, "_folds", spy)
        with undrawn():
            hep = build_hep_net(filters=128)
        gemm_forms(hep, (3, 64, 64), 8)
        gemm_forms(hep, (3, 224, 224), 2)
        for width, size, n in [(1, 64, 8), (1, 768, 1), (1 / 4, 256, 2)]:
            net = self.climate(width)
            gemm_forms(net.encoder, (16, size, size), n)
            gemm_forms(net.decoder,
                       net.encoder.output_shape((16, size, size)), n)
        assert len(decided) >= 12 and all(new == old for new, old in decided)


class TestSmallShapeRulesLeaveTheBigNets:
    """The fold, pad and band rules read small shapes differently and the
    128-filter HEP nets not at all: outputs and gradients keep their bits."""

    @staticmethod
    def run(filters, size, n, train):
        rng = np.random.default_rng(11)
        net = build_hep_net(filters=filters, rng=0)
        x = rng.normal(size=(n, 3, size, size)).astype(np.float32)
        if not train:
            return [net.eval().forward(x)]
        out = net.forward(x)
        net.backward(rng.normal(size=out.shape).astype(np.float32),
                     input_grad=False)
        return [out] + [p.grad for p in net.params()]

    @pytest.mark.parametrize("size, n, train", [
        (64, 8, True), (64, 8, False),      # hep_train, and its eval groups
        (224, 2, False)])                   # hep_infer
    def test_hep_shapes_are_bit_equal(self, size, n, train):
        with rules_fitted_on_the_big_nets():
            ref = self.run(128, size, n, train)
        for got, was in zip(self.run(128, size, n, train), ref):
            assert np.array_equal(got, was)

    def test_the_hybrid_net_changes_form_not_values(self):
        with rules_fitted_on_the_big_nets():
            ref = self.run(16, 32, 32, True)
        got = self.run(16, 32, 32, True)
        assert not all(np.array_equal(a, b) for a, b in zip(got, ref))
        for a, b in zip(got, ref):
            np.testing.assert_allclose(a, b, rtol=1e-4,
                                       atol=1e-5 * np.abs(b).max())


class TestTheFormLeavesTheOtherLayers:
    """Only the layers ``TestTheRuleIsATable`` lists call the F(4x4, 3x3)
    form; every other layer runs the lowering it ran before the form
    existed, so the 16-filter hybrid net keeps its bits."""

    run = staticmethod(TestSmallShapeRulesLeaveTheBigNets.run)

    def test_hep_infer_and_hep_train(self):
        with winograd_everywhere(on=None) as calls:
            self.run(128, 224, 2, False)
            assert calls == [(2, 128, 112, 112), (2, 128, 56, 56)]
            del calls[:]
            self.run(128, 64, 8, True)
        # conv2 and conv3 forward, then the weight and data gradient of each
        assert calls == [(8, 128, 32, 32), (8, 128, 16, 16),
                         ("outer", (8, 128, 16, 16)), (8, 128, 16, 16),
                         ("outer", (8, 128, 32, 32)), (8, 128, 32, 32)]

    def test_climate_infer(self):
        net = TestTheRuleIsATable.climate(1 / 4).eval()
        with winograd_everywhere(on=None) as calls:
            net.forward(np.zeros((2, 16, 256, 256), np.float32))
        assert calls == [(2, 64, 64, 64)]            # enc_conv4

    def test_the_hybrid_net_keeps_its_bits(self):
        with winograd_everywhere(False):
            ref = self.run(16, 32, 32, True)
        with winograd_everywhere(on=None) as calls:
            got = self.run(16, 32, 32, True)
        assert not calls
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)


class TestBandedMemory:
    """A layer whose column matrix would be 72 MiB peaks at its activations
    plus a few bands, in eval and in training: no column-matrix term."""

    SHAPE = (2, 16, 256, 256)
    COLS = 2 * 16 * 9 * 256 * 256 * 4

    @staticmethod
    def peak_of(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            return tracemalloc.get_traced_memory()[1] - before, result
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("layer_cls", [Conv2D, Deconv2D])
    def test_peak_has_no_column_term(self, layer_cls):
        assert self.COLS >= 64 << 20
        rng = np.random.default_rng(0)
        layer = layer_cls(16, 16, 3, stride=1, pad=1, rng=0)
        x = rng.normal(size=self.SHAPE).astype(np.float32)
        g = rng.normal(size=self.SHAPE).astype(np.float32)
        padded = 2 * 16 * 258 * 258 * 4
        # input + output + one padded image + a few bands
        bound = x.nbytes + g.nbytes + padded + 3 * _BAND_BYTES
        assert bound < self.COLS / 1.5

        layer.eval()
        peak, _ = self.peak_of(lambda: layer.forward(x))
        assert peak < bound, f"eval forward peaked at {peak >> 20} MiB"

        layer.train()
        peak, _ = self.peak_of(
            lambda: (layer.forward(x), layer.backward(g)))
        assert peak < bound, f"train step peaked at {peak >> 20} MiB"

    def test_tile_weight_gradient_has_no_column_term(self):
        """``lowered_outer`` in the F(4x4, 3x3) form holds the two scratches
        that share ``_BAND_BYTES``, the band's edged rows and its 4x4 blocks
        of ``g`` (together less than one scratch: 16 floats a tile and
        channel against 36) and the transform-domain gradient and a band's
        share of it, ``(36, M, C)`` each; the third is the result's."""
        shape = (2, 32, 128, 128)
        rng = np.random.default_rng(0)
        x = rng.normal(size=shape).astype(np.float32)
        g = rng.normal(size=shape).astype(np.float32)
        bound = 3 * _BAND_BYTES // 2 + 3 * 36 * 32 * 32 * 4
        assert bound < x.nbytes * 9 / 4
        with winograd_everywhere(on=None) as calls:
            peak, _ = self.peak_of(
                lambda: lowering.lowered_outer(g, x, 3, 3, 1, 1))
        assert calls == [("outer", shape)]
        assert peak < bound, f"weight gradient peaked at {peak >> 20} MiB"

    @pytest.mark.parametrize("layer_cls, c, k, stride", [
        (Deconv2D, 27, 5, 1),       # dec_deconv5 of the benchmark ClimateNet
        (Conv2D, 16, 5, 2),         # its enc_conv1
    ])
    def test_separable_forward_holds_no_padded_image(self, layer_cls, c, k,
                                                     stride):
        """The separable form gathers from ``x`` itself and finishes each
        band into the result: an eval forward peaks at its output and a few
        bands, with no room left for the padded copy the direct form makes."""
        layer = layer_cls(c, 16, k, stride=stride, rng=0).eval()
        shape = (2, c, 256, 256)
        assert separable_layers(Sequential([layer]), shape[1:], 2)
        x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
        peak, out = self.peak_of(lambda: layer.forward(x))
        # what the direct form pads: a conv its input, a deconv its output
        padded = (x if layer_cls is Conv2D else out).nbytes
        bound = out.nbytes + 3 * _BAND_BYTES // 2
        assert bound < out.nbytes + padded
        assert peak < bound, f"eval forward peaked at {peak / 2**20:.1f} MiB"
