"""im2col/col2im: shapes, values, the adjoint property, Conv2D on top of
the lowering against a convolution written out as nested loops, and the
banded fused forms against the same layers run in one shot.

Columns are per-image and channel-major: ``cols[n, (c, i, j), (y, x)]`` is
tap ``(i, j)`` of channel ``c`` in the patch at output position ``(y, x)``."""

import contextlib
import gc
import math
import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    positions itself, before it plans a form."""

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
                                       3, 1, 1)
            assert not calls
            for flat in (False, True):      # (N, M, oh, ow) or (N, M, oh*ow)
                g = np.ones((4, 4, 64) if flat else (4, 4, 8, 8), np.float32)
                assert lowering.lowered_outer(g, x, 3, 1, 1).shape \
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
def planned(note, **rules):
    """Run with ``plan()`` handing each plan it makes to ``note(op, x_shape,
    plan)``, and planning as if a rule named (``winograd``, ``separable``)
    answered True or False for every pass (None: the rule decides)."""
    real = lowering.plan
    forced = {f"_{name}": lambda *shape, on=on: on
              for name, on in rules.items() if on is not None}

    def plan(op, x_shape, *args):
        with mock.patch.multiple(lowering, **forced) if forced \
                else contextlib.nullcontext():
            made = real(op, x_shape, *args)
        note(op, tuple(x_shape), made)
        return made

    with mock.patch.object(lowering, "plan", plan):
        yield


@contextlib.contextmanager
def separable_everywhere():
    """Every banded pass not in the F(4x4, 3x3) form takes the separable
    form, whatever the rows-moved rule says. The rule never picks ``k <=
    stride`` or a wide thin side, but the form may not lean on the rule to
    be right. Yields the fused functions whose passes took it, by name."""
    calls = []
    with planned(lambda op, shape, made: made.form == "separable"
                 and calls.append(op.__name__), separable=True):
        yield calls


@contextlib.contextmanager
def winograd_everywhere(on=True):
    """Every banded 3x3 / stride-1 layer takes the F(4x4, 3x3) form
    whatever the multiplies rule says, or (``on=False``: the lowering as it
    was before the form) none does, or (``on=None``) the rule decides.
    Yields the input shapes of the passes that took it, a weight gradient's
    as ``("outer", shape)``."""
    calls = []

    def note(op, shape, made):
        if made.form == "winograd":
            calls.append(("outer", shape) if op is lowering.lowered_outer
                         else shape)

    with planned(note, winograd=on):
        yield calls


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
    kept = layer._cache.data if layer_cls is Conv2D \
        and getattr(layer._cache, "plan", None) == ("one-shot", None) else None
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
                {"lowered_matmul", "matmul_col2im"} if both
                else {"lowered_matmul"})

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
            got = conv.forward(x)
            assume(calls)           # banded: one shot has no form to take
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
            assume(lowering.plan(lowering.lowered_outer, x.shape, f, 3, 1,
                                 pad, x.dtype).bands)
            with winograd_everywhere(False):
                direct = lowering.lowered_outer(g, x, 3, 1, pad)
            with winograd_everywhere() as calls:
                got = lowering.lowered_outer(g, x, 3, 1, pad)
                assert calls == [("outer", x.shape)]
                deconv.forward(g)
                deconv.backward(x)
                assert ("outer", x.shape) in calls[1:]
        assert got.dtype == np.result_type(g, x)
        tol = 1e-5 if got.dtype == np.float32 else 1e-12
        self.close(got, direct, tol)
        self.close(deconv.weight.grad.reshape(f, -1),     # float32, as stored
                   direct.astype(np.float32), max(tol, 1e-6))

    def test_a_training_step_in_the_form_is_its_own_adjoint(self):
        """A 64 -> 64 layer the rule itself picks (64 tiles for 64
        channels), banded by a turned budget, in float64: the forward in the
        form, ``Conv2D.backward``'s data gradient in the form (the conv of
        ``grad_out`` with the flipped kernels) and its weight gradient in
        the form, on the tiles the forward kept (so it plans nothing),
        against central differences along random directions."""
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
            assert calls == [x.shape, g.shape]
            assert conv._cache.plan.form == "winograd"
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


class TestTheWeightGradientReadsKeptTiles:
    """A training ``Conv2D.forward`` in the F(4x4, 3x3) form keeps its
    transformed tiles in place of its input (a ``Kept``), and the weight
    gradient reads them band by band instead of making them again from the
    input: the same bands (one plan), the same floats."""

    @staticmethod
    def grads(conv, x, g, again):
        """``conv``'s weight and bias gradient bytes after a training step
        on ``x``; ``again``: with the input cached in place of its tiles,
        to be lowered again, as before tiles were kept."""
        conv.zero_grad()
        conv.forward(x)
        kept = conv._cache
        if again:
            conv._cache = x
        conv.backward(g, input_grad=False)
        return kept, conv.weight.grad.tobytes(), conv.bias.grad.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 5), f=st.integers(1, 5),
           oh=st.sampled_from([9, 10, 11, 13, 14]),
           ow=st.sampled_from([5, 6, 7, 9, 10, 11, 13, 14]),
           pad=st.integers(0, 2),
           dtype=st.sampled_from([np.float32, np.float64]),
           # (images, tile rows) a band: whole images, or tile rows of one
           band=st.sampled_from([(1, 0), (2, 0), (3, 0), (0, 1), (0, 2)]),
           seed=st.integers(0, 10**6))
    def test_bit_equal_to_lowering_the_input_again(self, n, c, f, oh, ow,
                                                   pad, dtype, band, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, oh - 2 * pad + 2, ow - 2 * pad + 2)) \
            .astype(dtype)
        g = rng.normal(size=(n, f, oh, ow)).astype(dtype)
        conv = Conv2D(c, f, 3, pad=pad, rng=seed)
        (images, rows), th = band, -(-oh // 4)
        # the two scratches of a tile row, as ``plan`` sizes a band
        row_bytes = 72 * max(c, f) * -(-ow // 4) * x.itemsize
        with budget(row_bytes * (images * th or rows), fold_below=1), \
                winograd_everywhere() as calls:
            kept, *got = self.grads(conv, x, g, again=False)
            assume(calls)           # banded: one shot has no form to take
            assert calls == [x.shape]           # the weight gradient: none
            assert kept.plan.form == "winograd" and kept.shape == x.shape
            i0, i1, r0, r1 = kept.plan.bands[0]
            assert (i1 - i0, r1 - r0) == ((min(images, n), oh) if images
                                          else (1, 4 * rows))
            _, *want = self.grads(conv, x, g, again=True)
            assert calls[1:] == [x.shape, ("outer", x.shape)]
        assert got == want

    @pytest.mark.parametrize("wide", ["grad_out", "weights"])
    def test_mixed_dtypes(self, wide):
        """Float32 input, float64 ``grad_out`` or weights: the input is gone
        by backward time, so the sum is in ``result_type(g, tiles)``, the
        kept tiles in the forward's ``result_type(w, x)`` (float32 ones
        promoted), against a float64 direct weight gradient at the
        tolerances of the other F(4x4, 3x3) tests."""
        rng = np.random.default_rng(5)
        conv = Conv2D(4, 6, 3, rng=5)
        x = rng.normal(size=(2, 4, 13, 11)).astype(np.float32)
        g = rng.normal(size=(2, 6, 13, 11))
        if wide == "weights":
            conv.weight.data = conv.weight.data.astype(np.float64)
        else:
            g = g.astype(np.float64)
        with budget(3000, fold_below=1), winograd_everywhere():
            conv.forward(x)
            kept = conv._cache
            got = lowering.lowered_outer(g, kept, 3, 1, 1)
        with winograd_everywhere(False):
            want = lowering.lowered_outer(g.astype(np.float64),
                                          x.astype(np.float64), 3, 1, 1)
        assert kept.plan.form == "winograd"
        assert kept.dtype == np.result_type(conv.weight.data, x)
        assert got.dtype == np.float64
        tol = 1e-5 if kept.dtype == np.float32 else 1e-12
        TestWinogradFormEqualsTheLayers.close(got, want, tol)

    def test_the_input_is_not_held(self):
        """A training forward in the form pins no reference to its input:
        once the caller drops it, it is gone."""
        conv = Conv2D(4, 4, 3, rng=0)
        x = np.random.default_rng(0).normal(size=(2, 4, 12, 12))
        ref = weakref.ref(x)
        with budget(1, fold_below=1), winograd_everywhere():
            conv.forward(x)
        assert conv._cache.plan.form == "winograd"
        del x
        gc.collect()
        assert ref() is None


def lowered(net, input_shape):
    """``(layer, its input shape)`` for each conv / deconv of ``net``: a
    ``Sequential``, or a ``ClimateNet`` (encoder, the heads on its
    features, decoder). Shapes only: nothing is computed."""
    if isinstance(net, ClimateNet):
        feats = net.encoder.output_shape(input_shape)
        yield from lowered(net.encoder, input_shape)
        yield from ((head, feats) for head in net.children()[1:4])
        yield from lowered(net.decoder, feats)
        return
    shape = tuple(input_shape)
    for layer in net.layers:
        if layer.kind in ("conv", "deconv"):
            yield layer, shape
        shape = layer.output_shape(shape)


def passes(layer, shape, n):
    """The ``plan()`` arguments of the passes of ``layer`` (a conv or
    deconv) on ``(n,) + shape`` float32 inputs: the training forward, an
    eval group's forward (its output rows held next to its columns), the
    weight gradient and the data gradient."""
    k, s, p = layer.kernel_size, layer.stride, layer.pad
    x, y = (n,) + shape, (n,) + layer.output_shape(shape)
    c, f, f32 = layer.in_channels, layer.out_channels, np.float32
    if layer.kind == "deconv":      # the conv's passes, swapped (SIII-C)
        forward = (lowering.matmul_col2im, y, c, k, s, p, f32)
        return [forward, forward, (lowering.lowered_outer, y, c, k, s, p, f32),
                (lowering.lowered_matmul, y, c, k, s, p, f32)]
    forward = (lowering.lowered_matmul, x, f, k, s, p, f32)
    # Conv2D.backward gathers where the weights are no larger than grad_out
    gather = s == 1 and p < k and f * c * k * k <= math.prod(y)
    return [forward, forward + (f,), (lowering.lowered_outer,) + forward[1:],
            (lowering.lowered_matmul, y, c, k, 1, k - 1 - p, f32) if gather
            else (lowering.matmul_col2im, x, f, k, s, p, f32)]


def form(op, x_shape, rows, k, stride, pad, *rest):
    """The letter of the form ``plan()`` gives a pass: ``o`` one-shot,
    ``d`` direct, ``s`` separable, ``w`` Winograd, or ``f``: one shot with
    the batch folded into one GEMM (``_folds``, of the weight rows of the
    GEMM and the columns of an image)."""
    made = lowering.plan(op, x_shape, rows, k, stride, pad, *rest)
    if made.form != "one-shot":
        return made.form[0]
    if op is lowering.matmul_col2im:            # weights (C*k*k, rows)
        rows = x_shape[1] * k * k
    columns = math.prod(conv_output_size(d, k, stride, pad)
                        for d in x_shape[2:])
    return "f" if lowering._folds(x_shape[0], rows, columns) else "o"


def forms(net, input_shape, n):
    """``name -> `` the four letters of :func:`form` for the passes of
    each conv / deconv of ``net`` on ``(n,) + input_shape`` inputs."""
    return {layer.name: "".join(form(*pass_) for pass_ in passes(layer, x, n))
            for layer, x in lowered(net, input_shape)}


#: ``forms`` of the nets this repo runs: the forward in training and in an
#: eval group (a deconv's is the same), the weight and the data gradient.
#: A first layer's data gradient is planned but never run. Outside the
#: hybrid net every fold is the one the columns alone made before
#: ``_folds`` read the weights, but for the paper-width heads' forwards and
#: weight gradients (1 / 3 / 4 filters on a 4x4 grid: batched now).
TABLE = """
layer        hep_infer  hep_train  hybrid
conv1        ddds       odos       odos
conv2        wwww       wwww       dddd
conv3        wwww       wwww       oooo
conv4        dddd       ffff       oooo
conv5        oooo       ffff       ffff

layer        climate_infer  paper_64  paper_768  paper_768x2
enc_conv1    ssds           dddd      dddd       dddd
enc_conv2    ddds           wwww      wwww       wwww
enc_conv3    dddd           dddd      dddd       dddd
enc_conv4    wwww           dddd      wwww       wwww
enc_conv5    dddd           ffff      dddd       dddd
enc_conv6    dddd           ffff      dddd       wwww
enc_conv7    oooo           ffff      dddd       dddd
enc_conv8    dddd           ffff      dddd       dddd
enc_conv9    dddd           ffff      dddd       dddd
head_conf    oooo           ooof      oooo       oooo
head_cls     oooo           ooof      oooo       oooo
head_box     oooo           ooof      oooo       oooo
dec_deconv1  dddd           ffff      dddd       dddd
dec_deconv2  dddd           ffff      dddd       dddd
dec_deconv3  ssdd           dddd      dddd       dddd
dec_deconv4  ssdd           dddd      dddd       dddd
dec_deconv5  ssdd           dddd      dddd       dddd
"""


def hep(filters):
    with undrawn():
        return build_hep_net(filters=filters)


def climate(width):
    """``bench/workloads.py::ClimateInfer``'s net at ``width``."""
    enc = [(int(c * width), k, s) for c, k, s in PAPER_ENCODER]
    dec = [(int(c * width), k, s) for c, k, s in PAPER_DECODER]
    dec[-1] = (16,) + PAPER_DECODER[-1][1:]
    with undrawn():
        return ClimateNet(16, 3, enc, dec)


#: ``TABLE``'s columns: net, per-image input shape, batch
NETS = {"hep_infer": (lambda: hep(128), (3, 224, 224), 2),
        "hep_train": (lambda: hep(128), (3, 64, 64), 8),
        "hybrid": (lambda: hep(16), (3, 32, 32), 32),
        "climate_infer": (lambda: climate(1 / 4), (16, 256, 256), 2),
        "paper_64": (lambda: climate(1), (16, 64, 64), 8),
        "paper_768": (lambda: climate(1), (16, 768, 768), 1),
        "paper_768x2": (lambda: climate(1), (16, 768, 768), 2)}


def table(net):
    """``TABLE``'s column of ``net``: ``name -> letters``."""
    for block in TABLE.strip().split("\n\n"):
        header, *rows = (line.split() for line in block.splitlines())
        if net in header:
            return {row[0]: row[header.index(net)] for row in rows}


class TestTheRuleIsATable:
    """How ``plan()`` runs each pass of the nets this repo runs (``TABLE``).
    Separable: the benchmark ClimateNet's thin ``enc_conv1`` and
    ``dec_deconv3-5``. F(4x4, 3x3), in all three passes: the banded 3x3 /
    stride-1 layers with 32 channels on either side and a tile per channel,
    none in the hybrid trainer's net. Folded: where the weights outweigh an
    image's columns, so every deep layer of the wide nets and, of the
    16-filter hybrid net, only the 2x2 ``conv5``."""

    @pytest.mark.parametrize("net", NETS)
    def test_forms(self, net):
        build, shape, n = NETS[net]
        assert forms(build(), shape, n) == table(net)

    def test_the_rules_read_shapes_only(self):
        rule = lowering._winograd
        assert rule(2, 128, 128, 112, 112) and rule(2, 64, 96, 64, 64)
        assert not rule(2, 16, 32, 128, 128)    # enc_conv2: a thin side
        assert rule(1, 32, 32, 24, 24) and not rule(1, 32, 31, 24, 24)
        assert rule(2, 128, 128, 32, 32) and not rule(2, 128, 128, 28, 28)
        assert rule(1, 128, 192, 55, 53)        # 14 x 14 tiles, cropped
        # a 3x3 conv of 16 or 128 filters, its flipped-kernel data gradient
        # and, at the cap, its scatter move no fewer rows separably
        for filters in (16, 128):
            assert not lowering._separable(filters, filters, 3, 1, True)
        assert not lowering._separable(128, 128, 3, 1, False)
        # 8x8 and 4x4 images of 16 filters: the weights outweigh only 4x4
        assert not lowering._folds(32, 16, 64) and lowering._folds(32, 16, 4)


class TestPlanBands:
    """Every form's bands hold each (image, output row) once, the first the
    largest, each a ``multiple`` of rows high, Winograd's whole tile rows;
    a separable ``matmul_col2im``'s hold each row of the image once."""

    @settings(max_examples=1000, deadline=None)
    @given(op=st.sampled_from(["lowered_matmul", "matmul_col2im",
                               "lowered_outer"]),
           rule=st.sampled_from([{}, {"winograd": True},
                                 {"separable": True}]),
           n=st.integers(1, 3), c=st.integers(1, 48),
           w_rows=st.integers(1, 48), h=st.integers(1, 40),
           w=st.integers(1, 40), k=st.sampled_from([1, 2, 3, 3, 3, 4, 5]),
           stride=st.sampled_from([1, 1, 1, 2, 3]), pad=st.integers(0, 2),
           multiple=st.sampled_from([0, 1, 2, 3, 4, 6]),
           band_bytes=st.sampled_from([1, 300, 3000, 30000, _BAND_BYTES]))
    # a Winograd forward under a 3x3 pool: bands of 3 tile rows, 12 rows
    @example(op="lowered_matmul", rule={"winograd": True}, n=1, c=4,
             w_rows=4, h=24, w=24, k=3, stride=1, pad=1, multiple=3,
             band_bytes=1)
    def test_bands_cover_every_row_once(self, op, rule, n, c, w_rows, h, w,
                                        k, stride, pad, multiple, band_bytes):
        assume(min(h, w) + 2 * pad >= k)
        oh = conv_output_size(h, k, stride, pad)
        # an eval group's forward (multiple > 0) holds its rows, in windows
        fused = op == "lowered_matmul" and multiple
        multiple, made = math.gcd(multiple, oh) if fused else 1, []
        with budget(band_bytes, fold_below=1), \
                planned(lambda *args: made.append(args[2]), **rule):
            lowering.plan(getattr(lowering, op), (n, c, h, w), w_rows, k,
                          stride, pad, np.float32, w_rows if fused else 0,
                          multiple)
        (made,) = made
        if made.form == "one-shot":
            assert made.bands is None
            return
        groups = made.form == "separable" and op == "matmul_col2im"
        covered = np.zeros((n, h if groups else oh), int)
        first = made.bands[0]
        for i0, i1, r0, r1 in made.bands:
            assert 0 <= i0 < i1 <= n and 0 <= r0 < r1
            assert (i1 - i0) * (r1 - r0) <= (first[1] - first[0]) \
                * (first[3] - first[2])
            assert r0 % multiple == 0 and (r1 - r0) % multiple == 0
            if made.form == "winograd":     # whole tile rows
                assert r0 % 4 == 0 and (r1 % 4 == 0 or r1 == oh)
            if groups:      # row groups from the first that meets the image
                q0 = pad // stride
                r0, r1 = (min(max(stride * (r + q0) - pad, 0), h)
                          for r in (r0, r1))
            covered[i0:i1, r0:r1] += 1
        assert (covered == 1).all()


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
    """A run plans once a pass, in order, what ``passes`` and ``TABLE`` say
    (a step plans no weight gradient on kept columns or tiles and no
    ``conv1`` data gradient): only ``TABLE``'s passes take the F(4x4, 3x3)
    form."""

    @pytest.mark.parametrize("name", ["hep_infer", "hep_train", "hybrid",
                                      "climate_infer"])
    def test_a_run_plans_each_pass_once(self, name):
        (build, shape, n), infer = NETS[name], name.endswith("infer")
        net, x, made = build(), np.zeros((n,) + shape, np.float32), []
        with planned(lambda op, x, plan: made.append((op, x, plan.form))):
            if infer:
                net.eval().forward(x)
            else:
                net.backward(np.zeros_like(net.forward(x)), input_grad=False)
        steps = [passes(layer, x, n) for layer, x in lowered(net, shape)]
        want = [step[infer] for step in steps]  # in eval: an eval group's
        for i, (forward, _, weights, data) in reversed(list(enumerate(steps))):
            if not infer:
                kept = lowering.plan(*forward).form in ("one-shot",
                                                        "winograd")
                want += [weights] * (not kept) + [data] * (i > 0)
        assert made == [(op, x, lowering.plan(op, x, *rest).form)
                        for op, x, *rest in want]


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
                lambda: lowering.lowered_outer(g, x, 3, 1, 1))
        assert calls == [("outer", shape)]
        assert peak < bound, f"weight gradient peaked at {peak >> 20} MiB"

    def test_only_a_training_forward_keeps_tiles(self):
        """A training forward in the F(4x4, 3x3) form keeps its tiles, 2.25
        times its input here; an eval one peaks below them and leaves the
        cache slot empty."""
        conv = Conv2D(32, 32, 3, rng=0)
        x = np.random.default_rng(0).normal(size=(2, 32, 64, 64)) \
            .astype(np.float32)
        with budget(1 << 18), winograd_everywhere(on=None) as calls:
            train_peak, out = self.peak_of(lambda: conv.forward(x))
            kept = conv._cache
            peak, _ = self.peak_of(lambda: conv.eval().forward(x))
        assert calls == [x.shape] * 2 and kept.plan.form == "winograd"
        tiles = sum(t.nbytes for t in kept.data.values())
        assert tiles == x.nbytes * 9 // 4
        assert train_peak >= out.nbytes + tiles
        assert conv._cache is None
        assert peak < out.nbytes + tiles / 2, \
            f"eval forward peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("make", [
        lambda: Conv2D(128, 128, 3, rng=0),     # conv2: 9 MB of tiles kept
        lambda: MaxPool2D(2),                   # pool2: keeps its output
    ], ids=["conv2", "pool2"])
    def test_a_second_step_peaks_no_higher_than_the_first(self, make):
        """A training forward lets go of its layer's last cache before it
        makes the next: held until then, last step's sits beside this
        step's. ``hep_train``'s ``(8, 128, 32, 32)`` activations; the test
        holds the input, so only what the layer made is traced."""
        layer = make()
        x = np.random.default_rng(0).normal(size=(8, 128, 32, 32)) \
            .astype(np.float32)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                layer.forward(x)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + (64 << 10), \
            f"{peaks[0] / 2**20:.1f} MiB, then {peaks[1] / 2**20:.1f} MiB"

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
        assert forms(Sequential([layer]), shape[1:], 2)[layer.name][0] == "s"
        x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
        peak, out = self.peak_of(lambda: layer.forward(x))
        # what the direct form pads: a conv its input, a deconv its output
        padded = (x if layer_cls is Conv2D else out).nbytes
        bound = out.nbytes + 3 * _BAND_BYTES // 2
        assert bound < out.nbytes + padded
        assert peak < bound, f"eval forward peaked at {peak / 2**20:.1f} MiB"
