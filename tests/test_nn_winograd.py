"""WinogradConv2D: equivalence with direct convolution, gradients, accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grad_check import numeric_grad
from repro.nn.conv import Conv2D
from repro.nn.winograd import (
    WinogradConv2D,
    direct_multiplies,
    inverse_transform,
    transform_filters,
    transform_input_tiles,
    winograd_multiplies,
)


def _paired_layers(in_ch, out_ch, pad, seed):
    """A WinogradConv2D and a direct Conv2D sharing the same weights."""
    w = WinogradConv2D(in_ch, out_ch, pad=pad, rng=seed)
    c = Conv2D(in_ch, out_ch, 3, stride=1, pad=pad, rng=seed)
    c.weight.data[...] = w.weight.data
    c.bias.data[...] = w.bias.data
    return w, c


class TestTransforms:
    def test_filter_transform_shape(self, rng):
        g = rng.normal(size=(5, 3, 3, 3)).astype(np.float32)
        assert transform_filters(g).shape == (5, 3, 4, 4)

    def test_filter_transform_rejects_non3x3(self):
        with pytest.raises(ValueError, match="3, 3"):
            transform_filters(np.zeros((2, 2, 5, 5), dtype=np.float32))

    def test_single_tile_agrees_with_direct_conv(self, rng):
        """One 4x4 tile, one filter: A^T [(G g G^T) . (B^T d B)] A equals the
        four valid 3x3 correlations of the tile."""
        d = rng.normal(size=(4, 4)).astype(np.float32)
        g = rng.normal(size=(3, 3)).astype(np.float32)
        u = transform_filters(g[None, None])[0, 0]
        v = transform_input_tiles(d[None])[0]
        y = inverse_transform((u * v)[None])[0]
        expected = np.empty((2, 2), dtype=np.float64)
        for i in range(2):
            for j in range(2):
                expected[i, j] = (d[i:i + 3, j:j + 3] * g).sum()
        np.testing.assert_allclose(y, expected, rtol=1e-4, atol=1e-5)


class TestForwardEquivalence:
    @pytest.mark.parametrize("h,w", [(8, 8), (7, 9), (5, 5), (4, 6)])
    def test_matches_direct_conv_same_pad(self, h, w, rng):
        wino, conv = _paired_layers(3, 4, pad=1, seed=2)
        x = rng.normal(size=(2, 3, h, w)).astype(np.float32)
        np.testing.assert_allclose(wino.forward(x), conv.forward(x),
                                   rtol=1e-3, atol=1e-4)

    def test_matches_direct_conv_valid(self, rng):
        wino, conv = _paired_layers(2, 3, pad=0, seed=3)
        x = rng.normal(size=(1, 2, 10, 10)).astype(np.float32)
        np.testing.assert_allclose(wino.forward(x), conv.forward(x),
                                   rtol=1e-3, atol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(h=st.integers(3, 12), w=st.integers(3, 12),
           cin=st.integers(1, 3), cout=st.integers(1, 4),
           pad=st.integers(0, 2), seed=st.integers(0, 10))
    def test_property_equivalence(self, h, w, cin, cout, pad, seed):
        if h + 2 * pad - 2 <= 0 or w + 2 * pad - 2 <= 0:
            return
        wino, conv = _paired_layers(cin, cout, pad=pad, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, cin, h, w)).astype(np.float32)
        np.testing.assert_allclose(wino.forward(x), conv.forward(x),
                                   rtol=2e-3, atol=2e-4)

    @pytest.mark.parametrize("tile", [2, 4])
    def test_a_float64_batch_stays_float64(self, tile, rng):
        """The transforms are cast to the batch's precision once; the
        forward used to round its result to float32."""
        wino, conv = _paired_layers(3, 4, pad=1, seed=5)
        wino.tile_size = tile
        x = rng.normal(size=(2, 3, 9, 7))
        out = wino.forward(x)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, conv.forward(x), rtol=1e-6, atol=1e-7)
        assert wino.forward(x.astype(np.float32)).dtype == np.float32

    def test_output_shape_contract(self):
        wino = WinogradConv2D(2, 5, pad=1, rng=0)
        x = np.zeros((3, 2, 9, 11), dtype=np.float32)
        assert wino.forward(x).shape == (3, 5, 9, 11)
        assert wino.output_shape((2, 9, 11)) == (5, 9, 11)

    def test_wrong_channels_raises(self):
        wino = WinogradConv2D(2, 3, rng=0)
        with pytest.raises(ValueError, match="channels"):
            wino.forward(np.zeros((1, 3, 6, 6), dtype=np.float32))

    def test_empty_output_raises(self):
        wino = WinogradConv2D(1, 1, pad=0, rng=0)
        with pytest.raises(ValueError, match="empty"):
            wino.forward(np.zeros((1, 1, 2, 2), dtype=np.float32))


class TestBackward:
    def test_input_gradient_numeric(self, rng):
        wino = WinogradConv2D(2, 3, pad=1, rng=1)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        g = rng.normal(size=wino.forward(x).shape).astype(np.float32)

        def loss():
            return float((wino.forward(x) * g).sum())

        expected = numeric_grad(loss, x)
        wino.zero_grad()
        wino.forward(x)
        got = wino.backward(g)
        np.testing.assert_allclose(got, expected, rtol=2e-2, atol=2e-3)

    def test_weight_gradient_matches_direct_conv(self, rng):
        wino, conv = _paired_layers(2, 3, pad=1, seed=4)
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
        g = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        wino.zero_grad()
        conv.zero_grad()
        wino.forward(x)
        conv.forward(x)
        dxw = wino.backward(g)
        dxc = conv.backward(g)
        np.testing.assert_allclose(wino.weight.grad, conv.weight.grad,
                                   rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(wino.bias.grad, conv.bias.grad,
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dxw, dxc, rtol=1e-4, atol=1e-5)

    def test_backward_before_forward_raises(self):
        wino = WinogradConv2D(1, 1, rng=0)
        with pytest.raises(RuntimeError, match="before forward"):
            wino.backward(np.zeros((1, 1, 4, 4), dtype=np.float32))


class TestAccounting:
    def test_multiply_reduction_even_tiles(self):
        # 36 multiplies direct vs 16 Winograd per 2x2 tile -> 2.25x.
        assert direct_multiplies(1, 1, 1, 8, 8) == 8 * 8 * 9
        assert winograd_multiplies(1, 1, 1, 8, 8) == 16 * 16
        wino = WinogradConv2D(4, 4, pad=1, rng=0)
        assert wino.multiply_reduction(8, (4, 16, 16)) == pytest.approx(2.25)

    def test_multiply_reduction_odd_output_lower(self):
        wino = WinogradConv2D(4, 4, pad=1, rng=0)
        # Odd outputs waste part of the last tile row/column.
        assert wino.multiply_reduction(1, (4, 7, 7)) < 2.25

    def test_flops_match_direct_conv_attribution(self):
        wino = WinogradConv2D(3, 8, pad=1, rng=0)
        conv = Conv2D(3, 8, 3, stride=1, pad=1, rng=0)
        assert wino.flops(4, input_shape=(3, 16, 16)) == \
            conv.flops(4, input_shape=(3, 16, 16))

    def test_flops_requires_shape(self):
        with pytest.raises(ValueError, match="input_shape"):
            WinogradConv2D(1, 1, rng=0).flops(1)

    def test_params_shared_layout_with_conv(self):
        wino = WinogradConv2D(3, 8, rng=0)
        assert wino.weight.shape == (8, 3, 3, 3)
        assert wino.num_params() == 8 * 3 * 9 + 8
