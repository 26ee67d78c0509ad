"""FFTConv2D: frequency-domain forward parity, im2col-adjoint backward.

The forward pass evaluates the cross-correlation via rfft2/irfft2 and must
agree with the direct im2col+GEMM :class:`~repro.nn.conv.Conv2D` up to FFT
rounding; the backward pass rebuilds the im2col matrix and reuses the GEMM
adjoint, so gradients are *bit-compatible* with Conv2D — the contract the
module docstring promises.
"""

import numpy as np
import pytest

from repro.nn.conv import Conv2D
from repro.nn.fft_conv import FFTConv2D


def _paired(in_ch, out_ch, k, stride=1, pad=None, seed=0):
    """An FFTConv2D and a plain Conv2D sharing identical weights."""
    fft = FFTConv2D(in_ch, out_ch, k, stride=stride, pad=pad, rng=seed)
    ref = Conv2D(in_ch, out_ch, k, stride=stride, pad=pad, rng=seed)
    ref.weight.data[...] = fft.weight.data
    ref.bias.data[...] = fft.bias.data
    return fft, ref


class TestForwardParity:
    @pytest.mark.parametrize("batch", [1, 2, 3, 8])
    def test_batch_shapes(self, batch, rng):
        fft, ref = _paired(3, 5, 3, seed=1)
        x = rng.normal(size=(batch, 3, 12, 12)).astype(np.float32)
        np.testing.assert_allclose(fft.forward(x), ref.forward(x),
                                   rtol=1e-3, atol=1e-4)

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_odd_kernels_same_pad(self, k, rng):
        fft, ref = _paired(2, 4, k, seed=k)
        x = rng.normal(size=(2, 2, 16, 16)).astype(np.float32)
        y, yr = fft.forward(x), ref.forward(x)
        assert y.shape == yr.shape
        np.testing.assert_allclose(y, yr, rtol=1e-3, atol=1e-4)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_even_kernels(self, k, rng):
        fft, ref = _paired(2, 3, k, pad=0, seed=k)
        x = rng.normal(size=(2, 2, 13, 13)).astype(np.float32)
        y, yr = fft.forward(x), ref.forward(x)
        assert y.shape == yr.shape
        np.testing.assert_allclose(y, yr, rtol=1e-3, atol=1e-4)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_strided(self, stride, rng):
        fft, ref = _paired(3, 4, 5, stride=stride, pad=2, seed=7)
        x = rng.normal(size=(2, 3, 15, 17)).astype(np.float32)
        y, yr = fft.forward(x), ref.forward(x)
        assert y.shape == yr.shape
        np.testing.assert_allclose(y, yr, rtol=1e-3, atol=1e-4)

    def test_rectangular_input(self, rng):
        fft, ref = _paired(2, 2, 5, seed=3)
        x = rng.normal(size=(1, 2, 9, 21)).astype(np.float32)
        np.testing.assert_allclose(fft.forward(x), ref.forward(x),
                                   rtol=1e-3, atol=1e-4)

    def test_rejects_wrong_channels(self, rng):
        fft, _ = _paired(3, 4, 3)
        with pytest.raises(ValueError, match="channels"):
            fft.forward(rng.normal(size=(1, 2, 8, 8)).astype(np.float32))

    def test_output_dtype_and_contiguity(self, rng):
        fft, _ = _paired(2, 3, 5, seed=4)
        y = fft.forward(rng.normal(size=(2, 2, 10, 10)).astype(np.float32))
        assert y.dtype == np.float32
        assert y.flags["C_CONTIGUOUS"]


class TestBackwardBitCompatibility:
    """backward() rebuilds im2col and calls the Conv2D adjoint: weight,
    bias, and input gradients must be *bit-identical* to the GEMM layer's
    (np.array_equal, not allclose)."""

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, None), (5, 1, None),
                                              (5, 2, 2), (4, 2, 0)])
    def test_grads_bit_equal(self, k, stride, pad, rng):
        fft, ref = _paired(3, 4, k, stride=stride, pad=pad, seed=11)
        fft.train(), ref.train()
        x = rng.normal(size=(2, 3, 12, 12)).astype(np.float32)
        g = rng.normal(size=fft.forward(x).shape).astype(np.float32)
        ref.forward(x)
        gin_fft = fft.backward(g)
        gin_ref = ref.backward(g)
        assert np.array_equal(fft.weight.grad, ref.weight.grad)
        assert np.array_equal(fft.bias.grad, ref.bias.grad)
        assert np.array_equal(gin_fft, gin_ref)

    def test_backward_before_forward_raises(self):
        fft, _ = _paired(2, 2, 3)
        fft.train()
        with pytest.raises(RuntimeError, match="backward"):
            fft.backward(np.zeros((1, 2, 8, 8), dtype=np.float32))

    def test_eval_mode_drops_cache(self, rng):
        """Eval forwards (the serving path) must not pin the input."""
        fft, _ = _paired(2, 2, 3)
        fft.eval()
        fft.forward(rng.normal(size=(1, 2, 8, 8)).astype(np.float32))
        assert fft._cache is None

    def test_grad_accumulates(self, rng):
        """Two backward passes accumulate like Conv2D (+=, not =)."""
        fft, ref = _paired(2, 3, 3, seed=5)
        fft.train(), ref.train()
        x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        g = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
        for _ in range(2):
            fft.forward(x), ref.forward(x)
            fft.backward(g), ref.backward(g)
        assert np.array_equal(fft.weight.grad, ref.weight.grad)
        assert np.array_equal(fft.bias.grad, ref.bias.grad)


class TestStateDict:
    def test_roundtrip_through_conv(self, rng):
        """FFTConv2D checkpoints are plain conv checkpoints (same params),
        so a swap-in keeps existing weights loadable."""
        fft, ref = _paired(2, 3, 3, seed=9)
        sd = ref.state_dict()
        fft.weight.data[...] = 0
        fft.load_state_dict(sd)
        assert np.array_equal(fft.weight.data, ref.weight.data)
        assert np.array_equal(fft.bias.data, ref.bias.data)
