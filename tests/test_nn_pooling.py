"""Pooling layers: values, gradients (fast + general paths)."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grad_check import numeric_grad
from repro.nn.activations import ReLU, Sigmoid, Tanh
import repro.nn.pooling as pooling
from repro.nn.pooling import GlobalAvgPool2D, MaxPool2D, max_pool_grad


class TestMaxPoolForward:
    def test_basic_2x2(self):
        x = np.array([[1, 2, 5, 6], [3, 4, 7, 8],
                      [9, 10, 13, 14], [11, 12, 15, 16]],
                     dtype=np.float32).reshape(1, 1, 4, 4)
        pool = MaxPool2D(2, 2)
        y = pool.forward(x)
        np.testing.assert_array_equal(y[0, 0], [[4, 8], [12, 16]])

    def test_output_shape(self):
        pool = MaxPool2D(2, 2)
        assert pool.output_shape((128, 224, 224)) == (128, 112, 112)

    def test_general_path_overlapping(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        pool = MaxPool2D(2, 1)  # overlapping windows
        y = pool.forward(x)
        assert y.shape == (1, 1, 3, 3)
        assert y[0, 0, 0, 0] == 5.0  # max of [[0,1],[4,5]]

    def test_ragged_input_general_path(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5)
        pool = MaxPool2D(2, 2)  # 5 not divisible by 2 -> general path
        y = pool.forward(x)
        assert y.shape == (1, 1, 2, 2)
        assert y[0, 0, 1, 1] == 18.0


class TestMaxPoolBackward:
    def test_routes_to_max_fast_path(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        pool = MaxPool2D(2, 2)
        pool.forward(x)
        gx = pool.backward(np.array([[[[10.0]]]], dtype=np.float32))
        np.testing.assert_array_equal(
            gx[0, 0], [[0, 0], [0, 10.0]])

    def test_ties_split_evenly(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        pool = MaxPool2D(2, 2)
        pool.forward(x)
        gx = pool.backward(np.full((1, 1, 1, 1), 8.0, dtype=np.float32))
        # all four tie: gradient splits so the adjoint stays exact
        np.testing.assert_allclose(gx[0, 0], np.full((2, 2), 2.0))

    def test_numeric_fast_path(self, rng):
        # add tiny noise to avoid exact ties (numeric diff breaks at ties)
        x = (rng.normal(size=(2, 3, 4, 4)) * 10).astype(np.float32)
        pool = MaxPool2D(2, 2)
        g = rng.normal(size=(2, 3, 2, 2)).astype(np.float32)
        pool.forward(x)
        gx = pool.backward(g)
        num = numeric_grad(lambda: float((pool.forward(x) * g).sum()), x)
        np.testing.assert_allclose(gx, num, rtol=2e-2, atol=2e-2)

    def test_numeric_general_path(self, rng):
        x = (rng.normal(size=(1, 2, 5, 5)) * 10).astype(np.float32)
        pool = MaxPool2D(3, 2)
        y = pool.forward(x)
        g = rng.normal(size=y.shape).astype(np.float32)
        gx = pool.backward(g)
        num = numeric_grad(lambda: float((pool.forward(x) * g).sum()), x)
        np.testing.assert_allclose(gx, num, rtol=2e-2, atol=2e-2)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            MaxPool2D().backward(np.zeros((1, 1, 2, 2), dtype=np.float32))


def _special_values(rng, shape, dtype=np.float32):
    """Normals salted with ties, signed zeros, infinities and NaN."""
    x = rng.normal(size=shape).astype(dtype).round(1)    # many exact ties
    flat = x.reshape(-1)
    picks = rng.choice(flat.size, size=flat.size // 5, replace=False)
    flat[picks] = rng.choice(
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype),
        size=picks.size)
    return x


def _blocks(x, k):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // k, k, w // k, k)


def parent_pool(x, k):
    """``MaxPool2D``'s fast path as it was before the winners moved to
    backward, kept as the oracle: two ``np.maximum`` passes, one broadcast
    compare of the blocks with the output for the mask, a Python ``sum`` of
    its ``k*k`` bool views for the counts, one broadcast product. Returns
    the output and the backward closure."""
    blocks = _blocks(x, k)
    rows = reduce(np.maximum, [blocks[:, :, :, i] for i in range(k)])
    out = reduce(np.maximum, [rows[..., j] for j in range(k)])
    mask = blocks == out[:, :, :, None, :, None]
    counts = sum(mask[:, :, :, i, :, j] for i in range(k) for j in range(k))

    def backward(g):
        g = g / counts.astype(g.dtype)
        return (mask * g[:, :, :, None, :, None]).reshape(x.shape)

    return out, backward


class TestFastPathIsTheStridedReduce:
    """The row-then-column ``np.fmax`` passes are the same function as
    ``np.fmax.reduce(blocks, axis=(3, 5))``: ties, signed zeros and
    infinities as ``max`` has them, and NaN never wins (a window is NaN only
    when all of it is), which is what lets a ReLU run on either side."""

    @pytest.mark.parametrize("k,shape", [(2, (2, 3, 8, 6)), (2, (3, 1, 2, 12)),
                                         (3, (2, 2, 6, 9)), (4, (1, 2, 8, 4))])
    @pytest.mark.parametrize("training", [True, False])
    def test_forward_equals_reduce_on_special_values(self, rng, k, shape,
                                                     training):
        x = _special_values(rng, shape)
        x[0, 0, :k, :k] = np.nan                     # one all-NaN window
        before = x.copy()
        pool = MaxPool2D(k)
        pool.train() if training else pool.eval()
        assert pool._is_fast_path(*shape[2:])
        with np.errstate(all="raise"):
            out = pool.forward(x)
        ref = np.fmax.reduce(_blocks(x, k), axis=(3, 5))
        holds_nan = np.isnan(_blocks(x, k)).any(axis=(3, 5))
        assert np.isnan(ref[0, 0, 0, 0]) and np.isinf(ref).any()
        assert np.isnan(ref).sum() < holds_nan.sum()    # NaN lost somewhere
        np.testing.assert_array_equal(out, ref)      # NaN == NaN here
        assert out.dtype == x.dtype and out.flags.c_contiguous
        assert not np.shares_memory(out, x)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("k", [2, 3])
    def test_train_mode_mask_and_counts_equal_the_sum_form(self, rng, k):
        """``backward`` finds the winners itself, row by row; its result is
        bit for bit the broadcast-mask / summed-counts form's."""
        x = rng.integers(0, 3, size=(2, 3, 6 * k, 2 * k)).astype(np.float32)
        pool = MaxPool2D(k).train()
        out = pool.forward(x)
        # The forward kept its winners, not its operands: bit i*k + j of a
        # window is the broadcast mask's tap (i, j).
        wins, shape = pool._cache
        assert shape == x.shape and wins.dtype == np.uint8
        assert not np.shares_memory(wins, x)
        assert not np.shares_memory(wins, out)
        g = rng.normal(size=out.shape).astype(np.float32)
        ref_out, ref_backward = parent_pool(x, k)
        np.testing.assert_array_equal(out, ref_out)
        mask = _blocks(x, k) == out[:, :, :, None, :, None]
        np.testing.assert_array_equal(
            np.unpackbits(wins, axis=-1, count=k * k, bitorder="little"),
            mask.transpose(0, 1, 2, 4, 3, 5).reshape(out.shape + (k * k,)))
        assert mask.sum(axis=(3, 5)).max() > 1      # ties present
        got = pool.backward(g)
        np.testing.assert_array_equal(got, ref_backward(g))
        assert got.dtype == g.dtype and got.flags.c_contiguous
        # ... and a tied window's gradient still sums to what came in.
        np.testing.assert_allclose(_blocks(got, k).sum(axis=(3, 5)), g,
                                   rtol=1e-6)

    @pytest.mark.parametrize("k,stride", [(2, 2), (3, 3), (3, 2)])
    @pytest.mark.parametrize("window", [
        [np.nan, -1.0, -2.0, -3.0],                  # NaN alone
        [np.nan, 2.0, -1.0, 0.5],                    # NaN beside a positive
        [np.nan] * 4,                                # all NaN
        [np.inf, 1.0, np.nan, -np.inf],              # +inf wins
    ], ids=["nan", "nan+pos", "all-nan", "inf"])
    def test_non_finite_windows_pool_and_relu_in_either_order(
            self, rng, window, k, stride):
        """No NaN gradient and no warning (an all-false window used to
        divide by a zero count), and ``relu(pool(x))`` is ``pool(relu(x))``
        with the same input gradient, on the fast and the general path."""
        hw = 2 * k if k == stride else 2 * stride + 1
        x = rng.normal(size=(2, 2, hw, hw)).astype(np.float32)
        x[:, :, :k, :k] = np.resize(np.array(window, np.float32), (k, k))
        g = rng.normal(size=(2, 2, 2, 2)).astype(np.float32)

        def run(layers):
            out, grad = x, g
            for layer in layers:
                out = layer.forward(out)
            for layer in reversed(layers):
                grad = layer.backward(grad)
            return out, grad

        with np.errstate(all="raise"):
            out, grad = run([MaxPool2D(k, stride), ReLU()])
            out_relu_first, grad_relu_first = run([ReLU(),
                                                   MaxPool2D(k, stride)])
        assert np.isfinite(grad).all() and not np.isnan(out).any()
        np.testing.assert_array_equal(out, out_relu_first)
        np.testing.assert_array_equal(grad, grad_relu_first)
        if k == stride:     # all positive maxima win, NaN and <= 0 never
            corner = x[0, 0, :k, :k]
            top = np.fmax.reduce(corner, axis=None)
            wins = (corner == top) & (top > 0)
            np.testing.assert_array_equal(
                grad[:, :, :k, :k],
                wins * (g[:, :, :1, :1] / np.float32(max(wins.sum(), 1))))

    def test_kernel_one_is_a_copy(self, rng):
        x = rng.normal(size=(1, 2, 3, 3)).astype(np.float32)
        pool = MaxPool2D(1)
        out = pool.forward(x)
        np.testing.assert_array_equal(out, x)
        assert not np.shares_memory(out, x)
        g = rng.normal(size=x.shape).astype(np.float32)
        np.testing.assert_array_equal(pool.backward(g), g)

    def test_general_path_still_takes_overlapping_and_ragged(self, rng):
        """Kernel 3 / stride 2 and a 7x7 input under 2x2: windows compared
        one by one."""
        for k, s, hw in ((3, 2, 9), (2, 2, 7)):
            x = rng.normal(size=(2, 2, hw, hw)).astype(np.float32)
            pool = MaxPool2D(k, s)
            assert not pool._is_fast_path(hw, hw)
            out = pool.forward(x)
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    window = x[:, :, i * s:i * s + k, j * s:j * s + k]
                    np.testing.assert_array_equal(
                        out[:, :, i, j], window.max(axis=(2, 3)))


def tap_loop_grad(x, out, g, k, s=None):
    """A max-pool's input gradient computed tap by tap, kept as the oracle:
    ``k*k`` strided compares of tap ``(i, j)`` of every window with ``out``,
    counts in ``g``'s dtype, one division, then one strided product a tap,
    written where windows tile the input (stride ``s == k``, the default)
    and added where they overlap (``s < k``). Cells no window covers get
    0."""
    s = k if s is None else s
    oh, ow = out.shape[2:]
    taps = [(slice(i, i + s * oh, s), slice(j, j + s * ow, s))
            for i in range(k) for j in range(k)]
    wins = [x[:, :, ti, tj] == out for ti, tj in taps]
    counts = np.zeros(out.shape, g.dtype)
    for win in wins:
        counts += win
    q = g / np.maximum(counts, 1)
    grad = np.zeros(x.shape, g.dtype)
    for (ti, tj), win in zip(taps, wins):
        if s < k:
            grad[:, :, ti, tj] += win * q
        else:
            np.multiply(win, q, out=grad[:, :, ti, tj])
    return grad


class TestTrainingPoolIsTheTapLoop:
    """A training ``MaxPool2D``'s forward then backward is the tap loop bit
    for bit, on the fast path (``k`` in 2, 3, 4, 16), the ragged one and
    overlapping ``(3, 2)`` windows: ties share, NaN never wins, an all-NaN
    window gets nothing and a losing cell under a negative gradient keeps
    its ``-0.0`` where windows tile."""

    @settings(max_examples=200, deadline=None)
    @given(ks=st.sampled_from([(2, 2), (3, 3), (4, 4), (16, 16), (3, 2)]),
           n=st.integers(1, 3), c=st.integers(1, 3), oh=st.integers(1, 4),
           ow=st.integers(1, 4), ragged=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]),
           levels=st.integers(0, 3), nan_share=st.sampled_from([0, 0.3, 1]),
           seed=st.integers(0, 2**16))
    def test_forward_then_backward_is_the_tap_loop(
            self, ks, n, c, oh, ow, ragged, dtype, levels, nan_share, seed):
        k, s = ks
        if k == 16:
            oh, ow = min(oh, 2), min(ow, 2)
        rng = np.random.default_rng(seed)
        extra = (s - 1) if ragged else 0        # rows no window reaches
        h, w = (oh - 1) * s + k + extra, (ow - 1) * s + k + extra
        # few levels: many ties; levels == 0: every window one tie
        x = rng.integers(-levels, levels + 1, size=(n, c, h, w)).astype(dtype)
        x[rng.random(x.shape) < nan_share] = np.nan
        x[0, 0, :k, :k] = np.nan                    # an all-NaN window
        pool = MaxPool2D(k, s).train()
        assert pool._is_fast_path(h, w) == (k == s and not extra)
        out = pool.forward(x)
        assert out.shape == (n, c, oh, ow)
        g = rng.normal(size=out.shape).astype(dtype)
        g[0, 0, 0, 0] = -1.0                        # -0.0 in that window
        got = pool.backward(g)
        want = tap_loop_grad(x, out, g, k, s)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
        if k == s:
            corner = got[0, 0, :k, :k]
            assert np.signbit(corner).all() and not corner.any()


class TestMaxPoolGrad:
    """``max_pool_grad`` reads the winners a training forward kept (a 2x2
    tiling decoded by shifts, every other pool bit by bit); its gradient is
    the tap loop's bit for bit: ties share, an all-NaN window gets nothing,
    and a losing cell under a negative gradient keeps its ``-0.0``."""

    @settings(max_examples=200, deadline=None)
    @given(k=st.sampled_from([2, 3, 4]), n=st.integers(1, 3),
           c=st.integers(1, 3), oh=st.integers(1, 5), ow=st.integers(1, 5),
           dtype=st.sampled_from([np.float32, np.float64]),
           levels=st.integers(0, 3), nan_share=st.sampled_from([0, 0.3, 1]),
           seed=st.integers(0, 2**16))
    def test_equals_the_tap_loop_bit_for_bit(self, k, n, c, oh, ow, dtype,
                                              levels, nan_share, seed):
        rng = np.random.default_rng(seed)
        # few levels: many ties; levels == 0: every window one tie
        x = rng.integers(-levels, levels + 1,
                         size=(n, c, oh * k, ow * k)).astype(dtype)
        x[rng.random(x.shape) < nan_share] = np.nan
        x[0, 0, :k, :k] = np.nan                    # an all-NaN window
        pool = MaxPool2D(k).train()
        out = pool.forward(x)
        g = rng.normal(size=out.shape).astype(dtype)
        g[0, 0, 0, 0] = -1.0                        # -0.0 in that window
        got = np.full(x.shape, 7.0, dtype)          # nothing of it may show
        max_pool_grad(pool._cache[0], g, k, k, got)
        want = tap_loop_grad(x, out, g, k)
        assert got.tobytes() == want.tobytes()
        corner = got[0, 0, :k, :k]
        assert np.signbit(corner).all() and not corner.any()
        assert pool.backward(g).tobytes() == want.tobytes()

    def test_more_winners_than_a_byte_counts(self):
        """A 16x16 window of one value has 256 winners: counted wider."""
        x = np.ones((1, 1, 16, 16), np.float32)
        pool = MaxPool2D(16).train()
        pool.forward(x)
        got = np.empty_like(x)
        max_pool_grad(pool._cache[0], np.full((1, 1, 1, 1), 256.0,
                                              np.float32), 16, 16, got)
        np.testing.assert_array_equal(got, np.ones_like(x))


class TestATrainingPoolKeepsItsWinners:
    """A training ``MaxPool2D`` holds its winners, not its input or its
    output: no array of its state shares memory with either, and a 2x2
    pool's state is at most one byte a window."""

    @pytest.mark.parametrize("k, stride, hw", [(2, 2, 16), (2, 2, 64),
                                               (3, 3, 12), (2, 2, 9),
                                               (3, 2, 9)])
    def test_its_state_is_its_winners(self, rng, k, stride, hw):
        x = rng.normal(size=(2, 4, hw, hw)).astype(np.float32)
        pool = MaxPool2D(k, stride).train()
        out = pool.forward(x)
        held = [a for a in vars(pool).values() if isinstance(a, np.ndarray)]
        held += [a for a in pool._cache if isinstance(a, np.ndarray)]
        assert held and not any(np.shares_memory(a, b)
                                for a in held for b in (x, out))
        assert sum(a.nbytes for a in held) <= out.size * -(-k * k // 8)
        assert pool.backward(np.ones_like(out)).shape == x.shape


    @pytest.mark.parametrize("band_bytes", [64, 1 << 20])
    @pytest.mark.parametrize("k, stride, hw", [(2, 2, 8), (3, 3, 9),
                                               (3, 2, 9)])
    def test_a_training_forward_pools_as_eval_does(self, rng, monkeypatch,
                                                   band_bytes, k, stride,
                                                   hw):
        """Band by band (64 bytes: one 2x2 plane a band) or whole, NaN
        losing to any number and ties included."""
        monkeypatch.setattr(pooling, "_BAND_BYTES", band_bytes)
        x = rng.integers(-1, 2, size=(2, 3, hw, hw)).astype(np.float32)
        x[rng.random(x.shape) < 0.3] = np.nan
        pool = MaxPool2D(k, stride)
        out = pool.train().forward(x)
        np.testing.assert_array_equal(out, pool.eval().forward(x))
        if k == stride:
            np.testing.assert_array_equal(
                out, np.fmax.reduce(_blocks(x, k), axis=(3, 5)))


    @pytest.mark.parametrize("view", ["cropped", "strided", "transposed",
                                      "fortran"])
    def test_any_memory_layout(self, rng, view):
        base = rng.integers(-1, 2, size=(2, 6, 8, 12)).astype(np.float32)
        x = {"cropped": base[..., :8], "strided": base[:, ::2],
             "transposed": base.transpose(0, 1, 3, 2)[:, :, :8],
             "fortran": np.asfortranarray(base)}[view]
        pool = MaxPool2D(2).train()
        out = pool.forward(x)
        g = rng.normal(size=out.shape).astype(np.float32)
        assert pool.backward(g).tobytes() == \
            tap_loop_grad(x, out, g, 2).tobytes()
        np.testing.assert_array_equal(out, MaxPool2D(2).eval().forward(x))


class TestOneGradientRuleForEveryWindow:
    """The general path (ragged or overlapping windows) routes a window's
    gradient as the fast path does: every maximum gets an equal share, an
    all-NaN window nothing. It used to route it all to the first argmax,
    into a NaN cell too: a 5x5 image's gradient differed from the 4x4
    image's its windows cover."""

    @pytest.mark.parametrize("fill", ["ones", "nan", "special"])
    def test_ragged_windows_match_the_tiled_ones(self, rng, fill):
        x = {"ones": np.ones((2, 3, 5, 5), np.float32),
             "nan": np.full((2, 3, 5, 5), np.nan, np.float32),
             "special": _special_values(rng, (2, 3, 5, 5))}[fill]
        x[1, 0, :2, :2] = np.nan                    # an all-NaN window
        x[1, 1, 2:4, :2] = 3.0                      # a four-way tie
        g = rng.normal(size=(2, 3, 2, 2)).astype(np.float32)
        tiled, ragged = MaxPool2D(2), MaxPool2D(2)
        assert tiled._is_fast_path(4, 4) and not ragged._is_fast_path(5, 5)
        out = tiled.forward(x[:, :, :4, :4].copy())
        np.testing.assert_array_equal(ragged.forward(x), out)
        grad = ragged.backward(g)
        np.testing.assert_array_equal(grad[:, :, :4, :4], tiled.backward(g))
        assert not grad[:, :, 4].any() and not grad[:, :, :, 4].any()
        assert not grad[1, 0, :2, :2].any()
        np.testing.assert_array_equal(grad[1, 1, 2:4, :2], g[1, 1, 1, 0] / 4)
        if fill == "ones":      # every cell of image 0 ties: a quarter each
            np.testing.assert_array_equal(
                grad[0, :, :4, :4], np.repeat(np.repeat(g[0], 2, 1), 2, 2) / 4)

    def test_overlapping_windows_add_up(self):
        """A cell that wins several windows gets every share."""
        x = np.zeros((1, 1, 3, 3), np.float32)
        x[0, 0, 1, 1] = 1.0                         # a max of all four
        x[0, 0, 0, 0] = x[0, 0, 0, 1] = 1.0         # ties in the top two
        pool = MaxPool2D(2, stride=1)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2), np.float32))
        np.testing.assert_allclose(grad[0, 0], [[1 / 3, 1 / 3 + 1 / 2, 0],
                                                [0, 1 / 3 + 1 / 2 + 2, 0],
                                                [0, 0, 0]], rtol=1e-6)


class TestGradOutIsChecked:
    """``backward`` refuses, by layer name, a ``grad_out`` that is not the
    shape its forward returned, before it touches anything; a batch-1
    gradient used to broadcast into a batch-2 one."""

    LAYERS = {"pool": lambda: MaxPool2D(2, name="pool"),
              "ragged": lambda: MaxPool2D(3, stride=2, name="ragged"),
              "relu": lambda: ReLU(name="relu"),
              "sigmoid": lambda: Sigmoid(name="sigmoid"),
              "tanh": lambda: Tanh(name="tanh"),
              "gap": lambda: GlobalAvgPool2D(name="gap")}

    @pytest.mark.parametrize("name", LAYERS)
    def test_a_wrong_batch_is_refused(self, rng, name):
        layer = self.LAYERS[name]()
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        out = layer.forward(x)
        g = rng.normal(size=out.shape).astype(np.float32)
        for bad in (g[:1], g[..., :1], g.reshape((4, 2) + g.shape[2:])):
            with pytest.raises(ValueError, match=rf"^{name}: expected "
                               rf"grad_out of shape \(2, 4"):
                layer.backward(bad)
        want = self.LAYERS[name]()
        want.forward(x)
        np.testing.assert_array_equal(layer.backward(g), want.backward(g))


class TestBackwardDtype:
    @pytest.mark.parametrize("k,stride,hw", [(2, 2, 8), (3, 3, 9), (3, 2, 9)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_keeps_its_dtype(self, rng, k, stride, hw, dtype):
        """The winner counts are integers; dividing a float32 gradient by
        them must not promote it (and everything below) to float64."""
        pool = MaxPool2D(k, stride)
        out = pool.forward(rng.normal(size=(2, 3, hw, hw)).astype(dtype))
        gx = pool.backward(rng.normal(size=out.shape).astype(dtype))
        assert gx.dtype == dtype


class TestGlobalAvgPool:
    def test_value(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        gap = GlobalAvgPool2D()
        y = gap.forward(x)
        np.testing.assert_allclose(y, [[1.5, 5.5]])

    def test_shape(self):
        gap = GlobalAvgPool2D()
        assert gap.output_shape((128, 14, 14)) == (128,)

    def test_backward_distributes(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        gap = GlobalAvgPool2D()
        gap.forward(x)
        gx = gap.backward(np.array([[4.0]], dtype=np.float32))
        np.testing.assert_allclose(gx[0, 0], np.ones((2, 2)))

    def test_numeric(self, rng):
        x = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        gap = GlobalAvgPool2D()
        g = rng.normal(size=(2, 3)).astype(np.float32)
        gap.forward(x)
        gx = gap.backward(g)
        num = numeric_grad(lambda: float((gap.forward(x) * g).sum()), x)
        np.testing.assert_allclose(gx, num, rtol=2e-2, atol=2e-2)

    def test_param_independence_of_input_size(self):
        # the reason the paper uses GAP: no input-size-dependent weights
        assert GlobalAvgPool2D().num_params() == 0
