"""``Sequential``'s execution order and its fused eval groups.

Pinned here: an eval forward equals the layer-by-layer loop on every topology
and band budget; fusion is invisible to training and to instance-level
``forward`` hooks; the HEP ``conv1`` group never holds its 51 MB
intermediate activations; and the schedule (a max-pool ahead of the ReLUs it
follows, winners kept by the forward, no input gradient for the first layer)
moves no float of a training step.
"""

import contextlib
import copy
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import Sequential
from repro.models.hep import build_hep_net
import repro.nn.conv as conv_module
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.deconv import Deconv2D
from repro.nn.dense import Dense
from repro.nn.fft_conv import FFTConv2D
from repro.nn.im2col import _BAND_BYTES, _bands
from repro.nn.pooling import MaxPool2D
from repro.nn.winograd import WinogradConv2D
from repro.optim import Adam
from repro.train.loop import hep_loss_fn, step
from test_nn_im2col import (budget, lowering, separable_everywhere,
                            winograd_everywhere)
from test_nn_pooling import parent_pool


def layer_by_layer(net, x):
    """The unfused forward: every layer on a whole tensor."""
    for layer in net.layers:
        x = layer.forward(x)
    return x


def build(layout, c, f, k, stride, pad, pool_k, seed=0):
    """An eval net from a layout string: ``c`` conv / ``d`` deconv (``C ->
    F``, then ``F -> F``), ``r`` ReLU, ``p`` ``pool_k`` max-pool, ``o`` an
    overlapping 3x3/stride-2 max-pool. Biases are random: zero would hide
    their order."""
    rng = np.random.default_rng(seed)
    layers = []
    for i, code in enumerate(layout):
        if code in "cd":
            conv = (Conv2D if code == "c" else Deconv2D)(
                c, f, k, stride=stride, pad=pad, rng=seed + i,
                name=f"{'conv' if code == 'c' else 'deconv'}{i}")
            conv.bias.data[...] = rng.normal(size=f)
            layers.append(conv)
            c = f
        else:
            layers.append({"r": lambda: ReLU(name=f"relu{i}"),
                           "p": lambda: MaxPool2D(pool_k, name=f"pool{i}"),
                           "o": lambda: MaxPool2D(3, stride=2,
                                                  name=f"over{i}")}[code]())
    return Sequential(layers).eval()


@contextlib.contextmanager
def recording(net):
    """Shadow every layer's ``forward`` with a ``(*args, **kwargs)`` recorder
    (what ``bench/tracing.py`` does); yields ``{name: [input shapes]}``."""
    seen = {layer.name: [] for layer in net.layers}

    def shadow(layer, orig):
        def forward(*args, **kwargs):
            seen[layer.name].append(args[0].shape)
            return orig(*args, **kwargs)
        layer.forward = forward

    for layer in net.layers:
        shadow(layer, layer.forward)
    try:
        yield seen
    finally:
        for layer in net.layers:
            del layer.forward


#: image sides: any, but often ones a 2x2 or 3x3 pool divides
SIZES = st.one_of(st.sampled_from([12, 18, 24]), st.integers(6, 26))
LAYOUTS = ["cr", "cp", "crp", "cpr", "crpp", "cc", "ccrp", "crpcr", "rcrp",
           "pcp", "co", "cro", "crpo", "dr", "drr", "drp", "dpr", "crdr",
           "drcp"]


class TestFusedEqualsLayerByLayer:
    @settings(max_examples=150, deadline=None)
    @given(layout=st.sampled_from(LAYOUTS),
           n=st.integers(1, 3), c=st.integers(1, 3), f=st.integers(1, 5),
           h=SIZES, w=SIZES,
           k=st.sampled_from([1, 2, 3, 5]), stride=st.integers(1, 2),
           pad=st.integers(0, 2), pool_k=st.sampled_from([2, 3]),
           dtype=st.sampled_from([np.float32, np.float64]),
           band_bytes=st.sampled_from([1, 256, 2048, 16384, 1 << 40]),
           seed=st.integers(0, 2**16))
    def test_any_net_any_budget(self, layout, n, c, f, h, w, k, stride, pad,
                                pool_k, dtype, band_bytes, seed):
        net = build(layout, c, f, k, stride, pad, pool_k, seed)
        x = np.random.default_rng(seed).normal(size=(n, c, h, w)) \
            .astype(dtype)
        # the separable forms on every other draw, whatever the rule says
        forms = separable_everywhere() if seed % 2 else contextlib.nullcontext()
        with budget(band_bytes, fold_below=1), forms:
            try:
                want = layer_by_layer(net, x)
            except ValueError:          # the image shrank to nothing
                assume(False)
            got = net.forward(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous
        if band_bytes == 1 << 40:       # one shot: the same operations
            np.testing.assert_array_equal(got, want)
        else:                           # other cuts, other summation order
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("conv_cls", [Conv2D, WinogradConv2D, FFTConv2D])
    def test_conv_kinds_accept_followers(self, conv_cls, rng):
        conv = conv_cls(2, 4, 3, rng=0) if conv_cls is not WinogradConv2D \
            else conv_cls(2, 4, rng=0)
        net = Sequential([conv, ReLU(), MaxPool2D(2)]).eval()
        x = rng.normal(size=(2, 2, 12, 12)).astype(np.float32)
        np.testing.assert_array_equal(net.forward(x), layer_by_layer(net, x))

    def test_followers_see_bands_and_only_the_last_output_is_whole(self, rng):
        net = build("crpcr", 2, 4, 3, 1, 1, 2)
        x = rng.normal(size=(1, 2, 16, 16)).astype(np.float32)
        want = net.forward(x)
        with budget(2048, fold_below=1), recording(net) as seen:
            got = net.forward(x)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
        # Every layer is still called; the followers get bands of whole
        # rows, the convs whole tensors. The pool runs first (an even number
        # of rows a band), the ReLU it follows on what the pool made of it.
        assert net.schedule() == [net.layers[i] for i in (0, 2, 1, 3, 4)]
        assert seen["conv0"] == [(1, 2, 16, 16)]
        assert seen["conv3"] == [(1, 4, 8, 8)]
        assert len(seen["pool2"]) > 1
        assert all(s[:2] == (1, 4) and s[3] == 16 and s[2] % 2 == 0
                   for s in seen["pool2"])
        assert seen["relu1"] == [(1, 4, s[2] // 2, 8) for s in seen["pool2"]]
        assert sum(s[2] for s in seen["pool2"]) == 16
        assert sum(s[2] for s in seen["relu4"]) == 8

    def test_ragged_pool_falls_back_to_whole_tensors(self, rng):
        # 15 rows under a 2x2 pool: the pool's general path, never on bands.
        net = build("crp", 2, 4, 3, 1, 1, 2)
        x = rng.normal(size=(2, 2, 15, 16)).astype(np.float32)
        with budget(2048, fold_below=1), recording(net) as seen:
            got = net.forward(x)
            want = layer_by_layer(net, x)
        np.testing.assert_array_equal(got, want)
        # (layer_by_layer ran second: entry 0 is the net's own forward)
        assert seen["pool2"][0] == (2, 4, 15, 16)
        assert seen["relu1"][0] == (2, 4, 7, 8)

    def test_overlapping_pool_is_never_fused(self, rng):
        assert MaxPool2D(3, stride=2).band_rows == 0
        assert MaxPool2D(1).band_rows == 0          # the identity copies
        assert MaxPool2D(3).band_rows == 3 and ReLU().band_rows == 1
        net = build("cro", 2, 4, 3, 1, 1, 2)
        x = rng.normal(size=(1, 2, 16, 16)).astype(np.float32)
        with budget(2048, fold_below=1), recording(net) as seen:
            net.forward(x)
        # It still runs before its ReLU, which ends the conv's group there.
        assert seen["over2"] == [(1, 4, 16, 16)]
        assert seen["relu1"] == [(1, 4, 7, 7)]

    def test_training_forward_is_never_grouped(self, rng):
        net = build("crp", 2, 4, 3, 1, 1, 2).train()
        x = rng.normal(size=(1, 2, 16, 16)).astype(np.float32)
        with budget(2048, fold_below=1), recording(net) as seen:
            net.forward(x)
        assert seen == {"conv0": [(1, 2, 16, 16)], "pool2": [(1, 4, 16, 16)],
                        "relu1": [(1, 4, 8, 8)]}
        # ... and a conv handed followers while training runs them whole,
        # in the order it was handed them.
        with budget(2048, fold_below=1), recording(net) as seen:
            net.layers[0].forward(x, net.layers[1:])
        assert seen["relu1"] == seen["pool2"] == [(1, 4, 16, 16)]

    @given(n=st.integers(1, 4), rows=st.integers(1, 40),
           blocks=st.integers(1, 30), ow=st.integers(1, 20),
           multiple=st.sampled_from([1, 2, 3, 4, 6]),
           band_bytes=st.sampled_from([1, 100, 1000, 10000, 10**6]))
    def test_band_heights_are_multiples_of_the_row_factor(
            self, n, rows, blocks, ow, multiple, band_bytes):
        oh = blocks * multiple
        with budget(band_bytes, fold_below=1):
            bands = _bands(n, rows, oh, ow, 4, multiple)
            if multiple == 1:           # training: the cuts of the parent
                assert bands == _bands(n, rows, oh, ow, 4)
        if bands is None:
            return
        covered = np.zeros((n, oh), dtype=int)
        for i0, i1, r0, r1 in bands:
            assert r0 % multiple == 0 and r1 % multiple == 0
            covered[i0:i1, r0:r1] += 1
        assert (covered == 1).all()


class TestThePoolRunsBeforeTheBias:
    """A conv group led by a non-overlapping max-pool pools the GEMM
    product, then adds the bias (``k*k`` times fewer adds, the same bits);
    the Winograd form pools its 4x4 blocks itself, where ``k`` divides 4,
    and never calls the pool's ``forward``."""

    @staticmethod
    def net(pool_k, c=32, bias=1e4):
        conv = Conv2D(c, 32, 3, rng=0, name="conv0")
        conv.bias.data[...] = np.random.default_rng(0).normal(scale=bias,
                                                              size=32)
        return Sequential([conv, ReLU(name="relu1"),
                           MaxPool2D(pool_k, name="pool2")]).eval()

    @pytest.mark.parametrize("pool_k, in_place", [(2, True), (4, True),
                                                  (3, False)])
    def test_the_tile_form_pools_without_the_pools_forward(
            self, rng, pool_k, in_place):
        net = self.net(pool_k)
        x = rng.normal(size=(2, 32, 24, 24)).astype(np.float32)
        with budget(1, fold_below=1), winograd_everywhere(None) as calls, \
                recording(net) as seen:
            got = net.forward(x)
            want = layer_by_layer(net, x)
        assert calls == [x.shape] * 2           # the rule took both convs
        if in_place:        # the same bands: the same GEMMs
            np.testing.assert_array_equal(got, want)
        else:               # bands of 3 tile rows against 1: other GEMMs
            np.testing.assert_allclose(got, want, rtol=1e-6)
        # (layer_by_layer ran second: its calls are the last entries)
        assert seen["conv0"] == [x.shape] * 2
        assert seen["relu1"][-1] == (2, 32, 24, 24)
        assert seen["pool2"][-1] == (2, 32, 24, 24)
        group = seen["pool2"][:-1]
        if in_place:        # the pool's forward ran on no tile band
            assert group == []
            assert all(s[2:] == (4 // pool_k, 24 // pool_k)
                       for s in seen["relu1"][:-1])
        else:               # bands of 3 tile rows, whole 3x3 windows
            assert group == [(1, 32, 12, 24)] * 4

    def test_the_one_shot_form_pools(self, rng):
        """A group small enough for one shot pools the whole product with
        the pool's own ``forward``, bias not yet added."""
        net = self.net(2, c=3)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        pooled = []
        pool = net.layers[2]
        pool.forward = lambda band, _orig=pool.forward: \
            pooled.append(band.copy()) or _orig(band)
        with budget(1 << 40):
            got = net.forward(x)
            del pool.forward
            want = layer_by_layer(net, x)
        np.testing.assert_array_equal(got, want)
        assert [p.shape for p in pooled] == [(2, 32, 8, 8)]
        assert np.abs(pooled[0]).max() < 1e2       # the bias is 1e4-sized

    @pytest.mark.parametrize("band_bytes", [1, 1 << 40])
    def test_an_eval_group_after_training_holds_no_cache(self, rng,
                                                         band_bytes):
        net = self.net(2)
        conv, relu, pool = net.layers
        x = rng.normal(size=(2, 32, 24, 24)).astype(np.float32)
        with budget(band_bytes, fold_below=1):
            net.train().forward(x)
            assert conv._cache and relu._mask is not None and pool._cache
            net.eval().forward(x)
        assert conv._cache is None and relu._mask is None \
            and pool._cache is None


class TestDeconvGroups:
    """A ``Deconv2D`` heads a group too: bias and its *elementwise*
    followers ride each finished band of the separable form."""

    @staticmethod
    def net(layout, rng, c=2, f=4):
        # 2 -> 4 channels, 4x4/2: thin enough for the rule as it stands
        net = build(layout, c, f, 4, 2, 1, 2)
        return net, rng.normal(size=(2, c, 12, 10)).astype(np.float32)

    @pytest.mark.parametrize("c, f, separable", [(2, 4, True),
                                                 (12, 2, False)])
    def test_followers_see_bands_that_tile_the_output(self, rng, c, f,
                                                      separable):
        """Both forms finish bands: the separable one when a band's planes
        are woven, the scatter one once no later band reaches the rows."""
        net, x = self.net("drr", rng, c, f)
        want = layer_by_layer(net, x)
        with budget(2048, fold_below=1), recording(net) as seen:
            made = lowering.plan(lowering.matmul_col2im, (2, f, 24, 20), c,
                                 4, 2, 1, np.float32)
            got = net.forward(x)
        assert made.form == ("separable" if separable else "direct")
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
        assert got.flags.c_contiguous and got.shape == (2, f, 24, 20)
        assert seen["deconv0"] == [(2, c, 12, 10)]
        assert len(seen["relu1"]) > 2 and seen["relu2"] == seen["relu1"]
        # whole-width bands of one image each, every output row once
        assert all(s[:2] == (1, f) and s[3] == 20 for s in seen["relu1"])
        assert sum(s[2] for s in seen["relu1"]) == 2 * 24

    def test_a_pool_behind_a_deconv_is_never_fused(self, rng):
        net, x = self.net("drp", rng)
        with budget(2048, fold_below=1), recording(net) as seen:
            got = net.forward(x)
            want = layer_by_layer(net, x)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
        # The pool runs first, so nothing elementwise leads the group: it
        # and the ReLU behind it see whole tensors.
        assert seen["pool2"][0] == (2, 4, 24, 20)
        assert seen["relu1"][0] == (2, 4, 12, 10)

    def test_a_training_forward_is_never_grouped(self, rng):
        net, x = self.net("dr", rng)
        net.train()
        with budget(2048, fold_below=1), recording(net) as seen:
            net.forward(x)
            assert seen["relu1"] == [(2, 4, 24, 20)]
            # ... and a deconv handed followers while training runs them
            # whole: the ReLU's mask must cover the tensor for backward.
            net.layers[0].forward(x, net.layers[1:])
        assert seen["relu1"] == [(2, 4, 24, 20)] * 2
        assert net.layers[1]._mask.shape == (2, 4, 24, 20)

    def test_one_shot_groups_are_bit_equal(self, rng):
        net, x = self.net("drr", rng)
        np.testing.assert_array_equal(net.forward(x), layer_by_layer(net, x))

    def test_a_one_argument_shadow_survives_where_nothing_follows(self, rng):
        net, x = self.net("ddr", rng)
        want = net.forward(x)
        first = net.layers[0]
        first.forward = lambda inp, _orig=first.forward: _orig(inp)
        np.testing.assert_array_equal(net.forward(x), want)


class TestFusionIsInvisible:
    def test_to_training(self, rng):
        """An eval forward leaves nothing behind: the next training step
        equals that of a net that never ran in eval."""
        fresh = build("crpcr", 2, 4, 3, 1, 1, 2)
        used = copy.deepcopy(fresh)
        x = rng.normal(size=(2, 2, 16, 16)).astype(np.float32)
        g = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        with budget(2048, fold_below=1):
            used.forward(x)
            relu, pool = used.layers[1:3]
            assert relu._mask is None and pool._cache is None
            outs = [net.train().forward(x) for net in (used, fresh)]
            grads = [net.backward(g) for net in (used, fresh)]
        np.testing.assert_array_equal(*outs)
        np.testing.assert_array_equal(*grads)
        for p, q in zip(used.params(), fresh.params()):
            np.testing.assert_array_equal(p.grad, q.grad)
        # A training forward fills the followers' whole-tensor state: the
        # pool holds a byte of winners a window, the ReLU behind it a mask of
        # the pooled size.
        assert pool._cache[0].shape == (2, 4, 8, 8, 1)
        assert pool._cache[1] == (2, 4, 16, 16)
        assert relu._mask.shape == (2, 4, 8, 8)

    def test_to_forward_hooks(self, rng):
        """With every leaf's ``forward`` shadowed by a ``(*args, **kwargs)``
        wrapper, each layer is still called and the output is unchanged."""
        net = build("crp", 2, 4, 3, 1, 1, 2)
        x = rng.normal(size=(2, 2, 16, 16)).astype(np.float32)
        for band_bytes in (2048, 1 << 40):
            with budget(band_bytes, fold_below=1):
                want = net.forward(x)
                with recording(net) as seen:
                    got = net.forward(x)
            np.testing.assert_array_equal(got, want)
            assert all(seen[name] for name in ("conv0", "relu1", "pool2"))
        assert "forward" not in vars(net.layers[0])

    def test_a_one_argument_shadow_survives_where_nothing_follows(self, rng):
        # ``then`` is passed only to a conv that has followers.
        net = build("ccr", 2, 4, 3, 1, 1, 2)
        x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        want = net.forward(x)
        first = net.layers[0]
        first.forward = lambda inp, _orig=first.forward: _orig(inp)
        np.testing.assert_array_equal(net.forward(x), want)


def list_order_step(net, x, g):
    """Forward and backward through ``net.layers`` in *list* order, the
    parent's pooling standing in for every fast-path ``MaxPool2D``."""
    backs = []
    for layer in net.layers:
        if isinstance(layer, MaxPool2D) and layer._is_fast_path(*x.shape[2:]):
            x, back = parent_pool(x, layer.kernel_size)
        else:
            x, back = layer.forward(x), layer.backward
        backs.append(back)
    for back in reversed(backs):
        g = back(g)
    return x, g


def param_grads(net):
    return [p.grad.copy() for p in net.params()]


class TestScheduleIsInvisible:
    @settings(max_examples=150, deadline=None)
    @given(layout=st.sampled_from(LAYOUTS + ["crpcrp", "rp", "crrp"]),
           n=st.integers(1, 3), c=st.integers(1, 3), f=st.integers(1, 5),
           h=SIZES, w=SIZES,
           k=st.sampled_from([1, 2, 3, 5]), stride=st.integers(1, 2),
           pad=st.integers(0, 2), pool_k=st.sampled_from([2, 3]),
           dtype=st.sampled_from([np.float32, np.float64]),
           integral=st.booleans(),
           band_bytes=st.sampled_from([2048, 1 << 40]),
           seed=st.integers(0, 2**16))
    def test_a_training_step_equals_the_list_order_one(
            self, layout, n, c, f, h, w, k, stride, pad, pool_k, dtype,
            integral, band_bytes, seed):
        net = build(layout, c, f, k, stride, pad, pool_k, seed).train()
        rng = np.random.default_rng(seed)
        # Ties, exact zeros and windows with nothing positive, at the input
        # (one decimal) and, with whole-number weights, behind every conv.
        x = rng.normal(size=(n, c, h, w)).round(0 if integral else 1)
        x[:, :, :h // 2, :w // 3] = -np.abs(x[:, :, :h // 2, :w // 3])
        x[:, :, h // 2:, :w // 3] = 0.0
        x = x.astype(dtype)
        if integral:
            for p in net.params():
                p.data[...] = rng.integers(-2, 3, size=p.data.shape)
        with budget(band_bytes, fold_below=1):
            try:
                shape = net.output_shape(x.shape[1:])
            except ValueError:          # the image shrank to nothing
                assume(False)
            g = rng.normal(size=(n,) + shape).astype(dtype)
            net.zero_grad()
            want_out, want_gx = list_order_step(net, x, g)
            want = param_grads(net)
            net.zero_grad()
            got_out, got_gx = net.forward(x), net.backward(g)
            got = param_grads(net)
            net.zero_grad()
            net.forward(x)
            skipped = net.backward(g, input_grad=False)
        assert got_out.dtype == want_out.dtype and got_gx.dtype == dtype
        np.testing.assert_array_equal(got_out, want_out)
        np.testing.assert_array_equal(got_gx, want_gx)
        for a, b, c_ in zip(got, want, param_grads(net)):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(c_, b)
        # Only a first layer that can skip its data gradient does.
        if net.schedule()[0].skips_input_grad:
            assert skipped is None
        else:
            np.testing.assert_array_equal(skipped, want_gx)

    def test_the_schedule_moves_pools_ahead_of_their_relus_only(self):
        def names(layers):
            return [layer.name for layer in layers]

        net = build("crrppcro", 1, 2, 3, 1, 1, 2)
        assert names(net.schedule()) == [
            "conv0", "pool3", "pool4", "relu1", "relu2", "conv5", "over7",
            "relu6"]
        assert names(net.layers) == [
            "conv0", "relu1", "relu2", "pool3", "pool4", "conv5", "relu6",
            "over7"]
        assert names(build("rcpr", 1, 2, 3, 1, 1, 2).schedule()) == [
            "relu0", "conv1", "pool2", "relu3"]
        assert Sequential([]).schedule() == []

    @pytest.mark.parametrize("layer,shape", [
        (lambda: Conv2D(2, 3, 3, stride=2, rng=0), (2, 2, 9, 8)),
        (lambda: Deconv2D(2, 3, 4, stride=2, rng=0), (2, 2, 5, 4)),
        (lambda: Dense(6, 3, rng=0), (4, 6)),
    ], ids=["conv", "deconv", "dense"])
    def test_layers_that_can_skip_their_input_gradient(self, rng, layer,
                                                       shape):
        layer = layer()
        assert layer.skips_input_grad and not ReLU().skips_input_grad
        x = rng.normal(size=shape).astype(np.float32)
        g = rng.normal(size=layer.forward(x).shape).astype(np.float32)
        assert layer.backward(g).shape == x.shape
        want = param_grads(layer)
        layer.zero_grad()
        assert layer.backward(g, input_grad=False) is None
        for a, b in zip(param_grads(layer), want):
            np.testing.assert_array_equal(a, b)

    def test_input_grad_false_reaches_a_nested_first_layer(self, rng):
        inner = build("cr", 2, 3, 3, 1, 1, 2).train()
        net = Sequential([inner, MaxPool2D(2)])
        x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        g = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        net.forward(x)
        assert net.backward(g).shape == x.shape
        want = param_grads(net)
        net.zero_grad()
        net.forward(x)
        assert net.backward(g, input_grad=False) is None
        for a, b in zip(param_grads(net), want):
            np.testing.assert_array_equal(a, b)
        assert Sequential([]).backward(g, input_grad=False) is g


class TestTheFirstPoolGradientIsNeverWhole:
    """A training step's ``net.backward(g, input_grad=False)`` hands the
    first conv the max-pool behind it: the pool's gradient is made band by
    band inside the conv's weight gradient, with the bits of the pool's own
    ``backward``, and its ``backward`` never runs."""

    @pytest.mark.parametrize("band_bytes", [1 << 16, _BAND_BYTES])
    def test_pool1_backward_never_runs(self, rng, band_bytes):
        net = build_hep_net(filters=8, rng=0)
        pools = {layer.name: layer for layer in net.layers
                 if isinstance(layer, MaxPool2D)}
        calls = []
        for pool in pools.values():
            pool.backward = lambda g, _orig=pool.backward, _name=pool.name: \
                calls.append(_name) or _orig(g)
        x = rng.normal(size=(8, 3, 64, 64)).astype(np.float32)
        g = rng.normal(size=(8, 2)).astype(np.float32)
        with budget(band_bytes):
            net.forward(x)
            net.backward(g)
            want = param_grads(net)
            assert calls == ["pool4", "pool3", "pool2", "pool1"]
            net.zero_grad()
            calls.clear()
            net.forward(x)
            assert net.backward(g, input_grad=False) is None
        assert calls == ["pool4", "pool3", "pool2"]
        assert pools["pool1"]._cache is None
        assert pools["pool2"]._cache is not None
        for a, b in zip(param_grads(net), want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("band_bytes", [1 << 10, 1 << 40])
    def test_a_bias_gradient_sums_each_image_then_the_images(self, rng,
                                                             band_bytes):
        """With one filter, ``g.sum(axis=(0, 2))`` was one pairwise sum over
        the whole batch, which a gradient made a band of images at a time
        cannot reproduce; each image's sum, then the images in order, can."""
        conv = Conv2D(2, 1, 3, rng=0)
        x = rng.normal(size=(32, 2, 8, 8)).astype(np.float32)
        g = rng.normal(size=(32, 1, 8, 8)).astype(np.float32)
        conv.forward(x)
        with budget(band_bytes):            # 1 KiB: bands of 4 images
            conv.backward(g, input_grad=False)
        want = np.zeros(1, np.float32)
        for image in g:
            want += image.reshape(1, -1).sum(axis=1)
        assert conv.bias.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pool_k", [2, 3])
    @pytest.mark.parametrize("form", ["winograd", "uncached"])
    def test_every_weight_gradient_form_reads_made_bands(self, rng, form,
                                                         pool_k):
        """Tile bands (4 rows, rounded out to 3-row windows), and a one-shot
        weight gradient with no columns kept (``WinogradConv2D``'s cache)."""
        conv = WinogradConv2D(4, 4, rng=0) if form == "uncached" \
            else Conv2D(4, 4, 3, rng=0)
        net = Sequential([conv, ReLU(), MaxPool2D(pool_k)])
        x = rng.normal(size=(2, 4, 24, 24)).astype(np.float32)
        g = rng.normal(size=(2, 4) + (24 // pool_k,) * 2).astype(np.float32)
        forms = winograd_everywhere() if form == "winograd" \
            else contextlib.nullcontext([])
        grads = []
        with budget(1 if form == "winograd" else 1 << 40, fold_below=1), \
                forms as calls:
            for input_grad in (True, False):
                net.zero_grad()
                net.forward(x)
                net.backward(g, input_grad=input_grad)
                grads.append(param_grads(net))
        # the tile form's weight gradient plans nothing: it reads the tiles
        # its forward kept
        kept = getattr(conv._cache, "plan", None)
        assert (form == "winograd") == (x.shape in calls) \
            == (kept is not None and kept.form == "winograd")
        assert ("outer", x.shape) not in calls
        for a, b in zip(*grads):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape, filters, band_bytes", [
        ((8, 3, 64, 64), 128, _BAND_BYTES),         # hep_train's conv1
        ((2, 4, 32, 32), 8, 1 << 12),               # bands split an image
    ], ids=["hep_train", "split"])
    def test_the_made_gradient_is_the_pools_own(self, shape, filters,
                                                 band_bytes):
        """``net.backward(g, input_grad=False)`` (the pool's gradient made
        band by band inside the conv's) leaves every parameter gradient
        byte of ``pool.backward`` then the conv's ``backward``."""
        rng = np.random.default_rng(5)
        conv = Conv2D(shape[1], filters, 3, rng=0)
        conv.weight.data[...] = rng.integers(-2, 3, conv.weight.data.shape)
        conv.bias.data[...] = rng.integers(-2, 3, filters)
        net = Sequential([conv, ReLU(), MaxPool2D(2)]).train()
        x = rng.integers(-2, 3, size=shape).astype(np.float32)  # ties
        x[0, 0, :8] = np.nan
        g = rng.normal(size=(shape[0], filters, shape[2] // 2,
                             shape[3] // 2)).astype(np.float32)
        seen, read = [], conv_module._Bands.__getitem__

        def getitem(bands, index):
            seen.append(index)
            return read(bands, index)

        grads = []
        with budget(band_bytes, fold_below=1), \
                mock.patch.object(conv_module._Bands, "__getitem__",
                                  getitem):
            for made in (True, False):
                net.zero_grad()
                net.forward(x)
                if made:
                    assert net.backward(g, input_grad=False) is None
                else:
                    grad = g
                    for layer in reversed(net.schedule()[1:]):
                        grad = layer.backward(grad)
                    assert conv.backward(grad, input_grad=False) is None
                grads.append([p.grad.tobytes() for p in net.params()])
        assert grads[0] == grads[1]
        rows = {index[2].stop - index[2].start for index in seen}
        assert (min(rows) < shape[2]) == (band_bytes < _BAND_BYTES)

    def test_a_ragged_pool_runs_its_own_backward(self, rng):
        net = build("crp", 2, 4, 3, 1, 1, 2).train()
        x = rng.normal(size=(2, 2, 9, 8)).astype(np.float32)
        g = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
        net.forward(x)
        net.backward(g)
        want = param_grads(net)
        net.zero_grad()
        net.forward(x)
        assert net.backward(g, input_grad=False) is None
        assert net.layers[2]._cache is not None
        for a, b in zip(param_grads(net), want):
            np.testing.assert_array_equal(a, b)

    def test_the_hep_conv1_gradient_peaks_under_one_conv1_output(self):
        """At ``hep_train``'s ``(8, 128, 64, 64)`` the 16.8 MB gradient of
        the conv's output, which the pool's ``backward`` would allocate, is
        never whole: one band scratch and its temporaries are."""
        net = Sequential([Conv2D(3, 128, 3, rng=0), ReLU(), MaxPool2D(2)])
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3, 64, 64)).astype(np.float32)
        g = rng.normal(size=(8, 128, 32, 32)).astype(np.float32)
        conv_out = 8 * 128 * 64 * 64 * 4
        peaks = []
        for input_grad in (False, True):
            net.forward(x)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                net.backward(g, input_grad=input_grad)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[0] < conv_out < peaks[1], \
            f"peaked at {peaks[0] >> 20} / {peaks[1] >> 20} MiB"


class TestWhatAStepHolds:
    def test_a_hep_train_step_peaks_under_40_mib(self):
        """One step at ``hep_train``'s shapes (batch 8, 3 x 64^2, 128
        filters), after a warm-up that made the solver's state: a max-pool
        keeps its winners, not conv1's 16.8 MB output, so the traced peak
        is 34 MiB. It was 59 MiB when every pool kept its input and
        output."""
        net = build_hep_net(filters=128, rng=0)
        optimizer = Adam(net.params(), lr=1e-3)
        rng = np.random.default_rng(0)
        x = rng.random((8, 3, 64, 64), np.float32)
        y = np.arange(8) % 2
        for traced in (False, True):
            if traced:
                tracemalloc.start()
            try:
                step(net, hep_loss_fn, x, y)
                optimizer.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert 0 < peak < 40 << 20, f"peaked at {peak / 2**20:.1f} MiB"


class TestFusedMemory:
    """The HEP ``conv1`` group (3 -> 128 @ 224^2, ReLU, 2x2 pool) at the
    benchmark's batch of 2 stores its pooled output and a few bands, not the
    51 MB conv output or the 51 MB ReLU output."""

    def test_hep_conv1_group_never_holds_the_conv_output(self):
        net = Sequential([Conv2D(3, 128, 3, rng=0), ReLU(),
                          MaxPool2D(2)]).eval()
        x = np.random.default_rng(0).normal(size=(2, 3, 224, 224)) \
            .astype(np.float32)
        conv_out = 2 * 128 * 224 * 224 * 4
        padded = 2 * 3 * 226 * 226 * 4
        pooled = conv_out // 4
        bound = x.nbytes + padded + pooled + 3 * _BAND_BYTES
        assert conv_out > 48 << 20 and bound < conv_out * 0.6
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = net.forward(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.nbytes == pooled
        assert peak < bound, f"fused group peaked at {peak >> 20} MiB"
