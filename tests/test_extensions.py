"""Future-work extensions (paper SVIII/SIX): FFT conv, low precision,
residual blocks, hyper-parameter search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Sequential
from repro.core.parameter import Parameter
from repro.nn import (
    Conv2D,
    Deconv2D,
    FFTConv2D,
    MaxPool2D,
    ReLU,
    ResidualBlock,
    build_resnet,
)
from repro.optim import (
    QuantizedGradSGD,
    SGD,
    compile_quantized,
    output_drift,
    quantize_nearest,
    quantize_stochastic,
)
from repro.optim.quantize import _wrapped_forwards, quantization_step
from repro.train import grid_search, random_search


class TestFFTConv:
    @pytest.mark.parametrize("stride,pad,k", [(1, 1, 3), (2, 1, 3),
                                              (1, 2, 5), (1, 0, 3)])
    def test_matches_gemm_conv(self, stride, pad, k, rng):
        """The FFT path must agree with the im2col GEMM path exactly."""
        gemm = Conv2D(3, 4, k, stride=stride, pad=pad, rng=7)
        fft = FFTConv2D(3, 4, k, stride=stride, pad=pad, rng=8)
        fft.weight.data[...] = gemm.weight.data
        fft.bias.data[...] = gemm.bias.data
        x = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
        np.testing.assert_allclose(fft.forward(x), gemm.forward(x),
                                   rtol=1e-3, atol=1e-4)

    def test_backward_matches_gemm(self, rng):
        gemm = Conv2D(2, 3, 3, rng=7)
        fft = FFTConv2D(2, 3, 3, rng=8)
        fft.weight.data[...] = gemm.weight.data
        fft.bias.data[...] = gemm.bias.data
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        g = rng.normal(size=(1, 3, 6, 6)).astype(np.float32)
        gemm.zero_grad()
        fft.zero_grad()
        gemm.forward(x)
        fft.forward(x)
        gx_gemm = gemm.backward(g)
        gx_fft = fft.backward(g)
        np.testing.assert_allclose(gx_fft, gx_gemm, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(fft.weight.grad, gemm.weight.grad,
                                   rtol=1e-4, atol=1e-5)

    def test_backward_before_forward_raises(self):
        fft = FFTConv2D(1, 1, 3, rng=0)
        with pytest.raises(RuntimeError):
            fft.backward(np.zeros((1, 1, 4, 4), dtype=np.float32))

    def test_flops_same_as_conv(self):
        # the FLOP *accounting* stays at the direct-algorithm count, as the
        # paper's SDE methodology would measure the mathematical operation
        gemm = Conv2D(3, 8, 3, rng=0)
        fft = FFTConv2D(3, 8, 3, rng=0)
        assert fft.flops(2, input_shape=(3, 16, 16)) == \
            gemm.flops(2, input_shape=(3, 16, 16))


class TestQuantization:
    def test_nearest_idempotent(self, rng):
        x = rng.normal(size=100).astype(np.float32)
        q = quantize_nearest(x, bits=8, scale=4.0)
        np.testing.assert_allclose(quantize_nearest(q, 8, 4.0), q,
                                   atol=1e-7)

    def test_values_on_lattice(self, rng):
        x = rng.normal(size=200).astype(np.float32)
        step = 2 * 4.0 / (2**4 - 2)
        q = quantize_nearest(x, bits=4, scale=4.0)
        np.testing.assert_allclose(q / step, np.round(q / step), atol=1e-5)

    def test_clipping(self):
        x = np.array([100.0, -100.0], dtype=np.float32)
        q = quantize_nearest(x, bits=8, scale=1.0)
        assert q[0] <= 1.0 and q[1] >= -1.0

    @settings(max_examples=15, deadline=None)
    @given(bits=st.integers(2, 8), seed=st.integers(0, 10**6))
    def test_stochastic_rounding_unbiased(self, bits, seed):
        """E[stochastic_quantize(x)] == x (within the clip range) — THE
        property the paper flags as 'of critical importance'."""
        rng = np.random.default_rng(seed)
        x = np.full(4000, float(rng.uniform(-0.9, 0.9)), dtype=np.float32)
        q = quantize_stochastic(x, bits=bits, scale=1.0, rng=rng)
        step = 2.0 / (2**bits - 2)
        assert abs(q.mean() - x[0]) < 4 * step / np.sqrt(len(x))

    def test_nearest_rounding_biased_at_low_bits(self):
        """Round-to-nearest loses any signal smaller than half a step."""
        x = np.full(100, 0.04, dtype=np.float32)
        q = quantize_nearest(x, bits=3, scale=1.0)  # step = 1/3
        assert q.sum() == 0.0  # the gradient signal vanished entirely
        q_st = quantize_stochastic(x, bits=3, scale=1.0, rng=0)
        assert q_st.sum() > 0.0  # stochastic keeps it in expectation

    def test_quantized_sgd_converges_stochastic(self):
        w = Parameter(np.array([4.0], dtype=np.float32), name="w")
        opt = QuantizedGradSGD([w], lr=0.2, bits=6, mode="stochastic",
                               seed=0)
        for _ in range(120):
            w.grad[:] = w.data
            opt.step()
        assert abs(w.data[0]) < 0.4

    def test_quantized_sgd_nearest_stalls_at_2bits(self):
        """2-bit nearest rounding maps almost every gradient to the same
        lattice point -> optimization stalls away from the optimum, while
        stochastic still drifts in expectation."""
        def run(mode):
            w = Parameter(np.array([4.0], dtype=np.float32), name="w")
            opt = QuantizedGradSGD([w], lr=0.05, bits=2, mode=mode,
                                   scale=8.0, seed=1)
            for _ in range(150):
                w.grad[:] = w.data
                opt.step()
            return abs(float(w.data[0]))

        assert run("stochastic") < run("nearest") + 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            quantize_nearest(np.zeros(1), bits=1, scale=1.0)
        with pytest.raises(ValueError):
            quantize_stochastic(np.zeros(1), bits=4, scale=-1.0)
        with pytest.raises(ValueError):
            QuantizedGradSGD([Parameter(np.zeros(1), "w")], lr=0.1,
                             mode="nope")


def tiny_net(rng=0):
    """A minimal net: two convs and a deconv."""
    return Sequential([
        Conv2D(2, 4, 3, stride=1, name="c3", rng=rng),
        ReLU(),
        Conv2D(4, 4, 5, stride=1, pad=2, name="c5", rng=rng),
        Deconv2D(4, 2, 4, stride=2, pad=1, name="up", rng=rng),
    ], name="tiny")


SHAPE = (2, 2, 8, 8)


def _x(rng, shape=SHAPE):
    return rng.normal(size=shape).astype(np.float32)


class TestQuantized:
    def test_weights_on_symmetric_grid(self):
        bits = 4
        qnet = compile_quantized(tiny_net().eval(), bits=bits)
        assert qnet.quant_bits == bits
        for p in qnet.params():
            if not p.data.size or not np.abs(p.data).max():
                continue
            scale = np.abs(p.data).max()
            levels = 2 ** (bits - 1) - 1
            steps = p.data / (scale / levels)
            np.testing.assert_allclose(steps, np.round(steps), atol=1e-4)
            assert len(np.unique(p.data)) <= 2 ** bits - 1

    def test_base_net_untouched(self):
        net = tiny_net().eval()
        before = {k: v.copy() for k, v in net.state_dict().items()}
        compile_quantized(net, bits=3)
        for k, v in net.state_dict().items():
            np.testing.assert_array_equal(v, before[k])

    def test_drift_shrinks_with_bits(self, rng):
        net = tiny_net().eval()
        x = _x(rng)
        ref = net.forward(x)
        drift = [output_drift(ref, compile_quantized(net, bits=b).forward(x))
                 for b in (3, 8)]
        assert drift[1] < drift[0]
        assert drift[1] < 0.05

    def test_calibration_records_activation_scales(self, rng):
        net = tiny_net().eval()
        qnet = compile_quantized(net, bits=8, calibration=_x(rng))
        assert qnet.activation_scales          # every leaf saw the batch
        assert all(s > 0 for s in qnet.activation_scales.values())
        qnet.forward(_x(rng))                  # wrapped forwards still run

    def test_rejects_tiny_bits(self):
        with pytest.raises(ValueError, match="bits"):
            compile_quantized(tiny_net(), bits=1)


class TestQuantizerBoundary:
    """A grid needs an integer bit width, a finite scale and finite
    weights; anything else is refused by name instead of quantizing onto
    a lattice that is not one."""

    @pytest.mark.parametrize("bits", [2.5, 8.0, "8"])
    def test_non_integer_bits_refused(self, bits):
        with pytest.raises(ValueError, match="integer"):
            quantization_step(1.0, bits)
        with pytest.raises(ValueError, match="integer"):
            compile_quantized(tiny_net(), bits=bits)
        with pytest.raises(ValueError, match="integer"):
            QuantizedGradSGD([Parameter(np.zeros(1), "w")], lr=0.1,
                             bits=bits)

    def test_numpy_integer_bits_accepted(self):
        assert quantization_step(1.0, np.int64(8)) == \
            quantization_step(1.0, 8)
        net = tiny_net().eval()
        a = compile_quantized(net, bits=np.int32(4))
        b = compile_quantized(net, bits=4)
        assert a.quant_bits == 4 and type(a.quant_bits) is int
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa.data, pb.data)

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_non_finite_scale_refused(self, scale):
        with pytest.raises(ValueError, match="scale"):
            quantization_step(scale, 8)
        with pytest.raises(ValueError, match="scale"):
            quantize_nearest(np.ones(3, dtype=np.float32), 8, scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_named(self, bad):
        net = tiny_net().eval()
        weight = net.layers[2].weight
        weight.data[0, 0, 0, 0] = bad
        with pytest.raises(ValueError, match=weight.name):
            compile_quantized(net, bits=8)


class TestPostTrainingQuantization:
    """What a PTQ copy is: a separate eval net whose every tensor sits on
    its own grid, with the base net and its forwards left as they were."""

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_each_tensor_keeps_its_extremes_on_the_grid(self, bits):
        net = tiny_net().eval()
        qnet = compile_quantized(net, bits=bits)
        for p, q in zip(net.params(), qnet.params()):
            peak = float(np.abs(p.data).max())
            if not peak:
                continue
            assert float(np.abs(q.data).max()) == pytest.approx(peak,
                                                                rel=1e-6)
            assert len(np.unique(q.data)) <= 2 ** bits - 1

    def test_requantizing_moves_nothing(self):
        once = compile_quantized(tiny_net().eval(), bits=4)
        twice = compile_quantized(once, bits=4)
        for a, b in zip(once.params(), twice.params()):
            np.testing.assert_allclose(b.data, a.data, rtol=0, atol=1e-6)

    def test_all_zero_tensors_stay_zero(self):
        net = tiny_net().eval()
        biases = [p for p in net.params() if p.name.endswith(".bias")]
        assert biases and not any(np.abs(b.data).max() for b in biases)
        qnet = compile_quantized(net, bits=8)
        for p in qnet.params():
            if p.name.endswith(".bias"):
                np.testing.assert_array_equal(p.data, 0.0)
            assert p.data.dtype == np.float32

    def test_train_mode_net_compiles_to_an_eval_copy(self):
        net = tiny_net().train()
        qnet = compile_quantized(net, bits=8)
        assert net.training and not qnet.training

    def test_calibration_batches_take_the_peak(self, rng):
        net = tiny_net().eval()
        a, b = _x(rng), 3.0 * _x(rng)
        both = compile_quantized(net, bits=8, calibration=[a, b])
        each = [compile_quantized(net, bits=8, calibration=x).activation_scales
                for x in (a, b)]
        assert both.activation_scales == {
            name: max(each[0][name], each[1][name]) for name in each[0]}

    def test_calibration_leaves_the_base_forwards_alone(self, rng):
        net = tiny_net().eval()
        x = _x(rng)
        ref = net.forward(x)
        compile_quantized(net, bits=4, calibration=_x(rng))
        assert not any("forward" in vars(layer) for layer in net.layers)
        np.testing.assert_array_equal(net.forward(x), ref)

    def test_a_frozen_serving_replica_quantizes_as_a_copy(self, tmp_path,
                                                           rng):
        """PTQ of a loaded replica is a separate net; the replica keeps
        serving its published weights and stays read-only."""
        from repro.serve import ModelRegistry
        reg = ModelRegistry(tmp_path)
        reg.register("tiny", tiny_net, (2, 8, 8))
        reg.publish("tiny", tiny_net(rng=7))
        replica = reg.load("tiny")
        x = _x(rng)
        ref = replica.forward(x)
        qnet = compile_quantized(replica.net, bits=3, calibration=x)
        assert output_drift(ref, qnet.forward(x)) > 0
        np.testing.assert_array_equal(replica.forward(x), ref)
        assert not replica.net.layers[0].weight.data.flags.writeable


class TestOutputDrift:
    def test_identical_outputs_do_not_drift(self, rng):
        out = _x(rng)
        assert output_drift(out, out.copy()) == 0.0

    def test_relative_l2_of_one_head(self):
        base = np.array([3.0, 4.0], dtype=np.float32)
        assert output_drift(base, base + [0.0, 1.0]) == pytest.approx(0.2)

    def test_heads_are_averaged_and_a_zero_head_counts_zero(self):
        base = {"cls": np.array([1.0, 0.0]), "box": np.zeros(3)}
        quant = {"cls": np.array([1.0, 1.0]), "box": np.ones(3)}
        assert output_drift(base, quant) == pytest.approx(0.5)

    def test_head_structure_mismatch_refused(self):
        base = {"cls": np.ones(2), "box": np.ones(3)}
        with pytest.raises(ValueError, match="head"):
            output_drift(base, {"cls": np.ones(2)})


def pooled_net(rng=0):
    """conv -> ReLU -> pool, twice: the groups an eval ``Sequential`` fuses."""
    return Sequential([
        Conv2D(2, 4, 3, name="c1", rng=rng), ReLU(name="r1"),
        MaxPool2D(2, name="p1"),
        Conv2D(4, 4, 3, name="c2", rng=rng + 1), ReLU(name="r2"),
        MaxPool2D(2, name="p2"),
    ], name="pooled").eval()


class TestHooksKeepTheLayerBoundary:
    """A hook that needs a layer's own output never lets that layer fuse
    with its followers: it sees the tensors of the layer-by-layer net."""

    X_SHAPE = (2, 2, 16, 16)

    @staticmethod
    def by_hand(net, x, after=lambda layer, out: out):
        """``{name: (input, output)}`` of a hand-written layer loop, in
        the order ``net.forward`` runs (``p1`` before ``r1``)."""
        seen = {}
        for layer in net.schedule():
            out = after(layer, layer.forward(x))
            seen[layer.name] = (x, out)
            x = out
        return seen

    def test_wrapped_forwards_see_whole_tensors(self, rng):
        net, x = pooled_net(), _x(rng, self.X_SHAPE)
        want = self.by_hand(net, x)
        seen = {}

        def capture(layer, orig):
            def forward(inp):
                seen[layer.name] = (inp, orig(inp))
                return seen[layer.name][1]
            return forward

        with _wrapped_forwards(net.layers, capture):
            out = net.forward(x)
        assert "forward" not in vars(net.layers[0])
        np.testing.assert_array_equal(out, want["r2"][1])
        assert list(seen) == list(want) == ["c1", "p1", "r1", "c2", "p2", "r2"]
        for name in want:
            for got, ref in zip(seen[name], want[name]):
                np.testing.assert_array_equal(got, ref)

    def test_quantized_calibrates_and_quantizes_each_layers_own_output(
            self, rng):
        net, calib = pooled_net(), _x(rng, self.X_SHAPE)
        bits = 6
        qnet = compile_quantized(net, bits=bits, calibration=calib)
        # By hand: the weight-quantized net run layer by layer gives each
        # leaf's calibration peak; fake-quant then applies leaf by leaf.
        ref = compile_quantized(net, bits=bits)
        peaks = {name: float(np.abs(out).max())
                 for name, (_, out) in self.by_hand(ref, calib).items()}
        assert qnet.activation_scales == peaks
        x = _x(rng, self.X_SHAPE)
        want = self.by_hand(
            ref, x, lambda layer, out: quantize_nearest(out, bits,
                                                        peaks[layer.name]))
        np.testing.assert_array_equal(qnet.forward(x), want["r2"][1])


class TestResidual:
    def test_identity_skip_shapes(self, rng):
        block = ResidualBlock(4, 4, rng=0)
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        assert block.forward(x).shape == x.shape
        assert block.proj is None

    def test_projection_when_downsampling(self, rng):
        block = ResidualBlock(4, 8, stride=2, rng=0)
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        assert block.forward(x).shape == (2, 8, 4, 4)
        assert block.proj is not None

    def test_gradients_flow_through_both_paths(self, rng):
        block = ResidualBlock(3, 3, rng=0)
        x = rng.normal(size=(1, 3, 6, 6)).astype(np.float32)
        y = block.forward(x)
        gx = block.backward(np.ones_like(y))
        assert gx.shape == x.shape
        for p in block.params():
            assert np.isfinite(p.grad).all()

    def test_input_gradient_numeric(self, rng):
        from grad_check import numeric_grad

        block = ResidualBlock(2, 2, rng=1)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        g = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        block.zero_grad()
        block.forward(x)
        gx = block.backward(g)
        num = numeric_grad(lambda: float((block.forward(x) * g).sum()), x)
        np.testing.assert_allclose(gx, num, rtol=3e-2, atol=3e-2)

    def test_resnet_trains_on_hep(self, hep_ds):
        from repro.optim import Adam
        from repro.train import fit_classifier

        net = build_resnet(in_channels=3, n_classes=2, widths=(8, 16),
                           rng=0)
        h = fit_classifier(net, Adam(net.params(), lr=1e-3),
                           hep_ds.images[:128], hep_ds.labels[:128],
                           batch=16, n_iterations=20, seed=0)
        assert np.mean(h.losses[-4:]) < np.mean(h.losses[:4])

    def test_resnet_flops_countable(self):
        from repro.flops import count_net

        net = build_resnet(widths=(8, 16), rng=0)
        report = count_net(net, (3, 32, 32), batch=2)
        assert report.training_flops > 0

    def test_resnet_works_with_ps_registry(self):
        """Residual nets drop into the hybrid machinery (paper SIX)."""
        from repro.distributed import PSRegistry

        net = build_resnet(widths=(8,), rng=0)
        reg = PSRegistry(net.trainable_layers(),
                         lambda params: SGD(params, lr=0.1))
        assert len(reg) == len(net.trainable_layers())


class TestSearch:
    def test_random_search_finds_minimum_region(self):
        result = random_search(
            {"x": (-4.0, 4.0, "linear")},
            lambda cfg: (cfg["x"] - 1.0) ** 2,
            n_trials=200, seed=0)
        assert abs(result.best.config["x"] - 1.0) < 0.5

    def test_log_dimension(self):
        result = random_search(
            {"lr": (1e-5, 1e-1, "log")},
            lambda cfg: abs(np.log10(cfg["lr"]) + 3),  # optimum at 1e-3
            n_trials=150, seed=0)
        assert 1e-4 < result.best.config["lr"] < 1e-2

    def test_choice_dimension(self):
        result = random_search(
            {"groups": [1, 2, 4, 8]},
            lambda cfg: abs(cfg["groups"] - 4),
            n_trials=30, seed=0)
        assert result.best.config["groups"] == 4

    def test_grid_search_exhaustive(self):
        result = grid_search(
            {"g": [1, 2, 4], "mu": [0.0, 0.4, 0.7]},
            lambda cfg: cfg["g"] + cfg["mu"])
        assert len(result.trials) == 9
        assert result.best.config == {"g": 1, "mu": 0.0}

    def test_top_k(self):
        result = grid_search({"x": [3, 1, 2]}, lambda cfg: cfg["x"])
        assert [t.config["x"] for t in result.top(2)] == [1, 2]

    def test_paper_fig8_grid_reproduced(self):
        """Automate the paper's (groups x momentum) grid with the implied
        statistical-efficiency model: effective momentum should match the
        0.9 target."""
        from repro.optim import effective_momentum

        result = grid_search(
            {"groups": [1, 2, 4, 8], "mu": [0.0, 0.4, 0.7, 0.9]},
            lambda cfg: abs(
                effective_momentum(cfg["mu"], cfg["groups"]) - 0.9))
        best = result.best.config
        assert effective_momentum(best["mu"], best["groups"]) == \
            pytest.approx(0.9, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_search({}, lambda c: 0.0, 5)
        with pytest.raises(ValueError):
            random_search({"x": (1.0, 0.0, "linear")}, lambda c: 0.0, 5)
        with pytest.raises(ValueError):
            random_search({"x": (0.0, 1.0, "log")}, lambda c: 0.0, 5)
