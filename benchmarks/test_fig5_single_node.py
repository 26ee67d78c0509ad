"""Fig 5: single-node runtime and FLOP-rate breakdown at batch 8.

Paper anchors: HEP 1.90 TFLOP/s overall, convs between ~1.25 (first layer)
and ~3.5 TF/s (deep layers), solver update 12.5 % of runtime, I/O ~2 %;
climate 2.09 TF/s overall, I/O 13 %, solver <2 %, deconvs performing like
their mirrored convs.

The benchmark also measures OUR NumPy kernels (per-layer wall time on a
scaled-down net) to show the same qualitative profile: conv-dominated
runtime with shape-dependent rates.
"""

import numpy as np

from bench_report import report
from repro.flops import count_net
from repro.models import build_hep_net
from repro.sim.perf_model import SingleNodePerf
from repro.utils.timers import Timer
from repro.utils.units import TFLOPS


def test_fig5a_hep_single_node(benchmark, hep_wl):
    perf = SingleNodePerf(hep_wl, batch=8)
    benchmark(perf.iteration_time)
    rates = {lt.name: lt.rate / TFLOPS for lt in perf.layer_times()}
    report("Fig 5a: HEP single-node (batch 8, KNL model)", [
        ("overall rate", "1.90 TF/s",
         f"{perf.flop_rate() / TFLOPS:.2f} TF/s"),
        ("conv1 rate (3-channel input)", "~1.25 TF/s",
         f"{rates['conv1']:.2f} TF/s"),
        ("deep conv rate (128-channel)", "~3.5 TF/s",
         f"{rates['conv2']:.2f} TF/s"),
        ("solver-update share", "12.5 %",
         f"{100 * perf.fraction('solver_update'):.1f} %"),
        ("I/O share", "~2 %", f"{100 * perf.fraction('io'):.1f} %"),
        ("iteration time", "~66 ms (5x12ms conv + overheads)",
         f"{perf.iteration_time() * 1e3:.1f} ms"),
    ])
    assert abs(perf.flop_rate() / TFLOPS - 1.90) < 0.4


def test_fig5b_climate_single_node(benchmark, climate_wl):
    perf = SingleNodePerf(climate_wl, batch=8)
    benchmark(perf.iteration_time)
    lt = {t.name: t for t in perf.layer_times()}
    conv_rate = lt["enc_conv6"].rate / TFLOPS
    deconv_rate = lt["dec_deconv2"].rate / TFLOPS
    report("Fig 5b: climate single-node (batch 8, KNL model)", [
        ("overall rate", "2.09 TF/s",
         f"{perf.flop_rate() / TFLOPS:.2f} TF/s"),
        ("I/O share", "13 %", f"{100 * perf.fraction('io'):.1f} %"),
        ("solver-update share", "<2 %",
         f"{100 * perf.fraction('solver_update'):.1f} %"),
        ("deep conv vs mirrored deconv rate", "similar (SIII-C)",
         f"{conv_rate:.2f} vs {deconv_rate:.2f} TF/s"),
    ])
    assert abs(perf.flop_rate() / TFLOPS - 2.09) < 0.45


def test_fig5_measured_numpy_profile(benchmark):
    """Real measurement of our own kernels: the *shape* of Fig 5 — conv
    layers dominate; the few-channel first conv runs at a lower achieved
    rate than deep convs."""
    net = build_hep_net(filters=32, rng=0)
    x = np.random.default_rng(0).normal(
        size=(4, 3, 64, 64)).astype(np.float32)
    report_flops = count_net(net, (3, 64, 64), batch=4)
    timer = Timer()

    def one_iteration():
        h = x
        acts = []
        order = net.schedule()      # the order a training step runs in
        for layer in order:
            with timer.section(layer.name):
                h = layer.forward(h)
            acts.append(h)
        g = np.ones_like(h)
        for layer in reversed(order):
            with timer.section(layer.name):
                g = layer.backward(g)
        return h

    benchmark.pedantic(one_iteration, rounds=3, iterations=1,
                       warmup_rounds=1)
    conv_time = sum(timer.total(l.name) for l in net
                    if l.kind == "conv")
    total = sum(timer.total(n) for n in timer.names())
    flops_by_name = {r.name: r.training_flops for r in report_flops.layers}
    conv1_rate = flops_by_name["conv1"] / max(1e-9, timer.total("conv1"))
    conv3_rate = flops_by_name["conv3"] / max(1e-9, timer.total("conv3"))
    report("Fig 5 (measured, our NumPy kernels, 64px net)", [
        ("conv share of runtime", "dominant",
         f"{100 * conv_time / total:.0f} %"),
        ("conv1 (3ch) achieved rate", "lowest",
         f"{conv1_rate / 1e9:.1f} GF/s"),
        ("conv3 (deep) achieved rate", "higher",
         f"{conv3_rate / 1e9:.1f} GF/s"),
    ])
    assert conv_time / total > 0.5
