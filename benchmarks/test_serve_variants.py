"""Fast replica variants: measured kernel speedup and overload rescue.

The headline number is the **base** batch time of the paper ClimateNet at
a serving batch shape on the real
:class:`~repro.serve.batching.BatchExecutor`: the transposed-GEMM deconv
that used to be this variant's biggest swap is now the one ``Deconv2D``,
so every replica gets it. What is left for the kernel-selected variant
(paper SVIII-A's deferred "Winograd [43] ..." study) is the encoder's
3x3/stride-1 convs going Winograd F(4,3)/F(2,3) — ~1.1-1.2x on the dev
box — and the bar is that the variant **never loses** (>= 1.0x):
``compile_kernel_selected`` keeps its swaps only when the whole swapped
net beat the unswapped one.

The serving side then closes the loop: a fleet pinned halfway into the
variant's *measured* headroom past saturation — baseline attainment well
under 0.95 — must be rescued to **>= 0.95** by an overload policy
downgrading onto the variant at its measured time scale, with the
variant's accuracy delta recorded next to the rescue in the artifact.

Non-blocking in CI like every tier-2 benchmark; numbers merge into
``BENCH_serve.json`` under ``variants`` — per-variant speedup and
accuracy delta, the race's measured crossover table, and the rescue.
"""

import numpy as np
import pytest

from bench_report import bench_json, report
from repro.models import build_climate_net
from repro.serve import (
    BatchingPolicy,
    KernelChoiceCache,
    ServingSimulator,
    VariantPolicy,
    compile_kernel_selected,
    compile_quantized,
    measure_profile,
)
from repro.serve.latency import ServiceTimeModel

#: serving batch shape on the paper ClimateNet (16 input channels)
BATCH_SHAPE = (8, 16, 64, 64)
SPEEDUP_FLOOR = 1.0      # the variant never loses
RESCUE_FLOOR = 0.95
SEED = 7
N_REQUESTS = 4000

_cache = KernelChoiceCache()
_state = {}


def _nets():
    if "base" not in _state:
        base = build_climate_net(BATCH_SHAPE[1], 3, preset="paper",
                                 rng=0).eval()
        _state["base"] = base
        _state["fast"] = compile_kernel_selected(base, BATCH_SHAPE,
                                                 repeats=2, cache=_cache)
    return _state["base"], _state["fast"]


def _kernel_profile():
    if "kprof" not in _state:
        base, fast = _nets()
        _state["kprof"] = measure_profile(base, fast, "kernel",
                                          BATCH_SHAPE, repeats=3)
    return _state["kprof"]


class TestKernelVariantSpeedup:
    def test_batch_executor_speedup(self):
        """The tentpole number: real executor wall-clock, paper net,
        serving batch shape."""
        prof = _kernel_profile()
        swapped = sum(c != "base" for _, c in prof.choices)
        report("paper ClimateNet "
               f"{BATCH_SHAPE}, base and kernel-selected variant", [
                   ("base batch seconds", "-", f"{prof.base_batch_s:.3f}"),
                   ("variant batch seconds", "-",
                    f"{prof.variant_batch_s:.3f}"),
                   ("batch executor speedup (x)", f">= {SPEEDUP_FLOOR}",
                    f"{prof.speedup:.2f}"),
                   ("output drift (rel L2)", "~0",
                    f"{prof.accuracy_delta:.2e}"),
                   ("layers swapped", "-", str(swapped)),
               ])
        bench_json("variants", {
            "kernel": {
                "batch_shape": list(prof.batch_shape),
                "speedup": round(prof.speedup, 3),
                "base_batch_s": round(prof.base_batch_s, 4),
                "variant_batch_s": round(prof.variant_batch_s, 4),
                "accuracy_delta": prof.accuracy_delta,
                "choices": [list(c) for c in prof.choices],
            },
            "crossovers": _cache.crossovers(),
        })
        # Kept swaps won the compiler's whole-net confirmation; with none
        # kept the variant *is* the base and the ratio is timing noise.
        if swapped:
            assert prof.speedup >= SPEEDUP_FLOOR
        # Winograd reorders fp32 sums; the swap must stay faithful.
        assert prof.accuracy_delta < 1e-2

    def test_quantized_variant_profile(self):
        """The int8 sibling: roughly base speed (same kernels), bounded
        drift — the accuracy-for-nothing end of the variant menu."""
        base, _ = _nets()
        prof = measure_profile(
            base, compile_quantized(base, bits=8), "quantized",
            BATCH_SHAPE, repeats=1)
        report("int8 quantized variant, paper ClimateNet", [
            ("speedup (x)", "~1", f"{prof.speedup:.2f}"),
            ("output drift (rel L2)", "< 0.1",
             f"{prof.accuracy_delta:.3f}"),
            ("weight bits", "8", str(prof.bits)),
        ])
        bench_json("variants", {"quantized": {
            "bits": prof.bits,
            "speedup": round(prof.speedup, 3),
            "accuracy_delta": round(prof.accuracy_delta, 5),
        }})
        assert prof.bits == 8
        assert prof.accuracy_delta < 0.1


class TestOverloadDowngradeRescue:
    def test_rescue_to_slo(self, climate_wl):
        """A fleet pinned past saturation, rescued by serving the kernel
        variant at its *measured* time scale."""
        prof = _kernel_profile()
        if prof.speedup <= 1.0:
            pytest.skip("kernel variant has no measured headroom on this "
                        "host; nothing to downgrade onto")
        # Halfway into the variant's measured headroom: past what the
        # base fleet sustains, inside what the variant does.
        overload = 1.0 + (prof.speedup - 1.0) / 2.0

        def sim(policy):
            svc = ServiceTimeModel(climate_wl)
            svc.set_variant_scale("kernel", prof.time_scale)
            return ServingSimulator(
                n_replicas=4, service_model=svc,
                policy=BatchingPolicy(max_batch=BATCH_SHAPE[0],
                                      max_wait=5e-3),
                max_queue=128, variant_policy=policy)

        base_sim = sim(None)
        rate = overload * base_sim.saturation_rate()
        slo = base_sim.default_slo()
        r0 = base_sim.run(rate, N_REQUESTS, "poisson", seed=SEED)

        # Downgrade when fleet backlog crosses one SLO's worth of queued
        # service seconds; revert once it drains below half of that.
        pol = VariantPolicy(kind="kernel", queue_threshold=slo,
                            hysteresis=0.5)
        r1 = sim(pol).run(rate, N_REQUESTS, "poisson", seed=SEED)

        att0, att1 = r0.attainment(slo), r1.attainment(slo)
        report(f"overload rescue at {overload:.3f}x saturation "
               f"(climate, 4 replicas)", [
                   ("baseline attainment", "< 0.95", f"{att0:.3f}"),
                   ("downgraded attainment", ">= 0.95", f"{att1:.3f}"),
                   ("requests on variant", "-",
                    f"{r1.n_downgraded}/{r1.n_offered}"),
                   ("variant switches", "-",
                    str(r1.n_variant_switches)),
                   ("accuracy delta paid", "recorded",
                    f"{prof.accuracy_delta:.2e}"),
               ])
        bench_json("variants", {"overload_rescue": {
            "overload": round(overload, 4),
            "slo_s": round(slo, 4),
            "baseline_attainment": round(att0, 4),
            "variant_attainment": round(att1, 4),
            "n_downgraded": int(r1.n_downgraded),
            "n_variant_switches": int(r1.n_variant_switches),
            "time_scale": round(prof.time_scale, 4),
            "accuracy_delta": prof.accuracy_delta,
        }})
        assert att0 < RESCUE_FLOOR          # the overload is real
        assert att1 >= RESCUE_FLOOR         # and the variant rescues it
        assert r1.n_downgraded > 0
        # Bit-for-bit check of the disabled path at benchmark scale.
        r2 = sim(VariantPolicy(kind="kernel",
                               queue_threshold=1e9)).run(
            rate, N_REQUESTS, "poisson", seed=SEED)
        assert np.array_equal(r0.latencies, r2.latencies)
        assert r2.n_variant_switches == 0
