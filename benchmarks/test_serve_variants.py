"""Serving variants: the base batch time, and the int8 sibling's price.

The headline number is the **base** batch time of the paper ClimateNet at
a serving batch shape on the real
:class:`~repro.serve.batching.BatchExecutor`. Everything that used to be a
"kernel" variant of this net is what every replica runs: the
transposed-GEMM deconv, the separable forms and, since the banded
F(4x4, 3x3) form (paper SVIII-A's deferred "Winograd [43] ..." study),
Winograd on the one encoder layer with a tile per channel at this shape,
``enc_conv2`` (64 -> 128 at 32x32). The same batch with that form switched
off is timed next to it, interleaved, so the artifact carries the form's
before / after in the one shape regime ``bench/`` does not cover (few
output positions, huge weights); nothing is asserted on the ratio.

What is left of the variant menu is the int8 post-training-quantized
sibling: roughly base speed (same kernels), bounded drift. The overload
rescue onto a variant is pinned in tier-1
(``tests/test_serve_variants.py``: ``TestOverloadServing``,
``TestAttainmentTrigger``).

Non-blocking in CI like every tier-2 benchmark; numbers merge into
``BENCH_serve.json`` under ``variants``.
"""

import sys
import time

import numpy as np
import pytest

from bench_report import bench_json, report
from repro.models import build_climate_net
from repro.serve import BatchExecutor, compile_quantized, measure_profile

#: the module (``repro.nn.im2col`` the attribute is the function)
lowering = sys.modules["repro.nn.im2col"]

#: serving batch shape on the paper ClimateNet (16 input channels)
BATCH_SHAPE = (8, 16, 64, 64)
REPEATS = 3


@pytest.fixture(scope="module")
def base():
    return build_climate_net(BATCH_SHAPE[1], 3, preset="paper", rng=0).eval()


def test_base_batch_seconds(base, monkeypatch):
    """The tentpole number: real executor wall-clock, paper net, serving
    batch shape, with the layers that took the F(4x4, 3x3) form."""
    rng = np.random.default_rng(7)
    samples = [rng.standard_normal(BATCH_SHAPE[1:]).astype(np.float32)
               for _ in range(BATCH_SHAPE[0])]
    executor = BatchExecutor(base)
    rule, form, took = lowering._winograd, lowering._tile_lowering, []

    def spy(a, x, *rest):
        took.append(list(x.shape))
        return form(a, x, *rest)

    monkeypatch.setattr(lowering, "_tile_lowering", spy)
    out = executor.run_batch(samples)             # warm-up, form on
    shapes, best = list(took), {True: np.inf, False: np.inf}
    for _ in range(REPEATS):
        for on in (True, False):
            monkeypatch.setattr(lowering, "_winograd",
                                rule if on else lambda *shape: False)
            t0 = time.perf_counter()
            got = executor.run_batch(samples)
            best[on] = min(best[on], time.perf_counter() - t0)
    drift = max(float(np.abs(a[key] - b[key]).max())
                for a, b in zip(out, got) for key in a)
    report(f"paper ClimateNet {BATCH_SHAPE}, base replica", [
        ("base batch seconds", "-", f"{best[True]:.3f}"),
        ("... with every conv in the direct form", "-", f"{best[False]:.3f}"),
        ("inputs that took F(4x4, 3x3)", "enc_conv2", str(shapes)),
        ("max output difference between the forms", "~1e-6", f"{drift:.1e}"),
    ])
    bench_json("variants", {"base": {
        "batch_shape": list(BATCH_SHAPE),
        "base_batch_s": round(best[True], 4),
        "direct_form_batch_s": round(best[False], 4),
        "winograd_inputs": shapes,
        "max_abs_difference": drift,
    }})
    assert shapes == [[8, 64, 32, 32]]
    assert drift < 1e-3


def test_quantized_variant_profile(base):
    """The int8 sibling: roughly base speed (same kernels), bounded
    drift — the accuracy-for-nothing end of the variant menu."""
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
