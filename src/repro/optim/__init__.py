"""Solvers: SGD with momentum (climate net) and ADAM (HEP net), plus the
asynchrony-aware momentum tuning rule from Mitliagkas et al. [31] that the
hybrid architecture relies on (paper SVI-B4)."""

from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.schedules import (ConstantLR, ExponentialDecayLR, StepLR,
                                    WarmupLR)
from repro.optim.async_momentum import (
    effective_momentum,
    implicit_async_momentum,
    tune_momentum_for_groups,
)
from repro.optim.quantize import (
    QuantizedGradSGD,
    compile_quantized,
    output_drift,
    quantize_nearest,
    quantize_stochastic,
)
from repro.optim.yellowfin import YellowFin, solve_single_step_momentum
from repro.optim.compression import (
    CompressedGrad,
    ErrorFeedbackCompressor,
    compressed_allreduce,
    sign_compress,
    sign_decompress,
    topk_compress,
    topk_decompress,
)

__all__ = [
    "SGD",
    "Adam",
    "ConstantLR",
    "StepLR",
    "ExponentialDecayLR",
    "WarmupLR",
    "effective_momentum",
    "implicit_async_momentum",
    "tune_momentum_for_groups",
    "QuantizedGradSGD",
    "compile_quantized",
    "output_drift",
    "quantize_nearest",
    "quantize_stochastic",
    "YellowFin",
    "solve_single_step_momentum",
    "CompressedGrad",
    "ErrorFeedbackCompressor",
    "compressed_allreduce",
    "sign_compress",
    "sign_decompress",
    "topk_compress",
    "topk_decompress",
]
