"""The supervised HEP architecture (paper SIII-A, Table II).

    5 x [conv 3x3/s1, 128 filters, ReLU, pool] -> FC(128 -> 2) -> softmax

Max pooling (2x2/s2) after the first four conv units, **global average
pooling** after the fifth, a single small fully-connected layer, softmax
cross-entropy loss, trained with ADAM. At the paper's 224x224x3 input this
is ~594k parameters = ~2.27 MiB, matching Table II's "2.3 MiB".

The builder is resolution-agnostic: tests and the real-training benchmarks
use smaller inputs (e.g. 64x64) — global average pooling makes the parameter
count independent of input size.
"""

from __future__ import annotations

from typing import Optional

from repro.core.sequential import Sequential
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense
from repro.nn.pooling import GlobalAvgPool2D, MaxPool2D
from repro.utils.checks import require_count
from repro.utils.rng import SeedLike, spawn_rngs

#: (channels, height, width) used in the paper (Table II)
HEP_PAPER_INPUT = (3, 224, 224)


def build_hep_net(in_channels: int = 3, filters: int = 128,
                  n_classes: int = 2, n_units: int = 5,
                  rng: SeedLike = None) -> Sequential:
    """Build the HEP classifier.

    Parameters mirror the paper defaults; ``filters`` and ``n_units`` are
    exposed so scaled-down variants keep the same topology. The minimum
    input size is ``2**(n_units - 1)`` pixels per side (four 2x2 poolings
    precede the global pool).
    """
    require_count("n_units", n_units, least=2)
    require_count("filters", filters)
    require_count("n_classes", n_classes, least=2)
    require_count("in_channels", in_channels)
    rngs = spawn_rngs(rng, n_units + 1)
    layers = []
    channels = in_channels
    for i in range(n_units):
        layers.append(Conv2D(channels, filters, kernel_size=3, stride=1,
                             name=f"conv{i + 1}", rng=rngs[i]))
        layers.append(ReLU(name=f"relu{i + 1}"))
        if i < n_units - 1:
            layers.append(MaxPool2D(2, 2, name=f"pool{i + 1}"))
        else:
            layers.append(GlobalAvgPool2D(name="global_pool"))
        channels = filters
    layers.append(Dense(filters, n_classes, name="fc", rng=rngs[-1]))
    return Sequential(layers, name="hep_net")
