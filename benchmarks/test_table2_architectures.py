"""Table II: DNN architecture specifications.

| network | input       | layers                  | params  |
| HEP     | 224x224x3   | 5xconv-pool, 1xFC       | 2.3 MiB |
| climate | 768x768x16  | 9xconv, 5xdeconv        | 302.1 MiB |
"""

from bench_report import report
from repro.models import (
    CLIMATE_PAPER_INPUT,
    HEP_PAPER_INPUT,
    build_climate_net,
    build_hep_net,
)
from repro.sim.workload import climate_records, climate_workload
from repro.utils.units import MIB


def test_table2_architectures(benchmark):
    hep = benchmark(build_hep_net, rng=0)
    climate = build_climate_net(rng=0)

    hep_mib = hep.param_bytes() / MIB
    cli_mib = climate.param_bytes() / MIB
    n_enc = len(climate.encoder.trainable_layers())
    n_dec = len(climate.decoder.trainable_layers())

    report("Table II: architecture specifications", [
        ("HEP input", "224x224x3", "x".join(map(str, HEP_PAPER_INPUT[::-1]))),
        ("HEP trainable layers", "5 conv + 1 FC",
         f"{sum(1 for l in hep.trainable_layers() if l.kind == 'conv')} conv"
         f" + 1 FC"),
        ("HEP parameter size", "2.3 MiB", f"{hep_mib:.2f} MiB"),
        ("climate input", "768x768x16",
         "x".join(map(str, CLIMATE_PAPER_INPUT[::-1]))),
        ("climate conv/deconv layers", "9 conv, 5 deconv",
         f"{n_enc} conv, {n_dec} deconv"),
        ("climate parameter size", "302.1 MiB", f"{cli_mib:.1f} MiB"),
        ("climate output heads", "conf, class, box",
         "conf(1) cls(K) box(4)"),
    ])
    assert abs(hep_mib - 2.3) < 0.15
    assert abs(cli_mib - 302.1) / 302.1 < 0.03


def test_undrawn_workload_equals_the_drawn_net():
    """``sim.workload.climate_workload()`` never draws the 75 M weights it
    only reads shapes off: every record and byte count must be the drawn
    ``build_climate_net(rng=0)``'s."""
    drawn = build_climate_net(rng=0)
    wl = climate_workload()
    assert wl._base_records == climate_records(drawn, CLIMATE_PAPER_INPUT)
    assert wl.trainable_layer_bytes == tuple(
        sum(p.nbytes for p in layer.params())
        for layer in drawn.trainable_layers())
    assert wl.model_bytes == drawn.param_bytes()
