"""What a hybrid group carries between its iterations, pinned.

The hybrid, SSP and elastic trainers co-simulate their compute groups in
one process. Between two of its iterations a group keeps its replica
state: the weights it last pulled, its buffers (BatchNorm's running
statistics) and its layers' random generators (Dropout's masks). Each case
runs a 3-group trainer twice on a net with one kind of that state, and its
record holds what the runs report plus group 0's replica (``nets[0]``)
after them: the BatchNorm buffers and the Dropout generator's position.

- The schedule (virtual times, staleness, SSP waits, elastic completions
  and failures) and the generator positions do not depend on
  floating-point rounding, so their sha256 must match on every host.
- Losses and the replica's arrays enter as position-weighted checksums
  held to 1e-5, as in ``test_trainer_fingerprints.py``: their last float32
  bit depends on the GEMM kernel the CPU selects.

Regenerate (only for a change that is meant to move a trainer's output)
with ``PYTHONPATH=src python tests/test_hybrid_replicas.py``.
"""

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from repro.core.sequential import Sequential
from repro.data.hep import make_hep_dataset
from repro.distributed import ElasticHybridTrainer, HybridTrainer, SSPTrainer
from repro.models import build_hep_net
from repro.nn import (
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
)
from repro.optim import SGD, Adam
from repro.train.loop import hep_loss_fn


def _data():
    ds = make_hep_dataset(120, image_size=16, signal_fraction=0.5, seed=9)
    return ds.images, ds.labels


def _batchnorm_net():
    return Sequential([
        Conv2D(3, 4, 3, name="conv1", rng=3), BatchNorm2D(4, name="bn1"),
        ReLU(), MaxPool2D(2),
        Conv2D(4, 4, 3, name="conv2", rng=4), BatchNorm2D(4, name="bn2"),
        ReLU(), GlobalAvgPool2D(), Dense(4, 2, name="fc", rng=5)])


def _dropout_factory():
    """Each net it builds draws its masks from its own seed, as the
    groups' nodes would."""
    seeds = itertools.count(11)
    return lambda: Sequential([
        Conv2D(3, 4, 3, name="conv1", rng=3), ReLU(), MaxPool2D(2),
        Conv2D(4, 8, 3, name="conv2", rng=4), ReLU(), GlobalAvgPool2D(),
        Dropout(0.5, name="drop", rng=next(seeds)),
        Dense(8, 2, name="fc", rng=5)])


def _adam(params):
    return Adam(params, lr=1e-3)


def _record(trainer, results):
    out = {"times": [], "losses": [], "staleness": []}
    for res in results:
        out["times"].append([t.times for t in res.traces])
        out["losses"].append([t.losses for t in res.traces])
        out["staleness"].append(res.staleness.tolist())
        for extra in ("wait_times", "completed"):
            if hasattr(res, extra):
                out.setdefault(extra, []).append(list(getattr(res, extra)))
        if hasattr(res, "failed_groups"):
            out.setdefault("failed_groups", []).append(
                sorted(res.failed_groups.items()))
    net = trainer.nets[0]
    out["arrays"] = [a.ravel().tolist() for a in net.state_dict().values()]
    out["generators"] = [layer._rng.bit_generator.state["state"]
                         for layer in net.layers
                         if isinstance(layer, Dropout)]
    return out


def _run(trainer, n_iterations, drift=None):
    x, y = _data()
    results = [trainer.run(x, y, group_batch=8, n_iterations=n_iterations,
                           drift=drift) for _ in range(2)]
    return _record(trainer, results)


def _hybrid(factory):
    return _run(HybridTrainer(factory, _adam, hep_loss_fn, n_groups=3,
                              seed=4), 4, [1.0, 1.0, 3.0])


def _ssp(factory):
    return _run(SSPTrainer(factory, _adam, hep_loss_fn, n_groups=3, bound=1,
                           seed=4), 4, [1.0, 1.0, 3.0])


def _elastic(factory):
    return _run(ElasticHybridTrainer(factory, _adam, hep_loss_fn, n_groups=3,
                                     failures={1: 2.5}, seed=4), 4)


#: name -> the case's record; each call builds a fresh factory
CASES = {
    f"{name}_{net}": (lambda run=run, make=make: run(make()))
    for name, run in (("hybrid", _hybrid), ("ssp", _ssp),
                      ("elastic", _elastic))
    for net, make in (("batchnorm", lambda: _batchnorm_net),
                      ("dropout", _dropout_factory))
}


def _checksum(values):
    flat = np.hstack([np.hstack(v) if isinstance(v, list) else v
                      for v in values]).astype(np.float64)
    return float(np.dot(flat, np.arange(1, flat.size + 1)))


def fingerprint(record):
    """``(sha256 of the schedule and generators, loss checksum, replica
    array checksum)``; schedule floats enter the digest as their exact
    ``repr``."""
    record = dict(record)
    losses = [g for run in record.pop("losses") for g in run]
    arrays = record.pop("arrays")
    blob = json.dumps(record, sort_keys=True, default=float)
    return (hashlib.sha256(blob.encode()).hexdigest(), _checksum(losses),
            _checksum(arrays))


PINNED = {
    "elastic_batchnorm": (
        "cf43d81f6c79a4fde5c4e3dab316f0f618eb46e5dec89ecfef32d1fc40e4c972",
        218.63160079717636, 3887.833880039223),
    "elastic_dropout": (
        "1f5bcf469e758fb664bf935d51300bf5a586066e5a52ccaec36e9828f23da55a",
        164.2927319407463, 2748.606398688251),
    "hybrid_batchnorm": (
        "05d4fe15e6df8a34c297a74fb0b0ef1d6416d383753283e845e04d258c0d3be8",
        254.83888632059097, 3906.7678777811816),
    "hybrid_dropout": (
        "40f52aa251c5d15e9f7183d78657a90fd7b4ce7becfc2699ae6909a566beda3b",
        197.34285908937454, 2761.653468499724),
    "ssp_batchnorm": (
        "3d6ccc2b78e6480ff65b3bb867a0feabb2690f2021d5c44c571df7063745fccf",
        255.07883030176163, 3884.116860331458),
    "ssp_dropout": (
        "6d13708d215162aac705906a626fe39a97a4fe1734878e2c2fa177a7d3fc736f",
        197.38609808683395, 2767.544021673937),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_group_replica_state_is_pinned(name):
    schedule, losses, arrays = fingerprint(CASES[name]())
    want_schedule, want_losses, want_arrays = PINNED[name]
    assert schedule == want_schedule
    assert losses == pytest.approx(want_losses, rel=1e-5)
    assert arrays == pytest.approx(want_arrays, rel=1e-5)


def test_every_group_needs_the_same_net():
    widths = iter([4, 8])
    with pytest.raises(ValueError, match="same net for every group"):
        HybridTrainer(lambda: build_hep_net(filters=next(widths), rng=0),
                      _adam, hep_loss_fn, n_groups=2)


def _traced_peak(n_groups):
    """tracemalloc's peak over one iteration per group of the benchmark's
    hybrid net (16 filters, 32x32 images, 32 per group batch)."""
    ds = make_hep_dataset(64, image_size=32, signal_fraction=0.5, seed=1)
    trainer = HybridTrainer(
        lambda: build_hep_net(filters=16, rng=0),
        lambda params: SGD(params, lr=0.01, momentum=0.9), hep_loss_fn,
        n_groups=n_groups, seed=0)
    tracemalloc.start()
    try:
        trainer.run(ds.images, ds.labels, group_batch=32, n_iterations=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_groups_hold_one_set_of_activations():
    """Every group's iteration runs on one compute net, so eight groups
    hold about what one does (a net per group read 58.6 / 14.2 MiB =
    4.1x: each idle group kept its last step's layer caches)."""
    assert _traced_peak(8) <= 1.25 * _traced_peak(1)


if __name__ == "__main__":
    for name in sorted(CASES):
        schedule, losses, arrays = fingerprint(CASES[name]())
        print(f'    "{name}": (\n        "{schedule}",\n'
              f'        {losses!r}, {arrays!r}),')
