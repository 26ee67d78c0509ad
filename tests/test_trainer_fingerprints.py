"""Every trainer's output, pinned.

Each case runs one trainer configuration on a tiny HEP net and fingerprints
what the run reports. The values were taken when each trainer still wrote
out its own step and its own schedule loop, so they hold the shared step,
group schedule and data-parallel runner to the behaviour of the copies they
replaced.

- The schedule (virtual times, PS staleness, SSP waits, elastic completion
  counts and failures) does not depend on floating-point rounding, so its
  sha256 must match exactly on every host.
- The losses' last float32 bit depends on the GEMM kernel the CPU selects
  (an AVX2 and an AVX-512 build of the same numpy differ by ~1e-7 on three
  of these cases). They enter as a position-weighted checksum held to 1e-5,
  which still catches a swapped, skipped or redrawn minibatch.

Regenerate (only for a change that is meant to move a trainer's output)
with ``PYTHONPATH=src python tests/test_trainer_fingerprints.py``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.comm import ThreadWorld
from repro.data.hep import make_hep_dataset
from repro.distributed import (
    ElasticHybridTrainer,
    HybridTrainer,
    ShardedSolverDataParallel,
    SSPTrainer,
    SyncDataParallel,
    sync_run_with_failure,
)
from repro.models import build_hep_net
from repro.optim import SGD, Adam
from repro.train import fit_classifier
from repro.train.loop import hep_loss_fn


def _data():
    ds = make_hep_dataset(120, image_size=16, signal_fraction=0.5, seed=9)
    return ds.images, ds.labels


def _net():
    return build_hep_net(filters=4, rng=3)


def _adam(params):
    return Adam(params, lr=1e-3)


def _groups(res):
    out = {"times": [t.times for t in res.traces],
           "losses": [t.losses for t in res.traces],
           "staleness": res.staleness.tolist()}
    for extra in ("wait_times", "completed"):
        if hasattr(res, extra):
            out[extra] = getattr(res, extra)
    if hasattr(res, "failed_groups"):
        out["failed_groups"] = sorted(res.failed_groups.items())
    return out


def _hybrid(n_groups, drift):
    x, y = _data()
    trainer = HybridTrainer(_net, _adam, hep_loss_fn, n_groups=n_groups,
                            seed=4)
    return _groups(trainer.run(x, y, group_batch=8, n_iterations=5,
                               drift=drift))


def _ssp(bound):
    x, y = _data()
    trainer = SSPTrainer(_net, _adam, hep_loss_fn, n_groups=3, bound=bound,
                         seed=4)
    return _groups(trainer.run(x, y, group_batch=8, n_iterations=8,
                               drift=[1.0, 1.0, 4.0]))


def _elastic():
    x, y = _data()
    trainer = ElasticHybridTrainer(_net, _adam, hep_loss_fn, n_groups=3,
                                   failures={1: 3.5, 2: 0.0}, seed=4)
    return _groups(trainer.run(x, y, group_batch=8, n_iterations=6))


def _sync(cls, p, n):
    x, y = _data()
    if cls is SyncDataParallel:
        opt_factory = lambda net: SGD(net.params(), lr=0.05, momentum=0.9)
    else:
        opt_factory = lambda params: SGD(params, lr=0.05, momentum=0.9)
    trainer = cls(ThreadWorld(p), _net, opt_factory, hep_loss_fn)
    res = trainer.run(x[:n], y[:n], n_iterations=4)
    return {"losses": res.losses, "iterations": res.iterations}


def _sync_failure():
    x, y = _data()
    times, losses, completed = sync_run_with_failure(
        _net, _adam, hep_loss_fn, x, y, batch=16, n_iterations=8,
        iteration_time=1.0, failure_time=5.5, seed=3)
    return {"times": times, "losses": losses, "completed": completed}


def _fit():
    x, y = _data()
    net = _net()
    hist = fit_classifier(net, Adam(net.params(), lr=1e-3), x, y, batch=16,
                          n_iterations=6, seed=2)
    return {"losses": hist.losses}


CASES = {
    "hybrid_drift_1_1_4": lambda: _hybrid(3, [1.0, 1.0, 4.0]),
    "hybrid_one_group_no_drift": lambda: _hybrid(1, None),
    "ssp_bound_0": lambda: _ssp(0),
    "ssp_bound_1": lambda: _ssp(1),
    "ssp_bound_3": lambda: _ssp(3),
    "ssp_bound_100": lambda: _ssp(100),
    "elastic_failures": _elastic,
    "sync_p2": lambda: _sync(SyncDataParallel, 2, 32),
    "sharded_p3_uneven": lambda: _sync(ShardedSolverDataParallel, 3, 33),
    "sync_run_with_failure": _sync_failure,
    "fit_classifier": _fit,
}


def fingerprint(record):
    """``(sha256 of everything but the losses, weighted loss checksum)``;
    schedule floats enter the digest as their exact ``repr``."""
    record = dict(record)
    losses = np.hstack(record.pop("losses")).astype(np.float64)
    blob = json.dumps(record, sort_keys=True, default=float)
    checksum = float(np.dot(losses, np.arange(1, losses.size + 1)))
    return hashlib.sha256(blob.encode()).hexdigest(), checksum


PINNED = {
    "elastic_failures": (
        "ef210cb9bbcd6b4bb845ba208faa591976d29d24e6089d78b46133e57baa47fd",
        37.827112317085266),
    "fit_classifier": (
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        14.362876892089844),
    "hybrid_drift_1_1_4": (
        "8badf45a275bedf343fc9d74f63a3f79ad9af1889419cce42a428c327e1c14b8",
        82.10665541887283),
    "hybrid_one_group_no_drift": (
        "aecaf858b9002823472fae12c36de40ebc18e40aaa61d8c308ebaf34fcbb87ac",
        10.240028142929077),
    "sharded_p3_uneven": (
        "0beef8ebaca8fcf20ea5c3666db38714990e91049d8564e3ba19990bc692bc89",
        6.810673673947652),
    "ssp_bound_0": (
        "fa90589f64bd2cbbb50330028a4b3dfca2e29afe2da2e64952776d3bbef606c0",
        204.94829314947128),
    "ssp_bound_1": (
        "db28a5fc80fafcbd8702a916425eb5a33ae90b04b68466e26f0cc7cbc4129764",
        204.8832328915596),
    "ssp_bound_100": (
        "3aa8bbf13fdc6f4ce96072411bc30da0a80a16014ac5c1de21eaa697a848e199",
        204.7831727862358),
    "ssp_bound_3": (
        "9cd1e424bba648ab8f1c7dd192526c7d7f58817642e8174a6dda086496a4be11",
        204.84306770563126),
    "sync_p2": (
        "0beef8ebaca8fcf20ea5c3666db38714990e91049d8564e3ba19990bc692bc89",
        6.824830561876297),
    "sync_run_with_failure": (
        "774d8b7581870976377326d9dcfd30693b225ce3a3ec1a2ad9d1b7d95eab1232",
        10.276230096817017),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trainer_output_unchanged(name):
    schedule, checksum = fingerprint(CASES[name]())
    want_schedule, want_checksum = PINNED[name]
    assert schedule == want_schedule
    assert checksum == pytest.approx(want_checksum, rel=1e-5)


if __name__ == "__main__":
    for name in sorted(CASES):
        schedule, checksum = fingerprint(CASES[name]())
        print(f'    "{name}": (\n        "{schedule}",\n'
              f'        {checksum!r}),')
