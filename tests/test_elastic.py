"""Group-failure resilience, real execution (paper SVIII-A)."""

import numpy as np
import pytest

from repro.data.hep import make_hep_dataset
from repro.distributed import (
    ElasticHybridTrainer,
    HybridTrainer,
    sync_run_with_failure,
)
from repro.models import build_hep_net
from repro.optim import Adam
from repro.train.loop import hep_loss_fn


@pytest.fixture(scope="module")
def tiny_ds():
    return make_hep_dataset(200, image_size=16, signal_fraction=0.5, seed=9)


def _trainer(failures, n_groups=3, seed=0):
    return ElasticHybridTrainer(
        lambda: build_hep_net(filters=4, rng=3),
        lambda params: Adam(params, lr=1e-3),
        hep_loss_fn, n_groups=n_groups, failures=failures,
        iteration_time_fn=lambda g: 1.0, seed=seed)


class TestFailureInjection:
    def test_failed_group_stops_after_failure_time(self, tiny_ds):
        trainer = _trainer({1: 3.5})
        res = trainer.run(tiny_ds.images, tiny_ds.labels, group_batch=8,
                          n_iterations=10)
        # Group 1 fails at t=3.5 with 1s iterations: 4 iterations in flight
        # at most (it cannot START an iteration past t=3.5).
        assert res.completed[1] == 4
        assert res.completed[0] == 10
        assert res.completed[2] == 10
        assert res.failed_groups == {1: 3.5}
        assert res.surviving_groups == [0, 2]

    def test_failure_at_zero_kills_group_after_first_iteration(self,
                                                               tiny_ds):
        """A group that fails at t=0 never starts an iteration: the
        failure gate is checked before each start."""
        trainer = _trainer({0: 0.0})
        res = trainer.run(tiny_ds.images, tiny_ds.labels, group_batch=8,
                          n_iterations=6)
        assert res.completed[0] == 0

    def test_no_failures_matches_hybrid(self, tiny_ds):
        elastic = _trainer({}, seed=5)
        res_e = elastic.run(tiny_ds.images, tiny_ds.labels, group_batch=8,
                            n_iterations=5)
        hybrid = HybridTrainer(
            lambda: build_hep_net(filters=4, rng=3),
            lambda params: Adam(params, lr=1e-3),
            hep_loss_fn, n_groups=3,
            iteration_time_fn=lambda g: 1.0, seed=5)
        res_h = hybrid.run(tiny_ds.images, tiny_ds.labels, group_batch=8,
                           n_iterations=5, drift=[1.0, 1.0, 1.0])
        np.testing.assert_array_equal(res_e.staleness, res_h.staleness)
        for te, th in zip(res_e.traces, res_h.traces):
            assert te.losses == th.losses

    def test_training_survives_and_improves(self, tiny_ds):
        """The headline claim: a failed group does not stop the run, and
        the survivors keep driving the loss down."""
        trainer = ElasticHybridTrainer(
            lambda: build_hep_net(filters=4, rng=3),
            lambda params: Adam(params, lr=3e-3),
            hep_loss_fn, n_groups=3, failures={2: 4.0},
            iteration_time_fn=lambda g: 1.0, seed=1)
        res = trainer.run(tiny_ds.images, tiny_ds.labels, group_batch=16,
                          n_iterations=40)
        _times, losses = res.merged_curve(smooth=9)
        assert losses[-1] < losses[0]
        assert res.completed[2] < 40  # it really did die

    def test_all_groups_fail(self, tiny_ds):
        trainer = _trainer({0: 2.0, 1: 2.0, 2: 2.0})
        res = trainer.run(tiny_ds.images, tiny_ds.labels, group_batch=8,
                          n_iterations=10)
        assert all(c <= 2 for c in res.completed)
        assert len(res.failed_groups) == 3

    def test_invalid_failures(self):
        with pytest.raises(ValueError, match="out of range"):
            _trainer({7: 1.0})
        with pytest.raises(ValueError, match="failures: time"):
            _trainer({0: -1.0})


class TestSyncCounterfactual:
    def test_sync_run_dies_at_failure(self, tiny_ds):
        times, losses, completed = sync_run_with_failure(
            lambda: build_hep_net(filters=4, rng=3),
            lambda params: Adam(params, lr=1e-3),
            hep_loss_fn, tiny_ds.images, tiny_ds.labels,
            batch=16, n_iterations=20, iteration_time=1.0,
            failure_time=5.5, seed=0)
        assert not completed
        assert len(losses) == 5  # finished 5 of 20 iterations

    def test_sync_run_completes_without_failure(self, tiny_ds):
        times, losses, completed = sync_run_with_failure(
            lambda: build_hep_net(filters=4, rng=3),
            lambda params: Adam(params, lr=1e-3),
            hep_loss_fn, tiny_ds.images, tiny_ds.labels,
            batch=16, n_iterations=8, iteration_time=1.0,
            failure_time=1e9, seed=0)
        assert completed
        assert len(losses) == 8
        assert times[-1] == pytest.approx(8.0)

    def test_generator_seed_is_used(self, tiny_ds):
        def losses(seed):
            return sync_run_with_failure(
                lambda: build_hep_net(filters=4, rng=3),
                lambda params: Adam(params, lr=1e-3),
                hep_loss_fn, tiny_ds.images, tiny_ds.labels,
                batch=16, n_iterations=4, iteration_time=1.0,
                failure_time=1e9, seed=seed)[1]

        first = losses(np.random.default_rng(0))
        assert losses(np.random.default_rng(0)) == first
        assert losses(0) == first  # default_rng(0) draws what seed 0 does

    def test_hybrid_outlives_sync_under_same_failure(self, tiny_ds):
        """SVIII-A head to head: same failure time, hybrid finishes (minus
        one group), sync does not."""
        fail_t = 6.0
        _t, _l, sync_ok = sync_run_with_failure(
            lambda: build_hep_net(filters=4, rng=3),
            lambda params: Adam(params, lr=1e-3),
            hep_loss_fn, tiny_ds.images, tiny_ds.labels,
            batch=16, n_iterations=15, iteration_time=1.0,
            failure_time=fail_t, seed=0)
        trainer = _trainer({1: fail_t}, seed=0)
        res = trainer.run(tiny_ds.images, tiny_ds.labels, group_batch=16,
                          n_iterations=15)
        assert not sync_ok
        assert res.completed[0] == 15 and res.completed[2] == 15

    def test_invalid_args(self, tiny_ds):
        with pytest.raises(ValueError):
            sync_run_with_failure(
                lambda: build_hep_net(filters=4, rng=3),
                lambda params: Adam(params, lr=1e-3),
                hep_loss_fn, tiny_ds.images, tiny_ds.labels,
                batch=0, n_iterations=5, iteration_time=1.0,
                failure_time=1.0)
