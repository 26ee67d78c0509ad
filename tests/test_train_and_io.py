"""Metrics, training loop, checkpointing, sharded store, utils."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.io import ShardedStore, dataset_volume_bytes
from repro.models import build_hep_net
from repro.optim import Adam
from repro.train import (
    accuracy,
    auc,
    fit_classifier,
    load_checkpoint,
    roc_curve,
    save_checkpoint,
    tpr_at_fpr,
)
from repro.train.loop import predict_proba
from repro.train.metrics import average_precision, precision_recall_curve
from repro.utils.units import format_bytes, format_flops, format_time
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.timers import Timer


class TestROC:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auc(scores, labels) == pytest.approx(1.0)
        assert tpr_at_fpr(scores, labels, 0.0) == 1.0

    def test_random_scores_auc_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(4000)
        labels = rng.integers(0, 2, 4000)
        assert auc(scores, labels) == pytest.approx(0.5, abs=0.05)

    def test_tpr_at_fpr_conservative(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        labels = np.array([1, 0, 1, 0, 1])
        # FPR target 0: must reject all negatives -> threshold above 0.8
        assert tpr_at_fpr(scores, labels, 0.0) == pytest.approx(1 / 3)

    def test_monotone_tpr(self):
        rng = np.random.default_rng(1)
        scores = np.concatenate([rng.normal(1, 1, 500),
                                 rng.normal(0, 1, 500)])
        labels = np.concatenate([np.ones(500), np.zeros(500)]).astype(int)
        vals = [tpr_at_fpr(scores, labels, f) for f in (0.01, 0.1, 0.5)]
        assert vals == sorted(vals)

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_curve(np.array([0.5, 0.6]), np.array([1, 1]))

    def test_bad_labels_raise(self):
        with pytest.raises(ValueError):
            roc_curve(np.array([0.5, 0.6]), np.array([1, 2]))

    def test_accuracy(self):
        assert accuracy(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0

    @pytest.mark.parametrize("metric", [
        roc_curve, auc, precision_recall_curve, average_precision, accuracy,
        lambda s, y: tpr_at_fpr(s, y, 0.0)],
        ids=["roc_curve", "auc", "precision_recall_curve",
             "average_precision", "accuracy", "tpr_at_fpr"])
    def test_a_nan_score_is_refused(self, metric):
        """A NaN sorted last, so a diverged net's scores read as a ROC:
        ``auc``, ``tpr_at_fpr(..., 0.0)`` and ``accuracy`` all gave 0.5."""
        with pytest.raises(ValueError, match="scores"):
            metric(np.array([0.9, np.nan, 0.2, 0.8]), np.array([1, 1, 0, 0]))

    def test_infinite_scores_sort_and_tie(self):
        """inf - inf is NaN, which read as two distinct scores: tied
        infinities split into extra ROC points."""
        labels = np.array([1, 0, 1, 0, 1])
        finite = auc(np.array([9.0, 9.0, 0.5, -9.0, -9.0]), labels)
        scores = np.array([np.inf, np.inf, 0.5, -np.inf, -np.inf])
        assert auc(scores, labels) == finite
        assert accuracy(scores, labels) == 0.6

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 60), seed=st.integers(0, 10**6))
    def test_roc_properties(self, n, seed):
        """ROC curves are monotone non-decreasing in both axes and AUC is
        in [0, 1]."""
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        labels = np.zeros(n, dtype=int)
        labels[: max(1, n // 3)] = 1
        rng.shuffle(labels)
        fpr, tpr = roc_curve(scores, labels)
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)
        assert 0.0 <= auc(scores, labels) <= 1.0


class TestTrainLoop:
    def test_loss_decreases(self, hep_ds):
        net = build_hep_net(filters=8, rng=0)
        h = fit_classifier(net, Adam(net.params(), lr=1e-3),
                           hep_ds.images[:128], hep_ds.labels[:128],
                           batch=16, n_iterations=25, seed=0)
        assert np.mean(h.losses[-5:]) < np.mean(h.losses[:5])

    def test_predict_proba_rows_sum(self, hep_ds):
        net = build_hep_net(filters=8, rng=0)
        p = predict_proba(net, hep_ds.images[:10])
        np.testing.assert_allclose(p.sum(axis=1), np.ones(10), rtol=1e-5)

    def test_validation(self, hep_ds):
        net = build_hep_net(filters=8, rng=0)
        opt = Adam(net.params(), lr=1e-3)
        with pytest.raises(ValueError):
            fit_classifier(net, opt, hep_ds.images[:8], hep_ds.labels[:8],
                           batch=99, n_iterations=1)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, hep_ds):
        net = build_hep_net(filters=8, rng=0)
        nbytes = save_checkpoint(net, tmp_path / "model")
        assert nbytes > 0
        other = build_hep_net(filters=8, rng=1)
        load_checkpoint(other, tmp_path / "model")
        x = hep_ds.images[:4]
        np.testing.assert_allclose(net.forward(x), other.forward(x),
                                   rtol=1e-6)

    def test_missing_param_raises(self, tmp_path):
        net = build_hep_net(filters=8, rng=0)
        save_checkpoint(net, tmp_path / "model")
        bigger = build_hep_net(filters=16, rng=0)
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(bigger, tmp_path / "model")


class TestShardedStore:
    def test_write_read_roundtrip(self, tmp_path, rng):
        store = ShardedStore(tmp_path / "ds", shard_size=10)
        x = rng.normal(size=(25, 2, 4, 4)).astype(np.float32)
        y = rng.integers(0, 2, 25)
        n = store.write(x, y)
        assert n == 3
        x2, y2 = store.read_all()
        np.testing.assert_array_equal(x2, x)
        np.testing.assert_array_equal(y2, y)

    def test_iter_batches_crosses_shards(self, tmp_path, rng):
        store = ShardedStore(tmp_path / "ds", shard_size=7)
        x = rng.normal(size=(21, 3)).astype(np.float32)
        y = np.arange(21)
        store.write(x, y)
        batches = list(store.iter_batches(5))
        assert len(batches) == 4  # 20 of 21 samples in 5-batches
        got = np.concatenate([b[1] for b in batches])
        np.testing.assert_array_equal(got, np.arange(20))

    def test_missing_shard_raises(self, tmp_path):
        store = ShardedStore(tmp_path / "empty")
        with pytest.raises(FileNotFoundError):
            store.read_all()

    def test_volume_accounting_table1(self):
        """Table I: HEP 10M x 228^2 x 3 ~ 6.2 TB raw (paper rounds to
        7.4 TB including overheads); climate 0.4M x 768^2 x 16 ~ 15 TB."""
        climate = dataset_volume_bytes(400_000, 16, 768, 768)
        assert climate == pytest.approx(15.1e12, rel=0.01)
        hep = dataset_volume_bytes(10_000_000, 3, 228, 228)
        assert 5e12 < hep < 8e12


class TestUtils:
    def test_format_bytes(self):
        assert format_bytes(2.4e6) == "2.29 MiB"
        assert format_bytes(1024) == "1.00 KiB"

    def test_format_flops(self):
        assert format_flops(15.07e15) == "15.07 PFLOP/s"
        assert format_flops(1.9e12) == "1.90 TFLOP/s"

    def test_format_time(self):
        assert format_time(0.106) == "106.00 ms"
        assert format_time(12.16) == "12.16 s"

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            format_bytes(-1)
        with pytest.raises(ValueError):
            format_time(-1)

    def test_spawn_rngs_independent(self):
        a, b = spawn_rngs(0, 2)
        assert a.random() != b.random()

    def test_spawn_deterministic(self):
        a1, _ = spawn_rngs(0, 2)
        a2, _ = spawn_rngs(0, 2)
        assert a1.random() == a2.random()

    def test_as_rng_passthrough(self):
        g = as_rng(0)
        assert as_rng(g) is g

    def test_timer_accumulates(self):
        t = Timer()
        t.add("x", 1.0)
        t.add("x", 2.0)
        assert t.total("x") == 3.0
        assert t.count("x") == 2

    def test_timer_section(self):
        t = Timer()
        with t.section("s"):
            pass
        assert t.total("s") >= 0.0
        assert "s" in t.names()
