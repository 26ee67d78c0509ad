"""Climate network + semi-supervised loss: gradients and semantics."""

import numpy as np
import pytest

from repro.models import SemiSupervisedLoss, build_climate_net
from repro.models.bbox import Box, encode_targets
from repro.optim import SGD


@pytest.fixture(scope="module")
def setup(climate_ds):
    net = build_climate_net(in_channels=8, n_classes=3, preset="small",
                            rng=0)
    loss_fn = SemiSupervisedLoss()
    gh, gw = net.grid_shape((64, 64))
    x = climate_ds.images[:6]
    targets = encode_targets(climate_ds.boxes[:6], (gh, gw), net.stride, 3)
    return net, loss_fn, x, targets


class TestForwardBackward:
    def test_loss_finite_and_positive(self, setup):
        net, loss_fn, x, targets = setup
        out = net.forward(x)
        total, bd, grads = loss_fn(out, targets, x)
        assert np.isfinite(total) and total > 0
        assert set(bd) == {"conf", "cls", "box", "recon", "total"}

    def test_backward_populates_all_grads(self, setup):
        net, loss_fn, x, targets = setup
        net.zero_grad()
        out = net.forward(x)
        _, _, grads = loss_fn(out, targets, x)
        gx = net.backward(grads)
        assert gx.shape == x.shape
        assert all(np.abs(p.grad).sum() > 0 for p in net.params())

    def test_input_grad_false_changes_no_parameter_gradient(self, setup):
        """A training step never reads dL/d(images): the flag reaches the
        encoder's first conv, which skips its data gradient only."""
        net, loss_fn, x, targets = setup
        _, _, grads = loss_fn(net.forward(x), targets, x)
        net.zero_grad()
        assert net.backward(grads).shape == x.shape
        want = [p.grad.copy() for p in net.params()]
        net.zero_grad()
        net.forward(x)
        assert net.backward(grads, input_grad=False) is None
        for p, ref in zip(net.params(), want):
            np.testing.assert_array_equal(p.grad, ref)

    def test_unlabeled_images_only_feed_reconstruction(self, setup):
        """Semi-supervision semantics: with everything unlabeled, the
        supervised grads vanish but the autoencoder still learns."""
        net, loss_fn, x, targets = setup
        out = net.forward(x)
        labeled = np.zeros(x.shape[0], dtype=bool)
        total, bd, grads = loss_fn(out, targets, x, labeled_mask=labeled)
        assert np.abs(grads["conf"]).sum() == 0.0
        assert np.abs(grads["cls"]).sum() == 0.0
        assert np.abs(grads["box"]).sum() == 0.0
        assert np.abs(grads["recon"]).sum() > 0.0
        assert bd["conf"] == 0.0

    def test_loss_weights_scale_grads(self, setup):
        net, _, x, targets = setup
        out = net.forward(x)
        small = SemiSupervisedLoss(w_recon=0.1)
        big = SemiSupervisedLoss(w_recon=10.0)
        _, _, g1 = small(out, targets, x)
        _, _, g2 = big(out, targets, x)
        np.testing.assert_allclose(g2["recon"], 100.0 * g1["recon"],
                                   rtol=1e-4)

    def test_mask_validation(self, setup):
        net, loss_fn, x, targets = setup
        out = net.forward(x)
        with pytest.raises(ValueError):
            loss_fn(out, targets, x, labeled_mask=np.ones(99, dtype=bool))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SemiSupervisedLoss(w_conf=-1.0)


class TestTrainingDynamics:
    def test_short_training_reduces_loss(self, climate_ds):
        net = build_climate_net(in_channels=8, n_classes=3, preset="small",
                                rng=1)
        loss_fn = SemiSupervisedLoss()
        opt = SGD(net.params(), lr=0.03, momentum=0.9)
        gh, gw = net.grid_shape((64, 64))
        x = climate_ds.images[:16]
        targets = encode_targets(climate_ds.boxes[:16], (gh, gw),
                                 net.stride, 3)
        losses = []
        for _ in range(15):
            out = net.forward(x)
            total, _, grads = loss_fn(out, targets, x,
                                      climate_ds.labeled[:16])
            net.zero_grad()
            net.backward(grads)
            opt.step()
            losses.append(total)
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_semi_supervised_helps_reconstruction(self, climate_ds):
        """Adding unlabeled images must reduce reconstruction error faster
        than labeled-only training (the paper's core semi-supervised
        claim, SIII-B)."""
        from repro.nn.losses import MSELoss

        def recon_error_after(training_x, labeled):
            net = build_climate_net(in_channels=8, n_classes=3,
                                    preset="small", rng=2)
            loss_fn = SemiSupervisedLoss(w_conf=0.0, w_cls=0.0, w_box=0.0)
            opt = SGD(net.params(), lr=0.05, momentum=0.9)
            gh, gw = net.grid_shape((64, 64))
            targets = encode_targets(
                [[] for _ in range(len(training_x))], (gh, gw),
                net.stride, 3)
            for _ in range(10):
                out = net.forward(training_x)
                _, _, grads = loss_fn(out, targets, training_x, labeled)
                net.zero_grad()
                net.backward(grads)
                opt.step()
            held_out = climate_ds.images[20:24]
            out = net.forward(held_out)
            return MSELoss()(out["recon"], held_out)[0]

        few = climate_ds.images[:4]
        many = climate_ds.images[:16]
        err_few = recon_error_after(few, np.ones(4, dtype=bool))
        err_many = recon_error_after(many, np.ones(16, dtype=bool))
        assert err_many < err_few * 1.2  # more (unlabeled) data never hurts much

    def test_predict_returns_box_lists(self, climate_ds):
        net = build_climate_net(in_channels=8, n_classes=3, preset="small",
                                rng=0)
        preds = net.predict(climate_ds.images[:3], conf_threshold=0.8)
        assert len(preds) == 3
        for plist in preds:
            for score, box in plist:
                assert 0.8 < score <= 1.0
                assert isinstance(box, Box)
