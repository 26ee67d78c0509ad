"""Whole-network gradient checks (the strongest correctness evidence)."""

import numpy as np
import pytest

from repro.models import SemiSupervisedLoss, build_climate_net, build_hep_net
from repro.models.bbox import encode_targets
from repro.nn.losses import SoftmaxCrossEntropyLoss


class TestHEPNetGradients:
    def test_full_net_input_gradient(self, rng):
        """Numeric vs analytic dL/dx through the entire HEP stack."""
        net = build_hep_net(in_channels=2, filters=4, n_units=2, rng=0)
        x = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
        y = np.array([0, 1])
        loss_fn = SoftmaxCrossEntropyLoss()

        def loss_of(xv):
            logits = net.forward(xv)
            return loss_fn(logits, y)[0]

        net.zero_grad()
        logits = net.forward(x)
        _, grad = loss_fn(logits, y)
        gx = net.backward(grad)

        # probe a handful of coordinates (full numeric check is O(n^2))
        eps = 1e-2
        probes = [(0, 0, 2, 3), (1, 1, 5, 5), (0, 1, 0, 7), (1, 0, 4, 1)]
        for idx in probes:
            orig = x[idx]
            x[idx] = orig + eps
            fp = loss_of(x)
            x[idx] = orig - eps
            fm = loss_of(x)
            x[idx] = orig
            num = (fp - fm) / (2 * eps)
            assert gx[idx] == pytest.approx(num, rel=0.15, abs=5e-4)

    def test_full_net_weight_gradients_nonzero(self, rng):
        net = build_hep_net(in_channels=2, filters=4, n_units=2, rng=0)
        x = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
        y = np.array([0, 1])
        net.zero_grad()
        logits = net.forward(x)
        _, grad = SoftmaxCrossEntropyLoss()(logits, y)
        net.backward(grad)
        for p in net.params():
            assert np.isfinite(p.grad).all()
            assert np.abs(p.grad).max() > 0


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_keeps_the_gradient_dtype_at_every_layer(self, rng,
                                                              dtype):
        """A float32 loss gradient walked back through the net is float32
        at every layer (a pool dividing by integer counts once promoted
        everything below pool4 to float64); float64 in stays float64."""
        net = build_hep_net(in_channels=2, filters=4, rng=0)
        x = rng.normal(size=(2, 2, 32, 32)).astype(dtype)
        logits = net.forward(x)
        assert logits.dtype == dtype
        grad = rng.normal(size=logits.shape).astype(dtype)
        net.zero_grad()
        # The order net.forward ran in: a pool ahead of the ReLU it follows.
        order = net.schedule()
        assert [l.name for l in order[:3]] == ["conv1", "pool1", "relu1"]
        for layer in reversed(order):
            grad = layer.backward(grad)
            assert grad.dtype == dtype, f"{layer.name} returned {grad.dtype}"
        assert grad.shape == x.shape


class TestClimateNetGradients:
    def test_composite_loss_input_gradient(self, rng):
        """Numeric vs analytic dL/dx through encoder + heads + decoder with
        the full semi-supervised objective."""
        from repro.models.climate import ClimateNet

        net = ClimateNet(in_channels=2, n_classes=2,
                         encoder_spec=[(4, 3, 2), (6, 3, 2)],
                         decoder_spec=[(4, 4, 2), (2, 4, 2)], rng=0)
        loss_fn = SemiSupervisedLoss()
        x = rng.normal(size=(1, 2, 16, 16)).astype(np.float32)
        from repro.models.bbox import Box

        boxes = [[Box(x=5, y=5, w=6, h=6, class_id=1)]]
        gh, gw = net.grid_shape((16, 16))
        targets = encode_targets(boxes, (gh, gw), net.stride, 2)

        def loss_of(xv):
            out = net.forward(xv)
            return loss_fn(out, targets, xv)[0]

        net.zero_grad()
        out = net.forward(x)
        _, _, grads = loss_fn(out, targets, x)
        gx = net.backward(grads)
        # NOTE: the reconstruction targets the input, so dL/dx includes the
        # -2/N (recon - x) term from MSE; probe with that accounted for by
        # differentiating the full loss numerically.
        eps = 2e-2
        for idx in [(0, 0, 3, 3), (0, 1, 10, 7), (0, 0, 15, 0)]:
            orig = x[idx]
            x[idx] = orig + eps
            fp = loss_of(x)
            x[idx] = orig - eps
            fm = loss_of(x)
            x[idx] = orig
            num = (fp - fm) / (2 * eps)
            # analytic gx excludes dL/d(target); add the target-side MSE
            # derivative: d/dt mean((r-t)^2) = -2(r-t)/N
            out = net.forward(x)
            diff = out["recon"] - x
            target_term = -2.0 * diff[idx] / diff.size * loss_fn.w_recon
            assert gx[idx] + target_term == pytest.approx(
                num, rel=0.25, abs=2e-3)

    def test_all_head_gradients_flow(self, rng):
        net = build_climate_net(in_channels=4, n_classes=3, preset="small",
                                rng=1)
        x = rng.normal(size=(2, 4, 32, 32)).astype(np.float32)
        gh, gw = net.grid_shape((32, 32))
        from repro.models.bbox import Box

        boxes = [[Box(x=8, y=8, w=10, h=10, class_id=0)],
                 [Box(x=4, y=12, w=8, h=8, class_id=2)]]
        targets = encode_targets(boxes, (gh, gw), net.stride, 3)
        net.zero_grad()
        out = net.forward(x)
        _, _, grads = SemiSupervisedLoss()(out, targets, x)
        net.backward(grads)
        for p in net.params():
            assert np.isfinite(p.grad).all(), p.name
