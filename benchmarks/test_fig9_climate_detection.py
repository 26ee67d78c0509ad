"""Fig 9 / SVII-B: climate bounding-box predictions.

Paper anchors: the semi-supervised architecture localizes and classifies
tropical cyclones well (Fig 9 plots boxes at confidence > 0.95 on a TMQ
map); quantitative box metrics were still work-in-progress in the paper, so
the reproduced claims are qualitative: confident predictions overlap ground
truth, and the semi-supervised (unlabeled-data) branch does not hurt.
"""

import numpy as np
import pytest

from bench_report import report
from repro.data.climate import make_climate_dataset
from repro.models import SemiSupervisedLoss, build_climate_net
from repro.models.bbox import (detection_average_precision, detection_metrics,
                               encode_targets)
from repro.optim import Adam

# Solver substitution note: the paper trains the climate net with
# SGD+momentum at full scale. At our miniature scale the confidence head
# only saturates past the paper's 0.8 decision threshold with ADAM (the
# heads' gradient norms differ wildly — the same argument the paper makes
# for ADAM on HEP, SIII-A). Documented in EXPERIMENTS.md.


def _train(ds, n_iterations=300, seed=0, batch=12):
    net = build_climate_net(in_channels=8, n_classes=3, preset="small",
                            rng=seed)
    loss_fn = SemiSupervisedLoss(pos_weight=24.0, w_recon=0.5)
    opt = Adam(net.params(), lr=2e-3)
    gh, gw = net.grid_shape((64, 64))
    rng = np.random.default_rng(seed)
    n_train = int(0.8 * len(ds))
    for _ in range(n_iterations):
        idx = rng.choice(n_train, size=batch, replace=False)
        x = ds.images[idx]
        targets = encode_targets([ds.boxes[i] for i in idx], (gh, gw),
                                 net.stride, 3)
        out = net.forward(x)
        _, _, grads = loss_fn(out, targets, x, ds.labeled[idx])
        net.zero_grad()
        net.backward(grads, input_grad=False)
        opt.step()
    return net, n_train


def test_fig9_climate_boxes(benchmark):
    # Built outside the timed region: the field generator's first call is
    # also where scipy.ndimage is imported.
    ds = make_climate_dataset(100, size=64, n_channels=8,
                              labeled_fraction=0.5, seed=1)
    net, n_train = benchmark.pedantic(_train, args=(ds,), rounds=1,
                                      iterations=1)
    test_idx = np.arange(n_train, len(ds))
    # The paper keeps boxes with confidence > 0.8 at inference and plots
    # the > 0.95 ones; we evaluate at 0.8.
    preds = net.predict(ds.images[test_idx], conf_threshold=0.8)
    gts = [ds.boxes[i] for i in test_idx]
    m_loc = detection_metrics(preds, gts, iou_threshold=0.3,
                              require_class=False)
    m_cls = detection_metrics(preds, gts, iou_threshold=0.3,
                              require_class=True)
    # The "additional metrics" the paper says it is working on (SVII-B):
    # rank over ALL predictions (not just conf > 0.8) for an AP number.
    ap_preds = net.predict(ds.images[test_idx], conf_threshold=0.2)
    ap = detection_average_precision(ap_preds, gts, iou_threshold=0.3,
                                     require_class=False)
    n_pred = sum(len(p) for p in preds)
    report("Fig 9: climate box predictions (confidence > 0.8)", [
        ("confident predictions on test set", ">0",
         f"{n_pred} over {len(test_idx)} images"),
        ("localization recall (IoU>0.3)", "good (qualitative)",
         f"{m_loc['recall']:.2f}"),
        ("localization precision", "good (qualitative)",
         f"{m_loc['precision']:.2f}"),
        ("mean IoU of matches", "-", f"{m_loc['mean_iou']:.2f}"),
        ("with class requirement: recall", "-",
         f"{m_cls['recall']:.2f}"),
        ("average precision (paper: metrics WIP)", "-", f"{ap:.2f}"),
    ])
    assert n_pred > 0, "network made no confident predictions"
    assert m_loc["recall"] > 0.25
    assert m_loc["precision"] > 0.2
    assert ap > 0.1


def test_fig9_semi_supervised_ablation(benchmark):
    """The semi-supervised coupling (SIII-B): training WITH the unlabeled
    images' reconstruction signal should not degrade detection, and the
    shared encoder should reconstruct held-out fields better."""
    from repro.nn.losses import MSELoss

    ds = make_climate_dataset(60, size=64, n_channels=8,
                              labeled_fraction=0.4, seed=3)

    def run():
        net, n_train = _train(ds, n_iterations=150, seed=4)
        held = ds.images[n_train:]
        out = net.forward(held)
        recon_err = MSELoss()(out["recon"], held)[0]
        return net, recon_err

    _net, recon_err = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline_var = float(np.var(ds.images[48:]))
    report("Fig 9 ablation: autoencoder branch", [
        ("held-out reconstruction MSE", "<< field variance",
         f"{recon_err:.3f} vs var {baseline_var:.3f}"),
    ])
    assert recon_err < 0.8 * baseline_var
