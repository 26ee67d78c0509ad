#!/usr/bin/env python
"""Semi-supervised extreme-weather detection (the paper's climate task).

Builds the encoder/decoder + box-head architecture (SIII-B), trains it on
synthetic multi-channel climate fields where only half the images carry box
labels, and reports detection metrics plus an ASCII rendering of the most
confident predictions on a TMQ (integrated water vapour) map — our Fig 9.

Run:  python examples/climate_detection.py
"""

import numpy as np

from repro.data.climate import make_climate_dataset
from repro.models import SemiSupervisedLoss, build_climate_net
from repro.models.bbox import detection_metrics, encode_targets
from repro.optim import Adam


def ascii_render(field: np.ndarray, gt_boxes, pred_boxes,
                 width: int = 64) -> str:
    """Render a 2-D field with ground-truth (#) and predicted (*) boxes."""
    h, w = field.shape
    chars = " .:-=+oO@"
    lo, hi = np.percentile(field, [5, 99])
    scaled = np.clip((field - lo) / max(1e-9, hi - lo), 0, 1)
    canvas = [[chars[int(v * (len(chars) - 1))] for v in row]
              for row in scaled]

    def draw(box, ch):
        x0, y0 = int(box.x), int(box.y)
        x1 = min(w - 1, int(box.x + box.w))
        y1 = min(h - 1, int(box.y + box.h))
        x0, y0 = max(0, x0), max(0, y0)
        for x in range(x0, x1 + 1):
            canvas[y0][x] = ch
            canvas[y1][x] = ch
        for y in range(y0, y1 + 1):
            canvas[y][x0] = ch
            canvas[y][x1] = ch

    for b in gt_boxes:
        draw(b, "#")
    for _score, b in pred_boxes:
        draw(b, "*")
    # y axis points up (latitude): print top row last
    return "\n".join("".join(row) for row in reversed(canvas))


def main() -> None:
    print("=== semi-supervised climate detection (paper SIII-B) ===\n")
    class_names = ["tropical_cyclone", "extratropical_cyclone",
                   "atmospheric_river"]

    print("[1/3] generating climate fields with planted events...")
    ds = make_climate_dataset(n_images=60, size=64, n_channels=8,
                              labeled_fraction=0.5, seed=0)
    n_events = sum(len(b) for b in ds.boxes)
    print(f"      {len(ds)} images, {n_events} events, "
          f"{int(ds.labeled.sum())} labeled / "
          f"{int((~ds.labeled).sum())} unlabeled")

    # The paper trains with SGD+momentum at full scale; at this miniature
    # scale ADAM is needed for the confidence head to saturate past the 0.8
    # threshold (see EXPERIMENTS.md).
    print("[2/3] training encoder/decoder + box heads (ADAM)...")
    net = build_climate_net(in_channels=8, n_classes=3, preset="small",
                            rng=0)
    loss_fn = SemiSupervisedLoss(pos_weight=24.0, w_recon=0.5)
    opt = Adam(net.params(), lr=2e-3)
    gh, gw = net.grid_shape((64, 64))
    rng = np.random.default_rng(0)
    batch = 12
    for it in range(180):
        idx = rng.choice(len(ds), size=batch, replace=False)
        x = ds.images[idx]
        targets = encode_targets([ds.boxes[i] for i in idx], (gh, gw),
                                 net.stride, 3)
        out = net.forward(x)
        total, bd, grads = loss_fn(out, targets, x, ds.labeled[idx])
        net.zero_grad()
        net.backward(grads, input_grad=False)
        opt.step()
        if it % 36 == 0:
            print(f"      iter {it:3d}: total {total:.3f} "
                  f"(conf {bd['conf']:.3f} cls {bd['cls']:.3f} "
                  f"box {bd['box']:.3f} recon {bd['recon']:.3f})")

    print("[3/3] decoding predictions (confidence > 0.8, paper SIII-B)...")
    test_idx = np.arange(48, 60)
    preds = net.predict(ds.images[test_idx], conf_threshold=0.8)
    gts = [ds.boxes[i] for i in test_idx]
    metrics = detection_metrics(preds, gts, iou_threshold=0.3,
                                require_class=False)
    print(f"      precision {metrics['precision']:.2f}  "
          f"recall {metrics['recall']:.2f}  "
          f"mean IoU {metrics['mean_iou']:.2f}")

    # Fig 9: most confident boxes over the TMQ channel.
    shown = max(range(len(test_idx)), key=lambda i: len(preds[i]))
    img_id = test_idx[shown]
    print(f"\nTMQ map of image {img_id} "
          "(# = ground truth, * = prediction):")
    print(ascii_render(ds.images[img_id, 0], gts[shown], preds[shown]))


if __name__ == "__main__":
    main()
