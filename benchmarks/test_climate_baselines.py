"""SI-B context: DL detection vs expert-threshold heuristics.

The paper motivates the DL approach against "heuristics, and
expert-specified multi-variate threshold conditions" [10-12]. This bench
runs our TECA-style threshold detectors on the same synthetic fields the
network trains on and reports both detectors' recall — the quantitative
comparison the paper itself leaves open ("we do not have a well-established
benchmark to compare our results to", SVII-B).
"""

import numpy as np

from bench_report import report
from repro.data.climate import detect_all, make_climate_dataset
from repro.models.bbox import detection_metrics


def test_heuristic_baseline_detection(benchmark):
    ds = make_climate_dataset(40, size=96, n_channels=16, keep_raw=True,
                              seed=13)
    # The detectors import scipy.ndimage at their first call (as the field
    # generator above did at its own); keep that out of the first round.
    detect_all(ds.raw[:1])
    dets = benchmark(detect_all, ds.raw)
    # Evaluate TC and AR detection separately (the heuristics' classes).
    for class_id, name in ((0, "tropical cyclone"),
                           (2, "atmospheric river")):
        preds = [[(s, b) for s, b in d if b.class_id == class_id]
                 for d in dets]
        gts = [[b for b in boxes if b.class_id == class_id]
               for boxes in ds.boxes]
        n_gt = sum(len(g) for g in gts)
        if n_gt == 0:
            continue
        m = detection_metrics(preds, gts, iou_threshold=0.2)
        report(f"Heuristic {name} detector (threshold conditions)", [
            ("ground-truth events", "-", f"{n_gt}"),
            ("recall (IoU>0.2)", "the DL motivation: partial",
             f"{m['recall']:.2f}"),
            ("precision", "-", f"{m['precision']:.2f}"),
        ])
        if class_id == 0:
            # the TC heuristic is the established one — it must work on
            # clear cases but is expected to miss a share (the paper's
            # motivation for learning the patterns instead)
            assert 0.2 < m["recall"] <= 1.0
