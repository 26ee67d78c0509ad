"""Bounding boxes: representation, grid encoding/decoding, IoU, NMS, metrics.

The climate head predicts, at every cell of the coarse feature grid,
"4 scores (confidence, class, x and y position of bottom left corner of box,
and height and width of box)" (paper SIII-B). We use the YOLO-style
convention: the cell containing the box *center* is responsible for the box;
that cell regresses the bottom-left corner offset (in stride units, relative
to the cell origin) and log-scale width/height.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.utils.checks import require_count, require_real


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: bottom-left corner (x, y) + size, in image pixels.

    ``y`` increases upward to match the geophysical convention of the climate
    fields (latitude), i.e. "bottom left" is the minimum-x, minimum-y corner.
    """

    x: float
    y: float
    w: float
    h: float
    class_id: int = 0

    def __post_init__(self) -> None:
        require_real("x", self.x, "(-inf, inf)")
        require_real("y", self.y, "(-inf, inf)")
        require_real("w", self.w, "(0, inf)")
        require_real("h", self.h, "(0, inf)")
        require_count("class_id", self.class_id, least=0)

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_xyxy(self) -> Tuple[float, float, float, float]:
        return (self.x, self.y, self.x + self.w, self.y + self.h)


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes."""
    ax0, ay0, ax1, ay1 = a.as_xyxy()
    bx0, by0, bx1, by1 = b.as_xyxy()
    ix = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    iy = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def nms(boxes: Sequence[Box], scores: Sequence[float],
        iou_threshold: float = 0.4) -> List[int]:
    """Greedy non-maximum suppression; returns kept indices, best first."""
    if len(boxes) != len(scores):
        raise ValueError("boxes and scores must have the same length")
    require_real("iou_threshold", iou_threshold, "[0, 1]")
    order = sorted(range(len(boxes)), key=lambda i: -scores[i])
    kept: List[int] = []
    for i in order:
        if all(iou(boxes[i], boxes[j]) <= iou_threshold for j in kept):
            kept.append(i)
    return kept


def encode_targets(boxes_per_image: Sequence[Sequence[Box]],
                   grid_hw: Tuple[int, int], stride: int,
                   n_classes: int) -> Dict[str, np.ndarray]:
    """Rasterize ground-truth boxes onto the prediction grid.

    Returns a dict with:
      - ``conf``   (N, 1, gh, gw): 1.0 at responsible cells;
      - ``cls``    (N, gh, gw):   integer class id (0 where empty);
      - ``box``    (N, 4, gh, gw): (tx, ty, tw, th) regression targets;
      - ``mask``   (N, 1, gh, gw): 1.0 at responsible cells (for masking);
      - ``ignore`` (N, 1, gh, gw): 1.0 at cells adjacent to a positive —
        their features overlap the object's, so the confidence loss skips
        them instead of forcing them to zero.
    """
    gh, gw = (require_count("grid_hw", d) for d in grid_hw)
    require_real("stride", stride, "(0, inf)")
    n = len(boxes_per_image)
    conf = np.zeros((n, 1, gh, gw), dtype=np.float32)
    cls = np.zeros((n, gh, gw), dtype=np.int64)
    box = np.zeros((n, 4, gh, gw), dtype=np.float32)
    mask = np.zeros((n, 1, gh, gw), dtype=np.float32)
    ignore = np.zeros((n, 1, gh, gw), dtype=np.float32)
    for i, boxes in enumerate(boxes_per_image):
        for b in boxes:
            if require_count("class_id", b.class_id, least=0) >= n_classes:
                raise ValueError(
                    f"class_id {b.class_id} out of range [0, {n_classes})")
            gx = int(b.cx // stride)
            gy = int(b.cy // stride)
            if not (0 <= gx < gw and 0 <= gy < gh):
                continue  # box center outside the image -> not trainable
            conf[i, 0, gy, gx] = 1.0
            mask[i, 0, gy, gx] = 1.0
            cls[i, gy, gx] = b.class_id
            box[i, 0, gy, gx] = (b.x - gx * stride) / stride
            box[i, 1, gy, gx] = (b.y - gy * stride) / stride
            box[i, 2, gy, gx] = np.log(b.w / stride)
            box[i, 3, gy, gx] = np.log(b.h / stride)
            ignore[i, 0, max(0, gy - 1):gy + 2,
                   max(0, gx - 1):gx + 2] = 1.0
    # positives are never ignored
    ignore = np.clip(ignore - mask, 0.0, 1.0)
    return {"conf": conf, "cls": cls, "box": box, "mask": mask,
            "ignore": ignore}


def decode_predictions(conf_prob: np.ndarray, class_prob: np.ndarray,
                       box_pred: np.ndarray, stride: int,
                       conf_threshold: float = 0.8,
                       apply_nms: bool = True,
                       iou_threshold: float = 0.4
                       ) -> List[List[Tuple[float, Box]]]:
    """Turn head outputs into per-image ``(score, Box)`` lists.

    ``conf_prob`` (N,1,gh,gw) are confidences in [0,1]; ``class_prob``
    (N,K,gh,gw) per-class probabilities; ``box_pred`` (N,4,gh,gw) raw
    regression outputs. The paper keeps boxes with confidence > 0.8 at
    inference (SIII-B).
    """
    require_real("conf_threshold", conf_threshold, "[0, 1]")
    n, _, gh, gw = conf_prob.shape
    results: List[List[Tuple[float, Box]]] = []
    for i in range(n):
        cand_boxes: List[Box] = []
        cand_scores: List[float] = []
        ys, xs = np.where(conf_prob[i, 0] > conf_threshold)
        for gy, gx in zip(ys, xs):
            tx, ty, tw, th = box_pred[i, :, gy, gx]
            w = float(np.exp(np.clip(tw, -10, 10)) * stride)
            h = float(np.exp(np.clip(th, -10, 10)) * stride)
            x = float(gx * stride + tx * stride)
            y = float(gy * stride + ty * stride)
            k = int(class_prob[i, :, gy, gx].argmax())
            try:
                b = Box(x, y, w, h, class_id=k)
            except ValueError:
                continue  # degenerate decoded size
            cand_boxes.append(b)
            cand_scores.append(float(conf_prob[i, 0, gy, gx]))
        if apply_nms and cand_boxes:
            keep = nms(cand_boxes, cand_scores, iou_threshold)
            results.append([(cand_scores[j], cand_boxes[j]) for j in keep])
        else:
            order = sorted(range(len(cand_boxes)),
                           key=lambda j: -cand_scores[j])
            results.append([(cand_scores[j], cand_boxes[j]) for j in order])
    return results


def detection_metrics(predictions: List[List[Tuple[float, Box]]],
                      ground_truth: Sequence[Sequence[Box]],
                      iou_threshold: float = 0.5,
                      require_class: bool = True) -> Dict[str, float]:
    """Greedy-matched precision / recall / mean-IoU over a dataset.

    A prediction matches an unmatched ground-truth box when their IoU exceeds
    ``iou_threshold`` (and classes agree if ``require_class``).
    """
    if len(predictions) != len(ground_truth):
        raise ValueError("predictions and ground_truth length mismatch")
    require_real("iou_threshold", iou_threshold, "[0, 1]")
    tp = fp = 0
    total_gt = 0
    matched_ious: List[float] = []
    for preds, gts in zip(predictions, ground_truth):
        total_gt += len(gts)
        unmatched = list(range(len(gts)))
        for _score, pbox in preds:  # preds are sorted best-first
            best_j, best_iou = -1, iou_threshold
            for j in unmatched:
                if require_class and gts[j].class_id != pbox.class_id:
                    continue
                val = iou(pbox, gts[j])
                if val >= best_iou:
                    best_j, best_iou = j, val
            if best_j >= 0:
                tp += 1
                matched_ious.append(best_iou)
                unmatched.remove(best_j)
            else:
                fp += 1
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / total_gt if total_gt else 0.0
    mean_iou = float(np.mean(matched_ious)) if matched_ious else 0.0
    return {"precision": precision, "recall": recall, "mean_iou": mean_iou,
            "tp": float(tp), "fp": float(fp), "n_gt": float(total_gt)}


def detection_average_precision(
        predictions: List[List[Tuple[float, Box]]],
        ground_truth: Sequence[Sequence[Box]],
        iou_threshold: float = 0.5,
        require_class: bool = True) -> float:
    """VOC-style average precision over the whole dataset.

    The paper (SVII-B) notes it is "working on generating additional
    metrics for assessing the accuracy of bounding boxes"; AP is the
    community-standard one. All predictions are pooled and ranked by
    confidence; each is a TP if it matches a still-unmatched ground-truth
    box at ``iou_threshold``; AP is the area under the interpolated
    precision-recall curve.
    """
    if len(predictions) != len(ground_truth):
        raise ValueError("predictions and ground_truth length mismatch")
    total_gt = sum(len(g) for g in ground_truth)
    if total_gt == 0:
        return 0.0
    # Pool (confidence, image index, box), rank by confidence.
    pooled = [(score, i, box)
              for i, preds in enumerate(predictions)
              for score, box in preds]
    pooled.sort(key=lambda t: -t[0])
    matched: List[set] = [set() for _ in ground_truth]
    tps = np.zeros(len(pooled))
    for k, (_score, i, pbox) in enumerate(pooled):
        gts = ground_truth[i]
        best_j, best_iou = -1, iou_threshold
        for j, gt in enumerate(gts):
            if j in matched[i]:
                continue
            if require_class and gt.class_id != pbox.class_id:
                continue
            val = iou(pbox, gt)
            if val >= best_iou:
                best_j, best_iou = j, val
        if best_j >= 0:
            matched[i].add(best_j)
            tps[k] = 1.0
    if not pooled:
        return 0.0
    cum_tp = np.cumsum(tps)
    precision = cum_tp / np.arange(1, len(pooled) + 1)
    recall = cum_tp / total_gt
    # Interpolated AP: precision envelope integrated over recall.
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for p, r in zip(env, recall):
        ap += p * (r - prev_r)
        prev_r = r
    return float(ap)
