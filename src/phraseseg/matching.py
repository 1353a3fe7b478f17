"""Optimal prediction/ground-truth assignment, TP/FP/FN counting, IoM NMS."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .masks import FrameMaskSeq, RleMask, mask_iom, mask_iou


@dataclass(frozen=True)
class Detection:
    """One scored proposal: a mask on an image, a masklet on a video."""

    mask: RleMask | FrameMaskSeq
    score: float
    group: bool = False

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"detection score must be in [0, 1], got {self.score}")


DEFAULT_GATE = 0.5


def gate(items: Sequence[Detection], threshold: float = DEFAULT_GATE) -> tuple[Detection, ...]:
    """Keep the detections whose confidence is strictly greater than the gate."""
    return tuple(d for d in items if d.score > threshold)


@dataclass(frozen=True)
class Matching:
    """Injective partial assignment of prediction rows to ground-truth columns.

    ``pairs`` holds ``(pred_index, gt_index, iou)`` in ascending prediction
    order; zero-IoU pairs are never part of a matching.
    """

    pairs: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        preds = [p for p, _, _ in self.pairs]
        gts = [g for _, g, _ in self.pairs]
        if preds != sorted(set(preds)) or len(gts) != len(set(gts)):
            raise ValueError("matching must be injective with ascending prediction order")
        if any(not 0.0 < iou <= 1.0 for _, _, iou in self.pairs):
            raise ValueError("matched pairs must have IoU in (0, 1]")

    def total(self) -> float:
        return float(sum(iou for _, _, iou in self.pairs))

    def gt_for(self) -> dict[int, int]:
        return {p: g for p, g, _ in self.pairs}


@dataclass(frozen=True)
class Counts:
    """TP/FP/FN at one IoU threshold."""

    tp: int
    fp: int
    fn: int
    tau: float


def iou_matrix(
    pred_masks: Sequence[RleMask | FrameMaskSeq], gt_masks: Sequence[RleMask | FrameMaskSeq]
) -> np.ndarray:
    """Pairwise IoU (volume IoU for masklets), rows = predictions, columns = ground truths."""
    out = np.zeros((len(pred_masks), len(gt_masks)))
    for i, p in enumerate(pred_masks):
        for j, g in enumerate(gt_masks):
            out[i, j] = mask_iou(p, g)
    return out


def _validate_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("IoU matrix must be 2-D")
    if m.size and (not np.all(np.isfinite(m)) or m.min() < 0.0 or m.max() > 1.0):
        raise ValueError("IoU matrix entries must be finite values in [0, 1]")
    return m


def _canonical_total(m: np.ndarray, pairs) -> float:
    # Sum in ascending row order, so equal pair sets give identical floats.
    return float(sum(m[i, j] for i, j in sorted(pairs)))


def _completion(m: np.ndarray, prefix, next_row) -> tuple[list[tuple[int, int]], float]:
    # ``prefix`` plus one optimal assignment of rows ``next_row..`` to the
    # columns ``prefix`` leaves free (zero pairs dropped), with its total.
    used = {j for _, j in prefix}
    rows = list(range(next_row, m.shape[0]))
    cols = [j for j in range(m.shape[1]) if j not in used]
    pairs = list(prefix)
    if rows and cols:
        sub = m[np.ix_(rows, cols)]
        rr, cc = linear_sum_assignment(sub, maximize=True)
        pairs.extend(
            (rows[r], cols[c]) for r, c in zip(rr, cc) if sub[r, c] > 0.0
        )
    return pairs, _canonical_total(m, pairs)


def optimal_match(matrix) -> Matching:
    """Max-total-IoU injective assignment of predictions to ground truths.

    Zero-IoU pairs are left unmatched. Totals are summed in prediction
    order, and an assignment is optimal when its total reaches the total of
    the solver's own optimum, so optima that differ only by float rounding
    (IoUs in tenths, say) may or may not tie. Among optimal assignments the
    lexicographically smallest one (scanning predictions in order, lower
    ground-truth index first, unmatched last) is returned, which makes the
    result deterministic under ties.
    """
    m = _validate_matrix(matrix)
    if m.size == 0:
        return Matching(())

    # Invariant: ``best`` is optimal and lexicographically smallest on the
    # rows already visited. Row i keeps its column unless a lower free
    # column, fixed with an optimal completion of the later rows, is
    # optimal too.
    best, target = _completion(m, [], 0)
    for i in range(m.shape[0]):
        prefix = [(r, c) for r, c in best if r < i]
        used = {c for _, c in prefix}
        kept = dict(best).get(i, m.shape[1])
        for j in range(kept):
            if j not in used and m[i, j] > 0.0:
                pairs, total = _completion(m, prefix + [(i, j)], i + 1)
                if total >= target:
                    best = pairs
                    break

    return Matching(tuple((i, j, float(m[i, j])) for i, j in best))


def counts_at_threshold(match: Matching, n_pred: int, n_gt: int, tau: float) -> Counts:
    """Threshold a matching into counts: a matched pair with IoU >= tau is a TP,
    every other prediction an FP, every ground truth outside a TP pair an FN."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {tau}")
    tp = sum(1 for _, _, iou in match.pairs if iou >= tau)
    return Counts(tp=tp, fp=n_pred - tp, fn=n_gt - tp, tau=tau)


def _safe_iom(a: RleMask, b: RleMask) -> float:
    if a.area == 0 or b.area == 0:
        return 0.0
    return mask_iom(a, b)


def iom_nms(detections: Sequence[Detection], iom_threshold: float = 0.5) -> list[Detection]:
    """Greedy NMS on intersection-over-minimum.

    Detections are visited by descending score (ties: lower original index
    first); one is suppressed iff its IoM with any already-kept detection
    reaches the threshold. The returned list preserves the kept order.
    """
    if detections:
        grid = (detections[0].mask.height, detections[0].mask.width)
        for d in detections:
            if (d.mask.height, d.mask.width) != grid:
                raise ValueError("detections must share one grid")
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    kept: list[Detection] = []
    for i in order:
        det = detections[i]
        if all(_safe_iom(det.mask, k.mask) < iom_threshold for k in kept):
            kept.append(det)
    return kept
