"""Video metrics: video cgF1 and phrase-level HOTA.

Each (video, phrase) pair is a datapoint. Video cgF1 is scored by the image
path: the IoU kernel reads a masklet's area as its volume, so predicted and
ground-truth masklets are matched on volume IoU, and presence classification
gives the video-level Matthews correlation coefficient. The HOTA family is
computed class-agnostically after remapping every (video, phrase) pair to its
own synthetic single-class sequence.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import defaultdict
from itertools import chain
from typing import NamedTuple, Sequence

from .errors import UndefinedMetricError
from .image_metrics import DataPoint, MetricReport, _check_media, _report
# mask_iou is unused but stays: perfbench/test_perfbench.py checks the tracer patches it here
from .masks import FrameMaskSeq, RleMask, mask_iou  # noqa: F401
from .matching import DEFAULT_GATE, IouMatrix, gate, iou_matrix, optimal_match, plain_sum

# Localization threshold grid of the HOTA family (integer-derived, no drift).
HOTA_ALPHAS: tuple[float, ...] = tuple((5 + 5 * k) / 100 for k in range(19))

# Kept under this name because the benchmark's tracing targets it.
volume_iou_matrix = iou_matrix


def video_cg_f1(
    dps: Sequence[DataPoint],
    *,
    gate_threshold: float = DEFAULT_GATE,
    mode: str = "macro",
    annotation_index: int = 0,
) -> MetricReport:
    """Video report: cgF1 = 100 x localization F1 x VL_MCC.

    The localization F1 defaults to the macro form over positive pairs; the
    micro variant sits behind ``mode="micro"``.
    """
    return _report(dps, "video", gate_threshold, mode, False, annotation_index)


class RemappedSequence(NamedTuple):
    """One synthetic single-class video holding exactly one (video, phrase) pair."""

    synthetic_id: int
    video_id: str
    phrase: str
    gt_tracks: tuple[FrameMaskSeq, ...]
    pred_tracks: tuple[FrameMaskSeq, ...]


def phota_remap(
    dps: Sequence[DataPoint],
    gate_threshold: float = DEFAULT_GATE,
    annotation_index: int = 0,
) -> tuple[RemappedSequence, ...]:
    """Remap every (video, phrase) pair to its own synthetic video id.

    Masks are carried over bit-exactly; only identities change. Predicted
    masklets are gated before remapping, mirroring the evaluation gate.
    """
    _check_media(dps, "video")
    ordered = sorted(dps, key=lambda dp: (dp.media_id, dp.phrase))  # stable: ties keep input order
    return tuple(
        RemappedSequence(
            synthetic_id=synthetic_id,
            video_id=dp.media_id,
            phrase=dp.phrase,
            gt_tracks=dp.annotation_masks(annotation_index),
            pred_tracks=tuple(d.mask for d in gate(dp.predictions, gate_threshold)),
        )
        for synthetic_id, dp in enumerate(ordered)
    )


class AlphaStats(NamedTuple):
    alpha: float
    tp: int
    fn: int
    fp: int
    det_a: float
    ass_a: float
    hota: float


class HotaResult(NamedTuple):
    hota: float
    det_a: float
    ass_a: float
    per_alpha: tuple[AlphaStats, ...]

    def to_dict(self) -> dict:
        return {
            "pHOTA": self.hota,
            "pDetA": self.det_a,
            "pAssA": self.ass_a,
            "per_alpha": [
                {"alpha": a.alpha, "TP": a.tp, "FN": a.fn, "FP": a.fp,
                 "DetA": a.det_a, "AssA": a.ass_a, "HOTA": a.hota}
                for a in self.per_alpha
            ],
        }


def _detections_by_frame(tracks: Sequence[FrameMaskSeq]) -> tuple[dict, list[int]]:
    """Per frame, the ascending indices and the masks of the tracks with a
    non-empty mask there; per track, the number of such frames."""
    index = defaultdict(lambda: ([], []))
    counts = []
    for idx, track in enumerate(tracks):
        shown = [(t, mask) for t, mask in track.frames.items() if mask.area]
        counts.append(len(shown))
        for t, mask in shown:
            ids, masks = index[t]
            ids.append(idx)
            masks.append(mask)
    return index, counts


def _pairwise_sum(values: Sequence[float]) -> float:
    """``sum()`` of a contiguous float64 array, in numpy's order: numpy's
    reduction adds the pairwise sum of the values to 0.0, which also turns a
    -0.0 total into 0.0."""
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], start: int, n: int) -> float:
    """numpy's pairwise summation of ``values[start:start + n]``: fewer than
    8 values left to right; up to 128 in 8 interleaved accumulators, then the
    tail in order; more split in two at a multiple of 8."""
    if n < 8:
        res = 0.0
        for i in range(start, start + n):
            res += values[i]
        return res
    if n <= 128:
        r = list(values[start:start + 8])
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, start + n):
            res += values[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(values, start, half) + _pairwise(values, start + half, n - half)


def _column_sums(rows: list[list[float]]) -> list[float]:
    """``sum(axis=0)`` of a float64 matrix with at least one row: down the
    rows in order, except a single column, which numpy sums pairwise."""
    if len(rows[0]) == 1:
        return [_pairwise_sum([row[0] for row in rows])]
    return [plain_sum(col) for col in zip(*rows)]


def _sequence_stats(seq: RemappedSequence) -> tuple[list[int], int, int, list[float]]:
    """Per alpha TPs, the ground-truth and predicted detection totals, and per
    alpha the sum over TPs of TPA / (TPA + FNA + FPA). Float sums are taken
    in numpy's order, on which the reported bytes depend."""
    n_alpha = len(HOTA_ALPHAS)
    gt_index, gt_count = _detections_by_frame(seq.gt_tracks)
    pred_index, pred_count = _detections_by_frame(seq.pred_tracks)

    # First pass: similarity-weighted overlap on the frames both sides show,
    # from which the track-level alignment scores are derived.
    potential = [[0.0] * len(pred_count) for _ in gt_count]
    per_frame: list[tuple[list[int], list[int], array]] = []
    for t in sorted(gt_index.keys() & pred_index.keys()):
        (gt_ids, gt_masks), (pred_ids, pred_masks) = gt_index[t], pred_index[t]
        sim = iou_matrix(gt_masks, pred_masks)
        # sim kept row-major in an array of doubles, 8 bytes a cell; a float list, whose
        # misses share one 0.0, traced 1.24 times the memory on seed-1 video-stream
        per_frame.append((gt_ids, pred_ids, array("d", chain.from_iterable(sim))))
        col_sums = _column_sums(sim)
        for i, row in zip(gt_ids, sim):
            acc, rs = potential[i], _pairwise_sum(row)  # numpy's sum(axis=1) of the row
            for j, cs, x in zip(pred_ids, col_sums, row):
                denom = rs + cs - x
                acc[j] += x / denom if denom > 0 else 0.0

    alignment = [
        [p / d if (d := gc + pc - p) > 0 else 0.0 for pc, p in zip(pred_count, row)]
        for gc, row in zip(gt_count, potential)
    ]

    # Second pass: one matching per frame on alignment-weighted similarity. A
    # matched pair with similarity s is a TP at every alpha <= s, the leading
    # ones of the ascending grid.
    matches_count = [[[0] * len(pred_count) for _ in gt_count] for _ in range(n_alpha)]
    for gt_ids, pred_ids, sim in per_frame:
        n = len(pred_ids)
        weighted = IouMatrix(
            [
                [alignment[i][j] * x for j, x in zip(pred_ids, sim[r * n : (r + 1) * n])]
                for r, i in enumerate(gt_ids)
            ],
            n,
        )
        for a, b, _ in optimal_match(weighted).pairs:
            for k in range(bisect_right(HOTA_ALPHAS, sim[a * n + b])):
                matches_count[k][gt_ids[a]][pred_ids[b]] += 1

    ass_sum = [
        _pairwise_sum([
            c * (c / max(1.0, gc + pc - c))
            for gc, row in zip(gt_count, counts)
            for pc, c in zip(pred_count, row)
        ])
        for counts in matches_count
    ]
    tp = [sum(map(sum, counts)) for counts in matches_count]
    return tp, sum(gt_count), sum(pred_count), ass_sum


def hota(sequences: Sequence[RemappedSequence]) -> HotaResult:
    """HOTA with detection and association components over the remapped
    sequences of :func:`phota_remap`.

    Sequences are accumulated by summing counts; the association score is the
    TP-weighted mean of per-pair association accuracies. The headline values
    average the 19-point localization threshold grid.
    """
    n_alpha = len(HOTA_ALPHAS)
    tp = [0] * n_alpha
    ass_sum = [0.0] * n_alpha
    n_gt = n_pred = 0  # detections: (track, frame) pairs with a non-empty mask
    for seq in sequences:
        seq_tp, seq_gt, seq_pred, seq_ass_sum = _sequence_stats(seq)
        tp = [a + b for a, b in zip(tp, seq_tp)]
        n_gt += seq_gt
        n_pred += seq_pred
        ass_sum = [a + b for a, b in zip(ass_sum, seq_ass_sum)]
    if not n_gt and not n_pred:
        raise UndefinedMetricError("HOTA is undefined without any ground truth or prediction")

    per_alpha = []
    for alpha, t, s in zip(HOTA_ALPHAS, tp, ass_sum):
        fn, fp = n_gt - t, n_pred - t
        det_a = t / max(1, t + fn + fp)
        ass_a = s / max(1, t)
        per_alpha.append(
            AlphaStats(
                alpha=alpha, tp=t, fn=fn, fp=fp,
                det_a=det_a, ass_a=ass_a, hota=math.sqrt(det_a * ass_a),
            )
        )
    return HotaResult(
        hota=plain_sum(s.hota for s in per_alpha) / n_alpha,
        det_a=plain_sum(s.det_a for s in per_alpha) / n_alpha,
        ass_a=plain_sum(s.ass_a for s in per_alpha) / n_alpha,
        per_alpha=tuple(per_alpha),
    )
