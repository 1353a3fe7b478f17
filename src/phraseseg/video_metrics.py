"""Video metrics: masklet matching, video cgF1 and phrase-level HOTA.

Each (video, phrase) pair is a datapoint. Video cgF1 is scored by the image
path: the IoU kernel reads a masklet's area as its volume, so predicted and
ground-truth masklets are matched on volume IoU, and presence classification
gives the video-level Matthews correlation coefficient. The HOTA family is
computed class-agnostically after remapping every (video, phrase) pair to its
own synthetic single-class sequence.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UndefinedMetricError
from .image_metrics import DataPoint, MetricReport, _report
from .masks import FrameMaskSeq, RleMask, mask_iou
from .matching import DEFAULT_GATE, Matching, gate, iou_matrix, optimal_match, plain_sum

# Localization threshold grid of the HOTA family (integer-derived, no drift).
HOTA_ALPHAS: tuple[float, ...] = tuple((5 + 5 * k) / 100 for k in range(19))

# Kept under this name because the benchmark's tracing targets it.
volume_iou_matrix = iou_matrix


def match_masklets(dp: DataPoint, gate_threshold: float = DEFAULT_GATE) -> Matching:
    """Optimal assignment of gated predicted masklets to the ground truth of
    annotation 0 on volume IoU. Pair indices refer to the gated prediction order."""
    preds = [d.mask for d in gate(dp.predictions, gate_threshold)]
    return optimal_match(iou_matrix(preds, dp.annotation_masks(0)))


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


@dataclass(frozen=True)
class RemappedSequence:
    """One synthetic single-class video holding exactly one (video, phrase) pair."""

    synthetic_id: int
    video_id: str
    phrase: str
    gt_tracks: tuple[FrameMaskSeq, ...]
    pred_tracks: tuple[FrameMaskSeq, ...]


@dataclass(frozen=True)
class RemappedTrackSet:
    sequences: tuple[RemappedSequence, ...]

    def __len__(self):
        return len(self.sequences)


def phota_remap(
    dps: Sequence[DataPoint],
    gate_threshold: float = DEFAULT_GATE,
    annotation_index: int = 0,
) -> RemappedTrackSet:
    """Remap every (video, phrase) pair to its own synthetic video id.

    Masks are carried over bit-exactly; only identities change. Predicted
    masklets are gated before remapping, mirroring the evaluation gate.
    """
    ordered = sorted(dps, key=lambda dp: (dp.media_id, dp.phrase))  # stable: ties keep input order
    return RemappedTrackSet(tuple(
        RemappedSequence(
            synthetic_id=synthetic_id,
            video_id=dp.media_id,
            phrase=dp.phrase,
            gt_tracks=dp.annotation_masks(annotation_index),
            pred_tracks=tuple(d.mask for d in gate(dp.predictions, gate_threshold)),
        )
        for synthetic_id, dp in enumerate(ordered)
    ))


@dataclass(frozen=True)
class AlphaStats:
    alpha: float
    tp: int
    fn: int
    fp: int
    det_a: float
    ass_a: float
    hota: float


@dataclass(frozen=True)
class HotaResult:
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


def _frame_detections(tracks: Sequence[FrameMaskSeq], t: int) -> tuple[list[int], list[RleMask]]:
    """The indices and masks of the tracks with a non-empty mask on frame ``t``."""
    ids, masks = [], []
    for idx, track in enumerate(tracks):
        mask = track.frames.get(t)
        if mask is not None and mask.area > 0:
            ids.append(idx)
            masks.append(mask)
    return ids, masks


def _sequence_stats(seq: RemappedSequence) -> tuple[np.ndarray, int, int, np.ndarray]:
    """Per alpha TPs, the ground-truth and predicted detection totals, and per
    alpha the sum over TPs of TPA / (TPA + FNA + FPA)."""
    n_alpha = len(HOTA_ALPHAS)
    n_gt, n_pred = len(seq.gt_tracks), len(seq.pred_tracks)
    ass_sum = np.zeros(n_alpha)
    frames = sorted(
        {t for tr in seq.gt_tracks for t in tr.frames}
        | {t for tr in seq.pred_tracks for t in tr.frames}
    )

    # First pass: per-track detection counts and similarity-weighted overlap,
    # from which the track-level alignment scores are derived.
    gt_count = np.zeros(n_gt)
    pred_count = np.zeros(n_pred)
    potential = np.zeros((n_gt, n_pred))
    per_frame: list[tuple[list[int], list[int], np.ndarray]] = []
    for t in frames:
        gt_ids, gt_masks = _frame_detections(seq.gt_tracks, t)
        pred_ids, pred_masks = _frame_detections(seq.pred_tracks, t)
        sim = np.zeros((len(gt_masks), len(pred_masks)))
        for a, gm in enumerate(gt_masks):
            for b, pm in enumerate(pred_masks):
                sim[a, b] = mask_iou(gm, pm)
        for i in gt_ids:
            gt_count[i] += 1
        for j in pred_ids:
            pred_count[j] += 1
        if sim.size:
            per_frame.append((gt_ids, pred_ids, sim))
            denom = sim.sum(axis=1, keepdims=True) + sim.sum(axis=0, keepdims=True) - sim
            weighted = np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 0)
            potential[np.ix_(gt_ids, pred_ids)] += weighted

    alignment = np.zeros((n_gt, n_pred))
    if n_gt and n_pred:
        denom = gt_count[:, None] + pred_count[None, :] - potential
        alignment = np.divide(potential, denom, out=alignment, where=denom > 0)

    # Second pass: one matching per frame on alignment-weighted similarity. A
    # matched pair with similarity s is a TP at every alpha <= s, the leading
    # ones of the ascending grid.
    matches_count = np.zeros((n_alpha, n_gt, n_pred), dtype=np.int64)
    for gt_ids, pred_ids, sim in per_frame:
        match = optimal_match(alignment[np.ix_(gt_ids, pred_ids)] * sim)
        for a, b, _ in match.pairs:
            matches_count[: bisect_right(HOTA_ALPHAS, sim[a, b]), gt_ids[a], pred_ids[b]] += 1

    for k in range(n_alpha):
        cnt = matches_count[k]
        denom = np.maximum(1.0, gt_count[:, None] + pred_count[None, :] - cnt)
        ass_sum[k] = float(np.sum(cnt * (cnt / denom)))
    return matches_count.sum(axis=(1, 2)), int(gt_count.sum()), int(pred_count.sum()), ass_sum


def hota(track_set: RemappedTrackSet) -> HotaResult:
    """HOTA with detection and association components over a remapped set.

    Sequences are accumulated by summing counts; the association score is the
    TP-weighted mean of per-pair association accuracies. The headline values
    average the 19-point localization threshold grid.
    """
    if not any(tr.area for s in track_set.sequences for tr in (*s.gt_tracks, *s.pred_tracks)):
        raise UndefinedMetricError("HOTA is undefined without any ground truth or prediction")

    n_alpha = len(HOTA_ALPHAS)
    tp = np.zeros(n_alpha, dtype=np.int64)
    ass_sum = np.zeros(n_alpha)
    n_gt = n_pred = 0  # detections: (track, frame) pairs with a non-empty mask
    for seq in track_set.sequences:
        seq_tp, seq_gt, seq_pred, seq_ass_sum = _sequence_stats(seq)
        tp += seq_tp
        n_gt += seq_gt
        n_pred += seq_pred
        ass_sum += seq_ass_sum
    fn, fp = n_gt - tp, n_pred - tp

    per_alpha = []
    for k, alpha in enumerate(HOTA_ALPHAS):
        det_a = tp[k] / max(1, tp[k] + fn[k] + fp[k])
        ass_a = ass_sum[k] / max(1, tp[k])
        per_alpha.append(
            AlphaStats(
                alpha=alpha,
                tp=int(tp[k]),
                fn=int(fn[k]),
                fp=int(fp[k]),
                det_a=float(det_a),
                ass_a=float(ass_a),
                hota=float(math.sqrt(det_a * ass_a)),
            )
        )
    return HotaResult(
        hota=plain_sum(s.hota for s in per_alpha) / n_alpha,
        det_a=plain_sum(s.det_a for s in per_alpha) / n_alpha,
        ass_a=plain_sum(s.ass_a for s in per_alpha) / n_alpha,
        per_alpha=tuple(per_alpha),
    )
