"""Video metrics: volume-IoU matching, video cgF1 and phrase-level HOTA.

Each (video, phrase) pair is a datapoint. Localization matches predicted
masklets to ground-truth masklets on volume IoU; presence classification uses
the video-level Matthews correlation coefficient. The HOTA family is computed
class-agnostically after remapping every (video, phrase) pair to its own
synthetic single-class sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UndefinedMetricError
from .image_metrics import MetricReport, _fold, score_matrix
from .masks import FrameMaskSeq, RleMask, mask_iou, volume_iou
from .matching import DEFAULT_GATE, Matching, gate, optimal_match

# Localization threshold grid of the HOTA family (integer-derived, no drift).
HOTA_ALPHAS: tuple[float, ...] = tuple((5 + 5 * k) / 100 for k in range(19))


@dataclass(frozen=True)
class ScoredMasklet:
    """A predicted masklet with its scalar confidence."""

    frames: FrameMaskSeq
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"masklet score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class VideoDataPoint:
    """One (video, phrase) record; no ground-truth masklet means a negative."""

    video_id: str
    phrase: str
    gt_masklets: tuple[FrameMaskSeq, ...]
    pred_masklets: tuple[ScoredMasklet, ...] = ()

    def __post_init__(self):
        grids = {(s.height, s.width) for s in self.gt_masklets} | {
            (p.frames.height, p.frames.width) for p in self.pred_masklets
        }
        if len(grids) > 1:
            raise ValueError(
                f"datapoint {self.video_id}/{self.phrase} mixes grids: {sorted(grids)}"
            )

    @property
    def is_positive(self) -> bool:
        return len(self.gt_masklets) > 0


def _volume_iou_or_zero(a: FrameMaskSeq, b: FrameMaskSeq) -> float:
    if a.is_empty and b.is_empty:
        return 0.0
    return volume_iou(a, b)


def volume_iou_matrix(
    preds: Sequence[FrameMaskSeq], gts: Sequence[FrameMaskSeq]
) -> np.ndarray:
    out = np.zeros((len(preds), len(gts)))
    for i, p in enumerate(preds):
        for j, g in enumerate(gts):
            out[i, j] = _volume_iou_or_zero(p, g)
    return out


def gated_masklets(
    preds: Sequence[ScoredMasklet], gate_threshold: float = DEFAULT_GATE
) -> tuple[FrameMaskSeq, ...]:
    return tuple(p.frames for p in gate(preds, gate_threshold))


def match_masklets(vdp: VideoDataPoint, gate_threshold: float = DEFAULT_GATE) -> Matching:
    """Optimal assignment of gated predicted masklets to ground truth on
    volume IoU. Pair indices refer to the gated prediction order."""
    preds = gated_masklets(vdp.pred_masklets, gate_threshold)
    return optimal_match(volume_iou_matrix(preds, vdp.gt_masklets))


def video_cg_f1(
    vdps: Sequence[VideoDataPoint],
    *,
    gate_threshold: float = DEFAULT_GATE,
    mode: str = "macro",
) -> MetricReport:
    """Video report: cgF1 = 100 x localization F1 x VL_MCC.

    The localization F1 defaults to the macro form over positive pairs; the
    micro variant sits behind ``mode="micro"``.
    """
    outcomes = [
        score_matrix(
            volume_iou_matrix(gated_masklets(v.pred_masklets, gate_threshold), v.gt_masklets)
        )
        for v in vdps
    ]
    return _fold(outcomes, mode, "video", "fixed", gate_threshold)


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
    vdps: Sequence[VideoDataPoint], gate_threshold: float = DEFAULT_GATE
) -> RemappedTrackSet:
    """Remap every (video, phrase) pair to its own synthetic video id.

    Masks are carried over bit-exactly; only identities change. Predicted
    masklets are gated before remapping, mirroring the evaluation gate.
    """
    ordered = sorted(range(len(vdps)), key=lambda i: (vdps[i].video_id, vdps[i].phrase, i))
    sequences = []
    for synthetic_id, i in enumerate(ordered):
        vdp = vdps[i]
        sequences.append(
            RemappedSequence(
                synthetic_id=synthetic_id,
                video_id=vdp.video_id,
                phrase=vdp.phrase,
                gt_tracks=vdp.gt_masklets,
                pred_tracks=gated_masklets(vdp.pred_masklets, gate_threshold),
            )
        )
    return RemappedTrackSet(tuple(sequences))


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


@dataclass
class _SequenceStats:
    tp: np.ndarray
    fn: np.ndarray
    fp: np.ndarray
    ass_sum: np.ndarray  # per alpha: sum over TPs of TPA / (TPA + FNA + FPA)


def _frame_detections(tracks: Sequence[FrameMaskSeq], t: int) -> list[tuple[int, RleMask]]:
    dets = []
    for idx, track in enumerate(tracks):
        mask = track.mask_at(t)
        if mask is not None and mask.area > 0:
            dets.append((idx, mask))
    return dets


def _sequence_stats(seq: RemappedSequence) -> _SequenceStats:
    n_alpha = len(HOTA_ALPHAS)
    n_gt, n_pred = len(seq.gt_tracks), len(seq.pred_tracks)
    tp = np.zeros(n_alpha, dtype=np.int64)
    fn = np.zeros(n_alpha, dtype=np.int64)
    fp = np.zeros(n_alpha, dtype=np.int64)
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
        gt_dets = _frame_detections(seq.gt_tracks, t)
        pred_dets = _frame_detections(seq.pred_tracks, t)
        gt_ids = [i for i, _ in gt_dets]
        pred_ids = [j for j, _ in pred_dets]
        sim = np.zeros((len(gt_dets), len(pred_dets)))
        for a, (_, gm) in enumerate(gt_dets):
            for b, (_, pm) in enumerate(pred_dets):
                sim[a, b] = mask_iou(gm, pm)
        per_frame.append((gt_ids, pred_ids, sim))
        for i in gt_ids:
            gt_count[i] += 1
        for j in pred_ids:
            pred_count[j] += 1
        if sim.size:
            denom = sim.sum(axis=1, keepdims=True) + sim.sum(axis=0, keepdims=True) - sim
            weighted = np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 0)
            potential[np.ix_(gt_ids, pred_ids)] += weighted

    alignment = np.zeros((n_gt, n_pred))
    if n_gt and n_pred:
        denom = gt_count[:, None] + pred_count[None, :] - potential
        alignment = np.divide(potential, denom, out=alignment, where=denom > 0)

    # Second pass: one matching per frame on alignment-weighted similarity,
    # thresholded per alpha into TPs and per-pair match counts.
    matches_count = np.zeros((n_alpha, n_gt, n_pred), dtype=np.int64)
    for gt_ids, pred_ids, sim in per_frame:
        if not gt_ids:
            fp += len(pred_ids)
            continue
        if not pred_ids:
            fn += len(gt_ids)
            continue
        score = alignment[np.ix_(gt_ids, pred_ids)] * sim
        match = optimal_match(score)
        matched = [(a, b, sim[a, b]) for a, b, _ in match.pairs]
        for k, alpha in enumerate(HOTA_ALPHAS):
            hits = [(a, b) for a, b, s in matched if s >= alpha]
            tp[k] += len(hits)
            fn[k] += len(gt_ids) - len(hits)
            fp[k] += len(pred_ids) - len(hits)
            for a, b in hits:
                matches_count[k, gt_ids[a], pred_ids[b]] += 1

    for k in range(n_alpha):
        cnt = matches_count[k]
        denom = np.maximum(1.0, gt_count[:, None] + pred_count[None, :] - cnt)
        ass_sum[k] = float(np.sum(cnt * (cnt / denom)))
    return _SequenceStats(tp=tp, fn=fn, fp=fp, ass_sum=ass_sum)


def hota(track_set: RemappedTrackSet) -> HotaResult:
    """HOTA with detection and association components over a remapped set.

    Sequences are accumulated by summing counts; the association score is the
    TP-weighted mean of per-pair association accuracies. The headline values
    average the 19-point localization threshold grid.
    """
    has_content = any(
        tr.volume > 0
        for s in track_set.sequences
        for tr in (*s.gt_tracks, *s.pred_tracks)
    )
    if not has_content:
        raise UndefinedMetricError("HOTA is undefined without any ground truth or prediction")

    n_alpha = len(HOTA_ALPHAS)
    tp = np.zeros(n_alpha, dtype=np.int64)
    fn = np.zeros(n_alpha, dtype=np.int64)
    fp = np.zeros(n_alpha, dtype=np.int64)
    ass_sum = np.zeros(n_alpha)
    for seq in track_set.sequences:
        stats = _sequence_stats(seq)
        tp += stats.tp
        fn += stats.fn
        fp += stats.fp
        ass_sum += stats.ass_sum

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
        hota=float(sum(s.hota for s in per_alpha) / n_alpha),
        det_a=float(sum(s.det_a for s in per_alpha) / n_alpha),
        ass_a=float(sum(s.ass_a for s in per_alpha) / n_alpha),
        per_alpha=tuple(per_alpha),
    )
