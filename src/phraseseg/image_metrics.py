"""Image metrics for phrase-prompted instance segmentation.

Localization is scored on positive (media, phrase) datapoints through an
optimal IoU matching, micro- or macro-averaged over the threshold grid
0.50..0.95; presence classification is scored with the Matthews correlation
coefficient over image-level confusion counts; the headline number is their
product scaled to 0..100.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from itertools import chain, groupby
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import UndefinedMetricError
from .masks import FrameMaskSeq, RleMask
from .matching import DEFAULT_GATE, Detection, IouMatrix, gate, iou_matrix, optimal_match, plain_sum

# Generated with integer arithmetic so the grid carries no accumulated float drift.
IOU_THRESHOLDS: tuple[float, ...] = tuple((50 + 5 * k) / 100 for k in range(10))


class GtInstance(NamedTuple):
    """One ground-truth instance: a mask on an image, a masklet on a video.
    ``group`` marks a multi-instance mask.

    Group masks are carried through the pipeline but matched like ordinary
    instances.
    """

    mask: RleMask | FrameMaskSeq
    group: bool = False


class DataPoint(namedtuple("DataPoint", "media_id phrase annotations predictions")):
    """One (media, phrase) record, image or video: per-annotator ground truth
    plus predictions.

    An annotation with zero instances means the phrase is absent (a negative).
    """

    __slots__ = ()

    def __new__(cls, media_id: str, phrase: str,
                annotations: tuple[tuple[GtInstance, ...], ...],
                predictions: tuple[Detection, ...] = ()):
        if not annotations:
            raise ValueError(f"datapoint {media_id}/{phrase} has no annotation")
        masks = [x.mask for x in chain(*annotations, predictions)]
        if len({type(m) for m in masks}) > 1:
            raise ValueError(f"datapoint {media_id}/{phrase} mixes image masks and masklets")
        grids = {(m.height, m.width) for m in masks}
        if len(grids) > 1:
            raise ValueError(f"datapoint {media_id}/{phrase} mixes grids: {sorted(grids)}")
        return tuple.__new__(cls, (media_id, phrase, annotations, predictions))

    def annotation_masks(self, index: int) -> tuple[RleMask | FrameMaskSeq, ...]:
        return tuple(inst.mask for inst in self.annotations[index])

    def is_positive(self, index: int = 0) -> bool:
        return len(self.annotations[index]) > 0


class ILCounts(NamedTuple):
    """Image-level presence confusion counts."""

    il_tp: int
    il_tn: int
    il_fp: int
    il_fn: int

    @property
    def total(self) -> int:
        return self.il_tp + self.il_tn + self.il_fp + self.il_fn


class ThresholdStat(NamedTuple):
    """Accumulated localization counts and F1 values at one IoU threshold."""

    tau: float
    tp: float
    fp: float
    fn: float
    micro_f1: float
    macro_f1: float


class MetricReport(NamedTuple):
    """Full metric readout for one evaluation run."""

    cg_f1: float
    localization_f1: float  # the F1 entering the product (micro or macro per mode)
    micro_f1: float
    macro_f1: float
    mcc: float
    il: ILCounts
    per_threshold: tuple[ThresholdStat, ...]
    n_datapoints: int
    n_positive: int
    n_negative: int
    level: str = "image"  # "image" or "video"
    mode: str = "micro"  # which F1 gates the product
    protocol: str = "fixed"  # fixed | oracle | random-pair
    gate: float = DEFAULT_GATE

    def to_dict(self) -> dict:
        mcc_key = "IL_MCC" if self.level == "image" else "VL_MCC"
        return {
            "level": self.level,
            "mode": self.mode,
            "protocol": self.protocol,
            "gate": self.gate,
            "metrics": {
                "cgF1": self.cg_f1,
                "pmF1": self.micro_f1,
                "macro_pF1": self.macro_f1,
                mcc_key: self.mcc,
            },
            "presence_counts": {
                "TP": self.il.il_tp,
                "TN": self.il.il_tn,
                "FP": self.il.il_fp,
                "FN": self.il.il_fn,
            },
            "per_threshold": [
                {
                    "tau": t.tau,
                    "TP": t.tp,
                    "FP": t.fp,
                    "FN": t.fn,
                    "micro_F1": t.micro_f1,
                    "macro_F1": t.macro_f1,
                }
                for t in self.per_threshold
            ],
            "datapoints": {
                "total": self.n_datapoints,
                "positive": self.n_positive,
                "negative": self.n_negative,
            },
        }


def combine_scores(presence: float, query_score: float) -> float:
    """Total confidence of one proposal: presence score times its own score.

    Setting presence to 1 recovers the raw query score (counting mode).
    """
    if not 0.0 <= presence <= 1.0 or not 0.0 <= query_score <= 1.0:
        raise ValueError("scores must be in [0, 1]")
    return presence * query_score


def _f1(tp: int, size: int) -> float:
    """F1 from a TP count and ``size`` = predictions + ground truths, which
    equals 2TP + FP + FN at every threshold; 1.0 when both sides are empty."""
    return 2 * tp / size if size > 0 else 1.0


class AnnotationEval(NamedTuple):
    """Outcome of one datapoint scored against one annotation: its sizes and
    the TP count per threshold. FP = n_pred - TP and FN = n_gt - TP."""

    n_pred: int
    n_gt: int
    tp: tuple[int, ...]

    @property
    def positive(self) -> bool:
        return self.n_gt > 0

    @property
    def predicted(self) -> bool:
        return self.n_pred > 0

    @property
    def f1(self) -> list[float]:
        return [_f1(tp, self.n_pred + self.n_gt) for tp in self.tp]

    @property
    def mean_f1(self) -> float:
        return plain_sum(self.f1) / len(self.tp)

    @property
    def fn_fp_total(self) -> int:
        return sum(self.n_pred + self.n_gt - 2 * tp for tp in self.tp)


def evaluate_annotation(
    gated_preds: Sequence[Detection],
    gt_masks: Sequence[RleMask | FrameMaskSeq],
    thresholds: Sequence[float] = IOU_THRESHOLDS,
) -> AnnotationEval:
    """Match gated predictions against one annotation on IoU (volume IoU for
    masklets): one optimal matching on the raw values, re-thresholded per tau:
    a matched pair with IoU >= tau is a TP."""
    return _evaluate_matrix(iou_matrix([d.mask for d in gated_preds], list(gt_masks)), thresholds)


def _evaluate_matrix(
    matrix: IouMatrix, thresholds: Sequence[float] = IOU_THRESHOLDS
) -> AnnotationEval:
    """:func:`evaluate_annotation` on its IoU matrix, rows = predictions."""
    ious = sorted(iou for _, _, iou in optimal_match(matrix).pairs)
    n_pred, n_gt = len(matrix), matrix.n_cols
    tp = tuple(len(ious) - bisect_left(ious, tau) for tau in thresholds)
    return AnnotationEval(n_pred, n_gt, tp)


def local_f1(dp: DataPoint, annotation_index: int, tau: float, gate_threshold: float = DEFAULT_GATE) -> float:
    """Local F1 of one positive datapoint at one IoU threshold."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {tau}")
    if not dp.is_positive(annotation_index):
        raise ValueError("local F1 is only defined for positive annotations")
    ev = evaluate_annotation(
        gate(dp.predictions, gate_threshold), dp.annotation_masks(annotation_index), (tau,)
    )
    return ev.f1[0]


def _best(evals: Sequence[AnnotationEval]) -> int:
    """Index of the best-agreeing evaluation: highest threshold-averaged F1,
    then the smaller FN+FP total, then the lowest index."""
    return max(range(len(evals)), key=lambda k: (evals[k].mean_f1, -evals[k].fn_fp_total))


def _annotation_evals(dp: DataPoint, gated: Sequence[Detection]) -> list[AnnotationEval]:
    return [evaluate_annotation(gated, dp.annotation_masks(k)) for k in range(len(dp.annotations))]


def oracle_select(dp: DataPoint, gate_threshold: float = DEFAULT_GATE) -> int:
    """Pick the annotation the predictions agree with best.

    Maximizes threshold-averaged local F1 (an empty annotation with empty
    gated predictions scores 1.0), breaking ties by the smaller FN+FP total
    and then by the lowest annotation index.
    """
    return _best(_annotation_evals(dp, gate(dp.predictions, gate_threshold)))


def _score_datapoint(
    dp: DataPoint, gate_threshold: float, oracle: bool, annotation_index: int
) -> AnnotationEval:
    gated = gate(dp.predictions, gate_threshold)
    if not oracle:
        return evaluate_annotation(gated, dp.annotation_masks(annotation_index))
    evals = _annotation_evals(dp, gated)
    return evals[_best(evals)]


def _presence(outcomes: Iterable[AnnotationEval]) -> list[int]:
    """Presence confusion counts [TP, TN, FP, FN], in ILCounts order: an
    outcome is positive when its annotation has instances and predicted when
    a prediction passed the gate."""
    il = [0, 0, 0, 0]
    for o in outcomes:
        # agreeing cells TP, TN come first, each cell pair predicted first
        il[2 * (o.positive != o.predicted) + (not o.predicted)] += 1
    return il


def _fold(
    evals: Sequence[AnnotationEval],
    mode: str,
    level: str,
    protocol: str,
    gate_threshold: float,
    picks: Optional[Sequence[Sequence[int]]] = None,
) -> MetricReport:
    """One report from per-datapoint outcomes. Row ``r`` of ``picks`` holds,
    per datapoint, the index into ``evals`` of its outcome in trial ``r``
    (default: one trial of ``evals`` in order). Every field is the median over
    trials, so a single trial gives its own report; random-pair reports keep
    float localization counts, as medians of several trials may be fractional."""
    if mode not in ("micro", "macro"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    n_taus = len(IOU_THRESHOLDS)
    if picks is None:
        picks = [range(len(evals))]
    # per outcome: TP per threshold, then n_pred and n_gt
    counts = [(*ev.tp, ev.n_pred, ev.n_gt) for ev in evals]
    f1 = [ev.f1 for ev in evals]
    trials = []
    for row in picks:
        positives = [e for e in row if evals[e].positive]
        if not positives:
            raise UndefinedMetricError("localization F1 needs at least one positive datapoint")
        *tp, n_pred, n_gt = map(sum, zip(*(counts[e] for e in positives)))
        micro_per_tau = [_f1(t, n_pred + n_gt) for t in tp]
        # fsum is exactly rounded, so folds are independent of datapoint order
        macro_per_tau = [
            math.fsum(col) / len(positives) for col in zip(*(f1[e] for e in positives))
        ]
        micro_f1 = math.fsum(micro_per_tau) / n_taus
        macro_f1 = math.fsum(macro_per_tau) / n_taus
        loc = micro_f1 if mode == "micro" else macro_f1
        il = _presence(evals[e] for e in row)
        mcc = _mcc(*il)
        trials.append((
            100.0 * loc * mcc, loc, micro_f1, macro_f1, mcc, il,
            len(positives), len(row) - len(positives),
            tp, [n_pred - t for t in tp], [n_gt - t for t in tp], micro_per_tau, macro_per_tau,
        ))

    def med(values):
        # One trial is its own median; of a list, the median of each column.
        # Adding the median to 0.0 repeats numpy's median, which averages the
        # middle values from 0.0, so that a zero median is never -0.0.
        if len(values) == 1:
            return values[0]
        import statistics  # loads decimal, fractions and random: ~0.5 MB of RSS

        if isinstance(values[0], list):
            return [0.0 + statistics.median(col) for col in zip(*values)]
        return 0.0 + statistics.median(values)

    (cg, loc, micro_f1, macro_f1, mcc, il, n_pos, n_neg,
     tp, fp, fn, micro_per_tau, macro_per_tau) = map(med, zip(*trials))
    count = float if protocol == "random-pair" else int
    per_tau = zip(IOU_THRESHOLDS, *(map(count, c) for c in (tp, fp, fn)),
                  micro_per_tau, macro_per_tau)
    return MetricReport(
        cg_f1=cg,
        localization_f1=loc,
        micro_f1=micro_f1,
        macro_f1=macro_f1,
        mcc=mcc,
        il=ILCounts(*map(int, il)),
        per_threshold=tuple(ThresholdStat(*row) for row in per_tau),
        n_datapoints=len(picks[0]),
        n_positive=int(n_pos),
        n_negative=int(n_neg),
        level=level,
        mode=mode,
        protocol=protocol,
        gate=gate_threshold,
    )


def _check_media(dps: Sequence[DataPoint], level: str):
    """Reject the first datapoint that holds masks of the other media kind."""
    other = FrameMaskSeq if level == "image" else RleMask
    for dp in dps:
        if any(isinstance(x.mask, other) for x in chain(*dp.annotations, dp.predictions)):
            held = "masklets" if level == "image" else "image masks"
            raise ValueError(
                f"{level} metrics got datapoint {dp.media_id}/{dp.phrase}, which holds {held}"
            )


def _report(
    dps: Sequence[DataPoint], level: str, threshold: float, mode: str, oracle: bool, index: int
) -> MetricReport:
    """cgF1 report; ``level`` ("image" or "video") sets the media kind accepted and the MCC name."""
    _check_media(dps, level)
    outcomes = [_score_datapoint(dp, threshold, oracle, index) for dp in dps]
    return _fold(outcomes, mode, level, "oracle" if oracle else "fixed", threshold)


def cg_f1(
    dps: Sequence[DataPoint],
    *,
    gate_threshold: float = DEFAULT_GATE,
    mode: str = "micro",
    oracle: bool = False,
    annotation_index: int = 0,
) -> MetricReport:
    """Full image report: classification-gated F1 and all sub-metrics."""
    return _report(dps, "image", gate_threshold, mode, oracle, annotation_index)


def il_counts(
    dps: Sequence[DataPoint],
    *,
    gate_threshold: float = DEFAULT_GATE,
    oracle: bool = False,
    annotation_index: int = 0,
) -> ILCounts:
    """Image-level presence confusion counts; mask quality plays no role.
    Unlike :func:`cg_f1`, it needs no positive datapoint."""
    return ILCounts(*_presence(
        _score_datapoint(dp, gate_threshold, oracle, annotation_index) for dp in dps
    ))


def _mcc(tp, tn, fp, fn) -> float:
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if den == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(den)


def il_mcc(c: ILCounts) -> float:
    """Matthews correlation coefficient; 0 when any denominator factor is 0."""
    return _mcc(c.il_tp, c.il_tn, c.il_fp, c.il_fn)


def _check_annotators(dps: Sequence[DataPoint]):
    """Reject masklets and datapoints with fewer than 2 annotations."""
    _check_media(dps, "image")
    if any(len(dp.annotations) < 2 for dp in dps):
        raise ValueError("human protocols need at least 2 annotations per datapoint")


def _annotator_pairs(dp: DataPoint, pairs: Iterable[tuple[int, int]]) -> list[AnnotationEval]:
    """Each ordered pair ``(g, p)`` of ``dp``: annotation ``p``, as ungated
    predictions, scored against annotation ``g``. The IoU matrix of an
    unordered pair is computed once and the reverse order is scored on its
    transpose, which is exact: ``mask_iou`` divides two integers that do not
    depend on the argument order."""
    matrices: dict[tuple[int, int], IouMatrix] = {}
    evals = []
    for g, p in pairs:
        a, b = min(g, p), max(g, p)
        if (a, b) not in matrices:
            matrices[a, b] = iou_matrix(dp.annotation_masks(a), dp.annotation_masks(b))
        evals.append(_evaluate_matrix(matrices[a, b] if p == a else matrices[a, b].transpose()))
    return evals


def human_oracle(
    dps: Sequence[DataPoint], *, mode: str = "micro"
) -> MetricReport:
    """Upper-bound annotator agreement: per datapoint, score the best ordered
    (ground truth, prediction) pair of annotations, ties broken like
    :func:`oracle_select` and then by lowest pair index."""
    _check_annotators(dps)
    outcomes = []
    for dp in dps:
        k = len(dp.annotations)
        evals = _annotator_pairs(dp, [(g, p) for g in range(k) for p in range(k) if p != g])
        outcomes.append(evals[_best(evals)])
    return _fold(outcomes, mode, "image", "oracle", DEFAULT_GATE)


def random_pair(
    dps: Sequence[DataPoint],
    trials: int = 1000,
    seed: int = 0,
    *,
    mode: str = "micro",
) -> MetricReport:
    """Annotator-agreement protocol: per trial, draw an ordered (ground truth,
    prediction) annotation pair for every datapoint, evaluate, and report the
    per-metric median across trials. Deterministic given the seed."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_annotators(dps)
    import numpy as np

    # Each trial has its own generator; per datapoint with k annotations it
    # draws g from k and p from the k - 1 others, interleaved in one call.
    ks = np.array([len(dp.annotations) for dp in dps], dtype=np.int64)
    highs = np.stack([ks, ks - 1], axis=1).ravel()
    draws = np.array([
        np.random.default_rng(child).integers(0, highs)
        for child in np.random.SeedSequence(seed).spawn(trials)
    ]).reshape(trials, len(dps), 2)
    g, p = draws[..., 0], draws[..., 1]
    p = p + (p >= g)
    # Score each distinct (datapoint, g, p) that some trial picks, once.
    k = int(ks.max(initial=2))
    keys = (np.arange(len(dps)) * k + g) * k + p
    distinct, picks = np.unique(keys, return_inverse=True)
    evals = []
    for d, keys_of_dp in groupby(distinct.tolist(), key=lambda key: key // (k * k)):
        evals += _annotator_pairs(dps[d], [(key // k % k, key % k) for key in keys_of_dp])
    picks = picks.reshape(keys.shape).tolist()
    return _fold(evals, mode, "image", "random-pair", DEFAULT_GATE, picks)


def counting_metrics(pairs: Sequence[tuple[int, int]]) -> tuple[float, float]:
    """Mean absolute error and exact-count accuracy over (predicted, true) pairs.

    Accuracy is returned as a fraction in [0, 1].
    """
    if not pairs:
        raise UndefinedMetricError("counting metrics need at least one pair")
    for p, t in pairs:
        if p < 0 or t < 0:
            raise ValueError("counts must be non-negative")
    errors = [abs(p - t) for p, t in pairs]
    mae = sum(errors) / len(errors)
    accuracy = sum(1 for e in errors if e == 0) / len(errors)
    return mae, accuracy
