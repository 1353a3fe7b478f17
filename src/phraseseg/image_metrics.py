"""Image metrics for phrase-prompted instance segmentation.

Localization is scored on positive (media, phrase) datapoints through an
optimal IoU matching, micro- or macro-averaged over the threshold grid
0.50..0.95; presence classification is scored with the Matthews correlation
coefficient over image-level confusion counts; the headline number is their
product scaled to 0..100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import UndefinedMetricError
from .masks import FrameMaskSeq, RleMask
from .matching import DEFAULT_GATE, Counts, Detection, counts_at_threshold, gate, iou_matrix, optimal_match

# Generated with integer arithmetic so the grid carries no accumulated float drift.
IOU_THRESHOLDS: tuple[float, ...] = tuple((50 + 5 * k) / 100 for k in range(10))


@dataclass(frozen=True)
class GtInstance:
    """One ground-truth instance: a mask on an image, a masklet on a video.
    ``group`` marks a multi-instance mask.

    Group masks are carried through the pipeline but matched like ordinary
    instances.
    """

    mask: RleMask | FrameMaskSeq
    group: bool = False


@dataclass(frozen=True)
class DataPoint:
    """One (media, phrase) record, image or video: per-annotator ground truth
    plus predictions.

    An annotation with zero instances means the phrase is absent (a negative).
    """

    media_id: str
    phrase: str
    annotations: tuple[tuple[GtInstance, ...], ...]
    predictions: tuple[Detection, ...] = ()

    def __post_init__(self):
        if not self.annotations:
            raise ValueError(f"datapoint {self.media_id}/{self.phrase} has no annotation")
        masks = [x.mask for x in chain(*self.annotations, self.predictions)]
        if len({type(m) for m in masks}) > 1:
            raise ValueError(
                f"datapoint {self.media_id}/{self.phrase} mixes image masks and masklets"
            )
        grids = {(m.height, m.width) for m in masks}
        if len(grids) > 1:
            raise ValueError(
                f"datapoint {self.media_id}/{self.phrase} mixes grids: {sorted(grids)}"
            )

    def annotation_masks(self, index: int) -> tuple[RleMask | FrameMaskSeq, ...]:
        return tuple(inst.mask for inst in self.annotations[index])

    def is_positive(self, index: int = 0) -> bool:
        return len(self.annotations[index]) > 0


@dataclass(frozen=True)
class ILCounts:
    """Image-level presence confusion counts."""

    il_tp: int
    il_tn: int
    il_fp: int
    il_fn: int

    @property
    def total(self) -> int:
        return self.il_tp + self.il_tn + self.il_fp + self.il_fn


@dataclass(frozen=True)
class ThresholdStat:
    """Accumulated localization counts and F1 values at one IoU threshold."""

    tau: float
    tp: float
    fp: float
    fn: float
    micro_f1: float
    macro_f1: float


@dataclass(frozen=True)
class MetricReport:
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

    def to_csv_rows(self) -> list[tuple[str, float, str]]:
        mcc_key = "IL_MCC" if self.level == "image" else "VL_MCC"
        rows = [
            ("cgF1", self.cg_f1, ""),
            ("pmF1", self.micro_f1, ""),
            ("macro_pF1", self.macro_f1, ""),
            (mcc_key, self.mcc, ""),
        ]
        for t in self.per_threshold:
            tau = f"{t.tau:.2f}"
            rows.append(("micro_F1", t.micro_f1, tau))
            rows.append(("macro_F1", t.macro_f1, tau))
            rows.append(("TP", t.tp, tau))
            rows.append(("FP", t.fp, tau))
            rows.append(("FN", t.fn, tau))
        return rows


def combine_scores(presence: float, query_score: float) -> float:
    """Total confidence of one proposal: presence score times its own score.

    Setting presence to 1 recovers the raw query score (counting mode).
    """
    if not 0.0 <= presence <= 1.0 or not 0.0 <= query_score <= 1.0:
        raise ValueError("scores must be in [0, 1]")
    return presence * query_score


@dataclass(frozen=True)
class AnnotationEval:
    """Outcome of one datapoint scored against one annotation: localization
    counts and F1 per threshold, plus the presence facts the fold needs."""

    n_pred: int
    n_gt: int
    counts: tuple[Counts, ...]
    f1: tuple[float, ...]  # 1.0 when there is nothing to predict and nothing predicted

    @property
    def positive(self) -> bool:
        return self.n_gt > 0

    @property
    def predicted(self) -> bool:
        return self.n_pred > 0

    @property
    def mean_f1(self) -> float:
        return sum(self.f1) / len(self.f1)

    @property
    def fn_fp_total(self) -> int:
        return sum(c.fn + c.fp for c in self.counts)


def _f1_from_counts(c: Counts) -> float:
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 1.0
    return 2 * c.tp / denom


def evaluate_annotation(
    gated_preds: Sequence[Detection],
    gt_masks: Sequence[RleMask | FrameMaskSeq],
    thresholds: Sequence[float] = IOU_THRESHOLDS,
) -> AnnotationEval:
    """Match gated predictions against one annotation on IoU (volume IoU for
    masklets): one optimal matching on the raw values, re-thresholded per tau
    into TP/FP/FN and F1."""
    matrix = iou_matrix([d.mask for d in gated_preds], list(gt_masks))
    match = optimal_match(matrix)
    n_pred, n_gt = matrix.shape
    counts = tuple(counts_at_threshold(match, n_pred, n_gt, tau) for tau in thresholds)
    return AnnotationEval(
        n_pred=n_pred, n_gt=n_gt, counts=counts, f1=tuple(_f1_from_counts(c) for c in counts)
    )


def local_f1(dp: DataPoint, annotation_index: int, tau: float, gate_threshold: float = DEFAULT_GATE) -> float:
    """Local F1 of one positive datapoint at one IoU threshold."""
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


# (positive, predicted) of the presence cells TP, TN, FP, FN, in ILCounts order
_PRESENCE_CELLS = ((True, True), (False, False), (False, True), (True, False))


def _fold(
    evals: Sequence[AnnotationEval],
    mode: str,
    level: str,
    protocol: str,
    gate_threshold: float,
    picks: Optional[np.ndarray] = None,
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
        picks = np.arange(len(evals))[None]
    # One all-zero outcome past the end stands in for negatives in the sums.
    counts = np.zeros((len(evals) + 1, n_taus, 3), dtype=np.int64)
    f1 = np.zeros((len(evals) + 1, n_taus))
    flags = np.zeros((len(evals) + 1, 2), dtype=bool)
    for e, ev in enumerate(evals):
        counts[e] = [(c.tp, c.fp, c.fn) for c in ev.counts]
        f1[e] = ev.f1
        flags[e] = ev.positive, ev.predicted
    positive, predicted = flags[picks, 0], flags[picks, 1]
    n_pos = positive.sum(axis=1)
    if not n_pos.all():
        raise UndefinedMetricError("localization F1 needs at least one positive datapoint")

    summed = np.where(positive, picks, len(evals))
    # per-trial sums are (trials, taus, 3); split the last axis into TP, FP, FN
    tp, fp, fn = np.moveaxis(np.stack([counts[row].sum(axis=0) for row in summed]), 2, 0)
    denom = 2 * tp + fp + fn
    micro_per_tau = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 1.0)
    # fsum is exactly rounded, so folds are independent of datapoint order
    macro_per_tau = np.array([
        [math.fsum(col) / n for col in f1[row].T.tolist()]
        for row, n in zip(summed, n_pos.tolist())
    ])
    micro_f1 = np.array([math.fsum(r) / n_taus for r in micro_per_tau.tolist()])
    macro_f1 = np.array([math.fsum(r) / n_taus for r in macro_per_tau.tolist()])
    il = np.stack([(positive == a) & (predicted == b) for a, b in _PRESENCE_CELLS], axis=2).sum(axis=1)
    mcc = np.array([_mcc(*c) for c in il.tolist()])
    loc = micro_f1 if mode == "micro" else macro_f1

    def med(values):
        # One trial is its own median; skipping np.median there also keeps the
        # fixed protocols from paging in numpy's partition code (about 0.5 MB).
        return (values[0] if len(picks) == 1 else np.median(values, axis=0)).tolist()

    count = float if protocol == "random-pair" else int
    per_tau = zip(
        IOU_THRESHOLDS,
        *(map(count, med(a)) for a in (tp, fp, fn)),
        med(micro_per_tau),
        med(macro_per_tau),
    )
    return MetricReport(
        cg_f1=med(100.0 * loc * mcc),
        localization_f1=med(loc),
        micro_f1=med(micro_f1),
        macro_f1=med(macro_f1),
        mcc=med(mcc),
        il=ILCounts(*map(int, med(il))),
        per_threshold=tuple(ThresholdStat(*row) for row in per_tau),
        n_datapoints=picks.shape[1],
        n_positive=int(med(n_pos)),
        n_negative=int(med(picks.shape[1] - n_pos)),
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


def pm_f1(
    dps: Sequence[DataPoint],
    *,
    gate_threshold: float = DEFAULT_GATE,
    oracle: bool = False,
    annotation_index: int = 0,
) -> float:
    """Positive micro F1, averaged over the IoU threshold grid."""
    return cg_f1(
        dps, gate_threshold=gate_threshold, oracle=oracle, annotation_index=annotation_index
    ).micro_f1


def macro_pf1(
    dps: Sequence[DataPoint],
    *,
    gate_threshold: float = DEFAULT_GATE,
    oracle: bool = False,
    annotation_index: int = 0,
) -> float:
    """Positive macro F1: mean threshold-averaged local F1 over positives."""
    return cg_f1(
        dps, gate_threshold=gate_threshold, oracle=oracle, annotation_index=annotation_index
    ).macro_f1


def il_counts(
    dps: Sequence[DataPoint],
    *,
    gate_threshold: float = DEFAULT_GATE,
    oracle: bool = False,
    annotation_index: int = 0,
) -> ILCounts:
    """Image-level presence confusion counts; mask quality plays no role."""
    outcomes = [_score_datapoint(dp, gate_threshold, oracle, annotation_index) for dp in dps]
    return ILCounts(*(
        sum(o.positive == a and o.predicted == b for o in outcomes) for a, b in _PRESENCE_CELLS
    ))


def _mcc(tp, tn, fp, fn) -> float:
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if den == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(den)


def il_mcc(c: ILCounts) -> float:
    """Matthews correlation coefficient; 0 when any denominator factor is 0."""
    return _mcc(c.il_tp, c.il_tn, c.il_fp, c.il_fn)


def weighted_presence_mcc(
    dps: Sequence[DataPoint],
    weight: Callable[[DataPoint], float],
    *,
    gate_threshold: float = DEFAULT_GATE,
    annotation_index: int = 0,
) -> float:
    """MCC over weighted presence counts.

    Hook for reweighting schemes (e.g. extrapolating a subsampled negative
    pool back to its population size). No default weighting ships; callers
    supply the per-datapoint weight.
    """
    tp = tn = fp = fn = 0.0
    for dp in dps:
        w = weight(dp)
        if w < 0:
            raise ValueError("datapoint weights must be non-negative")
        positive = dp.is_positive(annotation_index)
        predicted = len(gate(dp.predictions, gate_threshold)) > 0
        if positive:
            tp, fn = tp + w * predicted, fn + w * (not predicted)
        else:
            fp, tn = fp + w * predicted, tn + w * (not predicted)
    return _mcc(tp, tn, fp, fn)


def _check_annotators(dps: Sequence[DataPoint]):
    """Reject masklets and datapoints with fewer than 2 annotations."""
    _check_media(dps, "image")
    if any(len(dp.annotations) < 2 for dp in dps):
        raise ValueError("human protocols need at least 2 annotations per datapoint")


def _annotator_pair(dp: DataPoint, g: int, p: int) -> AnnotationEval:
    """Annotation ``p`` of ``dp``, as ungated predictions, scored against annotation ``g``."""
    preds = tuple(Detection(mask=m, score=1.0) for m in dp.annotation_masks(p))
    return evaluate_annotation(preds, dp.annotation_masks(g))


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
        evals = [_annotator_pair(dp, g, p) for g in range(k) for p in range(k) if p != g]
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
    evals = [_annotator_pair(dps[key // (k * k)], key // k % k, key % k) for key in distinct.tolist()]
    return _fold(evals, mode, "image", "random-pair", DEFAULT_GATE, picks.reshape(keys.shape))


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
