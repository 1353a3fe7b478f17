"""Image metrics for phrase-prompted instance segmentation.

Localization is scored on positive (media, phrase) datapoints through an
optimal IoU matching, micro- or macro-averaged over the threshold grid
0.50..0.95; presence classification is scored with the Matthews correlation
coefficient over image-level confusion counts; the headline number is their
product scaled to 0..100.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import UndefinedMetricError
from .masks import RleMask
from .matching import DEFAULT_GATE, Counts, Detection, counts_at_threshold, gate, iou_matrix, optimal_match

# Generated with integer arithmetic so the grid carries no accumulated float drift.
IOU_THRESHOLDS: tuple[float, ...] = tuple((50 + 5 * k) / 100 for k in range(10))


@dataclass(frozen=True)
class GtInstance:
    """One ground-truth instance mask; ``group`` marks a multi-instance mask.

    Group masks are carried through the pipeline but matched like ordinary
    instances.
    """

    mask: RleMask
    group: bool = False


@dataclass(frozen=True)
class DataPoint:
    """One (media, phrase) record: per-annotator ground truth plus predictions.

    An annotation with zero instances means the phrase is absent (a negative).
    """

    media_id: str
    phrase: str
    annotations: tuple[tuple[GtInstance, ...], ...]
    predictions: tuple[Detection, ...] = ()

    def __post_init__(self):
        if not self.annotations:
            raise ValueError(f"datapoint {self.media_id}/{self.phrase} has no annotation")
        grids = {
            (inst.mask.height, inst.mask.width)
            for ann in self.annotations
            for inst in ann
        } | {(d.mask.height, d.mask.width) for d in self.predictions}
        if len(grids) > 1:
            raise ValueError(
                f"datapoint {self.media_id}/{self.phrase} mixes grids: {sorted(grids)}"
            )

    def annotation_masks(self, index: int) -> tuple[RleMask, ...]:
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


def score_matrix(matrix, thresholds: Sequence[float] = IOU_THRESHOLDS) -> AnnotationEval:
    """Score a predictions x ground-truth similarity matrix (mask IoU for
    images, volume IoU for videos): one optimal matching on the raw values,
    re-thresholded per tau into TP/FP/FN and F1."""
    match = optimal_match(matrix)
    n_pred, n_gt = np.shape(matrix)
    counts = tuple(counts_at_threshold(match, n_pred, n_gt, tau) for tau in thresholds)
    return AnnotationEval(
        n_pred=n_pred, n_gt=n_gt, counts=counts, f1=tuple(_f1_from_counts(c) for c in counts)
    )


def evaluate_annotation(
    gated_preds: Sequence[Detection],
    gt_masks: Sequence[RleMask],
    thresholds: Sequence[float] = IOU_THRESHOLDS,
) -> AnnotationEval:
    """Match gated predictions against one annotation and sweep the thresholds."""
    return score_matrix(iou_matrix([d.mask for d in gated_preds], list(gt_masks)), thresholds)


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


def _il(outcomes: Iterable[AnnotationEval]) -> ILCounts:
    c = Counter((o.positive, o.predicted) for o in outcomes)
    return ILCounts(
        il_tp=c[True, True], il_tn=c[False, False], il_fp=c[False, True], il_fn=c[True, False]
    )


def _fold_outcomes(
    outcomes: Sequence[AnnotationEval],
    mode: str,
    level: str,
    protocol: str,
    gate_threshold: float,
) -> MetricReport:
    if mode not in ("micro", "macro"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    positives = [o for o in outcomes if o.positive]
    if not positives:
        raise UndefinedMetricError("localization F1 needs at least one positive datapoint")

    n_taus = len(IOU_THRESHOLDS)
    tp = [0] * n_taus
    fp = [0] * n_taus
    fn = [0] * n_taus
    local_f1s: list[list[float]] = [[] for _ in range(n_taus)]
    for o in positives:
        for k, c in enumerate(o.counts):
            tp[k] += c.tp
            fp[k] += c.fp
            fn[k] += c.fn
            local_f1s[k].append(o.f1[k])

    micro_per_tau = [
        _f1_from_counts(Counts(tp[k], fp[k], fn[k], IOU_THRESHOLDS[k]))
        for k in range(n_taus)
    ]
    # fsum is exactly rounded, so folds are independent of datapoint order
    macro_per_tau = [math.fsum(local_f1s[k]) / len(positives) for k in range(n_taus)]
    micro_f1 = math.fsum(micro_per_tau) / n_taus
    macro_f1 = math.fsum(macro_per_tau) / n_taus

    il = _il(outcomes)
    mcc = il_mcc(il)
    loc = micro_f1 if mode == "micro" else macro_f1
    return MetricReport(
        cg_f1=100.0 * loc * mcc,
        localization_f1=loc,
        micro_f1=micro_f1,
        macro_f1=macro_f1,
        mcc=mcc,
        il=il,
        per_threshold=tuple(
            ThresholdStat(IOU_THRESHOLDS[k], tp[k], fp[k], fn[k], micro_per_tau[k], macro_per_tau[k])
            for k in range(n_taus)
        ),
        n_datapoints=len(outcomes),
        n_positive=len(positives),
        n_negative=len(outcomes) - len(positives),
        level=level,
        mode=mode,
        protocol=protocol,
        gate=gate_threshold,
    )


def _map(fn: Callable, items: Sequence, threads: int) -> list:
    """``fn`` over ``items`` in order, on a thread pool when ``threads > 1``."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def cg_f1(
    dps: Sequence[DataPoint],
    *,
    gate_threshold: float = DEFAULT_GATE,
    mode: str = "micro",
    oracle: bool = False,
    annotation_index: int = 0,
    threads: int = 1,
) -> MetricReport:
    """Full image report: classification-gated F1 and all sub-metrics.

    Datapoints may be folded in parallel; the outcome is independent of
    ``threads`` because accumulation is a commutative count merge.
    """
    outcomes = _map(
        lambda dp: _score_datapoint(dp, gate_threshold, oracle, annotation_index), dps, threads
    )
    return _fold_outcomes(
        outcomes, mode, "image", "oracle" if oracle else "fixed", gate_threshold
    )


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
    return _il(_score_datapoint(dp, gate_threshold, oracle, annotation_index) for dp in dps)


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


def _annotator_pairs(dps: Sequence[DataPoint]) -> Callable[[int, int, int], AnnotationEval]:
    """Scorer of ordered annotation pairs: ``score(i, g, p)`` evaluates
    annotation ``p`` of datapoint ``i``, as ungated predictions, against
    annotation ``g``. Each pair is scored once, on first use."""
    for dp in dps:
        if len(dp.annotations) < 2:
            raise ValueError("human protocols need at least 2 annotations per datapoint")
    memo: dict[tuple[int, int, int], AnnotationEval] = {}

    def score(i: int, g: int, p: int) -> AnnotationEval:
        if (i, g, p) not in memo:
            preds = tuple(Detection(mask=m, score=1.0) for m in dps[i].annotation_masks(p))
            memo[i, g, p] = evaluate_annotation(preds, dps[i].annotation_masks(g))
        return memo[i, g, p]

    return score


def human_oracle(
    dps: Sequence[DataPoint],
    *,
    gate_threshold: float = DEFAULT_GATE,
    mode: str = "micro",
) -> MetricReport:
    """Upper-bound annotator agreement: per datapoint, score the best ordered
    (ground truth, prediction) pair of annotations, ties broken like
    :func:`oracle_select` and then by lowest pair index."""
    score = _annotator_pairs(dps)
    outcomes = []
    for i, dp in enumerate(dps):
        k = len(dp.annotations)
        evals = [score(i, g, p) for g in range(k) for p in range(k) if p != g]
        outcomes.append(evals[_best(evals)])
    return _fold_outcomes(outcomes, mode, "image", "oracle", gate_threshold)


def random_pair(
    dps: Sequence[DataPoint],
    trials: int = 1000,
    seed: int = 0,
    *,
    gate_threshold: float = DEFAULT_GATE,
    mode: str = "micro",
) -> MetricReport:
    """Annotator-agreement protocol: per trial, draw an ordered (ground truth,
    prediction) annotation pair for every datapoint, evaluate, and report the
    per-metric median across trials. Deterministic given the seed."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    score = _annotator_pairs(dps)

    reports = []
    for seq in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(seq)
        outcomes = []
        for i, dp in enumerate(dps):
            k = len(dp.annotations)
            g = int(rng.integers(k))
            p = int(rng.integers(k - 1))
            if p >= g:
                p += 1
            outcomes.append(score(i, g, p))
        reports.append(_fold_outcomes(outcomes, mode, "image", "random-pair", gate_threshold))

    def med(pick, cast=float):
        return cast(np.median([pick(r) for r in reports]))

    return MetricReport(
        cg_f1=med(lambda r: r.cg_f1),
        localization_f1=med(lambda r: r.localization_f1),
        micro_f1=med(lambda r: r.micro_f1),
        macro_f1=med(lambda r: r.macro_f1),
        mcc=med(lambda r: r.mcc),
        il=_field_medians(ILCounts, [r.il for r in reports], int),
        per_threshold=tuple(
            _field_medians(ThresholdStat, [r.per_threshold[k] for r in reports])
            for k in range(len(IOU_THRESHOLDS))
        ),
        n_datapoints=len(dps),
        n_positive=med(lambda r: r.n_positive, int),
        n_negative=med(lambda r: r.n_negative, int),
        level="image",
        mode=mode,
        protocol="random-pair",
        gate=gate_threshold,
    )


def _field_medians(cls, items: Sequence, cast: Callable = float):
    """Field-wise median of dataclass instances ``items`` of type ``cls``."""
    return cls(**{f.name: cast(np.median([getattr(x, f.name) for x in items])) for f in fields(cls)})


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
