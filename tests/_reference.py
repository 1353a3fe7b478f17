"""Independent brute-force references used as oracles by the test suite.

Nothing here shares code with the package under test beyond plain Python
and numpy's seeded generators: matchings are found by exhaustive
enumeration, geometry by pixel sets, metrics by direct formula evaluation,
and a scenario's boxes by one scalar random draw at a time. The one
exception is :func:`reference_random_pair_report`, which folds each trial
through the package's own fixed-protocol ``cg_f1`` so that a whole
random-pair report can be compared bit for bit.
"""

from __future__ import annotations

import math
import statistics
from functools import reduce
from operator import add

import numpy as np


# -- assignment ---------------------------------------------------------------


def brute_match(matrix):
    """Max-total assignment by exhaustive enumeration.

    Zero entries are never matched. Candidates per row are the still-free
    positive columns in ascending order, then "unmatched", and the first
    maximum in that enumeration order wins; that is exactly the
    lexicographically-smallest-optimum rule the implementation promises.
    Returns (pairs, total) with pairs as (row, col) tuples and the total
    summed in row order.
    """
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0

    def assignments(row, used):
        if row == n_rows:
            yield ()
            return
        for col in range(n_cols):
            if col in used or matrix[row][col] <= 0.0:
                continue
            for rest in assignments(row + 1, used | {col}):
                yield ((row, col),) + rest
        for rest in assignments(row + 1, used):
            yield rest

    best_pairs = ()
    best_total = 0.0
    for pairs in assignments(0, frozenset()):
        total = 0.0
        for i, j in pairs:
            total += matrix[i][j]
        if total > best_total:
            best_pairs, best_total = pairs, total
    return best_pairs, best_total


def validate_matrix(matrix):
    """The numpy checks ``optimal_match`` once ran on its input: a 2-D matrix
    of finite values in [0, 1]. Raises ``ValueError`` with its message."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("IoU matrix must be 2-D")
    if m.size and (not np.all(np.isfinite(m)) or m.min() < 0.0 or m.max() > 1.0):
        raise ValueError("IoU matrix entries must be finite values in [0, 1]")


def greedy_match_total(matrix):
    """Greedy descending-IoU matching, for the dominance property."""
    entries = sorted(
        (
            (matrix[i][j], i, j)
            for i in range(len(matrix))
            for j in range(len(matrix[0]) if matrix else 0)
            if matrix[i][j] > 0
        ),
        key=lambda e: (-e[0], e[1], e[2]),
    )
    used_rows, used_cols = set(), set()
    total = 0.0
    for value, i, j in entries:
        if i in used_rows or j in used_cols:
            continue
        used_rows.add(i)
        used_cols.add(j)
        total += value
    return total


# -- pixel-set geometry -------------------------------------------------------


def pixels(grid):
    """Set of (row, col) foreground pixels of a nested-list/array grid."""
    out = set()
    for r, row in enumerate(grid):
        for c, v in enumerate(row):
            if v:
                out.add((r, c))
    return out


def set_iou(a, b):
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


# -- image metrics ------------------------------------------------------------

TAUS = [(50 + 5 * k) / 100 for k in range(10)]


def datapoint_counts(pred_sets, gt_sets, tau):
    """TP/FP/FN for one datapoint at one threshold, matching by enumeration."""
    matrix = [[set_iou(p, g) for g in gt_sets] for p in pred_sets]
    pairs, _ = brute_match(matrix)
    tp = sum(1 for i, j in pairs if matrix[i][j] >= tau)
    return tp, len(pred_sets) - tp, len(gt_sets) - tp


def reference_image_metrics(datapoints, gate=0.5):
    """Independent pmF1 / macro_pF1 / IL_MCC / cgF1 (micro mode).

    ``datapoints`` is a list of (gt_pixel_sets, [(pred_pixel_set, score)]).
    One matching per datapoint on raw IoU, re-thresholded per tau.
    """
    per_tau_tp = [0] * len(TAUS)
    per_tau_fp = [0] * len(TAUS)
    per_tau_fn = [0] * len(TAUS)
    macro_sums = [0.0] * len(TAUS)
    n_pos = 0
    il_tp = il_tn = il_fp = il_fn = 0
    for gt_sets, scored_preds in datapoints:
        pred_sets = [p for p, s in scored_preds if s > gate]
        positive = len(gt_sets) > 0
        predicted = len(pred_sets) > 0
        if positive:
            il_tp += predicted
            il_fn += not predicted
        else:
            il_fp += predicted
            il_tn += not predicted
        if not positive:
            continue
        n_pos += 1
        matrix = [[set_iou(p, g) for g in gt_sets] for p in pred_sets]
        pairs, _ = brute_match(matrix)
        for k, tau in enumerate(TAUS):
            tp = sum(1 for i, j in pairs if matrix[i][j] >= tau)
            fp = len(pred_sets) - tp
            fn = len(gt_sets) - tp
            per_tau_tp[k] += tp
            per_tau_fp[k] += fp
            per_tau_fn[k] += fn
            macro_sums[k] += 2 * tp / (2 * tp + fp + fn)

    micro_per_tau = [
        2 * per_tau_tp[k] / (2 * per_tau_tp[k] + per_tau_fp[k] + per_tau_fn[k])
        for k in range(len(TAUS))
    ]
    pm = sum(micro_per_tau) / len(TAUS)
    macro = sum(v / n_pos for v in macro_sums) / len(TAUS)
    num = il_tp * il_tn - il_fp * il_fn
    den = (il_tp + il_fp) * (il_tp + il_fn) * (il_tn + il_fp) * (il_tn + il_fn)
    mcc = 0.0 if den == 0 else num / math.sqrt(den)
    return {
        "pmF1": pm,
        "macro_pF1": macro,
        "IL_MCC": mcc,
        "cgF1": 100.0 * pm * mcc,
    }


# -- annotator protocols ------------------------------------------------------


def reference_random_pair(datapoints, trials, seed):
    """Median pmF1 / macro_pF1 / IL_MCC / cgF1 over random annotation pairs.

    ``datapoints`` is a list of per-annotator lists of pixel sets. Every trial
    has its own generator spawned from ``SeedSequence(seed)``; per datapoint
    with k annotations it draws the ground-truth annotation g uniformly from
    k and the predicting annotation uniformly from the k - 1 others. Each
    trial is scored from scratch.
    """
    per_trial = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        trial = []
        for anns in datapoints:
            k = len(anns)
            g = int(rng.integers(k))
            p = int(rng.integers(k - 1))
            if p >= g:
                p += 1
            trial.append((anns[g], [(s, 1.0) for s in anns[p]]))
        per_trial.append(reference_image_metrics(trial))
    return {key: statistics.median(r[key] for r in per_trial) for key in per_trial[0]}


def reference_human_oracle(datapoints):
    """pmF1 / macro_pF1 / IL_MCC / cgF1 with every datapoint scored on its
    best ordered (ground truth, prediction) annotation pair: highest mean
    local F1 over the thresholds, then fewest FN + FP, then the first pair in
    (ground truth, prediction) order."""
    chosen = []
    for anns in datapoints:
        best_key = best = None
        for g, gt_sets in enumerate(anns):
            for p, pred_sets in enumerate(anns):
                if p == g:
                    continue
                counts = [datapoint_counts(pred_sets, gt_sets, tau) for tau in TAUS]
                f1s = [
                    2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0
                    for tp, fp, fn in counts
                ]
                # summed left to right, as builtin sum compensates from 3.12 on
                key = (reduce(add, f1s, 0.0) / len(f1s), -sum(fp + fn for _, fp, fn in counts))
                if best_key is None or key > best_key:
                    best_key, best = key, (gt_sets, [(s, 1.0) for s in pred_sets])
        chosen.append(best)
    return reference_image_metrics(chosen)


def reference_random_pair_report(dps, trials, seed, mode="micro"):
    """The random-pair ``MetricReport`` computed trial by trial.

    Per trial, scalar draws pick an ordered (ground truth g, prediction p)
    annotation pair for every datapoint, exactly as
    :func:`reference_random_pair` does; the trial is folded by ``cg_f1`` on
    datapoints whose only annotation is g and whose predictions are p's masks
    at score 1.0; the report holds the field-wise medians over trials, with
    presence counts and datapoint counts truncated to integers.
    """
    from phraseseg.image_metrics import (
        DataPoint,
        ILCounts,
        MetricReport,
        ThresholdStat,
        cg_f1,
    )
    from phraseseg.matching import Detection

    reports = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        trial = []
        for dp in dps:
            k = len(dp.annotations)
            g = int(rng.integers(k))
            p = int(rng.integers(k - 1))
            if p >= g:
                p += 1
            preds = tuple(Detection(mask=inst.mask, score=1.0) for inst in dp.annotations[p])
            trial.append(DataPoint(dp.media_id, dp.phrase, (dp.annotations[g],), preds))
        reports.append(cg_f1(trial, mode=mode))

    def median(items, cls, cast=float):
        return cls(**{
            name: cast(np.median([getattr(x, name) for x in items])) for name in cls._fields
        })

    def med(name, cast=float):
        return cast(np.median([getattr(r, name) for r in reports]))

    return MetricReport(
        cg_f1=med("cg_f1"),
        localization_f1=med("localization_f1"),
        micro_f1=med("micro_f1"),
        macro_f1=med("macro_f1"),
        mcc=med("mcc"),
        il=median([r.il for r in reports], ILCounts, int),
        per_threshold=tuple(
            median([r.per_threshold[k] for r in reports], ThresholdStat)
            for k in range(len(reports[0].per_threshold))
        ),
        n_datapoints=len(dps),
        n_positive=med("n_positive", int),
        n_negative=med("n_negative", int),
        level="image",
        mode=mode,
        protocol="random-pair",
    )


# -- HOTA ---------------------------------------------------------------------

ALPHAS = [(5 + 5 * k) / 100 for k in range(19)]


def reference_hota(sequences):
    """HOTA / DetA / AssA and per-alpha (TP, FN, FP) by exhaustive per-frame
    matching enumeration.

    ``sequences`` is a list of (gt_tracks, pred_tracks), each track being a
    dict frame -> pixel set. Per-frame matchings maximize the product of
    track alignment and mask IoU; the first maximum in lexicographic
    enumeration order wins, mirroring the deterministic tie-break of the
    implementation under test.
    """
    n_alpha = len(ALPHAS)
    tp = [0] * n_alpha
    fn = [0] * n_alpha
    fp = [0] * n_alpha
    ass_sum = [0.0] * n_alpha

    for gt_tracks, pred_tracks in sequences:
        frames = sorted(
            {t for tr in gt_tracks for t in tr} | {t for tr in pred_tracks for t in tr}
        )
        gt_count = [0] * len(gt_tracks)
        pred_count = [0] * len(pred_tracks)
        potential = [[0.0] * len(pred_tracks) for _ in gt_tracks]
        frame_data = []
        for t in frames:
            gt_ids = [i for i, tr in enumerate(gt_tracks) if tr.get(t)]
            pred_ids = [j for j, tr in enumerate(pred_tracks) if tr.get(t)]
            sim = [
                [set_iou(gt_tracks[i][t], pred_tracks[j][t]) for j in pred_ids]
                for i in gt_ids
            ]
            frame_data.append((gt_ids, pred_ids, sim))
            for i in gt_ids:
                gt_count[i] += 1
            for j in pred_ids:
                pred_count[j] += 1
            for a, i in enumerate(gt_ids):
                row_sum = sum(sim[a])
                for b, j in enumerate(pred_ids):
                    col_sum = sum(sim[x][b] for x in range(len(gt_ids)))
                    denom = row_sum + col_sum - sim[a][b]
                    if denom > 0:
                        potential[i][j] += sim[a][b] / denom

        alignment = [
            [
                potential[i][j] / (gt_count[i] + pred_count[j] - potential[i][j])
                if gt_count[i] + pred_count[j] - potential[i][j] > 0
                else 0.0
                for j in range(len(pred_tracks))
            ]
            for i in range(len(gt_tracks))
        ]

        matches = [
            [[0] * len(pred_tracks) for _ in gt_tracks] for _ in range(n_alpha)
        ]
        for gt_ids, pred_ids, sim in frame_data:
            if not gt_ids:
                for k in range(n_alpha):
                    fp[k] += len(pred_ids)
                continue
            if not pred_ids:
                for k in range(n_alpha):
                    fn[k] += len(gt_ids)
                continue
            score = [
                [alignment[gt_ids[a]][pred_ids[b]] * sim[a][b] for b in range(len(pred_ids))]
                for a in range(len(gt_ids))
            ]
            pairs, _ = brute_match(score)
            for k, alpha in enumerate(ALPHAS):
                hits = [(a, b) for a, b in pairs if sim[a][b] >= alpha]
                tp[k] += len(hits)
                fn[k] += len(gt_ids) - len(hits)
                fp[k] += len(pred_ids) - len(hits)
                for a, b in hits:
                    matches[k][gt_ids[a]][pred_ids[b]] += 1

        for k in range(n_alpha):
            for i in range(len(gt_tracks)):
                for j in range(len(pred_tracks)):
                    cnt = matches[k][i][j]
                    if cnt:
                        ass_sum[k] += cnt * (cnt / (gt_count[i] + pred_count[j] - cnt))

    det_a = [tp[k] / max(1, tp[k] + fn[k] + fp[k]) for k in range(n_alpha)]
    ass_a = [ass_sum[k] / max(1, tp[k]) for k in range(n_alpha)]
    hota_a = [math.sqrt(det_a[k] * ass_a[k]) for k in range(n_alpha)]
    return {
        "HOTA": sum(hota_a) / n_alpha,
        "DetA": sum(det_a) / n_alpha,
        "AssA": sum(ass_a) / n_alpha,
        "per_alpha": list(zip(ALPHAS, det_a, ass_a, hota_a)),
        "counts": list(zip(tp, fn, fp)),
    }


# -- scenario draws -----------------------------------------------------------


def reference_scenario_boxes(cfg):
    """The boxes of ``sim.gen_scenario(cfg)``, drawn one scalar at a time.

    Every random draw is made in the generator's order, and each jitter shift
    is two scalar ``integers`` calls, ``dx`` then ``dy``. Returns
    ``(gt, prop, detections)``: ``gt`` and ``prop`` map each object to
    ``{frame: (x, y, w, h)}``, and ``detections`` holds each frame's
    ``((x, y, w, h), score)`` in stream order. Boxes are unclipped.
    """
    rng = np.random.default_rng(cfg.seed)

    def shifted(box, dx, dy):
        x, y, w, h = box
        return (min(max(x + dx, 0), cfg.width - w), min(max(y + dy, 0), cfg.height - h), w, h)

    def jittered(box, amplitude):
        if amplitude == 0:
            return box
        dx = int(rng.integers(-amplitude, amplitude + 1))
        dy = int(rng.integers(-amplitude, amplitude + 1))
        return shifted(box, dx, dy)

    def trajectory():
        w = int(rng.integers(cfg.min_size, cfg.max_size + 1))
        h = int(rng.integers(cfg.min_size, cfg.max_size + 1))
        xs_max, ys_max = cfg.width - w, cfg.height - h
        points = [(int(rng.integers(0, xs_max + 1)), int(rng.integers(0, ys_max + 1)))]
        for _ in range(cfg.waypoints - 1):
            px, py = points[-1]
            nx = int(min(max(px + rng.integers(-cfg.max_step, cfg.max_step + 1), 0), xs_max))
            ny = int(min(max(py + rng.integers(-cfg.max_step, cfg.max_step + 1), 0), ys_max))
            points.append((nx, ny))
        anchors = np.linspace(0, cfg.frames - 1, cfg.waypoints)
        xs = np.interp(np.arange(cfg.frames), anchors, [p[0] for p in points])
        ys = np.interp(np.arange(cfg.frames), anchors, [p[1] for p in points])
        return [(int(round(x)), int(round(y)), w, h) for x, y in zip(xs, ys)]

    def disjoint(a, b):
        return (a[0] + a[2] <= b[0] or b[0] + b[2] <= a[0]
                or a[1] + a[3] <= b[1] or b[1] + b[3] <= a[1])

    trajectories = []
    for _ in range(cfg.objects):
        for _ in range(200):
            candidate = trajectory()
            frames = range(cfg.frames)
            if all(disjoint(candidate[t], prev[t]) for prev in trajectories for t in frames):
                trajectories.append(candidate)
                break
        else:
            raise ValueError("could not place spatially disjoint objects")

    hidden = {(obj, t) for obj, first, last in cfg.occlusions for t in range(first, last + 1)}
    gt = {i: {t: box for t, box in enumerate(traj) if (i, t) not in hidden}
          for i, traj in enumerate(trajectories)}
    prop = {i: {t: jittered(box, cfg.prop_jitter_px) for t, box in frames.items()}
            for i, frames in gt.items()}

    detections = []
    for t in range(cfg.frames):
        visible = [frames[t] for frames in gt.values() if t in frames]
        dets = []
        for box in visible:
            if cfg.miss_prob > 0.0 and rng.random() < cfg.miss_prob:
                continue
            dets.append((jittered(box, cfg.jitter_px), 1.0))
        for _ in range(int(rng.poisson(cfg.fp_rate)) if cfg.fp_rate > 0 else 0):
            if visible and cfg.distractor_prob > 0 and rng.random() < cfg.distractor_prob:
                target = visible[int(rng.integers(len(visible)))]
                dx = int(rng.integers(1, max(2, target[2])))
                dy = int(rng.integers(0, max(1, target[3] // 2) + 1))
                box = shifted(target, dx, dy)
            else:
                w = int(rng.integers(cfg.min_size, cfg.max_size + 1))
                h = int(rng.integers(cfg.min_size, cfg.max_size + 1))
                x = int(rng.integers(0, cfg.width - w + 1))
                y = int(rng.integers(0, cfg.height - h + 1))
                box = (x, y, w, h)
            dets.append((box, float(rng.uniform(0.55, 1.0))))
        detections.append(tuple(dets))
    return gt, prop, detections


def box_grid(height, width, box):
    """A boolean grid with the box, clipped to it, painted in."""
    x, y, w, h = box
    grid = np.zeros((height, width), dtype=bool)
    grid[max(0, y) : max(0, y + h), max(0, x) : max(0, x + w)] = True
    return grid
