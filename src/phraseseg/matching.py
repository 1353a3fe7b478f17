"""Optimal prediction/ground-truth assignment, IoU matrices, IoM NMS."""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Sequence

from .masks import FrameMaskSeq, RleMask, mask_iom, mask_iou


class Detection(namedtuple("Detection", "mask score group")):
    """One scored proposal: a mask on an image, a masklet on a video."""

    __slots__ = ()

    def __new__(cls, mask: RleMask | FrameMaskSeq, score: float, group: bool = False):
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"detection score must be in [0, 1], got {score}")
        return tuple.__new__(cls, (mask, score, group))


DEFAULT_GATE = 0.5


def plain_sum(values) -> float:
    """Left-to-right float sum. Builtin ``sum`` compensates floats from
    Python 3.12 on, so reported bytes would depend on the version."""
    total = 0.0
    for x in values:
        total += x
    return total


def gate(items: Sequence[Detection], threshold: float = DEFAULT_GATE) -> tuple[Detection, ...]:
    """Keep the detections whose confidence is strictly greater than the gate."""
    return tuple(d for d in items if d.score > threshold)


class Matching(namedtuple("Matching", "pairs")):
    """Injective partial assignment of prediction rows to ground-truth columns.

    ``pairs`` holds ``(pred_index, gt_index, iou)`` in ascending prediction
    order; zero-IoU pairs are never part of a matching.
    """

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int, float], ...]):
        preds = [p for p, _, _ in pairs]
        gts = [g for _, g, _ in pairs]
        if preds != sorted(set(preds)) or len(gts) != len(set(gts)):
            raise ValueError("matching must be injective with ascending prediction order")
        if any(not 0.0 < iou <= 1.0 for _, _, iou in pairs):
            raise ValueError("matched pairs must have IoU in (0, 1]")
        return tuple.__new__(cls, (pairs,))

    def total(self) -> float:
        return plain_sum(iou for _, _, iou in self.pairs)

    def gt_for(self) -> dict[int, int]:
        return {p: g for p, g, _ in self.pairs}


class IouMatrix(list):
    """An IoU matrix as a list of row lists, rows = predictions, that also
    holds its column count, which a matrix without rows cannot show."""

    def __init__(self, rows, n_cols: int):
        super().__init__(rows)
        self.n_cols = n_cols

    @property
    def size(self) -> int:
        """The number of cells."""
        return len(self) * self.n_cols

    def transpose(self) -> "IouMatrix":
        """The same cells with rows and columns swapped."""
        cols = [list(col) for col in zip(*self)] if self else [[] for _ in range(self.n_cols)]
        return IouMatrix(cols, len(self))


def iou_matrix(
    pred_masks: Sequence[RleMask | FrameMaskSeq], gt_masks: Sequence[RleMask | FrameMaskSeq]
) -> IouMatrix:
    """Pairwise IoU (volume IoU for masklets), rows = predictions, columns = ground truths."""
    return IouMatrix([[mask_iou(p, g) for g in gt_masks] for p in pred_masks], len(gt_masks))


def linear_sum_assignment(rows: list[list[float]]):
    """Maximum-total assignment of a rectangular matrix given as row lists.

    A plain-Python port of scipy's ``rectangular_lsap`` (Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 2016) that
    keeps its transpose, column scan order, tie rule and dual updates, so it
    returns scipy's pairs. Returns ``(pairs, u, v)``: one ``(row, column)``
    pair per row of the shorter side, in row order, and duals with
    ``u[i] + v[j] >= rows[i][j]``, equal on the pairs and zero on every
    unassigned row and column.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    transpose = nc < nr
    if transpose:
        rows, nr, nc = [list(col) for col in zip(*rows)], nc, nr
    # scipy minimizes the negated matrix; u and v hold its duals negated and
    # every update flips the sign, which rounds exactly as scipy does
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col, path = [-1] * nr, [-1] * nc, [-1] * nc
    for cur in range(nr):
        remaining = list(range(nc - 1, -1, -1))
        costs = [math.inf] * nc
        tree_rows, tree_cols = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            tree_rows.append(i)
            row, ui = rows[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val - row[j] + ui + v[j]
                if r < costs[j]:
                    path[j], costs[j] = i, r
                else:
                    r = costs[j]
                if r < lowest or (r == lowest and row4col[j] < 0):
                    lowest, index = r, it
            min_val = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            tree_cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
        u[cur] -= min_val
        for i in tree_rows[1:]:
            u[i] -= min_val - costs[col4row[i]]
        for j in tree_cols:
            v[j] += min_val - costs[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        return sorted((r, c) for c, r in enumerate(col4row)), v, u
    return list(enumerate(col4row)), u, v


def _canonical_total(m: list[list[float]], pairs) -> float:
    # Sum in ascending row order, so equal pair sets give identical floats.
    return plain_sum(m[i][j] for i, j in sorted(pairs))


def _completion(m: list[list[float]], prefix, next_row) -> tuple[list[tuple[int, int]], float]:
    # ``prefix`` plus one optimal assignment of rows ``next_row..`` to the
    # columns ``prefix`` leaves free (zero pairs dropped), with its total.
    used = {j for _, j in prefix}
    cols = [j for j in range(len(m[0])) if j not in used]
    pairs = list(prefix)
    if next_row < len(m) and cols:
        sub = [[row[j] for j in cols] for row in m[next_row:]]
        found, _, _ = linear_sum_assignment(sub)
        pairs.extend((next_row + r, cols[c]) for r, c in found if sub[r][c] > 0.0)
    return pairs, _canonical_total(m, pairs)


def _rows(matrix) -> list[list[float]]:
    """``matrix`` as row lists of floats. An :class:`IouMatrix` is read as it
    is; anything else goes through numpy's conversion, which raises numpy's
    own errors."""
    if isinstance(matrix, IouMatrix):
        return matrix
    import numpy as np

    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("IoU matrix must be 2-D")
    return m.tolist()


def optimal_match(matrix) -> Matching:
    """Max-total-IoU injective assignment of predictions to ground truths.

    Zero-IoU pairs are left unmatched. Totals are summed in prediction
    order, and an assignment is optimal when its total reaches the total of
    the solver's own optimum, so optima that differ only by float rounding
    (IoUs in tenths, say) may or may not tie. Among optimal assignments the
    lexicographically smallest one (scanning predictions in order, lower
    ground-truth index first, unmatched last) is returned, which makes the
    result deterministic under ties.

    When no row and no column holds two positive cells, every positive cell
    is matched, in row order, without calling the solver. No assignment's
    total exceeds theirs, because a float sum of non-negative terms never
    drops when a term is added, and every other assignment leaves one of
    them unmatched, so they are also the lexicographically smallest.
    Otherwise the first solve's duals ``u, v`` bound every assignment that
    uses cell ``(i, j)`` to the optimum minus its slack
    ``u[i] + v[j] - m[i][j]``, so a lower column whose slack exceeds 1e-9
    cannot reach the optimal total and is skipped without a re-solve.
    """
    m = _rows(matrix)
    bad = "IoU matrix entries must be finite values in [0, 1]"
    cells = []  # the positive cells, in row order
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if x > 0.0:
                if x > 1.0:  # also +inf
                    raise ValueError(bad)
                cells.append((i, j))
            elif x != 0.0:  # negative, -inf or NaN; -0.0 passes
                raise ValueError(bad)
    if len({i for i, _ in cells}) == len({j for _, j in cells}) == len(cells):
        return Matching(tuple((i, j, m[i][j]) for i, j in cells))

    # Invariant: ``best`` is optimal and lexicographically smallest on the
    # rows already visited. Row i keeps its column unless a lower free
    # column, fixed with an optimal completion of the later rows, is
    # optimal too.
    found, u, v = linear_sum_assignment(m)
    best = [(i, j) for i, j in found if m[i][j] > 0.0]
    target = _canonical_total(m, best)
    for i, row in enumerate(m):
        prefix = [(r, c) for r, c in best if r < i]
        used = {c for _, c in prefix}
        kept = dict(best).get(i, len(row))
        for j in range(kept):
            if j not in used and row[j] > 0.0 and u[i] + v[j] - row[j] <= 1e-9:
                pairs, total = _completion(m, prefix + [(i, j)], i + 1)
                if total >= target:
                    best = pairs
                    break

    return Matching(tuple((i, j, m[i][j]) for i, j in best))


def iom_nms(detections: Sequence[Detection], iom_threshold: float = 0.5) -> list[Detection]:
    """Greedy NMS on intersection-over-minimum.

    Detections are visited by descending score (ties: lower original index
    first); one is suppressed iff its IoM with any already-kept detection
    reaches the threshold. Two empty masks, whose IoM is undefined, count as
    IoM 0. The returned list preserves the kept order.
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
        mask = det.mask
        if all(
            (mask_iom(mask, k.mask) if mask.area or k.mask.area else 0.0) < iom_threshold
            for k in kept
        ):
            kept.append(det)
    return kept
