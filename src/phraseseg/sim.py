"""Deterministic scenario generation standing in for the neural detector and
propagator, plus the interactive exemplar-prompt policy.

Objects are rectangles on piecewise-linear trajectories, rasterized to masks.
Detections are the ground-truth masks with configurable misses, jitter and
sampled false positives; the propagator follows each tracked object's ground
truth with its own jitter. Everything is a pure function of (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .masks import BBox, FrameMaskSeq, RleMask, bbox_of, mask_iou
from .matching import Detection, gate, iou_matrix, optimal_match
from .tracker import Masklet, Propagator

MAX_PROMPT_ITERATIONS = 5
EXEMPLAR_IOU = 0.5  # a match at this IoU is a hit; a false positive below it, a negative


@dataclass(frozen=True)
class ScenarioConfig:
    height: int = 64
    width: int = 64
    frames: int = 60
    objects: int = 3
    min_size: int = 6
    max_size: int = 14
    waypoints: int = 3  # trajectory control points, linearly interpolated
    max_step: int = 24  # cap on per-segment waypoint displacement
    miss_prob: float = 0.0
    fp_rate: float = 0.0  # expected false positives per frame (Poisson)
    distractor_prob: float = 0.0  # chance a false positive hugs a real object
    jitter_px: int = 0  # detection box jitter amplitude
    prop_jitter_px: int = 0  # propagator box jitter amplitude
    occlusions: tuple[tuple[int, int, int], ...] = ()  # (object, first, last) inclusive
    seed: int = 0

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("frame count must be >= 1")
        if self.objects < 0:
            raise ValueError("object count must be >= 0")
        if self.min_size < 1 or self.max_size < self.min_size:
            raise ValueError("object sizes must satisfy 1 <= min_size <= max_size")
        if self.max_size > min(self.height, self.width):
            raise ValueError("objects must fit inside the grid")
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ValueError("miss probability must be in [0, 1]")
        if not 0.0 <= self.distractor_prob <= 1.0:
            raise ValueError("distractor probability must be in [0, 1]")
        if self.fp_rate < 0.0:
            raise ValueError("false-positive rate must be >= 0")
        if self.waypoints < 2:
            raise ValueError("need at least 2 trajectory waypoints")
        for obj, first, last in self.occlusions:
            if not (0 <= obj < self.objects and 0 <= first <= last < self.frames):
                raise ValueError(f"invalid occlusion window {(obj, first, last)}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class Scenario:
    gt_masklets: tuple[FrameMaskSeq, ...]
    detections: tuple[tuple[Detection, ...], ...]
    propagator: Propagator


def _rect_mask(height: int, width: int, box: BBox) -> RleMask:
    """The box, clipped to the grid, as column-major runs: one foreground run
    per column, with the gap to the next column's run between them."""
    x0, y0 = max(0, box.x), max(0, box.y)
    x1, y1 = min(width, box.x + box.w), min(height, box.y + box.h)
    if x1 <= x0 or y1 <= y0:
        return RleMask.empty(height, width)
    fg = y1 - y0
    counts = [x0 * height + y0, *[fg, height - fg] * (x1 - x0)]
    counts[-1] = (width - x1 + 1) * height - y1  # the rest of the grid
    return RleMask(height, width, tuple(counts))


def _shifted(box: BBox, dx: int, dy: int, height: int, width: int) -> BBox:
    x = int(np.clip(box.x + dx, 0, width - box.w))
    y = int(np.clip(box.y + dy, 0, height - box.h))
    return BBox(x, y, box.w, box.h)


def _sample_trajectory(cfg: ScenarioConfig, rng: np.random.Generator) -> list[BBox]:
    w = int(rng.integers(cfg.min_size, cfg.max_size + 1))
    h = int(rng.integers(cfg.min_size, cfg.max_size + 1))
    xs_max, ys_max = cfg.width - w, cfg.height - h
    points = [(int(rng.integers(0, xs_max + 1)), int(rng.integers(0, ys_max + 1)))]
    for _ in range(cfg.waypoints - 1):
        px, py = points[-1]
        nx = int(np.clip(px + rng.integers(-cfg.max_step, cfg.max_step + 1), 0, xs_max))
        ny = int(np.clip(py + rng.integers(-cfg.max_step, cfg.max_step + 1), 0, ys_max))
        points.append((nx, ny))
    anchor_frames = np.linspace(0, cfg.frames - 1, cfg.waypoints)
    xs = np.interp(np.arange(cfg.frames), anchor_frames, [p[0] for p in points])
    ys = np.interp(np.arange(cfg.frames), anchor_frames, [p[1] for p in points])
    return [BBox(int(round(x)), int(round(y)), w, h) for x, y in zip(xs, ys)]


def _boxes_disjoint(a: BBox, b: BBox) -> bool:
    return (
        a.x + a.w <= b.x or b.x + b.w <= a.x or a.y + a.h <= b.y or b.y + b.h <= a.y
    )


def gen_scenario(cfg: ScenarioConfig) -> Scenario:
    """Synthesize ground-truth masklets, a detector stream and a propagator.

    Distinct objects are kept spatially disjoint on every frame so that, with
    all noise switched off, the tracker heuristics have nothing to misfire on
    and its output reproduces the ground truth exactly.
    """
    rng = np.random.default_rng(cfg.seed)

    trajectories: list[list[BBox]] = []
    for _ in range(cfg.objects):
        for attempt in range(200):
            candidate = _sample_trajectory(cfg, rng)
            if all(
                _boxes_disjoint(candidate[t], prev[t])
                for prev in trajectories
                for t in range(cfg.frames)
            ):
                trajectories.append(candidate)
                break
        else:
            raise ValueError(
                "could not place spatially disjoint objects; relax sizes or count"
            )

    occluded = {(obj, t) for obj, first, last in cfg.occlusions for t in range(first, last + 1)}
    boxes: list[list[Optional[BBox]]] = [
        [None if (i, t) in occluded else trajectories[i][t] for t in range(cfg.frames)]
        for i in range(cfg.objects)
    ]

    gt_masks: list[dict[int, RleMask]] = [dict() for _ in range(cfg.objects)]
    for i in range(cfg.objects):
        for t in range(cfg.frames):
            if boxes[i][t] is not None:
                gt_masks[i][t] = _rect_mask(cfg.height, cfg.width, boxes[i][t])

    # Per-(object, frame) propagator masks, jittered independently of detections.
    prop_masks: list[dict[int, RleMask]] = [dict() for _ in range(cfg.objects)]
    for i in range(cfg.objects):
        for t in range(cfg.frames):
            box = boxes[i][t]
            if box is None:
                continue
            if cfg.prop_jitter_px > 0:
                dx = int(rng.integers(-cfg.prop_jitter_px, cfg.prop_jitter_px + 1))
                dy = int(rng.integers(-cfg.prop_jitter_px, cfg.prop_jitter_px + 1))
                box = _shifted(box, dx, dy, cfg.height, cfg.width)
            prop_masks[i][t] = _rect_mask(cfg.height, cfg.width, box)

    detections: list[tuple[Detection, ...]] = []
    for t in range(cfg.frames):
        frame_dets: list[Detection] = []
        for i in range(cfg.objects):
            box = boxes[i][t]
            if box is None:
                continue
            if cfg.miss_prob > 0.0 and rng.random() < cfg.miss_prob:
                continue
            if cfg.jitter_px > 0:
                dx = int(rng.integers(-cfg.jitter_px, cfg.jitter_px + 1))
                dy = int(rng.integers(-cfg.jitter_px, cfg.jitter_px + 1))
                box = _shifted(box, dx, dy, cfg.height, cfg.width)
            frame_dets.append(Detection(mask=_rect_mask(cfg.height, cfg.width, box), score=1.0))
        n_fp = int(rng.poisson(cfg.fp_rate)) if cfg.fp_rate > 0 else 0
        for _ in range(n_fp):
            visible = [i for i in range(cfg.objects) if boxes[i][t] is not None]
            if visible and cfg.distractor_prob > 0 and rng.random() < cfg.distractor_prob:
                # distractor: a near-copy of a real object, partially overlapping it
                target = boxes[visible[int(rng.integers(len(visible)))]][t]
                dx = int(rng.integers(1, max(2, target.w)))
                dy = int(rng.integers(0, max(1, target.h // 2) + 1))
                box = _shifted(target, dx, dy, cfg.height, cfg.width)
            else:
                w = int(rng.integers(cfg.min_size, cfg.max_size + 1))
                h = int(rng.integers(cfg.min_size, cfg.max_size + 1))
                x = int(rng.integers(0, cfg.width - w + 1))
                y = int(rng.integers(0, cfg.height - h + 1))
                box = BBox(x, y, w, h)
            score = float(rng.uniform(0.55, 1.0))
            frame_dets.append(
                Detection(mask=_rect_mask(cfg.height, cfg.width, box), score=score)
            )
        detections.append(tuple(frame_dets))

    gt_seqs = tuple(
        FrameMaskSeq(cfg.height, cfg.width, frames) for frames in gt_masks
    )

    return Scenario(
        gt_masklets=gt_seqs,
        detections=tuple(detections),
        propagator=follow_reference(
            dict(enumerate(gt_seqs)),
            output={i: FrameMaskSeq(cfg.height, cfg.width, m) for i, m in enumerate(prop_masks)},
            confidence=1.0,
        ),
    )


def follow_reference(
    reference: Mapping[int, FrameMaskSeq],
    output: Optional[Mapping[int, FrameMaskSeq]] = None,
    confidence: Optional[float] = None,
) -> Propagator:
    """Propagator that follows reference tracks.

    A masklet follows the reference track its previous mask overlaps best on
    the previous frame (the lowest track id on ties) and takes that track's
    ``output`` mask on the current frame (``output`` defaults to
    ``reference``), scored ``confidence`` (default: the masklet's previous
    score). With no overlapping track, or no output mask on the current
    frame, the previous mask and score are held.
    """
    output = reference if output is None else output
    order = sorted(reference)

    def propagate(masklet: Masklet, frame: int) -> tuple[RleMask, float]:
        prev, score = masklet.masks[frame - 1], masklet.scores[frame - 1]
        best, best_iou = None, 0.0
        if prev.area > 0:
            for tid in order:
                ref = reference[tid].mask_at(frame - 1)
                if ref is not None:
                    iou = mask_iou(prev, ref)
                    if iou > best_iou:
                        best, best_iou = tid, iou
        cur = None if best is None else output[best].mask_at(frame)
        if cur is None:
            return prev, score
        return cur, score if confidence is None else confidence

    return propagate


@dataclass(frozen=True)
class PromptEvent:
    """One interactive refinement: a positive or negative exemplar box."""

    kind: str  # "positive" | "negative"
    box: BBox
    iteration: int

    def __post_init__(self):
        if self.kind not in ("positive", "negative"):
            raise ValueError(f"unknown prompt kind {self.kind!r}")
        if not 0 <= self.iteration < MAX_PROMPT_ITERATIONS:
            raise ValueError(f"iteration {self.iteration} outside the prompt budget")


def exemplar_policy(
    predictions: Sequence[Detection],
    gt_masks: Sequence[RleMask],
    history: Sequence[PromptEvent],
    seed: int,
) -> Optional[PromptEvent]:
    """Choose the next exemplar prompt from the current error pools.

    Missed ground truths are candidate positive prompts; gated false-positive
    predictions without significant ground-truth overlap are candidate
    negatives. When both pools are non-empty one kind is picked uniformly at
    random, then a member uniformly within the pool; with no candidates the
    interaction stops. Prompts accumulate, so earlier events are the caller's
    to keep in ``history``.
    """
    if len(history) >= MAX_PROMPT_ITERATIONS:
        raise ValueError(f"prompt budget of {MAX_PROMPT_ITERATIONS} iterations exhausted")

    gated = gate(predictions)
    matrix = iou_matrix([d.mask for d in gated], list(gt_masks))
    match = optimal_match(matrix)
    hit_gts = {g for _, g, iou in match.pairs if iou >= EXEMPLAR_IOU}
    hit_preds = {p for p, _, iou in match.pairs if iou >= EXEMPLAR_IOU}

    positives = [bbox_of(gt_masks[g]) for g in range(len(gt_masks)) if g not in hit_gts]
    negatives = []
    for p, det in enumerate(gated):
        if p in hit_preds or det.mask.area == 0:
            continue
        worst = max(matrix[p]) if len(gt_masks) else 0.0
        if worst < EXEMPLAR_IOU:
            negatives.append(bbox_of(det.mask))

    rng = np.random.default_rng(seed)
    if positives and negatives:
        kind = "positive" if rng.integers(2) == 0 else "negative"
    elif positives:
        kind = "positive"
    elif negatives:
        kind = "negative"
    else:
        return None
    pool = positives if kind == "positive" else negatives
    box = pool[int(rng.integers(len(pool)))]
    return PromptEvent(kind=kind, box=box, iteration=len(history))
