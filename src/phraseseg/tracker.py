"""Detector-tracker fusion: propagate, match-and-update, and the temporal
disambiguation heuristics (confirmation delay, duplicate removal, suppression,
periodic and detection-guided re-prompting).

The tracker consumes one frame per step. Masks come from two pluggable
sources: a detector stream (scored masks per frame) and a propagator that
predicts each tracked object's mask on the current frame. Output lags the
clock by the confirmation delay so spurious tracks can be killed before they
are ever shown.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

# mask_iou is unused here but stays importable: perfbench/test_perfbench.py
# checks that the tracer patches it in this module
from .masks import FrameMaskSeq, RleMask, _Record, bbox_iou, bbox_of, mask_iou  # noqa: F401
from .matching import Detection, gate, iou_matrix, optimal_match

Propagator = Callable[["Masklet", int], tuple[RleMask, float]]


class _TrackerConfigFields(NamedTuple):
    confirmation_window: int = 15  # frames of delay before a track may be shown
    confirmation_threshold: int = 0  # minimum windowed detection score to survive
    match_iou: float = 0.5  # strict lower bound for detection/track agreement
    duplicate_iou: float = 0.1
    reprompt_period: int = 16
    reprompt_iou: float = 0.8
    reprompt_confidence: float = 0.8
    recondition_bbox_iou: float = 0.85
    detection_gate: float = 0.5


class TrackerConfig(_TrackerConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.confirmation_window < 1:
            raise ValueError("confirmation window must be >= 1")
        if self.reprompt_period < 1:
            raise ValueError("re-prompt period must be >= 1")
        for name in (
            "match_iou",
            "duplicate_iou",
            "reprompt_iou",
            "reprompt_confidence",
            "recondition_bbox_iou",
            "detection_gate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        return self

    @property
    def duplicate_frames(self) -> int:
        return math.ceil(self.confirmation_window / 2)


class Masklet(_Record):
    """One tracked identity with its per-frame state."""

    __slots__ = _fields = ("id", "t_first", "masks", "scores", "zeroed", "lifetime_mds", "shared")

    def __init__(self, id: int, t_first: int, masks=None, scores=None, zeroed=None,
                 lifetime_mds: int = 0, shared=None):
        self.id = id
        self.t_first = t_first
        self.masks: dict[int, RleMask] = {} if masks is None else masks
        self.scores: dict[int, float] = {} if scores is None else scores
        self.zeroed: set[int] = set() if zeroed is None else zeroed  # frames shown blank
        self.lifetime_mds = lifetime_mds
        # earlier masklet id -> frames on which the two shared a detection
        self.shared: dict[int, int] = {} if shared is None else shared


def _indicator(ious: Iterable[float], threshold: float) -> int:
    return 1 if any(iou > threshold for iou in ious) else -1


class FrameOutput(NamedTuple):
    """Masks shown for one (delayed) frame; None means a suppressed track."""

    frame: int
    masks: dict[int, Optional[RleMask]]


class TrackResult(NamedTuple):
    """The shown output of a whole video: each masklet id's frame map, in
    which ``None`` marks a suppressed frame."""

    height: int
    width: int
    masklets: dict[int, dict[int, Optional[RleMask]]]

    def sequences(self) -> dict[int, FrameMaskSeq]:
        return {
            mid: FrameMaskSeq(
                self.height, self.width, {t: m for t, m in frames.items() if m is not None}
            )
            for mid, frames in self.masklets.items()
        }


class Tracker:
    """Single-video tracker state; one instance is single-threaded per video.

    ``propagator(masklet, frame)`` predicts an active masklet's (mask,
    confidence) on ``frame`` from its state up to ``frame - 1``.
    """

    def __init__(self, propagator: Propagator, config: TrackerConfig = TrackerConfig()):
        self.propagator = propagator
        self.config = config
        self.clock = 0  # next frame index to consume
        self.next_emit = 0  # next frame index to show
        self._next_id = 0
        self.masklets: dict[int, Masklet] = {}
        self._grid: Optional[tuple[int, int]] = None

    # -- per-frame protocol -------------------------------------------------

    def step(self, detections: Sequence[Detection]) -> Optional[FrameOutput]:
        """Consume one frame: propagate, gate, match, spawn, update
        lifecycles, maybe emit.

        Every active masklet is propagated in id order, and only detections
        scoring strictly above ``detection_gate`` can match or spawn. Grids
        are checked before any state changes. Returns the output for frame
        ``clock - confirmation_window`` once that frame's confirmation window
        has closed.
        """
        tau = self.clock
        cfg = self.config
        ids = sorted(self.masklets)
        propagated = [self.propagator(self.masklets[mid], tau) for mid in ids]
        detections = gate(detections, cfg.detection_gate)
        det_masks = [det.mask for det in detections]
        self._check_grid(det_masks + [mask for mask, _ in propagated])
        for mid, (mask, score) in zip(ids, propagated):
            m = self.masklets[mid]
            m.masks[tau], m.scores[tau] = mask, score

        # (1) associate propagated masks with detections; the IoU matrix, one
        # row per masklet in id order, is computed once and reused below
        matrix = iou_matrix([mask for mask, _ in propagated], det_masks)
        matched: dict[int, int] = {}  # masklet id -> detection index
        for r, c, iou in optimal_match(matrix).pairs:
            if iou > cfg.match_iou:
                matched[ids[r]] = c

        # (2) spawn masklets for unmatched detections; new ids are the largest,
        # so their rows keep the matrix in id order
        taken = set(matched.values())
        spawned = [det for c, det in enumerate(detections) if c not in taken]
        for det in spawned:
            m = Masklet(id=self._next_id, t_first=tau)
            self._next_id += 1
            m.masks[tau] = det.mask
            m.scores[tau] = det.score
            self.masklets[m.id] = m
            ids.append(m.id)
        matrix += iou_matrix([det.mask for det in spawned], det_masks)

        # (3) add the frame-wise match indicator to every active masklet's sum
        for mid, row in zip(ids, matrix):
            self.masklets[mid].lifetime_mds += _indicator(row, cfg.match_iou)

        # (5) count the frames on which two masklets both overlap one
        # detection; the later masklet keeps the count, since only it can be
        # removed as the duplicate
        near = [
            [r for r, row in enumerate(matrix) if row[c] >= cfg.duplicate_iou]
            for c in range(len(detections))
        ]
        for a, b in sorted({pair for rows in near for pair in combinations(rows, 2)}):
            shared = self.masklets[ids[b]].shared
            shared[ids[a]] = shared.get(ids[a], 0) + 1

        # (6) suppression: blank output while the lifetime score is negative
        for m in self.masklets.values():
            if m.lifetime_mds < 0:
                m.zeroed.add(tau)

        # (7) periodic re-prompt from a strongly agreeing, confident detection
        if tau % cfg.reprompt_period == 0 and detections:
            for mid, row in zip(ids, matrix):
                m = self.masklets[mid]
                best = max(range(len(row)), key=row.__getitem__)  # the first of equal maxima
                if (
                    row[best] >= cfg.reprompt_iou
                    and detections[best].score > cfg.reprompt_confidence
                    and m.scores[tau] > cfg.reprompt_confidence
                ):
                    m.masks[tau] = detections[best].mask

        # (8) recondition on box-level drift against the matched detection; both masks
        # are non-empty, as a match has IoU > 0 and (7) installs only the row's best
        for mid, c in matched.items():
            m = self.masklets[mid]
            det_mask = detections[c].mask
            if bbox_iou(bbox_of(m.masks[tau]), bbox_of(det_mask)) < cfg.recondition_bbox_iou:
                m.masks[tau] = det_mask

        # (4), (5) and (9) close the window [tau - T, tau] once it exists
        self.clock += 1
        start = tau - cfg.confirmation_window
        out = self._close(start) if start >= 0 else None
        self._prune(self.next_emit)
        return out

    def flush(self) -> list[FrameOutput]:
        """End of stream: close the remaining (truncated) windows and emit
        every frame still held back by the delay."""
        return [self._close(t) for t in range(self.next_emit, self.clock)]

    # -- internals ----------------------------------------------------------

    def _close(self, start: int) -> FrameOutput:
        """Close the window that starts at frame ``start``, then (9) emit
        that frame.

        A masklet born inside the window is removed when it is (4)
        unconfirmed, its indicator sum (then the window's sum) being below the
        threshold, or (5) a duplicate, having shared a detection on
        ``duplicate_frames`` frames or more with an earlier masklet that is
        still live. Ids ascend with birth, so the earlier masklet's removal is
        decided first.
        """
        cfg = self.config
        for mid in sorted(self.masklets):
            m = self.masklets[mid]
            if m.t_first >= start and (
                m.lifetime_mds < cfg.confirmation_threshold
                or any(
                    count >= cfg.duplicate_frames and i in self.masklets
                    for i, count in m.shared.items()
                )
            ):
                del self.masklets[mid]
        self.next_emit = start + 1
        return FrameOutput(frame=start, masks={
            mid: None if start in m.zeroed else m.masks[start]
            for mid, m in sorted(self.masklets.items())
            if m.t_first <= start
        })

    def _prune(self, horizon: int):
        """Drop per-frame state and duplicate counts no stage can read again:
        later windows and emission start at or after ``horizon``, and
        propagators read frame ``clock - 1``."""
        for m in self.masklets.values():
            for frames in (m.masks, m.scores):
                for t in [t for t in frames if t < horizon]:
                    del frames[t]
            m.zeroed = {t for t in m.zeroed if t >= horizon}
            if m.t_first < horizon:
                m.shared.clear()

    def _check_grid(self, masks: Sequence[RleMask]):
        for mask in masks:
            grid = (mask.height, mask.width)
            if self._grid is None:
                self._grid = grid
            elif grid != self._grid:
                raise ValueError(f"mask grid {grid} does not match video grid {self._grid}")


def hold_propagator(masklet: Masklet, frame: int) -> tuple[RleMask, float]:
    """Trivial propagator: repeat the previous frame's mask and confidence."""
    prev = frame - 1
    return masklet.masks[prev], masklet.scores[prev]


def run(
    frame_detections: Sequence[Sequence[Detection]],
    propagator: Propagator,
    config: TrackerConfig = TrackerConfig(),
) -> TrackResult:
    """Track a whole video deterministically, flushing the final delayed
    frames at end of stream."""
    tracker = Tracker(propagator, config)

    def shown() -> Iterator[FrameOutput]:
        for dets in frame_detections:
            out = tracker.step(dets)
            if out is not None:
                yield out
        yield from tracker.flush()

    masklets: dict[int, dict[int, Optional[RleMask]]] = {}
    for out in shown():
        for mid, mask in out.masks.items():
            masklets.setdefault(mid, {})[out.frame] = mask
    height, width = tracker._grid or (1, 1)
    return TrackResult(height=height, width=width, masklets=masklets)
