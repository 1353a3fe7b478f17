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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .masks import FrameMaskSeq, RleMask, bbox_iou, bbox_of, mask_iou
from .matching import Detection, gate, iou_matrix, optimal_match

Propagator = Callable[["Masklet", int], tuple[RleMask, float]]


@dataclass(frozen=True)
class TrackerConfig:
    confirmation_window: int = 15  # frames of delay before a track may be shown
    confirmation_threshold: int = 0  # minimum windowed detection score to survive
    match_iou: float = 0.5  # strict lower bound for detection/track agreement
    duplicate_iou: float = 0.1
    reprompt_period: int = 16
    reprompt_iou: float = 0.8
    reprompt_confidence: float = 0.8
    recondition_bbox_iou: float = 0.85
    detection_gate: float = 0.5

    def __post_init__(self):
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

    @property
    def duplicate_frames(self) -> int:
        return math.ceil(self.confirmation_window / 2)


@dataclass
class Masklet:
    """One tracked identity with its per-frame state."""

    id: int
    t_first: int
    masks: dict[int, RleMask] = field(default_factory=dict)
    scores: dict[int, float] = field(default_factory=dict)
    zeroed: set[int] = field(default_factory=set)  # frames whose output is blanked
    lifetime_mds: int = 0


def _indicator(ious: Iterable[float], threshold: float) -> int:
    return 1 if any(iou > threshold for iou in ious) else -1


def delta(masklet: Masklet, detections: Sequence[Detection], iou_threshold: float) -> int:
    """Frame-wise match indicator on the masklet's latest mask: +1 iff some
    detection overlaps it with IoU strictly above the threshold, else -1."""
    if not masklet.masks:
        raise ValueError("masklet has no mask prediction yet")
    mask = masklet.masks[max(masklet.masks)]
    return _indicator((mask_iou(d.mask, mask) for d in detections), iou_threshold)


@dataclass(frozen=True)
class FrameOutput:
    """Masks shown for one (delayed) frame; None means a suppressed track."""

    frame: int
    masks: dict[int, Optional[RleMask]]


@dataclass
class EmittedMasklet:
    id: int
    t_first: int
    frames: dict[int, Optional[RleMask]]

    def sequence(self, height: int, width: int) -> FrameMaskSeq:
        return FrameMaskSeq(
            height, width, {t: m for t, m in self.frames.items() if m is not None}
        )


@dataclass
class TrackResult:
    height: int
    width: int
    outputs: list[FrameOutput]
    masklets: dict[int, EmittedMasklet]

    def sequences(self) -> dict[int, FrameMaskSeq]:
        return {
            mid: m.sequence(self.height, self.width) for mid, m in self.masklets.items()
        }


class Tracker:
    """Single-video tracker state; one instance is single-threaded per video."""

    def __init__(self, config: TrackerConfig = TrackerConfig()):
        self.config = config
        self.clock = 0  # next frame index to consume
        self.next_emit = 0  # next frame index to show
        self._next_id = 0
        self.masklets: dict[int, Masklet] = {}
        self._dup_counts: dict[tuple[int, int], int] = {}  # (earlier, later id) -> shared frames
        self._grid: Optional[tuple[int, int]] = None

    # -- per-frame protocol -------------------------------------------------

    def step(
        self,
        propagated: Mapping[int, tuple[RleMask, float]],
        detections: Sequence[Detection],
    ) -> Optional[FrameOutput]:
        """Consume one frame: match, spawn, update lifecycles, maybe emit.

        ``propagated`` must supply (mask, confidence) for exactly the active
        masklets. Returns the output for frame ``clock - confirmation_window``
        once that frame's confirmation window has closed.
        """
        tau = self.clock
        cfg = self.config
        if set(propagated) != set(self.masklets):
            raise ValueError(
                f"propagated ids {sorted(propagated)} do not cover active ids "
                f"{sorted(self.masklets)}"
            )
        self._check_grid([d.mask for d in detections] + [m for m, _ in propagated.values()])

        for mid, m in self.masklets.items():
            m.masks[tau], m.scores[tau] = propagated[mid]

        # (1) associate propagated masks with detections; the IoU matrix, one
        # row per masklet in id order, is computed once and reused below
        ids = sorted(self.masklets)
        det_masks = [det.mask for det in detections]
        matrix = iou_matrix([self.masklets[mid].masks[tau] for mid in ids], det_masks)
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
        matrix = np.vstack([matrix, iou_matrix([det.mask for det in spawned], det_masks)])
        row_of = {mid: r for r, mid in enumerate(ids)}

        # (3) add the frame-wise match indicator to every active masklet's sum
        for mid, m in self.masklets.items():
            m.lifetime_mds += _indicator(matrix[row_of[mid]], cfg.match_iou)

        # (4) drop unconfirmed masklets whose window score fell below threshold;
        # the first complete window [tau - T, tau] exists once tau reaches T
        if tau >= cfg.confirmation_window:
            self._remove_unconfirmed(tau - cfg.confirmation_window)

        # (5) drop the younger of two masklets that keep sharing a detection
        live = sorted(self.masklets)
        near = matrix[[row_of[mid] for mid in live]] >= cfg.duplicate_iou
        for a, b in np.argwhere(np.triu(near @ near.T, 1)):
            pair = (live[a], live[b])
            self._dup_counts[pair] = self._dup_counts.get(pair, 0) + 1
        if tau >= cfg.confirmation_window:
            self._remove_duplicates(tau - cfg.confirmation_window)

        # (6) suppression: blank output while the lifetime score is negative
        for m in self.masklets.values():
            if m.lifetime_mds < 0:
                m.zeroed.add(tau)

        # (7) periodic re-prompt from a strongly agreeing, confident detection
        if tau % cfg.reprompt_period == 0 and detections:
            for mid in sorted(self.masklets):
                m = self.masklets[mid]
                row = matrix[row_of[mid]]
                best = int(np.argmax(row))  # the first of equal maxima
                if (
                    row[best] >= cfg.reprompt_iou
                    and detections[best].score > cfg.reprompt_confidence
                    and m.scores[tau] > cfg.reprompt_confidence
                ):
                    m.masks[tau] = detections[best].mask

        # (8) recondition on box-level drift against the matched detection
        for mid, c in matched.items():
            m = self.masklets.get(mid)
            if m is None:
                continue
            det_mask = detections[c].mask
            cur = m.masks[tau]
            if cur.area == 0 or det_mask.area == 0:
                continue
            if bbox_iou(bbox_of(cur), bbox_of(det_mask)) < cfg.recondition_bbox_iou:
                m.masks[tau] = det_mask

        # (9) emit the frame whose confirmation window just closed
        self.clock += 1
        out = self._emit(self.next_emit) if tau >= cfg.confirmation_window else None
        self._prune(self.clock - cfg.confirmation_window)
        return out

    def flush(self) -> list[FrameOutput]:
        """End of stream: run the remaining (truncated-window) lifecycle checks
        and emit every frame still held back by the delay."""
        outputs = []
        while self.next_emit < self.clock:
            start = self.next_emit
            self._remove_unconfirmed(start)
            self._remove_duplicates(start)
            outputs.append(self._emit(start))
        return outputs

    # -- internals ----------------------------------------------------------

    def _remove_unconfirmed(self, window_start: int):
        """Drop masklets born inside the window whose indicator sum, which
        is then the window's sum, is below the confirmation threshold."""
        threshold = self.config.confirmation_threshold
        for mid in sorted(self.masklets):
            m = self.masklets[mid]
            if m.t_first >= window_start and m.lifetime_mds < threshold:
                self._remove(mid)

    def _remove_duplicates(self, window_start: int):
        for (i, j), count in sorted(self._dup_counts.items()):
            if count < self.config.duplicate_frames:
                continue
            if i not in self.masklets or j not in self.masklets:
                continue
            if self.masklets[j].t_first >= window_start:
                self._remove(j)

    def _remove(self, mid: int):
        del self.masklets[mid]
        self._dup_counts = {
            pair: c for pair, c in self._dup_counts.items() if mid not in pair
        }

    def _emit(self, frame: int) -> FrameOutput:
        masks: dict[int, Optional[RleMask]] = {}
        for mid in sorted(self.masklets):
            m = self.masklets[mid]
            if m.t_first <= frame:
                masks[mid] = None if frame in m.zeroed else m.masks[frame]
        self.next_emit = frame + 1
        return FrameOutput(frame=frame, masks=masks)

    def _prune(self, horizon: int):
        """Drop per-frame state and duplicate pairs no stage can read again:
        later lifecycle windows and emission start at or after ``horizon``,
        and propagators read frame ``clock - 1``."""
        for m in self.masklets.values():
            for frames in (m.masks, m.scores):
                for t in [t for t in frames if t < horizon]:
                    del frames[t]
            m.zeroed = {t for t in m.zeroed if t >= horizon}
        self._dup_counts = {
            (i, j): c for (i, j), c in self._dup_counts.items()
            if self.masklets[j].t_first >= horizon
        }

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
    """Track a whole video deterministically.

    Detections are gated (score strictly above ``config.detection_gate``)
    before they can match or spawn; the final delayed frames are flushed at
    end of stream.
    """
    tracker = Tracker(config)
    outputs: list[FrameOutput] = []
    for dets in frame_detections:
        propagated = {
            mid: propagator(tracker.masklets[mid], tracker.clock)
            for mid in sorted(tracker.masklets)
        }
        out = tracker.step(propagated, gate(dets, config.detection_gate))
        if out is not None:
            outputs.append(out)
    outputs.extend(tracker.flush())

    grid = next(((d.mask.height, d.mask.width) for ds in frame_detections for d in ds), (1, 1))
    masklets: dict[int, EmittedMasklet] = {}
    for out in outputs:
        for mid, mask in out.masks.items():
            # A masklet is shown from its spawn frame on, so its first output
            # frame is its t_first.
            rec = masklets.setdefault(mid, EmittedMasklet(id=mid, t_first=out.frame, frames={}))
            rec.frames[out.frame] = mask
    return TrackResult(
        height=grid[0], width=grid[1], outputs=outputs, masklets=masklets
    )
