"""Run-length-encoded binary masks and the geometry kernels built on them.

The RLE convention is the de-facto dataset interchange one: the pixel grid is
scanned in column-major order and runs alternate background/foreground,
starting with a background run that may have length zero. All values are
immutable after construction and every operation is a pure function.

The geometry kernels read areas, boxes and overlaps straight from the runs, as
the COCO mask API does (``rleArea``, ``rleToBbox``, ``rleIou``); none of them
decodes a mask to a dense grid.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Optional

import numpy as np

from .errors import UndefinedMetricError


@dataclass(frozen=True)
class RleMask:
    """A binary mask on a fixed ``height x width`` grid, stored as run lengths.

    ``counts`` always sums to ``height * width``. Construction normalizes the
    runs to canonical form (no zero-length runs except a possible leading
    background run), so equal masks compare equal structurally.
    """

    height: int
    width: int
    counts: tuple[int, ...]
    area: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise ValueError(f"mask grid must be non-empty, got {self.height}x{self.width}")
        counts = tuple(self.counts)
        if not counts:
            raise ValueError("counts must contain at least one run")
        if not {*map(type, counts)} <= {int} or min(counts) < 0:  # rejects bool and float
            raise ValueError("run lengths must be non-negative integers")
        total = sum(counts)
        if total != self.height * self.width:
            raise ValueError(
                f"run lengths sum to {total}, expected {self.height * self.width}"
            )
        if not _is_canonical(counts):
            counts = _canonicalize(counts)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "area", sum(counts[1::2]))

    def _runs_box(self) -> tuple[list[int], Optional[tuple[int, int, int, int]]]:
        """Foreground runs as flat column-major ``[start, end)`` offsets
        ``[s0, e0, s1, e1, ...]``, and the tight inclusive box
        ``(x0, y0, x1, y1)``, ``None`` for an empty mask. Cached."""
        cached = self.__dict__.get("_runs_box_cache")
        if cached is None:
            # The cumulative sums are the run boundaries; a canonical mask's
            # foreground runs are non-empty and separated by background.
            runs = list(accumulate(self.counts))[: len(self.counts) // 2 * 2]
            cached = (runs, _box_of_runs(runs, self.height))
            object.__setattr__(self, "_runs_box_cache", cached)
        return cached

    def decode(self) -> np.ndarray:
        """Dense boolean grid, shape ``(height, width)``. Cached; do not mutate."""
        dense = self.__dict__.get("_dense")
        if dense is None:
            values = np.zeros(len(self.counts), dtype=bool)
            values[1::2] = True
            flat = np.repeat(values, np.asarray(self.counts, dtype=np.int64))
            dense = flat.reshape((self.height, self.width), order="F")
            dense.setflags(write=False)
            object.__setattr__(self, "_dense", dense)
        return dense

    @classmethod
    def empty(cls, height: int, width: int) -> "RleMask":
        return cls(height, width, (height * width,))

    @classmethod
    def full(cls, height: int, width: int) -> "RleMask":
        return cls(height, width, (0, height * width))


def _is_canonical(counts) -> bool:
    return 0 not in counts[1:] and (counts[0] > 0 or len(counts) > 1)


def _canonicalize(counts) -> tuple[int, ...]:
    # Merge zero-length runs while preserving background/foreground parity.
    merged = [0]
    value = 0
    for i, c in enumerate(counts):
        run_value = i % 2
        if run_value == value:
            merged[-1] += c
        elif c > 0:
            merged.append(c)
            value = run_value
    return tuple(merged)


def rle_encode(grid) -> RleMask:
    """Encode a rectangular binary grid, scanning columns first."""
    arr = np.asarray(grid)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("grid must be a non-empty 2-D array")
    flat = arr.astype(bool).ravel(order="F")
    boundaries = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [flat.size]))
    counts = (ends - starts).tolist()
    if flat[0]:
        counts.insert(0, 0)
    return RleMask(arr.shape[0], arr.shape[1], tuple(counts))


def rle_decode(mask: RleMask) -> np.ndarray:
    """Exact inverse of :func:`rle_encode`; returns a writable boolean grid."""
    return mask.decode().copy()


def _check_same_grid(a: RleMask | FrameMaskSeq, b: RleMask | FrameMaskSeq):
    if type(a) is not type(b):
        raise ValueError(f"mask kinds differ: {type(a).__name__} vs {type(b).__name__}")
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(
            f"mask grids differ: {a.height}x{a.width} vs {b.height}x{b.width}"
        )


def _box_of_runs(runs: list[int], height: int) -> Optional[tuple[int, int, int, int]]:
    if not runs:
        return None
    starts, lasts = runs[::2], [end - 1 for end in runs[1::2]]
    cols = [start // height for start in starts]
    x0, x1 = cols[0], lasts[-1] // height
    if cols != [last // height for last in lasts]:
        # a run wraps from row height-1 of one column to row 0 of the next
        return x0, 0, x1, height - 1
    return x0, min([start % height for start in starts]), x1, max([last % height for last in lasts])


def _window(runs: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Flat indices ``(i, end)``: the runs that meet the offsets ``[lo, hi)``
    are those starting at an even index from ``i`` up to, not including, ``end``."""
    i = bisect_right(runs, lo)
    return i - (i & 1), bisect_left(runs, hi, i)


def intersection_area(a: RleMask | FrameMaskSeq, b: RleMask | FrameMaskSeq) -> int:
    """Pixels in both masks, by merging their runs inside the boxes' overlap;
    for two masklets, the sum over their common frames."""
    _check_same_grid(a, b)
    if a.area == 0 or b.area == 0:
        return 0
    if isinstance(a, FrameMaskSeq):
        common = a.frames.keys() & b.frames.keys()
        return sum(intersection_area(a.frames[t], b.frames[t]) for t in common)
    ra, (ax0, ay0, ax1, ay1) = a._runs_box()
    rb, (bx0, by0, bx1, by1) = b._runs_box()
    if ax0 > bx1 or bx0 > ax1 or ay0 > by1 or by0 > ay1:
        return 0
    # every common pixel lies between these column-major offsets
    lo = max(ax0, bx0) * a.height + max(ay0, by0)
    hi = min(ax1, bx1) * a.height + min(ay1, by1) + 1
    i, i_end = _window(ra, lo, hi)
    j, j_end = _window(rb, lo, hi)
    if i >= i_end or j >= j_end:
        return 0
    # two pointers: step past whichever current run ends first; max() is
    # written inline because a builtin call per step doubles the loop's cost
    inter = 0
    start_a, end_a, start_b, end_b = ra[i], ra[i + 1], rb[j], rb[j + 1]
    while True:
        if end_a < end_b:
            if end_a > start_b:
                inter += end_a - (start_a if start_a > start_b else start_b)
            i += 2
            if i >= i_end:
                return inter
            start_a, end_a = ra[i], ra[i + 1]
        else:
            if end_b > start_a:
                inter += end_b - (start_a if start_a > start_b else start_b)
            j += 2
            if j >= j_end:
                return inter
            start_b, end_b = rb[j], rb[j + 1]


def mask_iou(a: RleMask | FrameMaskSeq, b: RleMask | FrameMaskSeq) -> float:
    """Intersection over union (of volumes for masklets); two empty masks have IoU 0."""
    inter = intersection_area(a, b)
    union = a.area + b.area - inter
    if union == 0:
        return 0.0
    return inter / union


def mask_iom(a: RleMask, b: RleMask) -> float:
    """Intersection over the smaller area, used to spot whole-vs-part nesting.

    Undefined (raises) when both masks are empty; 0 when exactly one is.
    """
    _check_same_grid(a, b)
    if a.area == 0 and b.area == 0:
        raise UndefinedMetricError("IoM is undefined for two empty masks")
    if a.area == 0 or b.area == 0:
        return 0.0
    return intersection_area(a, b) / min(a.area, b.area)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned pixel box, ``(x, y)`` top-left and ``(w, h)`` extent."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValueError("box extent must be non-negative")

    @property
    def area(self) -> int:
        return self.w * self.h


def bbox_of(mask: RleMask) -> BBox:
    """Tight bounding box of a non-empty mask."""
    if mask.area == 0:
        raise ValueError("empty mask has no bounding box")
    x0, y0, x1, y1 = mask._runs_box()[1]
    return BBox(x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def bbox_iou(a: BBox, b: BBox) -> float:
    ix = max(0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.area + b.area - inter
    if union == 0:
        return 0.0
    return inter / union


@dataclass(frozen=True)
class FrameMaskSeq:
    """Per-frame masks of one tracked identity. An absent frame is an empty
    mask; ``area`` is the volume, so the mask kernels take a masklet as a mask."""

    height: int
    width: int
    frames: Mapping[int, RleMask]
    area: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frames = dict(self.frames)
        for idx, mask in frames.items():
            if isinstance(idx, bool) or not isinstance(idx, int) or idx < 0:
                raise ValueError(f"frame index must be a non-negative int, got {idx!r}")
            if (mask.height, mask.width) != (self.height, self.width):
                raise ValueError(
                    f"frame {idx} mask is {mask.height}x{mask.width}, "
                    f"sequence grid is {self.height}x{self.width}"
                )
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "area", sum(m.area for m in frames.values()))

    def __hash__(self):
        return hash((self.height, self.width, frozenset(self.frames.items())))

    def mask_at(self, frame: int) -> Optional[RleMask]:
        return self.frames.get(frame)

    @property
    def volume(self) -> int:
        return self.area

    @property
    def is_empty(self) -> bool:
        return self.area == 0


def volume_iou(a: FrameMaskSeq, b: FrameMaskSeq) -> float:
    """Total intersection volume over total union volume across all frames."""
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError("masklet grids differ")
    if a.is_empty and b.is_empty:
        raise UndefinedMetricError("volume IoU is undefined for two empty masklets")
    return mask_iou(a, b)
