"""Run-length-encoded binary masks and the geometry kernels built on them.

The RLE convention is the de-facto dataset interchange one: the pixel grid is
scanned in column-major order and runs alternate background/foreground,
starting with a background run that may have length zero. All values are
immutable after construction and every operation is a pure function.

The geometry kernels read areas, boxes and overlaps straight from the runs, as
the COCO mask API does (``rleArea``, ``rleToBbox``, ``rleIou``); none of them
decodes a mask to a dense grid. ``_overlap`` is the one function that answers a
pixel overlap, and ``mask_iou`` and ``mask_iom`` reach it through
``intersection_area``. Two masks whose foreground offset spans, read from the
outer background runs, do not meet share no pixel; otherwise the runs in the
shared span are merged, as offsets cached on a mask by its first merge or
``bbox_of``. The tight bounding box is computed on each call.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate
from typing import TYPE_CHECKING, Mapping

from .errors import UndefinedMetricError

if TYPE_CHECKING:
    import numpy as np


class _RunLengthsError(ValueError):
    """Run lengths that are not all non-negative ints; the loader words this
    error its own way."""


def _grid_error(height, width) -> ValueError:
    if type(height) is not int or type(width) is not int:  # rejects bool and float
        return ValueError(f"mask grid sizes must be ints, got height {height!r}, width {width!r}")
    return ValueError(f"mask grid must be non-empty, got {height}x{width}")


class _Record:
    """Equality, repr and pickle by ``_fields``, for the records that are not tuples."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        # frozen records refuse setattr, so rebuild through the validating constructor
        return type(self), self._key()


class _Frozen(_Record):
    """A record whose attributes cannot be assigned once it is built."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


_set = object.__setattr__


class RleMask(_Frozen):
    """A binary mask on a fixed ``height x width`` grid, stored as run lengths.

    ``counts`` always sums to ``height * width``. Construction normalizes the
    runs to canonical form (no zero-length runs except a possible leading
    background run), so equal masks compare equal structurally.
    """

    # area: the foreground pixel count; _runs: a cache, None until first use (see _runs_of)
    __slots__ = ("height", "width", "counts", "area", "_runs")
    _fields = ("height", "width", "counts")

    def __init__(self, height: int, width: int, counts: tuple[int, ...]):
        _set(self, "height", height)
        _set(self, "width", width)
        _set(self, "counts", counts)
        self.__post_init__()  # looked up on self: perfbench/tracing.py wraps it as rlemask_init

    def __post_init__(self):
        height, width = self.height, self.width
        if type(height) is not int or type(width) is not int or height <= 0 or width <= 0:
            raise _grid_error(height, width)
        counts = tuple(self.counts)
        if not counts:
            raise ValueError("counts must contain at least one run")
        if not {*map(type, counts)} <= {int} or (low := min(counts)) < 0:  # rejects bool and float
            raise _RunLengthsError("run lengths must be non-negative integers")
        total = sum(counts)
        if total != height * width:
            raise ValueError(f"run lengths sum to {total}, expected {height * width}")
        if low == 0 and 0 in counts[1:]:
            counts = _canonicalize(counts)
        _set(self, "counts", counts)
        _set(self, "area", sum(counts[1::2]))
        _set(self, "_runs", None)

    def __hash__(self):
        return hash((self.height, self.width, self.counts))

    def decode(self) -> np.ndarray:
        """Exact inverse of :func:`rle_encode`: a new writable boolean grid on each call."""
        import numpy as np

        values = np.zeros(len(self.counts), dtype=bool)
        values[1::2] = True
        flat = np.repeat(values, np.asarray(self.counts, dtype=np.int64))
        return flat.reshape((self.height, self.width), order="F")

    @classmethod
    def empty(cls, height: int, width: int) -> "RleMask":
        return cls(height, width, (height * width,))

    @classmethod
    def full(cls, height: int, width: int) -> "RleMask":
        return cls(height, width, (0, height * width))


def _canonical_mask(height: int, width: int, counts: tuple[int, ...], area: int) -> RleMask:
    """``RleMask`` of canonical ``counts`` on a positive int grid, unchecked."""
    mask = RleMask.__new__(RleMask)
    _set(mask, "height", height)
    _set(mask, "width", width)
    _set(mask, "counts", counts)
    _set(mask, "area", area)
    _set(mask, "_runs", None)
    return mask


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


def _runs_of(mask: RleMask) -> tuple[int, ...]:
    """Foreground runs as flat column-major ``[start, end)`` offsets
    ``[s0, e0, s1, e1, ...]``, cached on the mask. The cumulative sums of the
    counts are the run boundaries; a canonical mask's foreground runs are
    non-empty and separated by background, so the offsets strictly increase."""
    counts = mask.counts
    # a tuple, not a list: the collector stops tracking a tuple of ints
    runs = tuple(accumulate(counts[:-1] if len(counts) & 1 else counts))
    _set(mask, "_runs", runs)
    return runs


def rle_encode(grid) -> RleMask:
    """Encode a rectangular binary grid, scanning columns first."""
    import numpy as np

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


def _mismatch(a: RleMask | FrameMaskSeq, b: RleMask | FrameMaskSeq) -> ValueError:
    if type(a) is not type(b):
        return ValueError(f"mask kinds differ: {type(a).__name__} vs {type(b).__name__}")
    return ValueError(f"mask grids differ: {a.height}x{a.width} vs {b.height}x{b.width}")


def _overlap(a: RleMask, b: RleMask) -> int:
    """Pixels in both of two masks on one grid, the one pixel-overlap function
    (``mask_iou`` and ``mask_iom`` reach it through ``intersection_area``):
    all of a mask's with itself, none when the foreground offset spans do not
    meet (an empty mask's span is empty), else those of the runs merged there."""
    if a is b:
        return a.area
    # every common pixel lies in the shared span, offsets [lo, hi); a trailing
    # background run is there when the number of runs is odd
    ca, cb, n = a.counts, b.counts, a.height * a.width
    lo = ca[0] if ca[0] > cb[0] else cb[0]
    hi = n - ca[-1] if len(ca) & 1 else n
    if len(cb) & 1 and n - cb[-1] < hi:
        hi = n - cb[-1]
    if lo >= hi:
        return 0
    ra = a._runs or _runs_of(a)
    rb = b._runs or _runs_of(b)
    # the runs that meet the shared span start at an even index from i (j) up
    # to, not including, i_end (j_end)
    i = bisect_right(ra, lo)
    i -= i & 1
    i_end = bisect_left(ra, hi, i)
    j = bisect_right(rb, lo)
    j -= j & 1
    j_end = bisect_left(rb, hi, j)
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


def _volume_overlap(a: FrameMaskSeq, b: FrameMaskSeq) -> int:
    """Voxels in both of two masklets on one grid: the overlap summed over
    their common frames, whose grids ``FrameMaskSeq`` has already checked."""
    if not a.area or not b.area:
        return 0
    frames_b = b.frames
    return sum([_overlap(m, frames_b[t]) for t, m in a.frames.items() if t in frames_b])


def intersection_area(a: RleMask | FrameMaskSeq, b: RleMask | FrameMaskSeq) -> int:
    """Pixels in both masks; for two masklets, the sum over their common frames."""
    if type(a) is not type(b) or a.height != b.height or a.width != b.width:
        raise _mismatch(a, b)
    return _overlap(a, b) if type(a) is RleMask else _volume_overlap(a, b)


def mask_iou(a: RleMask | FrameMaskSeq, b: RleMask | FrameMaskSeq) -> float:
    """Intersection over union (of volumes for masklets); two empty masks have IoU 0."""
    inter = intersection_area(a, b)
    # a miss returns the shared 0.0, not a new float; a positive overlap has a positive union
    return inter / (a.area + b.area - inter) if inter else 0.0


def mask_iom(a: RleMask | FrameMaskSeq, b: RleMask | FrameMaskSeq) -> float:
    """Intersection over the smaller area (volume for masklets), used to spot
    whole-vs-part nesting.

    Undefined (raises) when both masks are empty; 0 when exactly one is.
    """
    inter = intersection_area(a, b)
    if a.area and b.area:
        return inter / (a.area if a.area < b.area else b.area)
    if a.area or b.area:
        return 0.0
    raise UndefinedMetricError("IoM is undefined for two empty masks")


class BBox(namedtuple("BBox", "x y w h")):
    """Axis-aligned pixel box, ``(x, y)`` top-left and ``(w, h)`` extent."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, w: int, h: int):
        if w < 0 or h < 0:
            raise ValueError("box extent must be non-negative")
        return tuple.__new__(cls, (x, y, w, h))

    @property
    def area(self) -> int:
        return self.w * self.h


def bbox_of(mask: RleMask) -> BBox:
    """Tight bounding box of a non-empty mask."""
    if mask.area == 0:
        raise ValueError("empty mask has no bounding box")
    runs = mask._runs or _runs_of(mask)
    h = mask.height
    y0, y1 = h, 0
    flat = iter(runs)
    for start, end in zip(flat, flat):
        row = start % h
        last = row + end - start - 1  # the row of the run's last pixel, unless it wraps
        if last >= h:  # the run wraps from row h-1 of one column to row 0 of the next
            y0, y1 = 0, h - 1
            break
        if row < y0:
            y0 = row
        if last > y1:
            y1 = last
    x0, x1 = runs[0] // h, (runs[-1] - 1) // h
    return BBox(x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def bbox_iou(a: BBox, b: BBox) -> float:
    ix = max(0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.area + b.area - inter
    if union == 0:
        return 0.0
    return inter / union


class FrameMaskSeq(_Frozen):
    """Per-frame masks of one tracked identity. An absent frame is an empty
    mask; ``area`` is the volume, so the mask kernels take a masklet as a mask."""

    __slots__ = ("height", "width", "frames", "area")
    _fields = ("height", "width", "frames")

    def __init__(self, height: int, width: int, frames: Mapping[int, RleMask]):
        if type(height) is not int or type(width) is not int or height <= 0 or width <= 0:
            raise _grid_error(height, width)
        frames = dict(frames)
        for idx, mask in frames.items():
            if isinstance(idx, bool) or not isinstance(idx, int) or idx < 0:
                raise ValueError(f"frame index must be a non-negative int, got {idx!r}")
            if not isinstance(mask, RleMask):
                raise ValueError(f"frame {idx} must be an RleMask, got {type(mask).__name__}")
            if (mask.height, mask.width) != (height, width):
                raise ValueError(
                    f"frame {idx} mask is {mask.height}x{mask.width}, "
                    f"sequence grid is {height}x{width}"
                )
        _set(self, "height", height)
        _set(self, "width", width)
        _set(self, "frames", frames)
        _set(self, "area", sum(m.area for m in frames.values()))

    def __hash__(self):
        return hash((self.height, self.width, frozenset(self.frames.items())))


def volume_iou(a: FrameMaskSeq, b: FrameMaskSeq) -> float:
    """Total intersection volume over total union volume across all frames;
    ``mask_iou`` of two masklets, undefined (raises) when both are empty."""
    if type(a) is not FrameMaskSeq:
        raise ValueError(f"volume IoU takes masklets, got {type(a).__name__}")
    iou = mask_iou(a, b)
    if not a.area and not b.area:
        raise UndefinedMetricError("volume IoU is undefined for two empty masklets")
    return iou
