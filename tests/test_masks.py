from __future__ import annotations

import copy
import pickle
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraseseg import (
    BBox,
    FrameMaskSeq,
    RleMask,
    UndefinedMetricError,
    bbox_iou,
    bbox_of,
    mask_iom,
    mask_iou,
    rle_encode,
    volume_iou,
)
from phraseseg.masks import intersection_area
from phraseseg.matching import iou_matrix

from _reference import pixels, set_iou
from conftest import mask_from_pixels, random_mask, seq


class TestCodec:
    def test_all_zero_grid(self):
        mask = rle_encode(np.zeros((2, 2), dtype=bool))
        assert mask.counts == (4,)

    def test_all_one_grid(self):
        mask = rle_encode(np.ones((2, 2), dtype=bool))
        assert mask.counts == (0, 4)

    def test_single_pixel_column_major(self):
        # Pixel (row 0, col 1) sits at linear index 2 in column-major order.
        grid = np.zeros((2, 2), dtype=bool)
        grid[0, 1] = True
        assert rle_encode(grid).counts == (2, 1, 1)

    def test_decode_trivial(self):
        assert not RleMask(2, 2, (4,)).decode().any()
        assert RleMask(2, 2, (0, 4)).decode().all()

    def test_decode_single_pixel(self):
        grid = RleMask(2, 2, (2, 1, 1)).decode()
        assert grid[0, 1] and grid.sum() == 1

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (8, 8), (17, 4)])
    def test_round_trip_random(self, rng, shape):
        for _ in range(50):
            grid = rng.random(shape) < rng.random()
            assert (rle_encode(grid).decode() == grid).all()

    def test_matches_groupby_reference_codec(self, rng):
        # independent run-length scan over the column-major raveled grid
        from itertools import groupby

        def reference_counts(grid):
            counts = []
            for i, (value, items) in enumerate(groupby(grid.ravel(order="F"))):
                if i == 0 and value:
                    counts.append(0)
                counts.append(len(list(items)))
            return tuple(counts)

        for _ in range(100):
            h, w = rng.integers(1, 12, size=2)
            grid = rng.random((h, w)) < rng.random()
            assert rle_encode(grid).counts == reference_counts(grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            rle_encode(np.zeros((0, 3), dtype=bool))

    def test_counts_sum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            RleMask(2, 2, (3,))

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError):
            RleMask(2, 2, (5, -1))

    @pytest.mark.parametrize("counts", [(4.0,), (True, 3), (1, np.int64(3))])
    def test_non_int_run_rejected(self, counts):
        # run lengths are checked, not coerced with int()
        with pytest.raises(ValueError, match="integers"):
            RleMask(2, 2, counts)

    def test_non_canonical_counts_normalized(self):
        assert RleMask(2, 2, (2, 0, 2)).counts == (4,)
        assert RleMask(2, 2, (0, 2, 0, 2)).counts == (0, 4)
        assert RleMask(2, 2, (2, 2, 0)).counts == (2, 2)
        assert RleMask(2, 2, (0, 2, 2)).counts == (0, 2, 2)
        assert RleMask(2, 2, (0, 0, 4)).counts == (4,)
        assert RleMask(2, 2, (4, 0)).counts == (4,)

    def test_area(self):
        assert RleMask(2, 2, (2, 1, 1)).area == 1
        assert RleMask(4, 4, (16,)).area == 0

    def test_pickle_and_copy_rebuild_a_used_mask(self):
        mask = mask_from_pixels(3, 3, [(0, 0), (2, 1)])
        assert mask_iou(mask, mask) == 1.0 and bbox_of(mask) == BBox(0, 0, 2, 3)
        grid = mask.decode()
        assert mask.decode() is not mask.decode()
        mask.decode()[:] = True  # a caller's grid is its own to write
        assert (mask.decode() == grid).all() and grid.sum() == 2
        for clone in (pickle.loads(pickle.dumps(mask)), copy.copy(mask), copy.deepcopy(mask)):
            assert clone == mask and hash(clone) == hash(mask)
            assert mask_iou(clone, mask) == 1.0 and bbox_of(clone) == bbox_of(mask)
            assert (clone.decode() == grid).all()

    def test_masks_carry_no_instance_dict(self):
        # the caches are slots: a per-mask dict would cost memory on every mask
        assert not hasattr(RleMask.full(2, 2), "__dict__")


class TestGridSizes:
    @pytest.mark.parametrize(
        "height, width, counts",
        [(True, 4, (4,)), (4, False, (4,)), (2.0, 4, (8,)), (np.int64(2), 2, (4,))],
    )
    def test_mask_rejects_non_int_size(self, height, width, counts):
        # a bool height used to build a mask equal to the int one, whose decode() failed
        with pytest.raises(ValueError, match="mask grid sizes must be ints"):
            RleMask(height, width, counts)

    def test_mask_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="mask grid must be non-empty, got 0x4"):
            RleMask(0, 4, (0,))

    @pytest.mark.parametrize("height, width", [(True, 4), (4, 2.0), (0, 4)])
    def test_masklet_rejects_bad_size(self, height, width):
        with pytest.raises(ValueError, match="mask grid"):
            FrameMaskSeq(height, width, {})

    @pytest.mark.parametrize("frame", ["x", None, BBox(0, 0, 1, 1)])
    def test_masklet_rejects_frame_that_is_not_a_mask(self, frame):
        with pytest.raises(ValueError, match=f"frame 3 must be an RleMask, got {type(frame).__name__}"):
            FrameMaskSeq(4, 4, {0: RleMask.empty(4, 4), 3: frame})


class TestIoU:
    def test_identical_nonempty(self):
        m = mask_from_pixels(2, 2, [(0, 0), (1, 1)])
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = mask_from_pixels(2, 2, [(0, 0)])
        b = mask_from_pixels(2, 2, [(1, 1)])
        assert mask_iou(a, b) == 0.0

    def test_third(self):
        a = mask_from_pixels(2, 2, [(0, 0), (0, 1)])
        b = mask_from_pixels(2, 2, [(0, 1), (1, 1)])
        assert mask_iou(a, b) == 1 / 3

    def test_both_empty_is_zero(self):
        empty = RleMask.empty(3, 3)
        assert mask_iou(empty, empty) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mask_iou(RleMask.empty(2, 2), RleMask.empty(2, 3))

    def test_symmetry_and_iom_bound(self, rng):
        for _ in range(100):
            a = random_mask(rng, 6, 6)
            b = random_mask(rng, 6, 6)
            assert mask_iou(a, b) == mask_iou(b, a)
            if a.area or b.area:
                iou, iom = mask_iou(a, b), mask_iom(a, b)
                assert 0.0 <= iou <= iom <= 1.0


class TestIoM:
    def test_nested(self):
        inner = mask_from_pixels(3, 3, [(1, 1)])
        outer = mask_from_pixels(3, 3, [(0, 0), (1, 1), (2, 2), (0, 1)])
        assert mask_iom(inner, outer) == 1.0

    def test_disjoint(self):
        a = mask_from_pixels(2, 2, [(0, 0)])
        b = mask_from_pixels(2, 2, [(1, 1)])
        assert mask_iom(a, b) == 0.0

    def test_half(self):
        a = mask_from_pixels(2, 2, [(0, 0), (0, 1)])
        b = mask_from_pixels(2, 2, [(0, 1), (1, 1)])
        assert mask_iom(a, b) == 1 / 2

    def test_both_empty_undefined(self):
        with pytest.raises(UndefinedMetricError):
            mask_iom(RleMask.empty(2, 2), RleMask.empty(2, 2))

    def test_one_empty_is_zero(self):
        assert mask_iom(RleMask.empty(2, 2), RleMask.full(2, 2)) == 0.0

    def test_masklets(self):
        # volumes 3 and 2; they share frame 1, where the masks meet in one pixel
        a = seq(2, 2, {0: mask_from_pixels(2, 2, [(0, 0)]), 1: mask_from_pixels(2, 2, [(0, 0), (1, 1)])})
        b = seq(2, 2, {1: mask_from_pixels(2, 2, [(1, 1)]), 2: mask_from_pixels(2, 2, [(0, 0)])})
        assert intersection_area(a, b) == 1
        assert mask_iom(a, b) == mask_iom(b, a) == 1 / 2
        assert mask_iom(a, a) == 1.0
        assert mask_iom(a, seq(2, 2, {})) == 0.0
        with pytest.raises(UndefinedMetricError):
            mask_iom(seq(2, 2, {}), seq(2, 2, {0: RleMask.empty(2, 2)}))
        with pytest.raises(ValueError, match="mask grids differ: 2x2 vs 2x3"):
            mask_iom(a, seq(2, 3, {}))


class TestMixedKinds:
    """The kernels name a mask paired with a masklet instead of failing inside."""

    mask = RleMask.full(2, 2)
    masklet = FrameMaskSeq(2, 2, {0: RleMask.full(2, 2)})

    @pytest.mark.parametrize("kernel", [mask_iou, mask_iom])
    def test_kernel_names_both_kinds(self, kernel):
        with pytest.raises(ValueError, match="mask kinds differ: RleMask vs FrameMaskSeq"):
            kernel(self.mask, self.masklet)
        with pytest.raises(ValueError, match="mask kinds differ: FrameMaskSeq vs RleMask"):
            kernel(self.masklet, self.mask)

    def test_iou_matrix_names_both_kinds(self):
        with pytest.raises(ValueError, match="mask kinds differ: RleMask vs FrameMaskSeq"):
            iou_matrix([self.mask], [self.masklet])
        with pytest.raises(ValueError, match="mask kinds differ: FrameMaskSeq vs RleMask"):
            iou_matrix([self.masklet], [self.mask])


class TestBBox:
    def test_full_grid(self):
        assert bbox_of(RleMask.full(3, 4)) == BBox(0, 0, 4, 3)

    def test_identical_boxes(self):
        assert bbox_iou(BBox(1, 1, 2, 3), BBox(1, 1, 2, 3)) == 1.0

    def test_overlap_one_seventh(self):
        assert bbox_iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2)) == 1 / 7

    def test_zero_area_boxes(self):
        assert bbox_iou(BBox(1, 1, 0, 2), BBox(1, 1, 3, 0)) == 0.0

    def test_empty_mask_has_no_box(self):
        with pytest.raises(ValueError):
            bbox_of(RleMask.empty(2, 2))

    def test_tight(self):
        mask = mask_from_pixels(5, 5, [(1, 2), (3, 2), (2, 4)])
        assert bbox_of(mask) == BBox(2, 1, 3, 3)

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            BBox(0, 0, -1, 2)


class TestVolumeIoU:
    def test_identical(self):
        m = mask_from_pixels(2, 2, [(0, 0)])
        a = seq(2, 2, {0: m, 1: m})
        assert volume_iou(a, a) == 1.0

    def test_half(self):
        m = mask_from_pixels(2, 2, [(0, 0), (1, 0)])
        a = seq(2, 2, {1: m, 2: m})
        b = seq(2, 2, {2: m})
        assert volume_iou(a, b) == 0.5

    def test_temporally_disjoint(self):
        m = mask_from_pixels(2, 2, [(0, 0)])
        assert volume_iou(seq(2, 2, {0: m}), seq(2, 2, {1: m})) == 0.0

    def test_both_empty_undefined(self):
        with pytest.raises(UndefinedMetricError):
            volume_iou(seq(2, 2, {}), seq(2, 2, {0: RleMask.empty(2, 2)}))

    def test_absent_frame_is_empty(self):
        m = mask_from_pixels(2, 2, [(0, 0)])
        explicit = seq(2, 2, {0: m, 1: RleMask.empty(2, 2)})
        implicit = seq(2, 2, {0: m})
        assert volume_iou(explicit, implicit) == 1.0

    def test_appending_identical_frames_invariant(self, rng):
        for _ in range(20):
            a_frames = {t: random_mask(rng, 4, 4) for t in range(3)}
            b_frames = {t: random_mask(rng, 4, 4) for t in range(3)}
            a, b = seq(4, 4, a_frames), seq(4, 4, b_frames)
            if not a.area and not b.area:
                continue
            extra = random_mask(rng, 4, 4)
            if extra.area == 0:
                continue
            a2 = seq(4, 4, {**a_frames, 9: extra})
            b2 = seq(4, 4, {**b_frames, 9: extra})
            before = volume_iou(a, b)
            after = volume_iou(a2, b2)
            # identical appended frames add equal mass to both volumes
            assert after >= before

    def test_self_volume_one_random(self, rng):
        for _ in range(20):
            frames = {t: random_mask(rng, 4, 4) for t in range(4)}
            s = seq(4, 4, frames)
            if s.area:
                assert volume_iou(s, s) == 1.0

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="mask grids differ: 2x2 vs 2x3"):
            volume_iou(seq(2, 2, {}), seq(2, 3, {}))

    def test_image_masks_rejected(self):
        with pytest.raises(ValueError, match="volume IoU takes masklets, got RleMask"):
            volume_iou(RleMask.full(2, 2), RleMask.full(2, 2))
        with pytest.raises(ValueError, match="mask kinds differ: FrameMaskSeq vs RleMask"):
            volume_iou(seq(2, 2, {}), RleMask.empty(2, 2))

    def test_equal_masklets_hash_equal(self):
        m = mask_from_pixels(2, 2, [(0, 0)])
        a = seq(2, 2, {0: m, 3: RleMask.empty(2, 2)})
        b = seq(2, 2, {3: RleMask.empty(2, 2), 0: mask_from_pixels(2, 2, [(0, 0)])})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, seq(2, 2, {0: m})}) == 2
        assert a.area == 1

    def test_sequence_rejects_foreign_grid(self):
        with pytest.raises(ValueError):
            FrameMaskSeq(2, 2, {0: RleMask.empty(3, 3)})

    @pytest.mark.parametrize("idx", [True, False, -1, 1.0, "0"])
    def test_sequence_rejects_non_int_frame_index(self, idx):
        # a bool key would be written as frame "True", which no loader reads back
        with pytest.raises(ValueError, match="frame index must be a non-negative int"):
            FrameMaskSeq(2, 2, {idx: RleMask.empty(2, 2)})


# -- run kernel against pixel sets ----------------------------------------------

# 1xN and Nx1 grids are drawn as often as general ones
shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(1)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
)


@st.composite
def grids(draw, shape):
    """Empty, full, per-pixel random, or painted from column-major runs that
    may wrap from the bottom of one column to the top of the next."""
    h, w = shape
    n = h * w
    kind = draw(st.sampled_from(["empty", "full", "pixels", "runs"]))
    if kind == "pixels":
        flat = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        flat = [kind == "full"] * n
    if kind == "runs":
        for start, length in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n)), max_size=4)):
            end = min(n, start + length)
            flat[start:end] = [True] * (end - start)
    return np.array(flat, dtype=bool).reshape((h, w), order="F")


@st.composite
def touching_rects(draw):
    """Two rectangles whose boxes share exactly one row or column, or sit
    side by side with none shared."""
    h, w = draw(st.tuples(st.integers(1, 9), st.integers(2, 9)))
    x0 = draw(st.integers(0, w - 2))
    x1 = draw(st.integers(x0, w - 2))
    bx0 = x1 + draw(st.integers(0, 1))
    bx1 = draw(st.integers(bx0, w - 1))
    ya = sorted(draw(st.lists(st.integers(0, h - 1), min_size=2, max_size=2)))
    yb = sorted(draw(st.lists(st.integers(0, h - 1), min_size=2, max_size=2)))
    a = np.zeros((h, w), dtype=bool)
    b = np.zeros((h, w), dtype=bool)
    a[ya[0] : ya[1] + 1, x0 : x1 + 1] = True
    b[yb[0] : yb[1] + 1, bx0 : bx1 + 1] = True
    if draw(st.booleans()):
        a, b = a.T, b.T
    return a, b


@st.composite
def row_disjoint(draw):
    """Two masks whose column spans meet but whose rows do not: one lies
    above a row split, the other below it."""
    h, w = draw(st.tuples(st.integers(2, 9), st.integers(1, 9)))
    split = draw(st.integers(1, h - 1))
    a, b = draw(grids((h, w))), draw(grids((h, w)))
    a[split:] = False
    b[:split] = False
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def offset_split(draw):
    """Two masks split at a column-major offset k: one lies wholly before k,
    the other wholly from k on. Their foreground offset spans touch (the
    pixels at k - 1 and k are both set) or miss; k falls inside a column or
    on a column edge."""
    h, w = draw(shapes.filter(lambda s: s[0] * s[1] >= 2))
    n = h * w
    if w >= 2 and draw(st.booleans()):
        k = h * draw(st.integers(1, w - 1))  # the first pixel of a column
    else:
        k = draw(st.integers(1, n - 1))
    a, b = draw(grids((h, w))).ravel(order="F"), draw(grids((h, w))).ravel(order="F")
    a[k:] = False
    b[:k] = False
    if draw(st.booleans()):
        a[k - 1] = b[k] = True
    a, b = a.reshape((h, w), order="F"), b.reshape((h, w), order="F")
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def grid_pairs(draw):
    shape = draw(shapes)
    return draw(st.one_of(
        st.tuples(grids(shape), grids(shape)), touching_rects(), row_disjoint(), offset_split()))


def masklets(shape):
    """Frame-indexed grids; frames 0..3, so two masklets share some frames."""
    return st.dictionaries(st.integers(0, 3), grids(shape), max_size=4)


def counts_mask(grid) -> RleMask:
    """The mask built from canonical counts, with the leading zero run a
    grid whose first pixel is set needs, not through rle_encode."""
    runs = [len(list(items)) for _, items in groupby(grid.ravel(order="F").tolist())]
    counts = [0, *runs] if grid[0, 0] else runs
    mask = RleMask(grid.shape[0], grid.shape[1], tuple(counts))
    assert mask.counts == tuple(counts)
    return mask


def _cells_hex(matrix):
    """Shape and the exact bits of every cell of an IoU matrix."""
    return len(matrix), matrix.n_cols, [[x.hex() for x in row] for row in matrix]


class TestRunKernelMatchesPixelSets:
    @settings(max_examples=400, deadline=None)
    @given(grid_pairs())
    def test_intersection_iou_iom(self, pair):
        ga, gb = pair
        a, b = counts_mask(ga), counts_mask(gb)
        pa, pb = pixels(ga), pixels(gb)
        assert intersection_area(a, b) == intersection_area(b, a) == len(pa & pb)
        assert mask_iou(a, b) == set_iou(pa, pb)
        if not pa and not pb:
            with pytest.raises(UndefinedMetricError):
                mask_iom(a, b)
        else:
            assert mask_iom(a, b) == (len(pa & pb) / min(len(pa), len(pb)) if pa and pb else 0.0)

    @settings(max_examples=200, deadline=None)
    @given(shapes.flatmap(grids))
    def test_mask_with_itself(self, grid):
        # answered without a merge; an empty mask's span meets nothing
        mask, px = counts_mask(grid), pixels(grid)
        assert intersection_area(mask, mask) == mask.area == len(px)
        assert mask_iou(mask, mask) == set_iou(px, px) == (1.0 if px else 0.0)
        if px:
            assert mask_iom(mask, mask) == 1.0
        else:
            with pytest.raises(UndefinedMetricError):
                mask_iom(mask, mask)

    @settings(max_examples=100, deadline=None)
    @given(shapes.flatmap(lambda shape: st.tuples(st.just(shape), masklets(shape))))
    def test_masklet_with_itself(self, case):
        (h, w), frames = case
        a = seq(h, w, {t: counts_mask(g) for t, g in frames.items()})
        va = {(t, r, c) for t, g in frames.items() for r, c in pixels(g)}
        assert intersection_area(a, a) == a.area == len(va)
        assert mask_iou(a, a) == set_iou(va, va)
        if va:
            assert volume_iou(a, a) == mask_iom(a, a) == 1.0
        else:
            for metric in (volume_iou, mask_iom):
                with pytest.raises(UndefinedMetricError):
                    metric(a, a)

    # (a, b) counts on a 3x4 grid (12 offsets); a foreground span runs from
    # counts[0] to 12 - counts[-1] for odd-length counts, else to 12
    SPAN_EDGES = {
        "a-starts-at-0": ((0, 5, 7), (3, 4, 5)),
        "a-ends-at-last-pixel": ((7, 5), (10, 2)),
        "both-even-length": ((0, 12), (4, 8)),
        "touching": ((2, 3, 7), (5, 4, 3)),
        "touching-at-0-and-end": ((0, 6, 6), (6, 6)),
        "touching-on-a-column-edge": ((0, 3, 9), (3, 3, 6)),
        "one-pixel-apart": ((2, 3, 7), (6, 2, 4)),
        "empty-and-full": ((12,), (0, 12)),
    }

    @pytest.mark.parametrize("counts_a, counts_b", SPAN_EDGES.values(), ids=SPAN_EDGES)
    def test_span_edges(self, counts_a, counts_b):
        def offsets(counts):
            bounds = [sum(counts[:i]) for i in range(len(counts) + 1)]
            return {k for i in range(1, len(counts), 2) for k in range(bounds[i], bounds[i + 1])}

        a, b = RleMask(3, 4, counts_a), RleMask(3, 4, counts_b)
        pa, pb = offsets(counts_a), offsets(counts_b)
        assert intersection_area(a, b) == intersection_area(b, a) == len(pa & pb)
        assert mask_iou(a, b) == mask_iou(b, a) == set_iou(pa, pb)
        assert mask_iom(a, b) == (len(pa & pb) / min(len(pa), len(pb)) if pa and pb else 0.0)

    @settings(max_examples=300, deadline=None)
    @given(shapes.flatmap(grids))
    def test_bbox(self, grid):
        mask, px = counts_mask(grid), pixels(grid)
        if not px:
            with pytest.raises(ValueError):
                bbox_of(mask)
            return
        rows, cols = [r for r, _ in px], [c for _, c in px]
        box = bbox_of(mask)
        assert (box.x, box.y, box.x + box.w - 1, box.y + box.h - 1) == (
            min(cols), min(rows), max(cols), max(rows)
        )

    @settings(max_examples=200, deadline=None)
    @given(shapes.flatmap(lambda shape: st.tuples(st.just(shape), masklets(shape), masklets(shape))))
    def test_volume_iou(self, case):
        (h, w), frames_a, frames_b = case
        a = seq(h, w, {t: counts_mask(g) for t, g in frames_a.items()})
        b = seq(h, w, {t: counts_mask(g) for t, g in frames_b.items()})
        va = {(t, r, c) for t, g in frames_a.items() for r, c in pixels(g)}
        vb = {(t, r, c) for t, g in frames_b.items() for r, c in pixels(g)}
        assert intersection_area(a, b) == intersection_area(b, a) == len(va & vb)
        assert mask_iou(a, b) == mask_iou(b, a) == set_iou(va, vb)
        if not va and not vb:
            with pytest.raises(UndefinedMetricError):
                volume_iou(a, b)
            with pytest.raises(UndefinedMetricError):
                mask_iom(a, b)
        else:
            assert volume_iou(a, b) == set_iou(va, vb)
            assert mask_iom(a, b) == (len(va & vb) / min(len(va), len(vb)) if va and vb else 0.0)

    @settings(max_examples=200, deadline=None)
    @given(shapes.flatmap(lambda shape: st.tuples(
        st.lists(grids(shape), max_size=3),
        st.lists(grids(shape), max_size=3),
    )))
    def test_iou_matrix_transpose_is_bit_exact(self, case):
        a, b = ([counts_mask(g) for g in side] for side in case)
        assert _cells_hex(iou_matrix(b, a).transpose()) == _cells_hex(iou_matrix(a, b))

    @settings(max_examples=200, deadline=None)
    @given(shapes.flatmap(lambda shape: st.tuples(
        st.lists(st.dictionaries(st.integers(0, 3), grids(shape), max_size=3), max_size=3),
        st.lists(st.dictionaries(st.integers(0, 3), grids(shape), max_size=3), max_size=3),
        st.sampled_from([0, 4]),  # 4 puts b's frames after every frame of a
        st.just(shape),
    )))
    def test_iou_matrix_transpose_is_bit_exact_for_masklets(self, case):
        frames_a, frames_b, offset, (h, w) = case
        a = [seq(h, w, {t: counts_mask(g) for t, g in f.items()}) for f in frames_a]
        b = [seq(h, w, {t + offset: counts_mask(g) for t, g in f.items()}) for f in frames_b]
        assert _cells_hex(iou_matrix(b, a).transpose()) == _cells_hex(iou_matrix(a, b))
