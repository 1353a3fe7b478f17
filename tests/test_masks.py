from __future__ import annotations

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
    rle_decode,
    rle_encode,
    volume_iou,
)
from phraseseg.masks import intersection_area

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
        assert not rle_decode(RleMask(2, 2, (4,))).any()
        assert rle_decode(RleMask(2, 2, (0, 4))).all()

    def test_decode_single_pixel(self):
        grid = rle_decode(RleMask(2, 2, (2, 1, 1)))
        assert grid[0, 1] and grid.sum() == 1

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (8, 8), (17, 4)])
    def test_round_trip_random(self, rng, shape):
        for _ in range(50):
            grid = rng.random(shape) < rng.random()
            assert (rle_decode(rle_encode(grid)) == grid).all()

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

    def test_area(self):
        assert RleMask(2, 2, (2, 1, 1)).area == 1
        assert RleMask(4, 4, (16,)).area == 0


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


class TestBBox:
    def test_full_grid(self):
        assert bbox_of(RleMask.full(3, 4)) == BBox(0, 0, 4, 3)

    def test_identical_boxes(self):
        assert bbox_iou(BBox(1, 1, 2, 3), BBox(1, 1, 2, 3)) == 1.0

    def test_overlap_one_seventh(self):
        assert bbox_iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2)) == 1 / 7

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
            if a.is_empty and b.is_empty:
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
            if not s.is_empty:
                assert volume_iou(s, s) == 1.0

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            volume_iou(seq(2, 2, {}), seq(2, 3, {}))

    def test_equal_masklets_hash_equal(self):
        m = mask_from_pixels(2, 2, [(0, 0)])
        a = seq(2, 2, {0: m, 3: RleMask.empty(2, 2)})
        b = seq(2, 2, {3: RleMask.empty(2, 2), 0: mask_from_pixels(2, 2, [(0, 0)])})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, seq(2, 2, {0: m})}) == 2
        assert a.area == a.volume == 1

    def test_sequence_rejects_foreign_grid(self):
        with pytest.raises(ValueError):
            FrameMaskSeq(2, 2, {0: RleMask.empty(3, 3)})


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
def grid_pairs(draw):
    shape = draw(shapes)
    return draw(st.one_of(st.tuples(grids(shape), grids(shape)), touching_rects()))


def counts_mask(grid) -> RleMask:
    """The mask built from canonical counts, with the leading zero run a
    grid whose first pixel is set needs, not through rle_encode."""
    runs = [len(list(items)) for _, items in groupby(grid.ravel(order="F").tolist())]
    counts = [0, *runs] if grid[0, 0] else runs
    mask = RleMask(grid.shape[0], grid.shape[1], tuple(counts))
    assert mask.counts == tuple(counts)
    return mask


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
    @given(shapes.flatmap(lambda shape: st.tuples(
        st.just(shape),
        st.dictionaries(st.integers(0, 3), grids(shape), max_size=4),
        st.dictionaries(st.integers(0, 3), grids(shape), max_size=4),
    )))
    def test_volume_iou(self, case):
        (h, w), frames_a, frames_b = case
        a = seq(h, w, {t: counts_mask(g) for t, g in frames_a.items()})
        b = seq(h, w, {t: counts_mask(g) for t, g in frames_b.items()})
        va = {(t, r, c) for t, g in frames_a.items() for r, c in pixels(g)}
        vb = {(t, r, c) for t, g in frames_b.items() for r, c in pixels(g)}
        if not va and not vb:
            with pytest.raises(UndefinedMetricError):
                volume_iou(a, b)
        else:
            assert volume_iou(a, b) == set_iou(va, vb)
