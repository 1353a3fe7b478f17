from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phraseseg import BBox, PromptEvent, RleMask, ScenarioConfig, exemplar_policy, gen_scenario
from phraseseg import Masklet, bbox_of, mask_iou, rle_encode, run
from phraseseg import io_schemas as io
from phraseseg.sim import _rect_mask, follow_reference

from _reference import box_grid, reference_scenario_boxes
from conftest import det, rect_mask, seq


class TestScenarioConfig:
    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(min_size=0)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(miss_prob=1.5)

    def test_bad_occlusion_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(objects=1, frames=10, occlusions=((0, 5, 12),))
        with pytest.raises(ValueError):
            ScenarioConfig(objects=1, frames=10, occlusions=((2, 0, 3),))

    def test_oversized_objects_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(height=8, width=8, max_size=9)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_fp_rate_rejected(self, rate):
        # NaN would silently sample no false positives; inf overflows NumPy's Poisson
        with pytest.raises(ValueError, match=f"false-positive rate .* got {rate}"):
            ScenarioConfig(fp_rate=rate)


class TestGenScenario:
    def test_zero_noise_detections_equal_gt(self):
        cfg = ScenarioConfig(objects=3, frames=20, seed=1)
        scenario = gen_scenario(cfg)
        for t in range(cfg.frames):
            dets = scenario.detections[t]
            gt_masks = [
                seq.frames[t] for seq in scenario.gt_masklets if t in seq.frames
            ]
            assert len(dets) == len(gt_masks)
            assert {d.mask.counts for d in dets} == {m.counts for m in gt_masks}
            assert all(d.score == 1.0 for d in dets)

    def test_miss_probability_one_drops_everything(self):
        cfg = ScenarioConfig(objects=3, frames=10, miss_prob=1.0, seed=2)
        scenario = gen_scenario(cfg)
        assert all(len(dets) == 0 for dets in scenario.detections)

    def test_determinism(self):
        cfg = ScenarioConfig(objects=4, frames=30, miss_prob=0.3, fp_rate=0.7, jitter_px=2, seed=9)
        a = gen_scenario(cfg)
        b = gen_scenario(cfg)
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert [(d.mask.counts, d.score) for d in da] == [
                (d.mask.counts, d.score) for d in db
            ]
        for sa, sb in zip(a.gt_masklets, b.gt_masklets):
            assert sa.frames == sb.frames

    def test_seeds_differ(self):
        base = ScenarioConfig(objects=3, frames=20, seed=0)
        other = ScenarioConfig(objects=3, frames=20, seed=1)
        a, b = gen_scenario(base), gen_scenario(other)
        assert any(
            sa.frames != sb.frames for sa, sb in zip(a.gt_masklets, b.gt_masklets)
        )

    def test_objects_disjoint_every_frame(self):
        cfg = ScenarioConfig(objects=5, frames=40, seed=7)
        scenario = gen_scenario(cfg)
        for t in range(cfg.frames):
            masks = [seq.frames[t] for seq in scenario.gt_masklets]
            for i in range(len(masks)):
                for j in range(i + 1, len(masks)):
                    assert mask_iou(masks[i], masks[j]) == 0.0

    def test_occlusion_removes_frames(self):
        cfg = ScenarioConfig(objects=2, frames=20, occlusions=((1, 5, 8),), seed=3)
        scenario = gen_scenario(cfg)
        for t in range(5, 9):
            assert t not in scenario.gt_masklets[1].frames
            assert len(scenario.detections[t]) == 1
        assert 4 in scenario.gt_masklets[1].frames
        assert 9 in scenario.gt_masklets[1].frames

    def test_false_positives_sampled(self):
        cfg = ScenarioConfig(objects=0, frames=50, fp_rate=1.0, seed=4)
        scenario = gen_scenario(cfg)
        total = sum(len(d) for d in scenario.detections)
        assert total > 20  # Poisson(1) over 50 frames
        assert all(0.55 <= d.score <= 1.0 for dets in scenario.detections for d in dets)

    def test_distractors_overlap_objects(self):
        cfg = ScenarioConfig(
            objects=2, frames=30, fp_rate=1.0, distractor_prob=1.0, seed=6
        )
        scenario = gen_scenario(cfg)
        found = 0
        for t, dets in enumerate(scenario.detections):
            gt_masks = [
                s.frames[t] for s in scenario.gt_masklets if t in s.frames
            ]
            for d in dets[len(gt_masks):]:  # the trailing ones are sampled FPs
                assert any(mask_iou(d.mask, g) > 0.0 for g in gt_masks)
                found += 1
        assert found > 10


# sha256 of the detection stream, the ground-truth tracks and the tracker's
# masklets (frames=24, seed=3): pins the order of every random draw, also on
# paths that no golden file reaches
DRAW_ORDER_DIGESTS = [
    ({}, "c08c4667f207cb02570e24d724bce80803c6dab7875ac34eecab3b8bafd5b834"),
    ({"jitter_px": 2}, "c2b0213caa2708b715d96dd4ec63bffbac6f2c7f508f3840ccfb188e801cf93c"),
    ({"prop_jitter_px": 2}, "adcac377b2c51411522f76c439b599501789f0584da0b1fe9f0e16947af6351a"),
    (
        {"miss_prob": 0.3, "fp_rate": 1.5},
        "1bfb893058a894a09ef801da39d995702d64c116812056369d2c5db3065b297e",
    ),
    (
        {"miss_prob": 0.3, "jitter_px": 2, "prop_jitter_px": 1},
        "c650fe048cdbae17577d861f94b51327ec0a20d9131924addd613eaa5ec3213b",
    ),
    (  # both objects hidden on frames 10-20: no distractor draw there
        {"objects": 2, "fp_rate": 2, "distractor_prob": 1, "occlusions": ((0, 5, 20), (1, 10, 20))},
        "de63af8286ddd92c978aa67300e65c0ff3867f91d21db98cf29bb936df3cdb7b",
    ),
    (
        {"objects": 0, "fp_rate": 1, "distractor_prob": 0.5},
        "08db1c764d113fc24e4b251ec6148dd1e24e39eb1d24e7f91d6af637f8daf48a",
    ),
]


@pytest.mark.parametrize(
    "overrides, digest",
    DRAW_ORDER_DIGESTS,
    ids=[
        "no-noise", "jitter", "prop-jitter", "miss-fp", "miss-jitters", "distractors-hidden",
        "no-objects",
    ],
)
def test_draw_order_digest(overrides, digest):
    cfg = ScenarioConfig(frames=24, seed=3, **overrides)
    scenario = gen_scenario(cfg)
    media = io.MediaInfo(id="sim", height=cfg.height, width=cfg.width, frames=cfg.frames)
    docs = [
        io.detection_stream_doc(media, scenario.detections),
        io.tracks_doc(media, dict(enumerate(scenario.gt_masklets))),
        io.masklets_doc(media, run(scenario.detections, scenario.propagator)),
    ]
    text = "".join(io.dumps_json(doc) for doc in docs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@st.composite
def scenario_configs(draw):
    """Small scenarios with every kind of noise: misses, jitter on both
    sides, false positives (some of them distractors) and occlusions."""
    size = draw(st.integers(8, 16))
    frames = draw(st.integers(1, 6))
    objects = draw(st.integers(0, 2))
    occlusions = ()
    if objects and draw(st.booleans()):
        first = draw(st.integers(0, frames - 1))
        last = draw(st.integers(first, frames - 1))
        occlusions = ((draw(st.integers(0, objects - 1)), first, last),)
    return ScenarioConfig(
        height=size, width=size + draw(st.integers(0, 4)), frames=frames, objects=objects,
        min_size=2, max_size=draw(st.integers(2, 4)), waypoints=draw(st.integers(2, 3)),
        miss_prob=draw(st.sampled_from([0.0, 0.3])), fp_rate=draw(st.sampled_from([0.0, 1.5])),
        distractor_prob=draw(st.sampled_from([0.0, 0.5])),
        jitter_px=draw(st.integers(0, 4)), prop_jitter_px=draw(st.integers(0, 4)),
        occlusions=occlusions, seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=150, deadline=None)
@given(scenario_configs())
def test_batched_jitter_equals_scalar_draws(cfg):
    """gen_scenario draws a masklet set's shifts in one call and each
    detection's in one size-2 call; the stream is the one that two scalar
    draws per shift give."""
    try:
        gt_boxes, prop_boxes, det_boxes = reference_scenario_boxes(cfg)
    except ValueError:  # no disjoint placement: the generator gives up too
        with pytest.raises(ValueError, match="disjoint"):
            gen_scenario(cfg)
        return
    scenario = gen_scenario(cfg)

    def mask(box):
        return rle_encode(box_grid(cfg.height, cfg.width, box))

    assert [s.frames for s in scenario.gt_masklets] == [
        {t: mask(box) for t, box in frames.items()} for frames in gt_boxes.values()
    ]
    assert [[(d.mask, d.score) for d in dets] for dets in scenario.detections] == [
        [(mask(box), score) for box, score in dets] for dets in det_boxes
    ]
    # the propagator moves a masklet on its object's ground truth to the
    # object's jittered mask, or holds it where the object is hidden
    for i, frames in gt_boxes.items():
        for t in range(1, cfg.frames):
            if t - 1 not in frames:
                continue
            masklet = Masklet(id=0, t_first=t - 1)
            prev = scenario.gt_masklets[i].frames[t - 1]
            masklet.masks[t - 1], masklet.scores[t - 1] = prev, 0.5
            expected = mask(prop_boxes[i][t]) if t in prop_boxes[i] else prev
            assert scenario.propagator(masklet, t)[0] == expected


class TestFollowReference:
    G = 12

    def r(self, x, y, w=4, h=4):
        return rect_mask(self.G, self.G, x, y, w, h)

    def masklet(self, mask, score=0.7):
        m = Masklet(id=0, t_first=0)
        m.masks[0], m.scores[0] = mask, score
        return m

    def reference(self):
        # tracks 5 and 2 overlap the masklet's frame-0 mask equally (IoU 1/3);
        # track 9 is absent on frame 0, track 4 has no frame-1 mask
        return {
            5: seq(self.G, self.G, {0: self.r(0, 2), 1: self.r(0, 0, 3, 3)}),
            2: seq(self.G, self.G, {0: self.r(4, 2), 1: self.r(8, 8, 3, 3)}),
            9: seq(self.G, self.G, {1: self.r(2, 2)}),
            4: seq(self.G, self.G, {0: self.r(8, 0)}),
        }

    def output(self):
        out = {tid: seq(self.G, self.G, {1: self.r(tid, tid, 2, 2)}) for tid in (2, 5, 9)}
        return {**out, 4: seq(self.G, self.G, {})}

    # (output, confidence) as the CLI and the simulator set them
    SETTINGS = {"cli": (False, None), "sim": (True, 1.0)}

    def propagator(self, setting):
        use_output, confidence = self.SETTINGS[setting]
        return follow_reference(
            self.reference(), self.output() if use_output else None, confidence
        )

    @pytest.mark.parametrize("setting", ["cli", "sim"])
    def test_tie_goes_to_lowest_track_id(self, setting):
        mask, score = self.propagator(setting)(self.masklet(self.r(2, 2)), 1)
        source = self.output() if setting == "sim" else self.reference()
        assert mask == source[2].frames.get(1)
        assert score == (1.0 if setting == "sim" else 0.7)

    @pytest.mark.parametrize("setting", ["cli", "sim"])
    def test_perfect_match_goes_to_lowest_track_id(self, setting):
        # tracks 7 and 3 both hold the masklet's frame-0 mask (IoU 1.0 each),
        # track 1 overlaps it in part; track 3 is followed, as a full scan does
        prev = self.r(2, 2)
        reference = {
            1: seq(self.G, self.G, {0: self.r(3, 3), 1: self.r(0, 0)}),
            7: seq(self.G, self.G, {0: self.r(2, 2), 1: self.r(7, 7)}),
            3: seq(self.G, self.G, {0: prev, 1: self.r(5, 5)}),
        }
        output = {tid: seq(self.G, self.G, {1: self.r(tid, 0, 2, 2)}) for tid in reference}
        use_output, confidence = self.SETTINGS[setting]
        propagate = follow_reference(reference, output if use_output else None, confidence)
        mask, _ = propagate(self.masklet(prev), 1)
        assert mask == (output if use_output else reference)[3].frames[1]

    @pytest.mark.parametrize("setting", ["cli", "sim"])
    @pytest.mark.parametrize(
        "prev",
        [
            (8, 8),  # overlaps no track on frame 0
            (8, 0),  # follows track 4, which has no frame-1 mask
            None,  # empty previous mask
        ],
    )
    def test_hold_previous_mask_and_score(self, setting, prev):
        mask = RleMask.empty(self.G, self.G) if prev is None else self.r(*prev)
        assert self.propagator(setting)(self.masklet(mask), 1) == (mask, 0.7)


class TestExemplarPolicy:
    def gt(self, *boxes):
        return [rect_mask(16, 16, *b) for b in boxes]

    def test_missed_gt_gives_positive_prompt(self):
        gt = self.gt((0, 0, 4, 4))
        event = exemplar_policy([], gt, [], seed=0)
        assert event.kind == "positive"
        assert event.box == BBox(0, 0, 4, 4)
        assert event.iteration == 0

    def test_empty_gt_is_not_a_positive_candidate(self):
        assert exemplar_policy([], [RleMask.empty(8, 8)], [], 0) is None
        gt = [RleMask.empty(16, 16), *self.gt((2, 2, 4, 4))]
        for seed in range(5):
            assert exemplar_policy([], gt, [], seed).box == BBox(2, 2, 4, 4)

    def test_disjoint_fp_gives_negative_prompt(self):
        gt = self.gt((0, 0, 4, 4))
        preds = [det(rect_mask(16, 16, 0, 0, 4, 4), 0.9), det(rect_mask(16, 16, 10, 10, 3, 3), 0.9)]
        event = exemplar_policy(preds, gt, [], seed=0)
        assert event.kind == "negative"
        assert event.box == BBox(10, 10, 3, 3)

    def test_perfect_predictions_stop(self):
        gt = self.gt((0, 0, 4, 4), (8, 8, 4, 4))
        preds = [det(m, 0.9) for m in gt]
        assert exemplar_policy(preds, gt, [], seed=0) is None

    def test_low_scored_fp_not_a_candidate(self):
        gt = self.gt((0, 0, 4, 4))
        preds = [det(rect_mask(16, 16, 0, 0, 4, 4), 0.9), det(rect_mask(16, 16, 10, 10, 3, 3), 0.4)]
        assert exemplar_policy(preds, gt, [], seed=0) is None

    def test_overlapping_fp_not_a_negative(self):
        # a false positive that half-covers a ground truth is too entangled
        gt = self.gt((0, 0, 4, 4))
        half = rect_mask(16, 16, 0, 0, 4, 2)
        preds = [det(rect_mask(16, 16, 0, 0, 4, 4), 0.9), det(half, 0.9)]
        assert exemplar_policy(preds, gt, [], seed=0) is None

    def test_budget_enforced(self):
        history = [
            PromptEvent(kind="positive", box=BBox(0, 0, 1, 1), iteration=i)
            for i in range(5)
        ]
        with pytest.raises(ValueError):
            exemplar_policy([], self.gt((0, 0, 2, 2)), history, seed=0)

    def test_iteration_index_follows_history(self):
        history = [PromptEvent(kind="positive", box=BBox(0, 0, 1, 1), iteration=0)]
        event = exemplar_policy([], self.gt((0, 0, 2, 2)), history, seed=0)
        assert event.iteration == 1

    def test_seed_determinism_and_kind_mixing(self):
        gt = self.gt((0, 0, 4, 4), (8, 0, 4, 4))
        preds = [
            det(rect_mask(16, 16, 0, 0, 4, 4), 0.9),  # matches gt 0
            det(rect_mask(16, 16, 0, 10, 3, 3), 0.9),  # disjoint FP
        ]
        # gt 1 is missed and the FP is a negative candidate: both pools live
        kinds = set()
        for seed in range(40):
            e1 = exemplar_policy(preds, gt, [], seed=seed)
            e2 = exemplar_policy(preds, gt, [], seed=seed)
            assert e1 == e2
            kinds.add(e1.kind)
        assert kinds == {"positive", "negative"}

    def test_policy_invariants_random(self, rng):
        for trial in range(200):
            n_gt = int(rng.integers(0, 4))
            gt_boxes = []
            for _ in range(n_gt):
                w, h = rng.integers(2, 5, size=2)
                x = int(rng.integers(0, 16 - w))
                y = int(rng.integers(0, 16 - h))
                gt_boxes.append((x, y, int(w), int(h)))
            gt = self.gt(*gt_boxes)
            preds = []
            for _ in range(int(rng.integers(0, 4))):
                w, h = rng.integers(2, 5, size=2)
                x = int(rng.integers(0, 16 - w))
                y = int(rng.integers(0, 16 - h))
                preds.append(det(rect_mask(16, 16, x, y, int(w), int(h)), float(rng.random())))
            event = exemplar_policy(preds, gt, [], seed=trial)
            if event is None:
                continue
            gt_bboxes = [bbox_of(m) for m in gt]
            if event.kind == "positive":
                assert event.box in gt_bboxes
            else:
                assert all(
                    mask_iou(rect_mask(16, 16, b.x, b.y, b.w, b.h), g) < 0.5
                    for b, g in [(event.box, g) for g in gt]
                )


@st.composite
def edge_boxes(draw):
    """A grid and a box on it: anywhere (so clipped at any edge), touching
    the right and bottom edges, full-height, one pixel, or off the grid."""
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["any", "right-bottom", "full-height", "pixel", "off-grid"]))
    x, y = draw(st.integers(-3, width - 1)), draw(st.integers(-3, height - 1))
    w, h = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    if kind == "right-bottom":
        w, h = width - x + draw(st.integers(0, 2)), height - y + draw(st.integers(0, 2))
    elif kind == "full-height":
        h = height - y + draw(st.integers(0, 2))
        y = min(y, 0)
    elif kind == "pixel":
        x, y, w, h = max(x, 0), max(y, 0), 1, 1
    elif kind == "off-grid":
        x, y = draw(st.sampled_from([(width, y), (x, height), (-w - 1, y), (x, -h - 1)]))
    return height, width, BBox(x, y, w, h)


class TestRectMask:
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 9), st.integers(1, 9),
        st.integers(-12, 12), st.integers(-12, 12), st.integers(0, 12), st.integers(0, 12),
    )
    @example(6, 5, -2, 3, 4, 9)  # clipped on the left and at the bottom
    @example(6, 5, 1, 1, 0, 3)  # empty
    @example(6, 5, 1, 6, 2, 2)  # below the grid
    @example(6, 5, 1, -1, 3, 8)  # full height
    @example(6, 5, 0, 0, 5, 6)  # full grid
    def test_equals_encoded_painted_grid(self, height, width, x, y, w, h):
        grid = np.zeros((height, width), dtype=bool)
        grid[max(0, y) : max(0, y + h), max(0, x) : max(0, x + w)] = True
        assert _rect_mask(height, width, BBox(x, y, w, h)) == rle_encode(grid)

    def test_grid_of_non_int_sizes_is_still_checked(self):
        with pytest.raises(ValueError, match="mask grid sizes must be ints"):
            _rect_mask(6.0, 5, BBox(1, 1, 2, 2))

    @settings(max_examples=400, deadline=None)
    @given(edge_boxes())
    @example((5, 6, BBox(0, 0, 6, 5)))  # the full grid
    @example((5, 6, BBox(2, 3, 4, 2)))  # ends on the grid's last pixel
    @example((5, 6, BBox(0, -1, 2, 9)))  # full height from offset 0
    @example((5, 6, BBox(0, 0, 1, 1)))  # the first pixel
    def test_trusted_path_equals_checked_path(self, case):
        # canonical runs skip the constructor's checks; the mask must be the
        # one the checks build from them
        height, width, box = case
        mask = _rect_mask(height, width, box)
        twin = RleMask(height, width, list(mask.counts))  # through every check
        painted = rle_encode(box_grid(height, width, box))
        assert mask.counts == twin.counts == painted.counts
        assert mask.area == twin.area == painted.area
        assert mask == twin and twin == mask and hash(mask) == hash(twin)
        assert repr(mask) == repr(twin)
        copy = pickle.loads(pickle.dumps(mask))
        assert copy == mask and copy.area == mask.area
        other = _rect_mask(height, width, BBox(1, 1, 3, 2))
        assert mask_iou(mask, other) == mask_iou(twin, other) == mask_iou(other, twin)
        assert mask_iou(mask, twin) == (1.0 if mask.area else 0.0)
        if mask.area:
            assert bbox_of(mask) == bbox_of(twin)
        else:
            with pytest.raises(ValueError):
                bbox_of(mask)
