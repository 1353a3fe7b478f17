from __future__ import annotations

import hashlib
import itertools
import tracemalloc

import pytest

from phraseseg import Detection, Tracker, TrackerConfig, run
from phraseseg.tracker import hold_propagator
from phraseseg import gen_scenario, ScenarioConfig
from phraseseg import io_schemas as io

from conftest import det, mask_from_pixels, rect_mask


G = 24  # grid side for most fixtures


def r(x, y, w, h):
    return rect_mask(G, G, x, y, w, h)


def stream(length, events):
    """Detection stream: events maps frame -> list of detections."""
    return [list(events.get(t, [])) for t in range(length)]


class TestDelta:
    """The stage (3) match indicator δ as ``step`` applies it: each frame
    adds +1 to a masklet's lifetime sum iff some detection overlaps its
    propagated mask with IoU strictly above ``match_iou``, else -1."""

    def lifetime_after(self, mask, detections):
        tracker = Tracker(hold_propagator)
        tracker.step([det(mask, 0.9)])  # spawns masklet 0 on its own detection: +1
        tracker.step(detections)
        return tracker.masklets[0].lifetime_mds

    def test_identical_detection(self):
        mask = r(0, 0, 3, 3)
        assert self.lifetime_after(mask, [det(mask, 0.9)]) == 2

    def test_no_detections(self):
        assert self.lifetime_after(r(0, 0, 3, 3), []) == 0

    def test_boundary_iou_is_unmatched(self):
        # IoU exactly 0.5 (2x2 inside 2x4) fails the strict > comparison
        mask = r(0, 0, 2, 2)
        covering = r(0, 0, 2, 4)
        assert self.lifetime_after(mask, [det(covering, 0.9)]) == 0

    def test_any_detection_suffices(self):
        mask = r(0, 0, 3, 3)
        far = r(10, 10, 3, 3)
        assert self.lifetime_after(mask, [det(far), det(mask)]) == 2


class TestStepContract:
    def test_grid_mismatch_rejected(self):
        bad = mask_from_pixels(G, G + 1, [(0, 0)])
        tracker = Tracker(lambda masklet, frame: (bad, 1.0))
        tracker.step([det(r(0, 0, 2, 2))])
        with pytest.raises(ValueError, match="grid"):
            tracker.step([])
        assert tracker.clock == 1 and 1 not in tracker.masklets[0].masks

    def test_step_gates_detections(self):
        # a detection at exactly the 0.5 gate neither spawns nor matches
        mask = r(0, 0, 3, 3)
        tracker = Tracker(hold_propagator)
        tracker.step([det(mask, 0.5)])
        assert tracker.masklets == {}
        tracker.step([det(mask, 0.9)])
        tracker.step([det(mask, 0.5)])
        assert tracker.masklets[0].lifetime_mds == 0

    def test_delay_contract(self):
        obj = r(0, 0, 4, 4)
        tracker = Tracker(hold_propagator)
        outputs = [tracker.step([det(obj)]) for _ in range(20)]
        assert all(o is None for o in outputs[:15])
        assert outputs[15].frame == 0
        assert outputs[19].frame == 4


class TestLifecycles:
    def run_stream(self, dets, config=None, frames=None):
        frames = frames if frames is not None else len(dets)
        return run(dets[:frames], hold_propagator, config or TrackerConfig())

    def test_spurious_removed_at_window_close(self):
        obj = r(0, 0, 4, 4)
        spur = r(12, 12, 4, 4)
        events = {t: [det(obj)] for t in range(40)}
        for t in (5, 6, 7):
            events[t] = [det(obj), det(spur)]
        result = self.run_stream(stream(40, events))
        assert result.masklets == {0: dict.fromkeys(range(40), obj)}

    def test_spec_removal_trace(self):
        # spawned at 5, matched 5-7, unmatched afterwards: removed exactly at
        # the close of window [0, 15] with a window score of -5
        spur = r(12, 12, 4, 4)
        events = {t: [det(spur)] for t in (5, 6, 7)}
        tracker = Tracker(hold_propagator)
        for t in range(16):
            tracker.step(events.get(t, []))
            if t == 14:
                assert 0 in tracker.masklets
                assert tracker.masklets[0].lifetime_mds == 3 - 7
        assert 0 not in tracker.masklets  # removed at clock 15

    def test_duplicate_later_start_removed(self):
        obj = r(0, 0, 4, 4)
        shifted = r(2, 0, 4, 4)  # IoU 1/3 with obj: duplicate above 0.1, no match
        events = {t: [det(obj)] for t in range(2, 40)}
        for t in range(9, 31):
            events[t] = [det(obj), det(shifted)]
        removed_at = None
        tracker = Tracker(hold_propagator)
        for t in range(40):
            tracker.step(events.get(t, []))
            if removed_at is None and tracker._next_id > 1 and 1 not in tracker.masklets:
                removed_at = t
        assert 0 in tracker.masklets and 1 not in tracker.masklets
        # overlap frames 9..16 reach the 8-frame quota at clock 16; the shared
        # detection keeps masklet 1 matched, so only the duplicate rule fires
        assert removed_at == 16

    def test_duplicate_never_emitted(self):
        obj = r(0, 0, 4, 4)
        shifted = r(2, 0, 4, 4)
        events = {t: [det(obj)] for t in range(2, 40)}
        for t in range(9, 31):
            events[t] = [det(obj), det(shifted)]
        result = self.run_stream(stream(40, events))
        assert set(result.masklets) == {0}

    def test_suppression_zeroes_and_recovers(self):
        obj = r(0, 0, 4, 4)
        events = {}
        for t in range(0, 20):
            events[t] = [det(obj)]
        for t in range(41, 70):
            events[t] = [det(obj)]
        result = self.run_stream(stream(70, events))
        assert set(result.masklets) == {0}
        frames = result.masklets[0]
        assert frames[39] == obj
        assert frames[40] is None  # lifetime score dips to -1 exactly here
        assert frames[41] == obj  # recovered with the same id

    def test_ids_never_reused(self):
        obj = r(0, 0, 4, 4)
        spur = r(12, 12, 4, 4)
        events = {t: [det(obj)] for t in range(60)}
        for t in (5, 6, 7):
            events[t] = [det(obj), det(spur)]
        for t in (30, 31, 32):
            events[t] = [det(obj), det(spur)]
        tracker = Tracker(hold_propagator)
        seen = set()
        for t in range(60):
            tracker.step(events[t])
            seen |= set(tracker.masklets)
        assert seen == {0, 1, 2}
        assert set(tracker.masklets) == {0}


class TestReprompt:
    def make_events(self, length, det_mask, score=0.9):
        return [[Detection(mask=det_mask, score=score)] for _ in range(length)]

    def fixed_propagator(self, mask, conf=0.9):
        def propagate(masklet, frame):
            return mask, conf

        return propagate

    def test_fires_only_on_periodic_frames(self):
        prop_mask = r(0, 0, 10, 2)  # 20 px
        det_mask = r(0, 0, 9, 2)  # IoU 0.9, bbox IoU 0.9 (no recondition)
        result = run(
            self.make_events(34, det_mask),
            self.fixed_propagator(prop_mask),
            TrackerConfig(),
        )
        frames = result.masklets[0]
        assert frames[16] == det_mask  # periodic frame: replaced
        assert frames[32] == det_mask
        assert frames[15] == prop_mask
        assert frames[17] == prop_mask  # same conditions, wrong frame: kept

    def test_requires_high_scores(self):
        prop_mask = r(0, 0, 10, 2)
        det_mask = r(0, 0, 9, 2)
        low_det = run(
            self.make_events(18, det_mask, score=0.8),  # not strictly above 0.8
            self.fixed_propagator(prop_mask, conf=0.9),
            TrackerConfig(),
        )
        assert low_det.masklets[0][16] == prop_mask
        low_prop = run(
            self.make_events(18, det_mask, score=0.9),
            self.fixed_propagator(prop_mask, conf=0.8),
            TrackerConfig(),
        )
        assert low_prop.masklets[0][16] == prop_mask

    def test_iou_boundary_inclusive(self):
        prop_mask = r(0, 0, 10, 2)  # 20 px
        exact = r(0, 0, 8, 2)  # IoU 16/20 = 0.8: fires
        result = run(
            self.make_events(18, exact),
            self.fixed_propagator(prop_mask),
            TrackerConfig(),
        )
        assert result.masklets[0][16] == exact

    def test_iou_below_bound_kept(self):
        prop_mask = r(0, 0, 10, 2)  # 20px
        weak = r(0, 0, 7, 2)  # IoU 14/20 = 0.7 < 0.8
        result = run(
            self.make_events(18, weak),
            self.fixed_propagator(prop_mask),
            TrackerConfig(recondition_bbox_iou=0.0),  # isolate re-prompting
        )
        assert result.masklets[0][16] == prop_mask

    @pytest.mark.parametrize("first", [0, 1])
    def test_equal_ious_take_the_first_detection(self, first):
        prop_mask = r(0, 0, 10, 2)
        tied = [r(0, 0, 9, 2), r(1, 0, 9, 2)]  # IoU 0.9 each
        order = tied if first == 0 else tied[::-1]
        events = self.make_events(16, prop_mask)
        events.append([Detection(mask=m, score=0.9) for m in order])
        result = run(
            events,
            self.fixed_propagator(prop_mask),
            TrackerConfig(recondition_bbox_iou=0.0),  # isolate re-prompting
        )
        assert result.masklets[0][16] == order[0]


class TestRecondition:
    def test_triggers_below_bbox_bound(self):
        leaky = r(0, 0, 16, 2)  # bbox IoU with det box: 12/16 = 0.75 < 0.85
        tight = r(0, 0, 12, 2)

        def propagate(masklet, frame):
            return leaky, 0.7  # low conf keeps re-prompting out of the picture

        result = run(
            [[Detection(mask=tight, score=0.7)] for _ in range(18)],
            propagate,
            TrackerConfig(),
        )
        frames = result.masklets[0]
        assert frames[1] == tight  # reconditioned every frame after spawn
        assert frames[17] == tight

    def test_boundary_not_triggered(self):
        prop_mask = r(0, 0, 20, 2)  # bbox IoU 17/20 = 0.85 exactly
        det_mask = r(0, 0, 17, 2)

        def propagate(masklet, frame):
            return prop_mask, 0.7

        result = run(
            [[Detection(mask=det_mask, score=0.7)] for _ in range(18)],
            propagate,
            TrackerConfig(),
        )
        assert result.masklets[0][1] == prop_mask

    def test_needs_a_matched_detection(self):
        prop_mask = r(0, 0, 4, 4)
        far = r(12, 12, 4, 4)  # IoU 0 with the track: never matched

        def propagate(masklet, frame):
            return prop_mask, 0.7

        # frame 5 offers only an unrelated detection: without a matched
        # detection there is nothing to recondition from
        events = [
            [Detection(mask=far if t == 5 else prop_mask, score=0.7)]
            for t in range(18)
        ]
        result = run(events, propagate, TrackerConfig())
        assert result.masklets[0][5] == prop_mask


class TestDeterminismAndScenario:
    def serialize(self, result):
        return {
            mid: {t: None if m is None else m.counts for t, m in frames.items()}
            for mid, frames in result.masklets.items()
        }

    def test_bit_identical_reruns(self):
        cfg = ScenarioConfig(objects=3, frames=40, fp_rate=0.5, miss_prob=0.2, jitter_px=1, seed=11)
        scenario = gen_scenario(cfg)
        r1 = run(scenario.detections, scenario.propagator, TrackerConfig())
        scenario2 = gen_scenario(cfg)
        r2 = run(scenario2.detections, scenario2.propagator, TrackerConfig())
        assert self.serialize(r1) == self.serialize(r2)

    def test_occlusion_keeps_identity(self):
        cfg = ScenarioConfig(
            objects=1,
            frames=60,
            waypoints=2,
            max_step=6,
            occlusions=((0, 30, 32),),
            seed=5,
        )
        scenario = gen_scenario(cfg)
        result = run(scenario.detections, scenario.propagator, TrackerConfig())
        assert set(result.masklets) == {0}
        gt = scenario.gt_masklets[0]
        frames = result.masklets[0]
        for t in range(36, 60):
            assert frames[t] == gt.frames[t]

    def test_zero_noise_fixed_point_single(self):
        cfg = ScenarioConfig(objects=4, frames=50, seed=3)
        scenario = gen_scenario(cfg)
        result = run(scenario.detections, scenario.propagator, TrackerConfig())
        sequences = result.sequences()
        assert len(sequences) == len(scenario.gt_masklets)
        for mid, gt in zip(sorted(sequences), scenario.gt_masklets):
            assert sequences[mid].frames == gt.frames

    def test_noisy_scenario_tracks_every_object(self):
        from phraseseg import volume_iou

        cfg = ScenarioConfig(
            objects=3,
            frames=60,
            miss_prob=0.1,
            fp_rate=0.4,
            distractor_prob=0.3,
            jitter_px=1,
            seed=13,
        )
        scenario = gen_scenario(cfg)
        result = run(scenario.detections, scenario.propagator, TrackerConfig())
        sequences = result.sequences()
        # every real object is tracked by some emitted masklet with solid
        # volume overlap
        for gt in scenario.gt_masklets:
            best = max(volume_iou(seq, gt) for seq in sequences.values())
            assert best > 0.5
        # spurious masklets only survive when born inside the final window,
        # where the truncated end-of-stream check has no negative evidence yet
        window = TrackerConfig().confirmation_window
        for mid, seq in sequences.items():
            on_object = any(volume_iou(seq, gt) > 0.5 for gt in scenario.gt_masklets)
            if not on_object:
                assert min(result.masklets[mid]) >= cfg.frames - window


class TestBoundedState:
    def test_state_bounded_by_window_on_long_stream(self):
        # a spurious detection spawns a masklet that is suppressed and
        # removed as unconfirmed at window close
        self.assert_bounded(r(15, 15, 3, 3), period=7)

    def test_duplicate_state_bounded_on_long_stream(self):
        # a detection at IoU 0.6 with the object spawns a confirmed masklet
        # that shares the object's detection and is removed as a duplicate
        self.assert_bounded(r(1, 0, 4, 4), period=3)

    def assert_bounded(self, extra, period):
        # one static object, plus an extra detection that recurs every period
        cfg = TrackerConfig()
        bound = cfg.confirmation_window + 2
        obj = r(0, 0, 4, 4)
        tracker = Tracker(hold_propagator, cfg)
        for t in range(10_000):
            if t == 1_000:
                tracemalloc.start()
            dets = [det(obj, 0.9)] + ([det(extra, 0.9)] if t % period == 0 else [])
            tracker.step(dets)
            for m in tracker.masklets.values():
                assert max(len(m.masks), len(m.scores)) <= bound
        grown, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert 0 in tracker.masklets and tracker._next_id > 1_000
        assert grown < 256 * 1024

    CONFIGS = list(itertools.product(range(6), (1, 4, 15), (0, 2)))

    def test_pruning_leaves_outputs_unchanged(self, monkeypatch):
        scenarios = {
            seed: gen_scenario(
                ScenarioConfig(
                    height=32, width=32, frames=60, objects=2, miss_prob=0.2,
                    fp_rate=0.8, distractor_prob=0.3, jitter_px=1, seed=seed,
                )
            )
            for seed in range(6)
        }

        def outputs():
            return [
                run(
                    scenarios[seed].detections,
                    scenarios[seed].propagator,
                    TrackerConfig(
                        confirmation_window=window,
                        confirmation_threshold=threshold,
                    ),
                ).masklets
                for seed, window, threshold in self.CONFIGS
            ]

        pruned = outputs()
        monkeypatch.setattr(Tracker, "_prune", lambda self, horizon: None)
        assert pruned == outputs()


def masklets_digest(config, propagator=None):
    """sha256 of the masklet documents over seeds 0-3 of a noisy scenario,
    tracked with the scenario's propagator unless another is given."""
    docs = []
    for seed in range(4):
        cfg = ScenarioConfig(
            height=32, width=32, frames=60, objects=2, miss_prob=0.2,
            fp_rate=0.8, distractor_prob=0.3, jitter_px=1, seed=seed,
        )
        scenario = gen_scenario(cfg)
        media = io.MediaInfo(id="sim", height=cfg.height, width=cfg.width, frames=cfg.frames)
        result = run(scenario.detections, propagator or scenario.propagator, config)
        docs.append(io.dumps_json(io.masklets_doc(media, result)))
    return hashlib.sha256("".join(docs).encode()).hexdigest()


# per non-default (confirmation_window, confirmation_threshold): pins the
# lifecycle checks, pruning and emission on configs no golden file reaches
CONFIG_DIGESTS = {
    (1, -2): "5304ebcc8863c17318acc99352500aeafb28cb5abf13f73665bbcf5b39d2ae0a",
    (1, 2): "e75387cd300b1c466779103d9e2810bc4346fe3473a69826713d950da9f6378e",
    (1, 5): "dc99ea42749c7567f460b51fd35f44fdca5d984972af1b5386b87967aa1139d8",
    (4, -2): "0bdbfec38a0dccb58c9632dbd21105c367ef4177d2329506c7e490c1c90fbc3d",
    (4, 2): "e961ec99dd081d4436de0b2a4ea39375df6d148e5f5b0c9318a3cb6175289a9a",
    (4, 5): "e49633ee5481095dc8a70e85ab23dacc104add64774ed87b1d2378f5d4c1034c",
    (31, -2): "f73dd910db1c8af6701729369ef36065672198f349d87410dd84b98b1a688097",
    (31, 2): "24cdfc7a7d3c9d011411a4bb75122ac07ef163eedabea29f036ef44b5e68331c",
    (31, 5): "97c7092c655386aa11b0b7e2b5d2e791f9d7f516e72963ff05ff6f5288d1e624",
}


@pytest.mark.parametrize("window, threshold", list(CONFIG_DIGESTS))
def test_config_digest(window, threshold):
    config = TrackerConfig(confirmation_window=window, confirmation_threshold=threshold)
    assert masklets_digest(config) == CONFIG_DIGESTS[window, threshold]


# per (config, propagator): pins duplicate removal (5), re-prompting (7) and
# reconditioning (8) at non-default values, with both propagators
STAGE_CONFIGS = {
    "duplicate_iou=0": TrackerConfig(duplicate_iou=0.0),
    "duplicate_iou=0.5": TrackerConfig(duplicate_iou=0.5),
    "reprompt every frame": TrackerConfig(
        reprompt_period=1, reprompt_iou=0.6, reprompt_confidence=0.5
    ),
}
STAGE_DIGESTS = {
    ("duplicate_iou=0", "scenario"):
        "0d38bbd12a18c07635d8468c0e8471b3a5ad0f00af20a76314439558b22706b8",
    ("duplicate_iou=0", "hold"):
        "a0cee69ff554223f00b5c19981c2da7a81fb1694439e13c7076abe0457d8b994",
    ("duplicate_iou=0.5", "scenario"):
        "1f4d49ad384da5492a61d16a0fadacd45435716aa42f550af12054a014a189ab",
    ("duplicate_iou=0.5", "hold"):
        "3b71b1ae4addfb67def71e2380de295a6b7428da3b9be8bd4d95ee4c52c536e0",
    ("reprompt every frame", "scenario"):
        "f65d6db174ff911e775d88f9c34513d0167b6127e5ee4296c083e1dae25fb181",
    ("reprompt every frame", "hold"):
        "4bf0dc88fceabe758c27d6a77d7d433f6fe2e72eac950dd609844cabddf5b6de",
}


@pytest.mark.parametrize("name, propagator", list(STAGE_DIGESTS))
def test_stage_digest(name, propagator):
    prop = hold_propagator if propagator == "hold" else None
    assert masklets_digest(STAGE_CONFIGS[name], prop) == STAGE_DIGESTS[name, propagator]
