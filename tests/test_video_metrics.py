from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phraseseg import (
    FrameMaskSeq,
    RleMask,
    UndefinedMetricError,
    cg_f1,
    hota,
    match_masklets,
    phota_remap,
    random_pair,
    video_cg_f1,
    volume_iou,
)
from phraseseg.image_metrics import human_oracle
from phraseseg.matching import iou_matrix
from phraseseg.video_metrics import HOTA_ALPHAS

from _reference import reference_hota, reference_image_metrics
from conftest import datapoint, det, mask_from_pixels, random_mask, rect_mask, seq


def m(*pixels):
    return mask_from_pixels(4, 4, pixels)


def vdp(gts, preds, video="v", phrase="thing"):
    return datapoint(gts, [det(s, sc) for s, sc in preds], media=video, phrase=phrase)


class TestMatchMasklets:
    def test_identical(self):
        track = seq(4, 4, {0: m((0, 0)), 1: m((0, 1))})
        match = match_masklets(vdp([track], [(track, 0.9)]))
        assert match.pairs == ((0, 0, 1.0),)

    def test_content_swapped(self):
        a = seq(4, 4, {0: m((0, 0)), 1: m((0, 0))})
        b = seq(4, 4, {0: m((3, 3)), 1: m((3, 3))})
        match = match_masklets(vdp([a, b], [(b, 0.9), (a, 0.8)]))
        assert match.gt_for() == {0: 1, 1: 0}

    def test_no_predictions(self):
        track = seq(4, 4, {0: m((0, 0))})
        assert match_masklets(vdp([track], [])).pairs == ()

    def test_gate_applies(self):
        track = seq(4, 4, {0: m((0, 0))})
        assert match_masklets(vdp([track], [(track, 0.5)])).pairs == ()


class TestVideoCgF1:
    def test_perfect(self):
        track = seq(4, 4, {0: m((0, 0)), 1: m((1, 1))})
        other = seq(4, 4, {0: m((3, 3))})
        vdps = [
            vdp([track], [(track, 0.9)], video="a"),
            vdp([other], [(other, 0.9)], video="b"),
            vdp([], [], video="c"),
        ]
        report = video_cg_f1(vdps)
        assert report.cg_f1 == 100.0
        assert report.level == "video"
        assert report.mode == "macro"

    def test_threshold_sweep_example(self):
        # one positive pair matched at volume IoU 0.6 plus one extra FP masklet
        gt = seq(10, 10, {t: rect_mask(10, 10, 0, 0, 5, 2) for t in range(2)})
        pred = seq(10, 10, {t: rect_mask(10, 10, 0, 0, 3, 2) for t in range(2)})
        fp = seq(10, 10, {0: rect_mask(10, 10, 7, 7, 2, 2)})
        anchor_gt = seq(10, 10, {0: rect_mask(10, 10, 5, 5, 1, 1)})
        positive = vdp([gt], [(pred, 0.9), (fp, 0.9)], video="a")
        negative = vdp([], [], video="b")
        anchor = vdp([anchor_gt], [(anchor_gt, 0.9)], video="c")
        report = video_cg_f1([positive, negative, anchor])
        # positive pair: volume IoU 6/10 = 0.6 -> local F1 2/3 for tau <= 0.6,
        # 0 above; threshold-average (3 * 2/3) / 10 = 0.2
        per_pair = (3 * (2 / 3)) / 10
        assert report.macro_f1 == pytest.approx((per_pair + 1.0) / 2, abs=1e-12)

    def test_vl_mcc_sign_flip(self):
        track = seq(4, 4, {0: m((0, 0))})
        vdps = [
            vdp([track], [(track, 0.9)], video="a"),
            vdp([], [], video="b"),
            vdp([track], [], video="c"),
            vdp([], [(track, 0.9)], video="d"),
        ]
        flipped = [
            vdp([], [(track, 0.9)], video="a"),
            vdp([track], [], video="b2"),
            vdp([], [], video="c"),
            vdp([track], [(track, 0.9)], video="d"),
        ]
        assert video_cg_f1(vdps).mcc == -video_cg_f1(flipped).mcc

    def test_micro_mode_switch(self):
        gt1 = seq(4, 4, {0: m((0, 0)), 1: m((0, 0))})
        gt2 = seq(4, 4, {0: m((2, 2))})
        half = seq(4, 4, {0: m((0, 0))})
        fp = seq(4, 4, {0: m((3, 3))})
        vdps = [
            vdp([gt1], [(half, 0.9), (fp, 0.9)], video="a"),
            vdp([gt2], [(gt2, 0.9)], video="b"),
        ]
        micro = video_cg_f1(vdps, mode="micro")
        macro = video_cg_f1(vdps, mode="macro")
        assert micro.localization_f1 == micro.micro_f1
        assert macro.localization_f1 == macro.macro_f1
        assert micro.micro_f1 != macro.macro_f1

    def test_single_frame_videos_equal_image_macro(self, rng):
        vdps = []
        dps = []
        for i in range(6):
            gts = []
            if i % 3 != 2:
                gts = [random_mask(rng, 4, 4, 0.5) for _ in range(int(rng.integers(1, 3)))]
                gts = [g for g in gts if g.area > 0] or [m((0, 0))]
            preds = [
                (random_mask(rng, 4, 4, 0.5), float(rng.random()))
                for _ in range(int(rng.integers(0, 3)))
            ]
            vdps.append(
                vdp(
                    [seq(4, 4, {0: g}) for g in gts],
                    [(seq(4, 4, {0: p}), s) for p, s in preds],
                    video=str(i),
                )
            )
            dps.append(datapoint(gts, [det(p, s) for p, s in preds], media=str(i)))
        video_report = video_cg_f1(vdps, mode="macro")
        image_report = cg_f1(dps, mode="macro")
        assert video_report.cg_f1 == pytest.approx(image_report.cg_f1, abs=1e-12)
        assert video_report.mcc == image_report.mcc

    def test_no_positive_pairs_undefined(self):
        with pytest.raises(UndefinedMetricError):
            video_cg_f1([vdp([], [], video="a")])


@st.composite
def masklets(draw, size=3):
    """A masklet on a ``size`` x ``size`` grid over frames 0..2, with its
    (frame, row, col) pixel set. Stored frames may be empty, and so may the
    whole masklet."""
    pixel = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    frames = draw(st.dictionaries(st.integers(0, 2), st.sets(pixel, max_size=4), max_size=3))
    track = seq(size, size, {t: mask_from_pixels(size, size, px) for t, px in frames.items()})
    return track, {(t, r, c) for t, px in frames.items() for r, c in px}


# 0.2 and 0.5 fail the strict default gate
video_cases = st.tuples(
    st.lists(masklets(), max_size=3),
    st.lists(st.tuples(masklets(), st.sampled_from([0.2, 0.5, 0.7, 1.0])), max_size=3),
)


class TestSharedImagePath:
    """Masklets go through the image kernel and scoring path unchanged."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(video_cases, min_size=1, max_size=4))
    def test_micro_report_equals_pixel_set_reference(self, cases):
        # set IoU on (frame, row, col) pixels is volume IoU
        assume(any(gts for gts, _ in cases))
        dps = [
            vdp([t for t, _ in gts], [(t, s) for (t, _), s in preds], video=str(i))
            for i, (gts, preds) in enumerate(cases)
        ]
        raw = [([px for _, px in gts], [(px, s) for (_, px), s in preds]) for gts, preds in cases]
        report = video_cg_f1(dps, mode="micro")
        expected = reference_image_metrics(raw)
        assert report.micro_f1 == pytest.approx(expected["pmF1"], abs=1e-12)
        assert report.macro_f1 == pytest.approx(expected["macro_pF1"], abs=1e-12)
        assert report.mcc == pytest.approx(expected["IL_MCC"], abs=1e-12)
        assert report.cg_f1 == pytest.approx(expected["cgF1"], abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(masklets(), max_size=3), st.lists(masklets(), max_size=3))
    def test_iou_matrix_is_volume_iou(self, preds, gts):
        matrix = iou_matrix([t for t, _ in preds], [t for t, _ in gts])
        assert matrix.shape == (len(preds), len(gts))
        for i, (p, _) in enumerate(preds):
            for j, (g, _) in enumerate(gts):
                expected = 0.0 if p.is_empty and g.is_empty else volume_iou(p, g)
                assert matrix[i, j] == expected

    def test_two_empty_masklets_score_zero(self):
        empty = seq(2, 2, {0: RleMask.empty(2, 2)})
        assert iou_matrix([seq(2, 2, {})], [empty]).tolist() == [[0.0]]


class TestMediaKind:
    def test_datapoint_mixing_kinds_rejected(self):
        track = seq(4, 4, {0: m((0, 0))})
        with pytest.raises(ValueError, match="v/thing mixes image masks and masklets"):
            vdp([track], [(m((0, 0)), 0.9)])

    def test_image_metrics_name_the_video_datapoint(self):
        track = seq(4, 4, {0: m((0, 0))})
        dps = [
            datapoint([m((0, 0))], [det(m((0, 0)), 0.9)], media="img", extra_annotations=[[]]),
            datapoint([track], [det(track, 0.9)], media="vid", extra_annotations=[[track]]),
        ]
        for call in (cg_f1, human_oracle, lambda d: random_pair(d, trials=3)):
            with pytest.raises(ValueError, match="image metrics got datapoint vid/thing, which holds masklets"):
                call(dps)

    def test_video_cg_f1_names_the_image_datapoint(self):
        track = seq(4, 4, {0: m((0, 0))})
        dps = [vdp([track], [(track, 0.9)], video="vid"), datapoint([m((0, 0))], media="img")]
        with pytest.raises(ValueError, match="video metrics got datapoint img/thing, which holds image masks"):
            video_cg_f1(dps)

    def test_datapoint_without_masks_suits_both(self):
        track = seq(4, 4, {0: m((0, 0))})
        blank = datapoint([], media="blank")
        assert video_cg_f1([vdp([track], [(track, 0.9)]), blank]).cg_f1 == 100.0
        assert cg_f1([datapoint([m((0, 0))], [det(m((0, 0)), 0.9)]), blank]).cg_f1 == 100.0


class TestRemap:
    def test_three_phrases_three_sequences(self):
        track = seq(4, 4, {0: m((0, 0))})
        vdps = [vdp([track], [], video="v", phrase=p) for p in ("a", "b", "c")]
        remapped = phota_remap(vdps)
        assert len(remapped) == 3
        assert sorted(s.synthetic_id for s in remapped.sequences) == [0, 1, 2]
        assert {(s.video_id, s.phrase) for s in remapped.sequences} == {
            ("v", "a"),
            ("v", "b"),
            ("v", "c"),
        }

    def test_empty_benchmark(self):
        assert len(phota_remap([])) == 0

    def test_same_phrase_two_videos(self):
        track = seq(4, 4, {0: m((0, 0))})
        vdps = [vdp([track], [], video=v, phrase="p") for v in ("v1", "v2")]
        remapped = phota_remap(vdps)
        assert len({s.synthetic_id for s in remapped.sequences}) == 2

    def test_masks_carried_bit_exact(self):
        track = seq(4, 4, {0: m((0, 0)), 2: m((1, 1))})
        pred = seq(4, 4, {0: m((0, 1))})
        remapped = phota_remap([vdp([track], [(pred, 0.9)])])
        out = remapped.sequences[0]
        assert out.gt_tracks == (track,)
        assert out.pred_tracks[0].frames[0].counts == pred.frames[0].counts

    def test_gate_applied_to_predictions(self):
        track = seq(4, 4, {0: m((0, 0))})
        remapped = phota_remap([vdp([track], [(track, 0.4)])])
        assert remapped.sequences[0].pred_tracks == ()


def as_sets(track: FrameMaskSeq):
    return {
        t: set(map(tuple, np.argwhere(mask.decode())))
        for t, mask in track.frames.items()
        if mask.area > 0
    }


class TestHota:
    def test_perfect_tracks(self):
        a = seq(4, 4, {t: m((0, 0)) for t in range(4)})
        b = seq(4, 4, {t: m((2, 2)) for t in range(4)})
        result = hota(phota_remap([vdp([a, b], [(a, 0.9), (b, 0.9)])]))
        assert result.hota == 1.0
        assert result.det_a == 1.0
        assert result.ass_a == 1.0

    def test_identity_split_halves_association(self):
        gt = seq(4, 4, {t: m((0, 0)) for t in range(4)})
        first = seq(4, 4, {0: m((0, 0)), 1: m((0, 0))})
        second = seq(4, 4, {2: m((0, 0)), 3: m((0, 0))})
        result = hota(phota_remap([vdp([gt], [(first, 0.9), (second, 0.9)])]))
        assert result.det_a == 1.0
        assert result.ass_a == pytest.approx(0.5)
        assert result.hota == pytest.approx(np.sqrt(0.5))

    def test_half_missing_keeps_association(self):
        gt = seq(4, 4, {t: m((0, 0)) for t in range(4)})
        pred = seq(4, 4, {0: m((0, 0)), 1: m((0, 0))})
        result = hota(phota_remap([vdp([gt], [(pred, 0.9)])]))
        assert result.det_a == pytest.approx(0.5)
        # the only pair is matched on both its frames: A = 2/(4+2-2) = 0.5
        assert result.ass_a == pytest.approx(0.5)

    def test_per_alpha_identity(self):
        gt = seq(8, 8, {t: rect_mask(8, 8, 0, 0, 4, 4) for t in range(3)})
        pred = seq(8, 8, {t: rect_mask(8, 8, 1, 0, 4, 4) for t in range(3)})
        result = hota(phota_remap([vdp([gt], [(pred, 0.9)])]))
        for stats in result.per_alpha:
            assert stats.hota == pytest.approx(
                np.sqrt(stats.det_a * stats.ass_a), abs=1e-15
            )

    def test_empty_everything_undefined(self):
        with pytest.raises(UndefinedMetricError):
            hota(phota_remap([vdp([], [], video="a")]))

    def test_false_positive_only_sequence_counts(self):
        gt = seq(4, 4, {0: m((0, 0))})
        fp = seq(4, 4, {0: m((3, 3))})
        result = hota(
            phota_remap(
                [
                    vdp([gt], [(gt, 0.9)], video="a"),
                    vdp([], [(fp, 0.9)], video="b"),
                ]
            )
        )
        # per alpha: TP=1 FP=1 FN=0 -> DetA=0.5, AssA=1
        assert result.det_a == pytest.approx(0.5)
        assert result.ass_a == pytest.approx(1.0)

    def test_brute_force_equivalence_random(self, rng):
        for trial in range(30):
            sequences = []
            for _ in range(int(rng.integers(1, 3))):
                n_gt = int(rng.integers(0, 4))
                n_pred = int(rng.integers(0, 4))
                frames = int(rng.integers(1, 6))
                gts = []
                preds = []
                for _ in range(n_gt):
                    gts.append(
                        seq(
                            5,
                            5,
                            {
                                t: random_mask(rng, 5, 5, 0.5)
                                for t in range(frames)
                                if rng.random() < 0.8
                            },
                        )
                    )
                for _ in range(n_pred):
                    preds.append(
                        (
                            seq(
                                5,
                                5,
                                {
                                    t: random_mask(rng, 5, 5, 0.5)
                                    for t in range(frames)
                                    if rng.random() < 0.8
                                },
                            ),
                            0.9,
                        )
                    )
                sequences.append(vdp(gts, preds, video=f"v{len(sequences)}"))
            remapped = phota_remap(sequences)
            total_volume = sum(
                tr.volume
                for s in remapped.sequences
                for tr in (*s.gt_tracks, *s.pred_tracks)
            )
            if total_volume == 0:
                continue
            got = hota(remapped)
            expected = reference_hota(
                [
                    (
                        [as_sets(tr) for tr in s.gt_tracks],
                        [as_sets(tr) for tr in s.pred_tracks],
                    )
                    for s in remapped.sequences
                ]
            )
            assert got.hota == pytest.approx(expected["HOTA"], abs=1e-9)
            assert got.det_a == pytest.approx(expected["DetA"], abs=1e-9)
            assert got.ass_a == pytest.approx(expected["AssA"], abs=1e-9)

    def test_alpha_grid(self):
        assert len(HOTA_ALPHAS) == 19
        assert HOTA_ALPHAS[0] == 0.05
        assert HOTA_ALPHAS[-1] == 0.95

    def test_remapped_single_class_layout_interoperates(self, rng):
        # a benchmark already materialized in the remapped layout (one
        # synthetic video per original pair, one shared label) must score
        # identically to the original
        vdps = []
        for i in range(4):
            gts = [
                seq(5, 5, {t: random_mask(rng, 5, 5, 0.5) for t in range(3)})
                for _ in range(int(rng.integers(1, 3)))
            ]
            preds = [
                (seq(5, 5, {t: random_mask(rng, 5, 5, 0.5) for t in range(3)}), 0.9)
                for _ in range(int(rng.integers(0, 3)))
            ]
            vdps.append(vdp(gts, preds, video=f"v{i % 2}", phrase=f"p{i}"))
        original = hota(phota_remap(vdps))
        remapped_layout = [
            datapoint(
                s.gt_tracks,
                [det(tr, 1.0) for tr in s.pred_tracks],
                media=f"synthetic{s.synthetic_id}",
                phrase="object",
            )
            for s in phota_remap(vdps).sequences
        ]
        assert hota(phota_remap(remapped_layout)).hota == original.hota
