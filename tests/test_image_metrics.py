from __future__ import annotations

import json

import numpy as np
import pytest

from phraseseg import (
    ILCounts,
    RleMask,
    UndefinedMetricError,
    cg_f1,
    combine_scores,
    counting_metrics,
    gate,
    il_counts,
    il_mcc,
    local_f1,
    oracle_select,
    random_pair,
)
from phraseseg.image_metrics import AnnotationEval, _fold, evaluate_annotation, human_oracle

from _reference import (
    reference_human_oracle,
    reference_image_metrics,
    reference_random_pair,
    reference_random_pair_report,
)
from conftest import datapoint, det, mask_from_pixels, random_mask, rect_mask


def m(*pixels):
    return mask_from_pixels(4, 4, pixels)


FULL = RleMask.full(4, 4)


class TestGate:
    def test_strict_inequality(self):
        dets = [det(FULL, 0.4), det(FULL, 0.5), det(FULL, 0.6)]
        assert [d.score for d in gate(dets)] == [0.6]

    def test_empty(self):
        assert gate([]) == ()

    def test_all_high(self):
        dets = [det(FULL, 1.0), det(FULL, 1.0)]
        assert gate(dets) == tuple(dets)


class TestCombineScores:
    def test_counting_mode(self):
        assert combine_scores(1.0, 0.37) == 0.37

    def test_zero_presence(self):
        assert combine_scores(0.0, 0.9) == 0.0

    def test_product(self):
        assert combine_scores(0.8, 0.9) == pytest.approx(0.72)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            combine_scores(1.2, 0.5)


class TestLocalF1:
    def test_exact_prediction(self):
        gt = [m((0, 0)), m((2, 2))]
        dp = datapoint(gt, [det(g) for g in gt])
        for tau in (0.5, 0.75, 0.95):
            assert local_f1(dp, 0, tau) == 1.0

    def test_missed_gt(self):
        dp = datapoint([m((0, 0))])
        assert local_f1(dp, 0, 0.5) == 0.0

    def test_two_preds_one_gt(self):
        # matched pair IoU 0.6: 3-pixel prediction over a 5-pixel ground truth
        gt = m((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
        pred = m((0, 0), (0, 1), (0, 2))
        far = m((3, 3))
        dp = datapoint([gt], [det(pred, 0.9), det(far, 0.9)])
        assert local_f1(dp, 0, 0.5) == pytest.approx(2 / 3)

    def test_iou_on_a_grid_value_is_a_tp(self):
        # matched IoUs exactly 2/4 = 0.5 and 3/4 = 0.75: IoU >= tau holds at both
        gt = [m((0, 0), (0, 1), (0, 2), (0, 3)), m((2, 0), (2, 1), (2, 2), (2, 3))]
        preds = [det(m((0, 0), (0, 1))), det(m((2, 0), (2, 1), (2, 2)))]
        assert evaluate_annotation(preds, gt).tp == (2, 1, 1, 1, 1, 1, 0, 0, 0, 0)
        dp = datapoint(gt, preds)
        assert [local_f1(dp, 0, tau) for tau in (0.5, 0.55, 0.75, 0.8)] == [1.0, 0.5, 0.5, 0.0]

    def test_negative_annotation_rejected(self):
        dp = datapoint([])
        with pytest.raises(ValueError):
            local_f1(dp, 0, 0.5)


class TestPmF1:
    def test_spec_pair(self):
        dp1 = datapoint([m((0, 0))], [det(m((0, 0)))], media="a")
        dp2 = datapoint([m((1, 1))], media="b")
        report = cg_f1([dp1, dp2])
        assert report.micro_f1 == pytest.approx(2 / 3)
        assert report.macro_f1 == pytest.approx(0.5)

    def test_perfect(self):
        dps = [datapoint([m((0, 0))], [det(m((0, 0)))], media=str(i)) for i in range(3)]
        assert cg_f1(dps).micro_f1 == 1.0

    def test_all_missed(self):
        dps = [datapoint([m((0, 0))], media=str(i)) for i in range(3)]
        assert cg_f1(dps).micro_f1 == 0.0

    def test_no_positives_undefined(self):
        with pytest.raises(UndefinedMetricError):
            cg_f1([datapoint([])])

    def test_order_invariance(self, rng):
        dps = []
        for i in range(8):
            gt = [random_mask(rng, 4, 4, 0.5)] if i % 3 else []
            gt = [g for g in gt if g.area > 0]
            preds = [det(random_mask(rng, 4, 4, 0.5), float(rng.random()))]
            dps.append(datapoint(gt, preds, media=str(i)))
        if not any(len(dp.annotations[0]) for dp in dps):
            dps.append(datapoint([m((0, 0))], media="fix"))
        baseline = cg_f1(dps)
        for _ in range(10):
            shuffled = list(dps)
            rng.shuffle(shuffled)
            report = cg_f1(shuffled)
            assert report.cg_f1 == baseline.cg_f1
            assert report.micro_f1 == baseline.micro_f1
            assert report.macro_f1 == baseline.macro_f1
            assert report.mcc == baseline.mcc

    def test_adding_perfect_datapoint_never_decreases(self, rng):
        base = [
            datapoint([m((0, 0), (0, 1))], [det(m((0, 0)))], media="a"),
            datapoint([m((2, 2))], media="b"),
        ]
        before = cg_f1(base).micro_f1
        extra = datapoint([m((1, 1))], [det(m((1, 1)))], media="c")
        assert cg_f1(base + [extra]).micro_f1 >= before


class TestILCounts:
    def test_bad_mask_still_tp(self):
        # any gated mask makes a positive datapoint an image-level TP,
        # regardless of mask quality
        dp = datapoint([m((0, 0))], [det(m((3, 3)), 0.9)])
        c = il_counts([dp])
        assert (c.il_tp, c.il_fn, c.il_fp, c.il_tn) == (1, 0, 0, 0)

    def test_negative_no_mask_tn(self):
        c = il_counts([datapoint([])])
        assert (c.il_tp, c.il_fn, c.il_fp, c.il_tn) == (0, 0, 0, 1)

    def test_low_scores_gated_away(self):
        dp = datapoint([m((0, 0))], [det(m((0, 0)), 0.3)])
        c = il_counts([dp])
        assert (c.il_tp, c.il_fn) == (0, 1)

    def test_sum_is_datapoint_count(self, rng):
        dps = []
        for i in range(10):
            gt = [m((0, 0))] if rng.random() < 0.5 else []
            preds = [det(FULL, float(rng.random()))] if rng.random() < 0.7 else []
            dps.append(datapoint(gt, preds, media=str(i)))
        assert il_counts(dps).total == len(dps)

    def test_one_datapoint_per_cell(self):
        # TP, TN, FP, FN in that order; the report folds the same counts
        dps = [
            datapoint([m((0, 0))], [det(m((0, 0)))], media="tp"),
            datapoint([], media="tn"),
            datapoint([], [det(m((1, 1)))], media="fp"),
            datapoint([m((2, 2))], media="fn"),
        ]
        for k in range(1, 5):
            cells = il_counts(dps[:k])
            assert [cells.il_tp, cells.il_tn, cells.il_fp, cells.il_fn] == [1] * k + [0] * (4 - k)
            assert cg_f1(dps[:k]).il == cells


class TestMcc:
    def test_perfect(self):
        assert il_mcc(ILCounts(il_tp=3, il_tn=4, il_fp=0, il_fn=0)) == 1.0

    def test_inverted(self):
        assert il_mcc(ILCounts(il_tp=0, il_tn=0, il_fp=4, il_fn=3)) == -1.0

    def test_spec_third(self):
        assert il_mcc(ILCounts(il_tp=2, il_tn=2, il_fp=1, il_fn=1)) == pytest.approx(1 / 3)

    def test_zero_denominator(self):
        assert il_mcc(ILCounts(il_tp=2, il_tn=0, il_fp=0, il_fn=0)) == 0.0
        assert il_mcc(ILCounts(il_tp=0, il_tn=0, il_fp=0, il_fn=0)) == 0.0


class TestCgF1:
    def test_product_identity(self, rng):
        dps = [
            datapoint([m((0, 0), (1, 1))], [det(m((0, 0)), 0.9)], media="a"),
            datapoint([], [det(m((3, 3)), 0.8)], media="b"),
            datapoint([m((2, 2))], [det(m((2, 2)), 0.7)], media="c"),
            datapoint([], media="d"),
        ]
        report = cg_f1(dps)
        assert report.cg_f1 == 100.0 * report.micro_f1 * report.mcc
        assert report.localization_f1 == report.micro_f1
        macro = cg_f1(dps, mode="macro")
        assert macro.cg_f1 == 100.0 * macro.macro_f1 * macro.mcc

    def test_zero_mcc_gates_everything(self):
        # perfect masks but presence is uninformative (no negatives seen)
        dps = [datapoint([m((0, 0))], [det(m((0, 0)))], media="a")]
        report = cg_f1(dps)
        assert report.micro_f1 == 1.0
        assert report.mcc == 0.0
        assert report.cg_f1 == 0.0

    def test_perfect_with_negatives(self):
        dps = [
            datapoint([m((0, 0))], [det(m((0, 0)))], media="a"),
            datapoint([], media="b"),
        ]
        report = cg_f1(dps)
        assert report.cg_f1 == 100.0

    def test_gate_opacity(self, rng):
        dps = []
        for i in range(5):
            gt = [random_mask(rng, 4, 4, 0.5)] if i % 2 == 0 else []
            gt = [g for g in gt if g.area > 0] or ([m((0, 0))] if i % 2 == 0 else [])
            preds = [det(random_mask(rng, 4, 4, 0.4), 0.8)]
            dps.append(datapoint(gt, preds, media=str(i)))
        baseline = cg_f1(dps)
        noisy = [
            datapoint(
                [inst.mask for inst in dp.annotations[0]],
                list(dp.predictions)
                + [det(FULL, 0.5), det(m((1, 2)), 0.1), det(FULL, 0.0)],
                media=dp.media_id,
            )
            for dp in dps
        ]
        injected = cg_f1(noisy)
        assert injected == baseline

    def test_matches_reference_engine(self, rng):
        # spot-check against the independent reference on a fixed dataset
        dps = []
        raw = []
        for i in range(8):
            gts = []
            if i % 4 != 3:
                gts = [random_mask(rng, 8, 8, 0.4) for _ in range(int(rng.integers(1, 4)))]
                gts = [g for g in gts if g.area > 0] or [mask_from_pixels(8, 8, [(0, 0)])]
            preds = [
                (random_mask(rng, 8, 8, 0.4), float(rng.random()))
                for _ in range(int(rng.integers(0, 4)))
            ]
            dps.append(
                datapoint(gts, [det(p, s) for p, s in preds], media=str(i))
            )
            raw.append(
                (
                    [set(map(tuple, np.argwhere(g.decode()))) for g in gts],
                    [(set(map(tuple, np.argwhere(p.decode()))), s) for p, s in preds],
                )
            )
        report = cg_f1(dps)
        expected = reference_image_metrics(raw)
        assert report.micro_f1 == pytest.approx(expected["pmF1"], abs=1e-12)
        assert report.macro_f1 == pytest.approx(expected["macro_pF1"], abs=1e-12)
        assert report.mcc == pytest.approx(expected["IL_MCC"], abs=1e-12)
        assert report.cg_f1 == pytest.approx(expected["cgF1"], abs=1e-12)


class TestOracle:
    def test_single_annotation(self):
        assert oracle_select(datapoint([m((0, 0))])) == 0

    def test_matches_identical_annotation(self):
        target = [m((0, 0)), m((2, 2))]
        dp = datapoint(
            [m((1, 1))],
            [det(g) for g in target],
            extra_annotations=[[m((3, 3))], target],
        )
        assert oracle_select(dp) == 2

    def test_empty_prediction_prefers_negative_annotation(self):
        dp = datapoint([], extra_annotations=[[m((0, 0))]])
        assert oracle_select(dp) == 0
        shuffled = datapoint([m((0, 0))], extra_annotations=[[]])
        assert oracle_select(shuffled) == 1

    def test_oracle_dominates_fixed(self, rng):
        for _ in range(20):
            anns = []
            for _ in range(3):
                k = int(rng.integers(0, 3))
                anns.append([random_mask(rng, 4, 4, 0.5) for _ in range(k)])
            anns = [[g for g in ann if g.area > 0] for ann in anns]
            preds = [det(random_mask(rng, 4, 4, 0.5), 0.9)]
            dp = datapoint(anns[0], preds, extra_annotations=anns[1:])
            if not any(len(a) for a in anns):
                continue
            best = oracle_select(dp)
            positives = [i for i, a in enumerate(dp.annotations) if a]
            if best in positives:
                from phraseseg.image_metrics import evaluate_annotation, gate as _gate

                chosen = evaluate_annotation(
                    _gate(dp.predictions), dp.annotation_masks(best)
                ).mean_f1
                for i in positives:
                    other = evaluate_annotation(
                        _gate(dp.predictions), dp.annotation_masks(i)
                    ).mean_f1
                    assert chosen >= other

    def test_oracle_report_dominates_fixed_report(self):
        a0 = [m((0, 0))]
        a1 = [m((0, 0)), m((2, 2))]
        dp = datapoint(a0, [det(m((0, 0)))], extra_annotations=[a1])
        fixed0 = cg_f1([dp, datapoint([], media="n")], annotation_index=0)
        oracle = cg_f1([dp, datapoint([], media="n")], oracle=True)
        assert oracle.micro_f1 >= fixed0.micro_f1


class TestRandomPair:
    def make_dp(self, anns, media="a"):
        return datapoint(anns[0], extra_annotations=anns[1:], media=media)

    def test_identical_annotators_perfect(self):
        ann = [m((0, 0)), m((2, 2))]
        dps = [
            self.make_dp([ann, ann, ann], media="a"),
            self.make_dp([[], [], []], media="b"),
        ]
        report = random_pair(dps, trials=32, seed=3)
        assert report.micro_f1 == 1.0
        assert report.mcc == 1.0
        assert report.cg_f1 == 100.0

    def test_deterministic(self):
        anns = [[m((0, 0))], [m((0, 0), (1, 1))], []]
        dps = [
            self.make_dp(anns, media="a"),
            self.make_dp([[m((2, 2))], [m((2, 2))], [m((3, 3))]], media="b"),
        ]
        r1 = random_pair(dps, trials=64, seed=9)
        r2 = random_pair(dps, trials=64, seed=9)
        assert r1 == r2

    def test_two_annotations_symmetric(self):
        # both orderings produce the same counts, so the median is that value
        a = [m((0, 0)), m((1, 1))]
        b = [m((0, 0))]
        dp = self.make_dp([a, b], media="a")
        anchor = self.make_dp([[m((3, 3))], [m((3, 3))]], media="b")
        report = random_pair([dp, anchor], trials=16, seed=0)
        # ordered pairs of dp: (a->b): TP=1 FP=0 FN=1; (b->a): TP=1 FP=1 FN=0
        # either way F1 = 2/3 at every threshold; anchor is perfect
        assert report.micro_f1 == pytest.approx((2 * 2) / (2 * 2 + 1), abs=1e-12)

    def test_requires_two_annotations(self):
        with pytest.raises(ValueError):
            random_pair([datapoint([m((0, 0))])], trials=4, seed=0)

    def test_zero_median_is_positive_zero(self):
        # every trial scores 0 localization times MCC -1, which is -0.0; the
        # median of several trials is 0.0, as numpy's median gave
        fn, fp = AnnotationEval(0, 1, (0,) * 10), AnnotationEval(1, 0, (0,) * 10)
        one = _fold([fn, fp], "micro", "image", "random-pair", 0.5)
        two = _fold([fn, fp], "micro", "image", "random-pair", 0.5, [[0, 1], [0, 1]])
        assert one.mcc == two.mcc == -1.0
        assert (one.cg_f1.hex(), two.cg_f1.hex()) == ("-0x0.0p+0", "0x0.0p+0")

    def test_human_oracle_beats_random_pair(self):
        anns = [[m((0, 0))], [m((0, 0), (1, 1))], [m((3, 3))]]
        dps = [
            self.make_dp(anns, media="a"),
            self.make_dp([[m((2, 2))], [m((2, 2))], []], media="b"),
        ]
        oracle = human_oracle(dps)
        rand = random_pair(dps, trials=101, seed=5)
        assert oracle.macro_f1 >= rand.macro_f1 - 1e-12


class TestAnnotatorProtocolsReference:
    """random_pair and human_oracle against per-trial brute-force references."""

    SIZE = 8

    def corpus(self, seed):
        """Datapoints with 3-4 annotators drawn around shared base boxes.

        Some annotators copy an earlier one (tied pairs) or mark the phrase
        absent; one datapoint is negative for everyone, and the first is
        positive for everyone, so every trial has a positive. The last one's
        best pairs, (0, 1) and (0, 2), tie on mean F1 (2/3) and differ in
        FN + FP.
        """
        rng = np.random.default_rng(seed)
        boxes_per_dp = []
        for i in range(8):
            base = []
            for _ in range(int(rng.integers(1, 4))):
                w, h = int(rng.integers(2, 5)), int(rng.integers(2, 5))
                base.append((int(rng.integers(0, self.SIZE - w + 1)),
                             int(rng.integers(0, self.SIZE - h + 1)), w, h))
            anns = []
            for a in range(int(rng.integers(3, 5))):
                if i == 1 or (i > 0 and rng.random() < 0.2):
                    anns.append([])
                elif a > 0 and rng.random() < 0.3:
                    anns.append(list(anns[int(rng.integers(a))]))
                else:
                    anns.append([
                        (int(np.clip(x + rng.integers(-1, 2), 0, self.SIZE - w)), y, w, h)
                        for x, y, w, h in base
                        if i == 0 or rng.random() < 0.8
                    ])
            boxes_per_dp.append(anns)
        a, b, c, d = (0, 0, 2, 2), (4, 0, 2, 2), (0, 4, 2, 2), (4, 4, 2, 2)
        boxes_per_dp.append([[a, b], [a, b, c, d], [a]])
        dps = [
            datapoint(
                [rect_mask(self.SIZE, self.SIZE, *b) for b in anns[0]],
                extra_annotations=[[rect_mask(self.SIZE, self.SIZE, *b) for b in ann]
                                   for ann in anns[1:]],
                media=f"img{i}",
            )
            for i, anns in enumerate(boxes_per_dp)
        ]
        pixel_sets = [
            [[{(r, c) for r in range(y, y + h) for c in range(x, x + w)} for x, y, w, h in ann]
             for ann in anns]
            for anns in boxes_per_dp
        ]
        return dps, pixel_sets

    def assert_matches(self, report, expected):
        assert report.micro_f1 == pytest.approx(expected["pmF1"], abs=1e-12)
        assert report.macro_f1 == pytest.approx(expected["macro_pF1"], abs=1e-12)
        assert report.mcc == pytest.approx(expected["IL_MCC"], abs=1e-12)
        assert report.cg_f1 == pytest.approx(expected["cgF1"], abs=1e-12)

    @pytest.mark.parametrize("seed,trials", [(1, 40), (2, 41), (3, 25)])
    def test_random_pair(self, seed, trials):
        dps, pixel_sets = self.corpus(seed)
        self.assert_matches(
            random_pair(dps, trials=trials, seed=seed),
            reference_random_pair(pixel_sets, trials, seed),
        )

    def assert_same_report(self, report, expected):
        assert report == expected
        assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("trials", [1, 2, 41])
    def test_random_pair_report_exact(self, seed, trials):
        # the whole report, to the last bit, and with float counts even for one trial
        dps, _ = self.corpus(seed)
        for mode in ("micro", "macro"):
            self.assert_same_report(
                random_pair(dps, trials=trials, seed=seed, mode=mode),
                reference_random_pair_report(dps, trials, seed, mode),
            )

    def test_random_pair_report_exact_for_2_to_6_annotators(self, rng):
        # the batched draws must reproduce the scalar draws for every k, k = 2 included
        def annotation():
            mask = random_mask(rng, 4, 4, 0.4)
            return [mask] if mask.area > 0 and rng.random() < 0.7 else []

        dps = [datapoint([m((0, 0))], extra_annotations=[[m((0, 0))]], media="anchor")]
        for k in range(2, 7):
            for j in range(3):
                anns = [annotation() for _ in range(k)]
                dps.append(datapoint(anns[0], extra_annotations=anns[1:], media=f"k{k}_{j}"))
        for seed in range(5):
            self.assert_same_report(
                random_pair(dps, trials=7, seed=seed),
                reference_random_pair_report(dps, 7, seed),
            )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_human_oracle(self, seed):
        dps, pixel_sets = self.corpus(seed)
        self.assert_matches(human_oracle(dps), reference_human_oracle(pixel_sets))


class TestCounting:
    def test_perfect(self):
        mae, acc = counting_metrics([(3, 3), (7, 7)])
        assert mae == 0.0 and acc == 1.0

    def test_off_by_one(self):
        mae, acc = counting_metrics([(1, 2), (4, 3)])
        assert mae == 1.0 and acc == 0.0

    def test_fixture(self):
        mae, acc = counting_metrics([(3, 3), (5, 4), (2, 2), (0, 1)])
        assert mae == 0.5
        assert acc == 0.5

    def test_empty_undefined(self):
        with pytest.raises(UndefinedMetricError):
            counting_metrics([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            counting_metrics([(-1, 0)])
