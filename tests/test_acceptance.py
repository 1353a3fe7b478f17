"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from phraseseg import (
    ILCounts,
    ScenarioConfig,
    Tracker,
    TrackerConfig,
    cg_f1,
    counting_metrics,
    exemplar_policy,
    gen_scenario,
    hota,
    il_mcc,
    iom_nms,
    bbox_of,
    mask_iou,
    optimal_match,
    phota_remap,
    run,
)
from phraseseg.cli import main
from phraseseg.matching import Detection
from phraseseg.tracker import hold_propagator

from _reference import brute_match, reference_hota, reference_image_metrics
from conftest import datapoint, det, random_mask, rect_mask, seq

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_1_matching_oracle():
    with criterion("criterion 1: optimal matching equals exhaustive enumeration"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for _ in range(1000):
            n, m = rng.integers(0, 6, size=2)
            matrix = rng.random((n, m))
            matrix[rng.random((n, m)) < 0.25] = 0.0
            got = optimal_match(matrix)
            pairs, total = brute_match(matrix.tolist())
            assert got.total() == total
            assert tuple((p, g) for p, g, _ in got.pairs) == pairs
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"matching oracle took {elapsed:.1f}s"


def _random_micro_dataset(rng):
    dps = []
    raw = []
    n_dps = int(rng.integers(1, 7))
    for i in range(n_dps):
        force_positive = i == 0  # at least one positive per dataset
        gts = []
        if force_positive or rng.random() < 0.6:
            while not gts:
                gts = [
                    g
                    for g in (
                        random_mask(rng, 8, 8, float(rng.uniform(0.2, 0.6)))
                        for _ in range(int(rng.integers(1, 5)))
                    )
                    if g.area > 0
                ]
        preds = [
            (random_mask(rng, 8, 8, float(rng.uniform(0.2, 0.6))), float(rng.random()))
            for _ in range(int(rng.integers(0, 5)))
        ]
        dps.append(datapoint(gts, [det(p, s) for p, s in preds], media=str(i)))
        raw.append(
            (
                [set(map(tuple, np.argwhere(g.decode()))) for g in gts],
                [(set(map(tuple, np.argwhere(p.decode()))), s) for p, s in preds],
            )
        )
    return dps, raw


def test_criterion_2_metric_oracle():
    with criterion("criterion 2: image metrics equal the brute-force reference (1e-12)"):
        rng = np.random.default_rng(202)
        for _ in range(500):
            dps, raw = _random_micro_dataset(rng)
            report = cg_f1(dps)
            expected = reference_image_metrics(raw)
            assert report.micro_f1 == pytest.approx(expected["pmF1"], abs=1e-12)
            assert report.macro_f1 == pytest.approx(expected["macro_pF1"], abs=1e-12)
            assert report.mcc == pytest.approx(expected["IL_MCC"], abs=1e-12)
            assert report.cg_f1 == pytest.approx(expected["cgF1"], abs=1e-12)


# Printed (cgF1, IL_MCC, pmF1) rows from the published per-domain/ablation
# tables; IL_MCC carries two decimals, pmF1 one.
TABLE_ROWS = [
    # detector + verifier table
    (54.0, 0.82, 65.9),
    (61.2, 0.86, 70.8),
    (62.3, 0.87, 71.1),
    (72.8, 0.94, 77.0),
    # presence-head ablation
    (50.7, 0.77, 65.4),
    (52.2, 0.82, 63.4),
    # hard-negatives ablation
    (28.3, 0.44, 62.4),
    (39.4, 0.62, 62.9),
    (41.8, 0.67, 62.4),
    (43.0, 0.68, 62.8),
]


def test_criterion_3_paper_row_consistency():
    with criterion("criterion 3: published rows satisfy cgF1 = 100 * pmF1 * IL_MCC (+/- 0.6)"):
        for cg, mcc, pm in TABLE_ROWS:
            recomputed = pm * mcc  # pm is already in percent
            # the two-decimal rounding of IL_MCC is worth up to pm * 0.005
            tolerance = 0.6 + pm * 0.005
            assert abs(recomputed - cg) <= tolerance, (cg, mcc, pm)


def test_criterion_4_mcc_edge_suite():
    with criterion("criterion 4: MCC edges and sign-flip metamorphic"):
        assert il_mcc(ILCounts(il_tp=5, il_tn=7, il_fp=0, il_fn=0)) == 1.0
        assert il_mcc(ILCounts(il_tp=0, il_tn=0, il_fp=7, il_fn=5)) == -1.0
        for counts in (
            ILCounts(0, 0, 0, 0),
            ILCounts(il_tp=3, il_tn=0, il_fp=0, il_fn=0),
            ILCounts(il_tp=0, il_tn=3, il_fp=0, il_fn=0),
            ILCounts(il_tp=0, il_tn=0, il_fp=3, il_fn=0),
            ILCounts(il_tp=0, il_tn=0, il_fp=0, il_fn=3),
            ILCounts(il_tp=2, il_tn=0, il_fp=0, il_fn=3),
        ):
            assert il_mcc(counts) == 0.0
        rng = np.random.default_rng(404)
        for _ in range(200):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, size=4))
            counts = ILCounts(il_tp=tp, il_tn=tn, il_fp=fp, il_fn=fn)
            swapped = ILCounts(il_tp=fp, il_tn=fn, il_fp=tp, il_fn=tn)
            assert il_mcc(swapped) == -il_mcc(counts)


G = 24


def _r(x, y, w, h):
    return rect_mask(G, G, x, y, w, h)


def _run_events(events, length, config=None):
    frames = [list(events.get(t, [])) for t in range(length)]
    return run(frames, hold_propagator, config or TrackerConfig())


def test_criterion_5_tracker_scenarios():
    start = time.monotonic()
    with criterion("criterion 5: tracker disambiguation scenario suite"):
        # (a) a 3-frame spurious detection is never emitted
        obj, spur = _r(0, 0, 4, 4), _r(12, 12, 4, 4)
        events = {t: [det(obj)] for t in range(40)}
        for t in (5, 6, 7):
            events[t] = [det(obj), det(spur)]
        result = _run_events(events, 40)
        assert result.masklets == {0: dict.fromkeys(range(40), obj)}

        # (b) duplicate masklet with the later first frame is removed once the
        # pair shares a detection for ceil(T/2) = 8 frames
        shifted = _r(2, 0, 4, 4)
        events = {t: [det(obj)] for t in range(2, 40)}
        for t in range(9, 31):
            events[t] = [det(obj), det(shifted)]
        tracker = Tracker(hold_propagator, TrackerConfig())
        removed_at = None
        for t in range(40):
            tracker.step(events.get(t, []))
            if removed_at is None and tracker._next_id > 1 and 1 not in tracker.masklets:
                removed_at = t
        assert removed_at == 16  # overlap frames 9..16
        assert 0 in tracker.masklets

        # (c) suppression zeroes the output while the id survives and recovers
        events = {t: [det(obj)] for t in range(0, 20)}
        events.update({t: [det(obj)] for t in range(41, 70)})
        result = _run_events(events, 70)
        frames = result.masklets[0]
        assert set(result.masklets) == {0}
        assert frames[39] == obj
        assert frames[40] is None
        assert frames[41] == obj

        # (d) periodic re-prompting fires exactly on frames = 0 mod 16 with
        # IoU >= 0.8 and both scores strictly above 0.8
        prop_mask = _r(0, 0, 10, 2)

        def fixed_propagator(conf):
            return lambda masklet, frame: (prop_mask, conf)

        def reprompt_run(det_mask, det_score, prop_conf, length=34):
            frames = [[Detection(mask=det_mask, score=det_score)] for _ in range(length)]
            cfg = TrackerConfig(recondition_bbox_iou=0.0)  # isolate re-prompting
            return run(frames, fixed_propagator(prop_conf), cfg).masklets[0]

        good = reprompt_run(_r(0, 0, 9, 2), 0.9, 0.9)  # IoU 0.9
        assert good[16] == _r(0, 0, 9, 2) and good[32] == _r(0, 0, 9, 2)
        assert good[15] == prop_mask and good[17] == prop_mask
        boundary = reprompt_run(_r(0, 0, 8, 2), 0.9, 0.9)  # IoU exactly 0.8
        assert boundary[16] == _r(0, 0, 8, 2)
        low_iou = reprompt_run(_r(0, 0, 7, 2), 0.9, 0.9)  # IoU 0.7
        assert low_iou[16] == prop_mask
        low_det = reprompt_run(_r(0, 0, 9, 2), 0.8, 0.9)  # det score not > 0.8
        assert low_det[16] == prop_mask
        low_prop = reprompt_run(_r(0, 0, 9, 2), 0.9, 0.8)  # track score not > 0.8
        assert low_prop[16] == prop_mask

        # (e) reconditioning triggers exactly when the matched detection's
        # bounding-box IoU drops below 0.85
        def recondition_run(prop_mask, det_mask, length=12):
            frames = [[Detection(mask=det_mask, score=0.7)] for _ in range(length)]
            return run(frames, lambda m, f: (prop_mask, 0.7), TrackerConfig()).masklets[0]

        fired = recondition_run(_r(0, 0, 20, 2), _r(0, 0, 16, 2))  # bbox IoU 0.80
        assert fired[1] == _r(0, 0, 16, 2)
        held = recondition_run(_r(0, 0, 20, 2), _r(0, 0, 17, 2))  # bbox IoU 0.85
        assert held[1] == _r(0, 0, 20, 2)

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"tracker suite took {elapsed:.1f}s"


def test_criterion_6_end_to_end_fixed_point():
    with criterion("criterion 6: zero-noise scenarios reproduce ground truth bit-exactly"):
        for seed in range(10):
            cfg = ScenarioConfig(
                objects=(seed % 5) + 1,
                frames=60,
                min_size=4,
                max_size=10,
                seed=seed,
            )
            scenario = gen_scenario(cfg)
            result = run(scenario.detections, scenario.propagator, TrackerConfig())
            sequences = result.sequences()
            assert len(sequences) == len(scenario.gt_masklets)
            for mid, gt in zip(sorted(sequences), scenario.gt_masklets):
                got = sequences[mid]
                assert set(got.frames) == set(gt.frames)
                for t in gt.frames:
                    assert got.frames[t].counts == gt.frames[t].counts


def _vdp(gts, preds, video="v", phrase="p"):
    return datapoint(gts, [det(s, sc) for s, sc in preds], media=video, phrase=phrase)


def test_criterion_7_phota():
    with criterion("criterion 7: pHOTA fixtures and brute-force equivalence (1e-9)"):
        m = rect_mask(5, 5, 0, 0, 2, 2)
        track = seq(5, 5, {t: m for t in range(4)})
        perfect = hota(phota_remap([_vdp([track], [(track, 0.9)])]))
        assert perfect.hota == 1.0 and perfect.det_a == 1.0 and perfect.ass_a == 1.0

        first = seq(5, 5, {0: m, 1: m})
        second = seq(5, 5, {2: m, 3: m})
        split = hota(phota_remap([_vdp([track], [(first, 0.9), (second, 0.9)])]))
        assert split.det_a == 1.0
        assert split.ass_a < 1.0

        half = hota(phota_remap([_vdp([track], [(first, 0.9)])]))
        assert half.det_a == pytest.approx(0.5)
        assert half.ass_a == pytest.approx(0.5)  # per-TP association is maximal

        rng = np.random.default_rng(707)
        checked = 0
        while checked < 40:
            n_gt, n_pred = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            frames = int(rng.integers(1, 6))
            gts = [
                seq(
                    5,
                    5,
                    {
                        t: random_mask(rng, 5, 5, 0.45)
                        for t in range(frames)
                        if rng.random() < 0.8
                    },
                )
                for _ in range(n_gt)
            ]
            preds = [
                (
                    seq(
                        5,
                        5,
                        {
                            t: random_mask(rng, 5, 5, 0.45)
                            for t in range(frames)
                            if rng.random() < 0.8
                        },
                    ),
                    0.9,
                )
                for _ in range(n_pred)
            ]
            remapped = phota_remap([_vdp(gts, preds)])
            if all(tr.area == 0 for s in remapped for tr in (*s.gt_tracks, *s.pred_tracks)):
                continue
            checked += 1
            got = hota(remapped)

            def as_sets(track):
                return {
                    t: set(map(tuple, np.argwhere(mask.decode())))
                    for t, mask in track.frames.items()
                    if mask.area > 0
                }

            expected = reference_hota(
                [
                    ([as_sets(tr) for tr in s.gt_tracks], [as_sets(tr) for tr in s.pred_tracks])
                    for s in remapped
                ]
            )
            assert got.hota == pytest.approx(expected["HOTA"], abs=1e-9)
            assert got.det_a == pytest.approx(expected["DetA"], abs=1e-9)
            assert got.ass_a == pytest.approx(expected["AssA"], abs=1e-9)


def test_criterion_8_iom_nms_and_counting():
    with criterion("criterion 8: IoM NMS collapses nested duplicates; counting fixture"):
        h = w = 16
        separate = [
            rect_mask(h, w, 0, 0, 5, 5),
            rect_mask(h, w, 6, 6, 5, 5),
            rect_mask(h, w, 11, 0, 4, 4),
        ]
        nested = [
            rect_mask(h, w, 1, 1, 2, 2),  # inside the first
            rect_mask(h, w, 2, 2, 3, 3),  # inside the first
            rect_mask(h, w, 7, 7, 2, 2),  # inside the second
        ]
        dets = [det(m, 0.9 - 0.01 * i) for i, m in enumerate(separate)] + [
            det(m, 0.5 - 0.01 * i) for i, m in enumerate(nested)
        ]
        kept = iom_nms(dets, 0.5)
        assert len(kept) == len(dets) - len(nested)
        assert {k.mask.counts for k in kept} == {m.counts for m in separate}

        mae, accuracy = counting_metrics([(3, 3), (5, 4), (2, 2), (0, 1)])
        assert mae == 0.5
        assert accuracy == 0.5  # 50%


def test_criterion_9_exemplar_policy():
    with criterion("criterion 9: exemplar prompt policy invariants over 1000 trials"):
        rng = np.random.default_rng(909)
        size = 20
        for trial in range(1000):
            gt_boxes = []
            for _ in range(int(rng.integers(0, 4))):
                w, h = (int(v) for v in rng.integers(2, 6, size=2))
                x = int(rng.integers(0, size - w))
                y = int(rng.integers(0, size - h))
                gt_boxes.append((x, y, w, h))
            gts = [rect_mask(size, size, *b) for b in gt_boxes]
            if trial % 5 == 0:
                preds = [det(g, 0.9) for g in gts]  # perfect predictions
            else:
                preds = []
                for _ in range(int(rng.integers(0, 4))):
                    w, h = (int(v) for v in rng.integers(2, 6, size=2))
                    x = int(rng.integers(0, size - w))
                    y = int(rng.integers(0, size - h))
                    preds.append(
                        det(rect_mask(size, size, x, y, w, h), float(rng.random()))
                    )

            if trial % 5 == 0 and gts:
                assert exemplar_policy(preds, gts, [], seed=trial) is None

            history = []
            while len(history) < 5:
                event = exemplar_policy(preds, gts, history, seed=trial * 7 + len(history))
                if event is None:
                    break
                assert event.iteration == len(history)
                if event.kind == "positive":
                    assert any(event.box == bbox_of(g) for g in gts)
                else:
                    prompt_mask = rect_mask(
                        size, size, event.box.x, event.box.y, event.box.w, event.box.h
                    )
                    assert all(mask_iou(prompt_mask, g) < 0.5 for g in gts)
                history.append(event)
            assert len(history) <= 5
            if len(history) == 5:
                with pytest.raises(ValueError):
                    exemplar_policy(preds, gts, history, seed=0)


def test_criterion_10_thread_determinism(tmp_path):
    with criterion("criterion 10: eval-image reports are byte-identical across --threads"):
        gt = str(DATA / "image_corpus_gt.json")
        pred = str(DATA / "image_corpus_pred.json")
        r1 = tmp_path / "r1.json"
        r8 = tmp_path / "r8.json"
        assert main(["eval-image", "--gt", gt, "--pred", pred, "--report", str(r1), "--threads", "1"]) == 0
        assert main(["eval-image", "--gt", gt, "--pred", pred, "--report", str(r8), "--threads", "8"]) == 0
        assert r1.read_bytes() == r8.read_bytes()
        assert r1.read_bytes() == (DATA / "golden_image_report.json").read_bytes()
