"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from phraseseg import masks, matching  # noqa: E402
from phraseseg.image_metrics import evaluate_annotation  # noqa: E402
from phraseseg.masks import RleMask, mask_iou, rle_encode  # noqa: E402
from phraseseg.matching import Detection  # noqa: E402


def _rect(x, y, w, h, size=8) -> RleMask:
    grid = np.zeros((size, size), dtype=bool)
    grid[y:y + h, x:x + w] = True
    return rle_encode(grid)


def test_self_time_nested_and_reentrant():
    # f [0,10] holds g [1,4], which re-enters f [2,3]; f also holds h [5,6];
    # a second root g [20,21] follows.
    names = [0, 1, 0, 2, 1]
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 20.0]
    end = [10.0, 4.0, 3.0, 6.0, 21.0]
    own, calls = tracing.self_times(names, parent, start, end, 3)
    assert own.tolist() == [6.0 + 1.0, 2.0 + 1.0, 1.0]
    assert calls.tolist() == [2, 2, 1]
    assert own.sum() == 10.0 + 1.0  # self times partition the root spans


def test_self_time_of_wrapped_recursion_partitions_the_root():
    tracer = tracing.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap("demo.fact", fact)
    assert traced(6) == 720
    a = tracer.arrays()
    own, calls = tracing.self_times(a["name"], a["parent"], a["start"], a["end"], 1)
    assert calls.tolist() == [6]
    assert a["parent"].tolist() == [-1, 0, 1, 2, 3, 4]
    assert own[0] == pytest.approx(a["end"][0] - a["start"][0], abs=1e-12)


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 201))
    assert run.percentile(samples, 95) == (190, 10)
    assert run.percentile(samples[:199], 95) == (190, 9)
    assert run.percentile([4, 1, 3, 2], 50) == (2, 2)
    assert run.percentile([7.0], 95) == (7.0, 0)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_mask_iou_zero_frac_and_pixels_scanned():
    tracer = tracing.Tracer()
    iou = tracer.wrap("masks.mask_iou", mask_iou, after=tracer._after_mask_iou)
    a, b, far = _rect(0, 0, 4, 4), _rect(2, 2, 4, 4), _rect(6, 6, 2, 2)
    empty = RleMask.empty(8, 8)
    assert iou(a, b) == pytest.approx(4 / 28)
    assert iou(a, far) == 0.0
    assert iou(a, empty) == 0.0
    m = tracing.layer_metrics(tracer, 1.0)
    assert m["masks.mask_iou.calls"] == 3
    assert m["masks.mask_iou.zero_frac"] == pytest.approx(2 / 3)
    assert m["masks.mask_iou.px_scanned"] == 2 * (2 * 8 * 8)  # the empty pair is skipped


def test_lsa_per_match_counts_solver_calls_per_match():
    tracer = tracing.Tracer()
    lsa = tracer.wrap("matching.lsa", lambda m: None)

    def fake_match(calls):
        for _ in range(calls):
            lsa(None)

    match = tracer.wrap("matching.optimal_match", fake_match)
    for calls in (3, 0, 1):
        match(calls)
    m = tracing.layer_metrics(tracer, 1.0)
    assert m["matching.optimal_match.calls"] == 3
    assert m["matching.lsa.calls"] == 4
    assert m["matching.lsa_per_match"] == pytest.approx(4 / 3)
    assert tracing.layer_metrics(tracing.Tracer(), 1.0)["matching.lsa_per_match"] == 0.0


def test_evaluate_annotation_distinct_frac_compares_mask_values():
    tracer = tracing.Tracer()
    ev = tracer.wrap("image_metrics.evaluate_annotation", evaluate_annotation,
                     after=tracer._after_evaluate_annotation)
    a, b = _rect(0, 0, 4, 4), _rect(4, 4, 4, 4)
    for _ in range(3):  # fresh Detection objects and an equal, rebuilt mask
        ev((Detection(mask=_rect(0, 0, 4, 4), score=1.0),), (a,))
    ev((Detection(mask=a, score=1.0),), (b,))
    m = tracing.layer_metrics(tracer, 1.0)
    assert m["image_metrics.evaluate_annotation.calls"] == 4
    assert m["image_metrics.evaluate_annotation.distinct_frac"] == pytest.approx(2 / 4)


def test_install_patches_every_importer_and_uninstall_restores():
    import phraseseg
    from phraseseg import sim, tracker, video_metrics

    importers = (masks, matching, tracker, sim, video_metrics, phraseseg)
    preds, gts = [_rect(0, 0, 4, 4)], [_rect(2, 2, 4, 4), _rect(6, 6, 2, 2)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        wrapped = {mod.mask_iou for mod in importers}
        assert len(wrapped) == 1 and wrapped.pop() is not mask_iou
        matching.iou_matrix(preds, gts)
    finally:
        tracer.uninstall()
    assert all(mod.mask_iou is mask_iou for mod in importers)
    m = tracing.layer_metrics(tracer, 1.0)
    assert m["matching.iou_matrix.cells"] == 2
    assert m["masks.mask_iou.calls"] == 2
    assert m["masks.rlemask_init.calls"] == 0  # the masks were built before install


def test_judge_counts_nonzero_exits_and_digest_mismatches():
    def pass_(rc, digest, problems=()):
        return {"traced": False, "rc": 0, "result": {"problems": list(problems), "commands": [
            {"label": "a", "rc": rc, "digests": {"a.json": digest} if rc == 0 else {}},
            {"label": "b", "rc": 0, "digests": {"b.json": "x"}}]}}

    passes = [pass_(0, "d1"), pass_(0, "d2"), pass_(3, None), pass_(0, "d1", [("b", "bad")])]
    attempted, failed, notes = run._judge(passes, ["a", "b"], None)
    assert (attempted, failed) == (8, 3)
    attempted, failed, _ = run._judge(passes[:1], ["a", "b"], {"a.json": "d1", "b.json": "y"})
    assert (attempted, failed) == (2, 1)
    lost = [{"traced": True, "rc": "timeout", "result": None}]
    assert run._judge(lost, ["a", "b"], None)[:2] == (2, 2)


def test_benchmark_json_matches_the_code():
    import json

    import workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        {name: unit for name, (_, unit) in run._end_to_end([]).items()}
