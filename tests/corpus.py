"""Deterministic fixture corpus used by the CLI and acceptance tests."""

from __future__ import annotations

import numpy as np


def _rect_counts(h, w, x, y, bw, bh):
    grid = np.zeros((h, w), dtype=bool)
    grid[y : y + bh, x : x + bw] = True
    flat = grid.ravel(order="F")
    boundaries = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [flat.size]))
    counts = (ends - starts).tolist()
    if flat[0]:
        counts.insert(0, 0)
    return [int(c) for c in counts]


def build_image_corpus(seed=20240601, n_media=8):
    """A small mixed image benchmark: positives, negatives, jittered and
    spurious predictions, some sub-gate noise. Returns (gt_doc, pred_doc)."""
    rng = np.random.default_rng(seed)
    media = []
    datapoints = []
    predictions = []
    phrases = ["crate", "bollard", "panel"]
    for i in range(n_media):
        h = int(rng.integers(12, 17))
        w = int(rng.integers(12, 17))
        media_id = f"img{i:02d}"
        media.append({"id": media_id, "height": h, "width": w, "frames": 1})
        for phrase in phrases[: int(rng.integers(2, 4))]:
            positive = rng.random() < 0.65
            gt_boxes = []
            if positive:
                for _ in range(int(rng.integers(1, 4))):
                    bw, bh = int(rng.integers(3, 6)), int(rng.integers(3, 6))
                    x = int(rng.integers(0, w - bw + 1))
                    y = int(rng.integers(0, h - bh + 1))
                    gt_boxes.append((x, y, bw, bh))
            annotations = [[{"counts": _rect_counts(h, w, *b)} for b in gt_boxes]]
            datapoints.append(
                {"media_id": media_id, "phrase": phrase, "annotations": annotations}
            )

            instances = []
            for b in gt_boxes:
                if rng.random() < 0.8:  # detected, possibly jittered
                    x, y, bw, bh = b
                    if rng.random() < 0.5:
                        x = int(np.clip(x + rng.integers(-1, 2), 0, w - bw))
                        y = int(np.clip(y + rng.integers(-1, 2), 0, h - bh))
                    instances.append(
                        {
                            "counts": _rect_counts(h, w, x, y, bw, bh),
                            "score": round(float(rng.uniform(0.55, 1.0)), 4),
                        }
                    )
            if rng.random() < 0.3:  # spurious detection
                bw, bh = int(rng.integers(2, 5)), int(rng.integers(2, 5))
                x = int(rng.integers(0, w - bw + 1))
                y = int(rng.integers(0, h - bh + 1))
                instances.append(
                    {
                        "counts": _rect_counts(h, w, x, y, bw, bh),
                        "score": round(float(rng.uniform(0.55, 1.0)), 4),
                    }
                )
            if rng.random() < 0.4:  # sub-gate noise that must not matter
                instances.append(
                    {
                        "counts": _rect_counts(h, w, 0, 0, 2, 2),
                        "score": round(float(rng.uniform(0.0, 0.5)), 4),
                    }
                )
            predictions.append(
                {"media_id": media_id, "phrase": phrase, "instances": instances}
            )
    gt_doc = {"schema_version": 1, "media": media, "datapoints": datapoints}
    pred_doc = {"schema_version": 1, "predictions": predictions}
    return gt_doc, pred_doc


def build_annotator_corpus(seed=20240602, n_media=10):
    """A small multi-annotator gold file for the annotator protocols: 3-4
    annotators per datapoint jitter, drop or copy shared base boxes, or mark
    the phrase absent. The first datapoint is positive for every annotator,
    so every random-pair trial has a positive. Returns the gt_doc."""
    rng = np.random.default_rng(seed)
    media = []
    datapoints = []
    for i in range(n_media):
        h = int(rng.integers(10, 15))
        w = int(rng.integers(10, 15))
        media_id = f"img{i:02d}"
        media.append({"id": media_id, "height": h, "width": w, "frames": 1})
        base = []
        for _ in range(int(rng.integers(1, 4))):
            bw, bh = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            base.append((int(rng.integers(0, w - bw + 1)), int(rng.integers(0, h - bh + 1)), bw, bh))
        annotations = []
        for a in range(int(rng.integers(3, 5))):
            if i > 0 and rng.random() < 0.2:
                boxes = []
            elif a > 0 and rng.random() < 0.25:
                boxes = list(annotations[int(rng.integers(a))])
            else:
                boxes = [
                    (int(np.clip(x + rng.integers(-1, 2), 0, w - bw)), y, bw, bh)
                    for x, y, bw, bh in base
                    if i == 0 or rng.random() < 0.85
                ]
            annotations.append(boxes)
        datapoints.append({
            "media_id": media_id,
            "phrase": "object",
            "annotations": [[{"counts": _rect_counts(h, w, *b)} for b in ann] for ann in annotations],
        })
    return {"schema_version": 1, "media": media, "datapoints": datapoints}


def _frames_doc(seq):
    return {str(t): {"counts": list(m.counts)} for t, m in sorted(seq.frames.items())}


def build_video_corpus(seed=20240603, n_media=2):
    """A small noisy video benchmark: each video is a simulated scenario with
    misses, jitter and false positives, tracked end to end; its ground-truth
    masklets label phrase "object" and phrase "absent" is a negative. The
    first video's negative gets one tracked masklet as a false positive, and
    a prediction record for the unlabeled phrase "ghost" is ignored.
    Returns (gt_doc, pred_doc)."""
    from phraseseg import sim, tracker

    rng = np.random.default_rng(seed)
    media, datapoints, predictions = [], [], []
    for i in range(n_media):
        cfg = sim.ScenarioConfig(
            height=24, width=32, frames=16, objects=3, min_size=4, max_size=8,
            miss_prob=0.15, fp_rate=0.4, distractor_prob=0.3, jitter_px=1,
            prop_jitter_px=1, seed=int(rng.integers(1000)),
        )
        scenario = sim.gen_scenario(cfg)
        result = tracker.run(scenario.detections, scenario.propagator)
        tracked = [_frames_doc(seq) for _, seq in sorted(result.sequences().items())]
        media_id = f"vid{i:02d}"
        media.append({"id": media_id, "height": cfg.height, "width": cfg.width, "frames": cfg.frames})
        datapoints.append({
            "media_id": media_id,
            "phrase": "object",
            "annotations": [[{"frames": _frames_doc(seq)} for seq in scenario.gt_masklets]],
        })
        datapoints.append({"media_id": media_id, "phrase": "absent", "annotations": [[]]})
        predictions.append({
            "media_id": media_id,
            "phrase": "object",
            "instances": [
                {"frames": frames, "score": round(float(rng.uniform(0.3, 1.0)), 4)}
                for frames in tracked
            ],
        })
        if i == 0:
            spurious = {"frames": tracked[-1], "score": 0.9}
            predictions.append({"media_id": media_id, "phrase": "absent", "instances": [spurious]})
            predictions.append({"media_id": media_id, "phrase": "ghost", "instances": [spurious]})
    gt_doc = {"schema_version": 1, "media": media, "datapoints": datapoints}
    pred_doc = {"schema_version": 1, "predictions": predictions}
    return gt_doc, pred_doc
