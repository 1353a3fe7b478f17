"""Seeded inputs, command lines and output checks of the benchmark workloads.

Every input comes from ``phraseseg.sim.gen_scenario`` and the benchmark seed;
the program itself sees only the files written here. NOTES.md says why each
workload was chosen and which layers it stresses.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Union

DEFAULT_SEED = 1

# image-crowded: large frames, many large instances, misses, jitter, false
# positives (some of them distractors hugging a real object).
IMAGE_SCENARIO = dict(
    height=480, width=640, frames=48, objects=12, min_size=40, max_size=96,
    miss_prob=0.1, fp_rate=6.0, distractor_prob=0.3, jitter_px=4,
)

# video-stream: the README's simulate -> track -> eval-video chain.
VIDEO_SCENARIO = dict(
    height=256, width=256, frames=200, objects=8, min_size=12, max_size=32,
    miss_prob=0.1, fp_rate=1.0, distractor_prob=0.3, jitter_px=2, prop_jitter_px=1,
    occlusions=[[0, 70, 100]],
)

# annotator-agreement: small frames; annotator 0 is the ground truth, 1 and 2
# are the real detections of same-seed scenarios (same trajectories) with
# more misses and jitter. The windows hide every object, making negatives.
AGREE_SCENARIO = dict(height=64, width=64, frames=200, objects=4, min_size=6, max_size=14)
AGREE_HIDDEN = ((40, 49), (120, 129))
AGREE_ANNOTATORS = (dict(miss_prob=0.1, jitter_px=1), dict(miss_prob=0.2, jitter_px=2))
AGREE_TRIALS = 50


def _write_json(path: str, doc) -> int:
    text = json.dumps(doc)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return len(text)


def _rle(mask) -> dict:
    return {"counts": list(mask.counts)}


def _scenario(params: dict, seed: int):
    from phraseseg.sim import ScenarioConfig, gen_scenario

    fields = dict(params, seed=seed)
    if "occlusions" in fields:
        fields["occlusions"] = tuple(tuple(o) for o in fields["occlusions"])
    return gen_scenario(ScenarioConfig(**fields))


def _frame_masks(scenario, t: int) -> list:
    return [seq.frames[t] for seq in scenario.gt_masklets if t in seq.frames]


def gen_image_crowded(seed: int, inp: str) -> dict:
    """One image per scenario frame, each with a positive phrase ("object")
    and a negative one ("absent") whose predictions are that frame's false
    positives. Half the negatives carry presence 0.5, which gates every
    prediction out (a true negative); the rest are false positives."""
    sc = _scenario(IMAGE_SCENARIO, seed)
    h, w = IMAGE_SCENARIO["height"], IMAGE_SCENARIO["width"]
    media, datapoints, records = [], [], []
    gt_instances = pred_instances = 0
    for t, dets in enumerate(sc.detections):
        mid = f"img{t:04d}"
        media.append({"id": mid, "height": h, "width": w, "frames": 1})
        gt = [_rle(m) for m in _frame_masks(sc, t)]
        gt_instances += len(gt)
        datapoints.append({"media_id": mid, "phrase": "object", "annotations": [gt]})
        datapoints.append({"media_id": mid, "phrase": "absent", "annotations": [[]]})
        preds = [dict(_rle(d.mask), score=d.score) for d in dets]
        # gen_scenario scores real detections 1.0 and false positives below it
        fps = [dict(_rle(d.mask), score=d.score) for d in dets if d.score < 1.0]
        pred_instances += len(preds) + len(fps)
        records.append({"media_id": mid, "phrase": "object", "instances": preds})
        records.append(
            {"media_id": mid, "phrase": "absent", "presence": 1.0 if t % 2 else 0.5,
             "instances": fps}
        )
    size = _write_json(os.path.join(inp, "gt.json"), {
        "schema_version": 1, "media": media, "datapoints": datapoints})
    size += _write_json(os.path.join(inp, "pred.json"), {
        "schema_version": 1, "predictions": records})
    return {"images": len(media), "gt_instances": gt_instances,
            "pred_instances": pred_instances, "input_bytes": size}


def gen_video_stream(seed: int, inp: str) -> dict:
    """Only the scenario config is an input; `simulate` generates the rest."""
    size = _write_json(os.path.join(inp, "scenario.json"), dict(VIDEO_SCENARIO, seed=seed))
    return {"frames": VIDEO_SCENARIO["frames"], "objects": VIDEO_SCENARIO["objects"],
            "input_bytes": size}


def gen_annotator_agreement(seed: int, inp: str) -> dict:
    hidden = tuple(
        (obj, first, last)
        for obj in range(AGREE_SCENARIO["objects"])
        for first, last in AGREE_HIDDEN
    )
    base = dict(AGREE_SCENARIO, occlusions=hidden)
    truth = _scenario(base, seed)
    others = [_scenario(dict(base, **noise), seed) for noise in AGREE_ANNOTATORS]
    h, w = AGREE_SCENARIO["height"], AGREE_SCENARIO["width"]
    media, datapoints = [], []
    instances = 0
    for t in range(AGREE_SCENARIO["frames"]):
        mid = f"img{t:04d}"
        media.append({"id": mid, "height": h, "width": w, "frames": 1})
        annotations = [[_rle(m) for m in _frame_masks(truth, t)]]
        annotations += [[_rle(d.mask) for d in sc.detections[t]] for sc in others]
        instances += sum(len(a) for a in annotations)
        datapoints.append({"media_id": mid, "phrase": "object", "annotations": annotations})
    size = _write_json(os.path.join(inp, "gold.json"), {
        "schema_version": 1, "media": media, "datapoints": datapoints})
    return {"images": len(media), "annotators": 1 + len(others),
            "instances": instances, "input_bytes": size}


def masklets_to_predictions(masklets_path: str, preds_path: str, phrase: str = "object"):
    """Turn `track --out` masklets into an `eval-video --pred` file: suppressed
    (null) frames are dropped, masklets with no shown frame are skipped, and
    every masklet scores 1.0."""
    with open(masklets_path, encoding="utf-8") as f:
        doc = json.load(f)
    instances = []
    for m in doc["masklets"]:
        frames = {t: v for t, v in m["frames"].items() if v is not None}
        if frames:
            instances.append({"frames": frames, "score": 1.0})
    _write_json(preds_path, {
        "schema_version": 1,
        "predictions": [{"media_id": doc["media"]["id"], "phrase": phrase,
                         "instances": instances}],
    })


@dataclass(frozen=True)
class Command:
    """One timed CLI invocation; ``outputs`` are the files it writes."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


Step = Union[Command, Callable[[], None]]  # a callable is untimed benchmark glue


def _image_crowded_steps(inp: str, out: str, seed: int) -> list[Step]:
    gt, pred = os.path.join(inp, "gt.json"), os.path.join(inp, "pred.json")
    r1, r2 = os.path.join(out, "eval_image.json"), os.path.join(out, "count.json")
    return [
        Command("eval_image", ("eval-image", "--gt", gt, "--pred", pred, "--report", r1,
                               "--threads", "1"), (r1,)),
        Command("count", ("count", "--gt", gt, "--pred", pred, "--report", r2,
                          "--threads", "1"), (r2,)),
    ]


def _video_stream_steps(inp: str, out: str, seed: int) -> list[Step]:
    p = {k: os.path.join(out, f"{k}.json")
         for k in ("dets", "gt", "tracks", "masklets", "preds", "eval_video")}
    return [
        Command("simulate", ("simulate", "--config", os.path.join(inp, "scenario.json"),
                             "--out-detections", p["dets"], "--out-gt", p["gt"],
                             "--out-tracks", p["tracks"]),
                (p["dets"], p["gt"], p["tracks"])),
        Command("track", ("track", "--detections", p["dets"], "--out", p["masklets"],
                          "--propagator", "tracks", "--tracks", p["tracks"]),
                (p["masklets"],)),
        lambda: masklets_to_predictions(p["masklets"], p["preds"]),
        Command("eval_video", ("eval-video", "--gt", p["gt"], "--pred", p["preds"],
                               "--report", p["eval_video"], "--threads", "1"),
                (p["eval_video"],)),
    ]


def _annotator_agreement_steps(inp: str, out: str, seed: int) -> list[Step]:
    gold = os.path.join(inp, "gold.json")
    r1, r2 = os.path.join(out, "random_pair.json"), os.path.join(out, "human_oracle.json")
    return [
        Command("random_pair", ("eval-image", "--gt", gold, "--random-pair",
                                str(AGREE_TRIALS), "--seed", str(seed), "--report", r1,
                                "--threads", "1"), (r1,)),
        Command("human_oracle", ("eval-image", "--gt", gold, "--human-oracle",
                                 "--report", r2, "--threads", "1"), (r2,)),
    ]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# A check returns (command label, problem) pairs; a problem fails that command.


def _check_image_crowded(out: str, facts: dict) -> list[tuple[str, str]]:
    problems = []
    report = _load(os.path.join(out, "eval_image.json"))
    if report["datapoints"]["total"] != 2 * facts["images"]:
        problems.append(("eval_image", "not every datapoint was scored"))
    if report["ignored_predictions"] != 0:
        problems.append(("eval_image", "prediction records were ignored"))
    if report["metrics"]["IL_MCC"] == 0.0 or report["metrics"]["cgF1"] <= 0.0:
        problems.append(("eval_image", "IL_MCC or cgF1 is degenerate"))
    count = _load(os.path.join(out, "count.json"))
    if len(count["datapoints"]) != 2 * facts["images"]:
        problems.append(("count", "not every datapoint was counted"))
    return problems


def _check_video_stream(out: str, facts: dict) -> list[tuple[str, str]]:
    report = _load(os.path.join(out, "eval_video.json"))
    first = report["per_threshold"][0]
    problems = []
    if first["TP"] + first["FP"] <= 0:
        problems.append(("eval_video", "no predicted masklet was scored"))
    if not report["hota"]["pHOTA"] > 0.0:
        problems.append(("eval_video", "pHOTA is not positive"))
    return problems


def _check_annotator_agreement(out: str, facts: dict) -> list[tuple[str, str]]:
    problems = []
    for label in ("random_pair", "human_oracle"):
        report = _load(os.path.join(out, f"{label}.json"))
        if report["datapoints"]["total"] != facts["images"]:
            problems.append((label, "not every datapoint was scored"))
        if report["datapoints"]["negative"] <= 0:
            problems.append((label, "no negative datapoint"))
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, str], dict]
    steps: Callable[[str, str, int], list]
    check: Callable[[str, dict], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "image-crowded",
            "480x640 images with many large masks: time goes to the dense IoU/IoM "
            "kernel and RLE parsing; matching is sparse and no tracker runs",
            gen_image_crowded, _image_crowded_steps, _check_image_crowded,
        ),
        Workload(
            "video-stream",
            "simulate, track and eval-video over a 200-frame stream: tracker "
            "heuristics, propagator, bbox_of, volume IoU, HOTA and large JSON writes",
            gen_video_stream, _video_stream_steps, _check_video_stream,
        ),
        Workload(
            "annotator-agreement",
            "random-pair and human-oracle on small 3-annotator images: thousands of "
            "small optimal_match calls over repeated annotation pairs",
            gen_annotator_agreement, _annotator_agreement_steps,
            _check_annotator_agreement,
        ),
    )
}
