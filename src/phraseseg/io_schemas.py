"""Versioned JSON interchange schemas: datasets, predictions, detection
streams, masklet outputs and config files, plus atomic report writing.

The dataset container is federated: a (media, phrase) pair carries a label
only if it appears in ``datapoints``. A listed pair with zero instances is an
explicit negative; an absent pair is unlabeled, so predictions for it are
ignored rather than penalized.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from .errors import ValidationError
from .image_metrics import DataPoint, GtInstance, MetricReport, combine_scores
from .masks import FrameMaskSeq, RleMask
from .matching import Detection
from .sim import ScenarioConfig
from .tracker import TrackerConfig, TrackResult
from .video_metrics import ScoredMasklet, VideoDataPoint

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MediaInfo:
    id: str
    height: int
    width: int
    frames: int = 1

    @property
    def is_video(self) -> bool:
        return self.frames > 1


@dataclass(frozen=True)
class VideoInstance:
    seq: FrameMaskSeq
    group: bool = False


@dataclass
class VideoRecord:
    media: MediaInfo
    phrase: str
    annotations: tuple[tuple[VideoInstance, ...], ...]

    def datapoint(
        self,
        predictions: tuple[ScoredMasklet, ...] = (),
        annotation_index: int = 0,
    ) -> VideoDataPoint:
        return VideoDataPoint(
            video_id=self.media.id,
            phrase=self.phrase,
            gt_masklets=tuple(inst.seq for inst in self.annotations[annotation_index]),
            pred_masklets=predictions,
        )


@dataclass
class Dataset:
    media: dict[str, MediaInfo]
    image_records: list[DataPoint] = field(default_factory=list)
    video_records: list[VideoRecord] = field(default_factory=list)


@dataclass
class PredictionSet:
    """Predictions keyed by (media_id, phrase)."""

    image: dict[tuple[str, str], tuple[Detection, ...]] = field(default_factory=dict)
    video: dict[tuple[str, str], tuple[ScoredMasklet, ...]] = field(default_factory=dict)


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def add(self, where: str, message: str):
        self.errors.append(f"{where}: {message}")

    def raise_if_any(self):
        if self.errors:
            raise ValidationError(self.errors)


def _load_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise ValidationError([f"{path}: cannot read file ({exc})"])
    except json.JSONDecodeError as exc:
        raise ValidationError([f"{path}: invalid JSON ({exc})"])


def _check_version(doc, where, errs: _Collector) -> bool:
    if not isinstance(doc, dict):
        errs.add(where, "top-level value must be a JSON object")
        return False
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        errs.add(where, f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
        return False
    return True


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_unit(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and 0.0 <= value <= 1.0


def _frame_index(key: str) -> Optional[int]:
    """The frame an object key names; only the canonical spelling ``str(t)``
    counts, so that no two keys can name one frame."""
    try:
        idx = int(key)
    except ValueError:
        return None
    return idx if str(idx) == key else None


def _parse_rle(obj, media: MediaInfo, where: str, errs: _Collector) -> Optional[RleMask]:
    if not isinstance(obj, dict) or "counts" not in obj:
        errs.add(where, "mask must be an object with a 'counts' array")
        return None
    counts = obj["counts"]
    if not isinstance(counts, list) or not all(_is_int(c) and c >= 0 for c in counts):
        errs.add(where, "'counts' must be a list of non-negative integers")
        return None
    try:
        return RleMask(media.height, media.width, tuple(counts))
    except ValueError as exc:
        errs.add(where, str(exc))
        return None


def _parse_frame_masks(
    obj, media: MediaInfo, where: str, errs: _Collector
) -> Optional[FrameMaskSeq]:
    if not isinstance(obj, dict):
        errs.add(where, "'frames' must be an object keyed by frame index")
        return None
    frames: dict[int, RleMask] = {}
    ok = True
    for key, value in obj.items():
        idx = _frame_index(key)
        if idx is None:
            errs.add(where, f"frame key {key!r} is not a canonical integer")
            ok = False
            continue
        if not 0 <= idx < media.frames:
            errs.add(where, f"frame {idx} outside media frame range 0..{media.frames - 1}")
            ok = False
            continue
        if value is None:
            continue
        mask = _parse_rle(value, media, f"{where}.frames[{key}]", errs)
        if mask is None:
            ok = False
        else:
            frames[idx] = mask
    if not ok:
        return None
    return FrameMaskSeq(media.height, media.width, frames)


def _parse_media_entry(entry, where, errs: _Collector) -> Optional[MediaInfo]:
    if not isinstance(entry, dict):
        errs.add(where, "media entry must be an object")
        return None
    try:
        media = MediaInfo(
            id=str(entry["id"]),
            height=int(entry["height"]),
            width=int(entry["width"]),
            frames=int(entry.get("frames", 1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        errs.add(where, f"invalid media entry ({exc})")
        return None
    if media.height <= 0 or media.width <= 0 or media.frames <= 0:
        errs.add(where, "media dimensions and frame count must be positive")
        return None
    return media


def load_dataset(path) -> Dataset:
    """Load and validate a ground-truth dataset file."""
    doc = _load_json(path)
    errs = _Collector()
    if not _check_version(doc, str(path), errs):
        errs.raise_if_any()

    media: dict[str, MediaInfo] = {}
    for i, entry in enumerate(doc.get("media", [])):
        info = _parse_media_entry(entry, f"media[{i}]", errs)
        if info is None:
            continue
        if info.id in media:
            errs.add(f"media[{i}]", f"duplicate media id {info.id!r}")
            continue
        media[info.id] = info

    dataset = Dataset(media=media)
    seen_pairs: set[tuple[str, str]] = set()
    for i, rec in enumerate(doc.get("datapoints", [])):
        where = f"datapoints[{i}]"
        if not isinstance(rec, dict):
            errs.add(where, "datapoint must be an object")
            continue
        media_id = rec.get("media_id")
        phrase = rec.get("phrase")
        if media_id not in media:
            errs.add(where, f"unknown media id {media_id!r}")
            continue
        if not isinstance(phrase, str) or not phrase:
            errs.add(where, "phrase must be a non-empty string")
            continue
        if (media_id, phrase) in seen_pairs:
            errs.add(where, f"duplicate datapoint for ({media_id!r}, {phrase!r})")
            continue
        seen_pairs.add((media_id, phrase))
        info = media[media_id]
        annotations_raw = rec.get("annotations")
        if not isinstance(annotations_raw, list) or not annotations_raw:
            errs.add(where, "datapoint needs at least one annotation list")
            continue
        if info.is_video:
            annotations: list[tuple[VideoInstance, ...]] = []
            broken = False
            for a, ann in enumerate(annotations_raw):
                instances = []
                for k, inst in enumerate(ann if isinstance(ann, list) else []):
                    iw = f"{where}.annotations[{a}][{k}]"
                    if not isinstance(inst, dict) or "frames" not in inst:
                        errs.add(iw, "video instance needs a 'frames' object")
                        broken = True
                        continue
                    seq = _parse_frame_masks(inst["frames"], info, iw, errs)
                    if seq is None:
                        broken = True
                        continue
                    instances.append(VideoInstance(seq=seq, group=bool(inst.get("group", False))))
                annotations.append(tuple(instances))
            if not broken:
                dataset.video_records.append(
                    VideoRecord(media=info, phrase=phrase, annotations=tuple(annotations))
                )
        else:
            annotations = []
            broken = False
            for a, ann in enumerate(annotations_raw):
                instances = []
                for k, inst in enumerate(ann if isinstance(ann, list) else []):
                    iw = f"{where}.annotations[{a}][{k}]"
                    mask = _parse_rle(inst, info, iw, errs)
                    if mask is None:
                        broken = True
                        continue
                    group = bool(inst.get("group", False)) if isinstance(inst, dict) else False
                    instances.append(GtInstance(mask=mask, group=group))
                annotations.append(tuple(instances))
            if not broken:
                dataset.image_records.append(
                    DataPoint(
                        media_id=media_id,
                        phrase=phrase,
                        annotations=tuple(annotations),
                    )
                )
    errs.raise_if_any()
    return dataset


def load_predictions(path, dataset: Dataset, *, use_presence: bool = True) -> PredictionSet:
    """Load a prediction file against a dataset's media table.

    When a record carries a ``presence`` score, every instance score is
    multiplied by it (set ``use_presence=False`` for counting-style runs where
    presence is pinned to 1).
    """
    doc = _load_json(path)
    errs = _Collector()
    if not _check_version(doc, str(path), errs):
        errs.raise_if_any()

    preds = PredictionSet()
    for i, rec in enumerate(doc.get("predictions", [])):
        where = f"predictions[{i}]"
        if not isinstance(rec, dict):
            errs.add(where, "prediction record must be an object")
            continue
        media_id = rec.get("media_id")
        phrase = rec.get("phrase")
        if media_id not in dataset.media:
            errs.add(where, f"unknown media id {media_id!r}")
            continue
        if not isinstance(phrase, str) or not phrase:
            errs.add(where, "phrase must be a non-empty string")
            continue
        info = dataset.media[media_id]
        presence = rec.get("presence", 1.0)
        if not _is_unit(presence):
            errs.add(where, f"presence must be in [0, 1], got {presence!r}")
            continue
        key = (media_id, phrase)
        if key in (preds.video if info.is_video else preds.image):
            errs.add(where, f"duplicate prediction record for {key!r}")
            continue
        instances = rec.get("instances")
        if not isinstance(instances, list):
            errs.add(where, "'instances' must be a list")
            continue
        if info.is_video:
            masklets = []
            for k, inst in enumerate(instances):
                iw = f"{where}.instances[{k}]"
                score = _parse_masklet_score(inst, iw, errs)
                if score is None or not isinstance(inst, dict) or "frames" not in inst:
                    if isinstance(inst, dict) and "frames" not in inst:
                        errs.add(iw, "video instance needs a 'frames' object")
                    continue
                seq = _parse_frame_masks(inst["frames"], info, iw, errs)
                if seq is None:
                    continue
                final = combine_scores(float(presence), score) if use_presence else score
                masklets.append(ScoredMasklet(frames=seq, score=final))
            preds.video[key] = tuple(masklets)
        else:
            dets = []
            for k, inst in enumerate(instances):
                iw = f"{where}.instances[{k}]"
                score = _parse_score(inst, iw, errs)
                mask = _parse_rle(inst, info, iw, errs)
                if score is None or mask is None:
                    continue
                final = combine_scores(float(presence), score) if use_presence else score
                dets.append(Detection(mask=mask, score=final, group=bool(inst.get("group", False))))
            preds.image[key] = tuple(dets)
    errs.raise_if_any()
    return preds


def _parse_score(inst, where, errs: _Collector) -> Optional[float]:
    if not isinstance(inst, dict) or "score" not in inst:
        errs.add(where, "instance needs a 'score'")
        return None
    score = inst["score"]
    if not _is_unit(score):
        errs.add(where, f"score must be in [0, 1], got {score!r}")
        return None
    return float(score)


def _parse_masklet_score(inst, where, errs: _Collector) -> Optional[float]:
    """Scalar masklet confidence; per-frame scores are aggregated by mean."""
    if isinstance(inst, dict) and "score" not in inst and "frame_scores" in inst:
        frame_scores = inst["frame_scores"]
        values = list(frame_scores.values()) if isinstance(frame_scores, dict) else None
        if not values or not all(_is_unit(v) for v in values):
            errs.add(where, "'frame_scores' must map frames to values in [0, 1]")
            return None
        return float(sum(values) / len(values))
    return _parse_score(inst, where, errs)


def join_image(dataset: Dataset, preds: PredictionSet) -> tuple[list[DataPoint], int]:
    """Attach predictions to labeled image datapoints.

    Returns the joined datapoints and the number of prediction records that
    had no labeled datapoint (ignored under the federated convention).
    """
    joined = []
    used = set()
    for rec in dataset.image_records:
        key = (rec.media_id, rec.phrase)
        dets = preds.image.get(key, ())
        used.add(key)
        joined.append(
            DataPoint(
                media_id=rec.media_id,
                phrase=rec.phrase,
                annotations=rec.annotations,
                predictions=dets,
            )
        )
    ignored = sum(1 for key in preds.image if key not in used)
    return joined, ignored


def join_video(
    dataset: Dataset, preds: PredictionSet, annotation_index: int = 0
) -> tuple[list[VideoDataPoint], int]:
    joined = []
    used = set()
    for rec in dataset.video_records:
        key = (rec.media.id, rec.phrase)
        used.add(key)
        joined.append(rec.datapoint(preds.video.get(key, ()), annotation_index))
    ignored = sum(1 for key in preds.video if key not in used)
    return joined, ignored


def _media_doc(media: MediaInfo) -> dict:
    return {"id": media.id, "height": media.height, "width": media.width, "frames": media.frames}


def _frames_doc(frames: Mapping[int, Optional[RleMask]]) -> dict:
    """Frame map keyed by ``str(t)``; a ``None`` mask (suppressed) stays null."""
    return {
        str(t): None if m is None else {"counts": list(m.counts)}
        for t, m in sorted(frames.items())
    }


def _image_instance_doc(inst: GtInstance) -> dict:
    doc: dict[str, Any] = {"counts": list(inst.mask.counts)}
    if inst.group:
        doc["group"] = True
    return doc


def _video_instance_doc(inst: VideoInstance) -> dict:
    doc: dict[str, Any] = {"frames": _frames_doc(inst.seq.frames)}
    if inst.group:
        doc["group"] = True
    return doc


def dataset_doc(dataset: Dataset) -> dict:
    """Serialize a dataset back into its interchange document."""
    datapoints = []
    for rec in dataset.image_records:
        datapoints.append(
            {
                "media_id": rec.media_id,
                "phrase": rec.phrase,
                "annotations": [
                    [_image_instance_doc(inst) for inst in ann] for ann in rec.annotations
                ],
            }
        )
    for rec in dataset.video_records:
        datapoints.append(
            {
                "media_id": rec.media.id,
                "phrase": rec.phrase,
                "annotations": [
                    [_video_instance_doc(inst) for inst in ann] for ann in rec.annotations
                ],
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "media": [_media_doc(m) for m in sorted(dataset.media.values(), key=lambda m: m.id)],
        "datapoints": datapoints,
    }


def predictions_doc(preds: PredictionSet) -> dict:
    """Serialize predictions; presence factors are already folded into scores."""
    records = []
    for (media_id, phrase), dets in sorted(preds.image.items()):
        instances = []
        for d in dets:
            inst: dict[str, Any] = {"counts": list(d.mask.counts), "score": d.score}
            if d.group:
                inst["group"] = True
            instances.append(inst)
        records.append({"media_id": media_id, "phrase": phrase, "instances": instances})
    for (media_id, phrase), masklets in sorted(preds.video.items()):
        instances = [
            {"frames": _frames_doc(sm.frames.frames), "score": sm.score} for sm in masklets
        ]
        records.append({"media_id": media_id, "phrase": phrase, "instances": instances})
    return {"schema_version": SCHEMA_VERSION, "predictions": records}


# -- detection streams and masklet outputs ----------------------------------


@dataclass
class DetectionStream:
    media: MediaInfo
    frames: tuple[tuple[Detection, ...], ...]


def load_detection_stream(path) -> DetectionStream:
    """Load per-frame detections. Frames are an array (one list per frame) or
    an object keyed by frame index that must cover 0..frames-1 without gaps."""
    doc = _load_json(path)
    errs = _Collector()
    if not _check_version(doc, str(path), errs):
        errs.raise_if_any()
    media = _parse_media_entry(doc.get("media"), "media", errs)
    if media is None:
        errs.raise_if_any()
    raw = doc.get("detections")
    per_frame: list[Any] = []
    if isinstance(raw, list):
        if len(raw) != media.frames:
            errs.add(
                "detections",
                f"expected {media.frames} frame lists, got {len(raw)}",
            )
        per_frame = raw
    elif isinstance(raw, dict):
        keys = set()
        for key in raw:
            idx = _frame_index(key)
            if idx is None:
                errs.add("detections", f"frame key {key!r} is not a canonical integer")
            else:
                keys.add(idx)
        missing = sorted(set(range(media.frames)) - keys)
        extra = sorted(keys - set(range(media.frames)))
        if missing:
            errs.add("detections", f"missing frames {missing}")
        if extra:
            errs.add("detections", f"unexpected frames {extra}")
        if not missing and not extra:
            per_frame = [raw[str(t)] for t in range(media.frames)]
    else:
        errs.add("detections", "must be an array of frame lists or an object keyed by frame")
    errs.raise_if_any()

    frames = []
    for t, dets_raw in enumerate(per_frame):
        dets = []
        if not isinstance(dets_raw, list):
            errs.add(f"detections[{t}]", "frame entry must be a list")
            continue
        for k, inst in enumerate(dets_raw):
            where = f"detections[{t}][{k}]"
            score = _parse_score(inst, where, errs)
            mask = _parse_rle(inst, media, where, errs)
            if score is not None and mask is not None:
                dets.append(Detection(mask=mask, score=score))
        frames.append(tuple(dets))
    errs.raise_if_any()
    return DetectionStream(media=media, frames=tuple(frames))


def detection_stream_doc(media: MediaInfo, frames: Sequence[Sequence[Detection]]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "media": _media_doc(media),
        "detections": [
            [{"counts": list(d.mask.counts), "score": d.score} for d in dets]
            for dets in frames
        ],
    }


def _masklet_records_doc(media: MediaInfo, records) -> dict:
    """Masklet-schema document from ``(id, first_frame, frames)`` records."""
    return {
        "schema_version": SCHEMA_VERSION,
        "media": _media_doc(media),
        "masklets": [
            {"id": mid, "first_frame": first, "frames": _frames_doc(frames)}
            for mid, first, frames in records
        ],
    }


def tracks_doc(media: MediaInfo, tracks: dict[int, FrameMaskSeq]) -> dict:
    """Masklet-schema document from plain per-id frame sequences."""
    return _masklet_records_doc(
        media, ((tid, min(s.frames, default=0), s.frames) for tid, s in sorted(tracks.items()))
    )


def masklets_doc(media: MediaInfo, result: TrackResult) -> dict:
    return _masklet_records_doc(
        media, ((mid, m.t_first, m.frames) for mid, m in sorted(result.masklets.items()))
    )


def load_masklets(path) -> tuple[MediaInfo, dict[int, FrameMaskSeq]]:
    doc = _load_json(path)
    errs = _Collector()
    if not _check_version(doc, str(path), errs):
        errs.raise_if_any()
    media = _parse_media_entry(doc.get("media"), "media", errs)
    if media is None:
        errs.raise_if_any()
    masklets: dict[int, FrameMaskSeq] = {}
    for i, rec in enumerate(doc.get("masklets", [])):
        where = f"masklets[{i}]"
        if not isinstance(rec, dict) or "id" not in rec or "frames" not in rec:
            errs.add(where, "masklet needs 'id' and 'frames'")
            continue
        mid = rec["id"]
        if not _is_int(mid):
            errs.add(where, f"masklet id must be a JSON integer, got {mid!r}")
            continue
        seq = _parse_frame_masks(rec["frames"], media, where, errs)
        if seq is None:
            continue
        if mid in masklets:
            errs.add(where, f"duplicate masklet id {mid}")
            continue
        masklets[mid] = seq
    errs.raise_if_any()
    return media, masklets


# -- configs -----------------------------------------------------------------


def load_tracker_config(path) -> TrackerConfig:
    doc = _load_json(path)
    fields = dict(doc) if isinstance(doc, dict) else None
    if fields is None:
        raise ValidationError([f"{path}: tracker config must be a JSON object"])
    allowed = set(TrackerConfig.__dataclass_fields__)
    unknown = sorted(set(fields) - allowed)
    if unknown:
        raise ValidationError([f"{path}: unknown tracker config fields {unknown}"])
    try:
        return TrackerConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ValidationError([f"{path}: {exc}"])


def load_scenario_config(path) -> ScenarioConfig:
    doc = _load_json(path)
    fields = dict(doc) if isinstance(doc, dict) else None
    if fields is None:
        raise ValidationError([f"{path}: scenario config must be a JSON object"])
    allowed = set(ScenarioConfig.__dataclass_fields__)
    unknown = sorted(set(fields) - allowed)
    if unknown:
        raise ValidationError([f"{path}: unknown scenario config fields {unknown}"])
    if "occlusions" in fields:
        try:
            fields["occlusions"] = tuple(tuple(int(v) for v in occ) for occ in fields["occlusions"])
        except (TypeError, ValueError):
            raise ValidationError([f"{path}: occlusions must be [object, first, last] triples"])
    try:
        return ScenarioConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ValidationError([f"{path}: {exc}"])


# -- reports and atomic writes ------------------------------------------------


def dumps_json(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_atomic(path, text: str):
    """Write via a sibling temp file and rename, so readers never see a
    partial report."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def rows_csv(rows: Sequence[tuple[str, float, str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "value", "tau"])
    for metric, value, tau in rows:
        writer.writerow([metric, repr(float(value)), tau])
    return buf.getvalue()


def report_csv(report: MetricReport, extra_rows: Sequence[tuple[str, float, str]] = ()) -> str:
    return rows_csv(list(report.to_csv_rows()) + list(extra_rows))


def write_report(report_doc: Any, path, fmt: str):
    if fmt == "json":
        write_atomic(path, dumps_json(report_doc))
    elif fmt == "csv":
        write_atomic(path, report_doc)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
