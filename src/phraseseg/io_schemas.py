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
import math
import os
import tempfile
from dataclasses import dataclass, field, fields, replace
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
    """Every error of one load. Loaders raise them all at their end, so a value
    parsed next to a reported error is never returned."""

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


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # json.load also accepts NaN and Infinity, which are not JSON numbers
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _is_unit(value) -> bool:
    return _is_number(value) and 0.0 <= value <= 1.0


def _load_doc(path) -> tuple[dict, _Collector]:
    """A versioned interchange document (a JSON object of this schema version)
    and the collector for its errors."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError([f"{path}: top-level value must be a JSON object"])
    version = doc.get("schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise ValidationError(
            [f"{path}: unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"]
        )
    return doc, _Collector()


def _array(doc: dict, key: str, errs: _Collector) -> list:
    """A required top-level array; missing is an error, not an empty file."""
    value = doc.get(key)
    if not isinstance(value, list):
        errs.add(key, "required array is missing" if key not in doc else "must be a JSON array")
        return []
    return value


def _frame_keyed(obj: dict, media: MediaInfo, where: str, errs: _Collector) -> dict[int, Any]:
    """The entries of an object keyed by frame, by frame index. Only the
    canonical spelling ``str(t)`` of a frame in the media's range is a key, so
    no two keys can name one frame; other keys are reported and left out."""
    out: dict[int, Any] = {}
    for key, value in obj.items():
        idx = int(key) if key.isascii() and key.isdigit() else None
        if idx is None or str(idx) != key:
            errs.add(where, f"frame key {key!r} is not a canonical integer")
        elif not 0 <= idx < media.frames:
            errs.add(where, f"frame {idx} outside media frame range 0..{media.frames - 1}")
        else:
            out[idx] = value
    return out


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
    frames = {
        t: _parse_rle(value, media, f"{where}.frames[{t}]", errs)
        for t, value in _frame_keyed(obj, media, where, errs).items()
        if value is not None
    }
    if any(mask is None for mask in frames.values()):
        return None
    return FrameMaskSeq(media.height, media.width, frames)


def _parse_media_entry(entry, where, errs: _Collector) -> Optional[MediaInfo]:
    if not isinstance(entry, dict):
        errs.add(where, "media entry must be an object")
        return None
    media_id = entry.get("id")
    ok = isinstance(media_id, str) and media_id != ""
    if not ok:
        errs.add(where, f"media id must be a non-empty string, got {media_id!r}")
    sizes = {key: entry.get(key) for key in ("height", "width")}
    sizes["frames"] = entry.get("frames", 1)
    for key, value in sizes.items():
        if not (_is_int(value) and value > 0):
            errs.add(where, f"{key} must be a positive integer, got {value!r}")
            ok = False
    return MediaInfo(id=media_id, **sizes) if ok else None


def _parse_record(
    rec, media: Mapping[str, MediaInfo], where: str, errs: _Collector
) -> Optional[tuple[MediaInfo, str]]:
    """The media and phrase of a datapoint or prediction record."""
    if not isinstance(rec, dict):
        errs.add(where, "record must be an object")
        return None
    media_id, phrase = rec.get("media_id"), rec.get("phrase")
    if not isinstance(media_id, str) or media_id not in media:
        errs.add(where, f"unknown media id {media_id!r}")
        return None
    if not isinstance(phrase, str) or not phrase:
        errs.add(where, "phrase must be a non-empty string")
        return None
    return media[media_id], phrase


def _parse_instance(
    inst, media: MediaInfo, where: str, errs: _Collector
) -> Optional[tuple[RleMask | FrameMaskSeq, bool]]:
    """An instance's mask and group flag: an ``RleMask`` on an image, a
    ``FrameMaskSeq`` on a video."""
    group = inst.get("group", False) if isinstance(inst, dict) else False
    if not isinstance(group, bool):
        errs.add(where, f"group must be true or false, got {group!r}")
    if not media.is_video:
        mask = _parse_rle(inst, media, where, errs)
    elif isinstance(inst, dict) and "frames" in inst:
        mask = _parse_frame_masks(inst["frames"], media, where, errs)
    else:
        errs.add(where, "video instance needs a 'frames' object")
        return None
    return None if mask is None else (mask, group)


def _parse_score(
    inst, where, errs: _Collector, video: Optional[MediaInfo] = None
) -> Optional[float]:
    """An instance's confidence. A masklet on ``video`` may give per-frame
    scores instead, aggregated by mean."""
    per_frame = video is not None and isinstance(inst, dict) and "score" not in inst
    if per_frame and "frame_scores" in inst:
        frame_scores = inst["frame_scores"]
        values = []
        if isinstance(frame_scores, dict):
            keyed = _frame_keyed(frame_scores, video, f"{where}.frame_scores", errs)
            values = list(keyed.values())
        if not values or not all(_is_unit(v) for v in values):
            errs.add(where, "'frame_scores' must map frames to values in [0, 1]")
            return None
        return float(sum(values) / len(values))
    if not isinstance(inst, dict) or "score" not in inst:
        errs.add(where, "instance needs a 'score'")
        return None
    score = inst["score"]
    if not _is_unit(score):
        errs.add(where, f"score must be in [0, 1], got {score!r}")
        return None
    return float(score)


def load_dataset(path) -> Dataset:
    """Load and validate a ground-truth dataset file."""
    doc, errs = _load_doc(path)
    media: dict[str, MediaInfo] = {}
    for i, entry in enumerate(_array(doc, "media", errs)):
        info = _parse_media_entry(entry, f"media[{i}]", errs)
        if info is None:
            continue
        if info.id in media:
            errs.add(f"media[{i}]", f"duplicate media id {info.id!r}")
            continue
        media[info.id] = info

    dataset = Dataset(media=media)
    seen_pairs: set[tuple[str, str]] = set()
    for i, rec in enumerate(_array(doc, "datapoints", errs)):
        where = f"datapoints[{i}]"
        parsed = _parse_record(rec, media, where, errs)
        if parsed is None:
            continue
        info, phrase = parsed
        if (info.id, phrase) in seen_pairs:
            errs.add(where, f"duplicate datapoint for ({info.id!r}, {phrase!r})")
            continue
        seen_pairs.add((info.id, phrase))
        annotations_raw = rec.get("annotations")
        if not isinstance(annotations_raw, list) or not annotations_raw:
            errs.add(where, "datapoint needs at least one annotation list")
            continue
        instance_type = VideoInstance if info.is_video else GtInstance
        annotations = []
        for a, ann in enumerate(annotations_raw):
            if not isinstance(ann, list):
                errs.add(f"{where}.annotations[{a}]", "annotation must be a list of instances")
                continue
            instances = []
            for k, inst in enumerate(ann):
                parsed = _parse_instance(inst, info, f"{where}.annotations[{a}][{k}]", errs)
                if parsed is not None:
                    instances.append(instance_type(*parsed))
            annotations.append(tuple(instances))
        if len(annotations) < len(annotations_raw):
            continue
        if info.is_video:
            dataset.video_records.append(VideoRecord(info, phrase, tuple(annotations)))
        else:
            dataset.image_records.append(
                DataPoint(media_id=info.id, phrase=phrase, annotations=tuple(annotations))
            )
    errs.raise_if_any()
    return dataset


def load_predictions(path, dataset: Dataset, *, use_presence: bool = True) -> PredictionSet:
    """Load a prediction file against a dataset's media table.

    When a record carries a ``presence`` score, every instance score is
    multiplied by it (set ``use_presence=False`` for counting-style runs where
    presence is pinned to 1).
    """
    doc, errs = _load_doc(path)
    preds = PredictionSet()
    for i, rec in enumerate(_array(doc, "predictions", errs)):
        where = f"predictions[{i}]"
        parsed = _parse_record(rec, dataset.media, where, errs)
        if parsed is None:
            continue
        info, phrase = parsed
        presence = rec.get("presence", 1.0)
        if not _is_unit(presence):
            errs.add(where, f"presence must be in [0, 1], got {presence!r}")
            continue
        key = (info.id, phrase)
        table = preds.video if info.is_video else preds.image
        if key in table:
            errs.add(where, f"duplicate prediction record for {key!r}")
            continue
        instances = rec.get("instances")
        if not isinstance(instances, list):
            errs.add(where, "'instances' must be a list")
            continue
        found = []
        for k, inst in enumerate(instances):
            iw = f"{where}.instances[{k}]"
            score = _parse_score(inst, iw, errs, info if info.is_video else None)
            parsed = _parse_instance(inst, info, iw, errs)
            if score is None or parsed is None:
                continue
            mask, group = parsed
            final = combine_scores(float(presence), score) if use_presence else score
            found.append(
                ScoredMasklet(mask, final) if info.is_video else Detection(mask, final, group)
            )
        table[key] = tuple(found)
    errs.raise_if_any()
    return preds


def join_image(dataset: Dataset, preds: PredictionSet) -> tuple[list[DataPoint], int]:
    """Attach predictions to labeled image datapoints.

    Returns the joined datapoints and the number of prediction records that
    had no labeled datapoint (ignored under the federated convention).
    """
    joined = []
    used = set()
    for rec in dataset.image_records:
        key = (rec.media_id, rec.phrase)
        used.add(key)
        joined.append(replace(rec, predictions=preds.image.get(key, ())))
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


def _instance_doc(
    mask: RleMask | FrameMaskSeq, group: bool = False, score: Optional[float] = None
) -> dict:
    """One instance, the inverse of ``_parse_instance``; ``group`` is written
    only when true and ``score`` only when given."""
    if isinstance(mask, FrameMaskSeq):
        doc: dict[str, Any] = {"frames": _frames_doc(mask.frames)}
    else:
        doc = {"counts": list(mask.counts)}
    if group:
        doc["group"] = True
    if score is not None:
        doc["score"] = score
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
                    [_instance_doc(inst.mask, inst.group) for inst in ann]
                    for ann in rec.annotations
                ],
            }
        )
    for rec in dataset.video_records:
        datapoints.append(
            {
                "media_id": rec.media.id,
                "phrase": rec.phrase,
                "annotations": [
                    [_instance_doc(inst.seq, inst.group) for inst in ann]
                    for ann in rec.annotations
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
        instances = [_instance_doc(d.mask, d.group, d.score) for d in dets]
        records.append({"media_id": media_id, "phrase": phrase, "instances": instances})
    for (media_id, phrase), masklets in sorted(preds.video.items()):
        instances = [_instance_doc(sm.frames, score=sm.score) for sm in masklets]
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
    doc, errs = _load_doc(path)
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
        keyed = _frame_keyed(raw, media, "detections", errs)
        missing = sorted(set(range(media.frames)) - set(keyed))
        if missing:
            errs.add("detections", f"missing frames {missing}")
        per_frame = [keyed.get(t) for t in range(media.frames)]
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
        "detections": [[_instance_doc(d.mask, score=d.score) for d in dets] for dets in frames],
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
    doc, errs = _load_doc(path)
    media = _parse_media_entry(doc.get("media"), "media", errs)
    if media is None:
        errs.raise_if_any()
    masklets: dict[int, FrameMaskSeq] = {}
    for i, rec in enumerate(_array(doc, "masklets", errs)):
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

# Which JSON values a config field takes, keyed by the type its dataclass
# declares (a string, under postponed annotations).
_FIELD_TYPES = {
    "int": _is_int,
    "float": _is_number,
    "Optional[int]": lambda v: v is None or _is_int(v),
    "tuple[tuple[int, int, int], ...]": lambda v: isinstance(v, list)
    and all(isinstance(t, list) and len(t) == 3 and all(map(_is_int, t)) for t in v),
}


def _load_config(path, cls, what: str):
    """A config dataclass from a JSON object of some of its fields, each
    checked against the field's declared type."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError([f"{path}: {what} config must be a JSON object"])
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ValidationError([f"{path}: unknown {what} config fields {unknown}"])
    errs = _Collector()
    for name, value in doc.items():
        if not _FIELD_TYPES[types[name]](value):
            errs.add(str(path), f"{name} must be of type {types[name]}, got {value!r}")
    errs.raise_if_any()
    if "occlusions" in doc:
        doc["occlusions"] = tuple(map(tuple, doc["occlusions"]))
    try:
        return cls(**doc)
    except ValueError as exc:
        raise ValidationError([f"{path}: {exc}"])


def load_tracker_config(path) -> TrackerConfig:
    return _load_config(path, TrackerConfig, "tracker")


def load_scenario_config(path) -> ScenarioConfig:
    return _load_config(path, ScenarioConfig, "scenario")


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
