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
from itertools import islice
from typing import Any, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import ValidationError
from .image_metrics import DataPoint, GtInstance, combine_scores
from .masks import FrameMaskSeq, RleMask, _Record, _RunLengthsError
from .matching import Detection, plain_sum
from .sim import ScenarioConfig
from .tracker import TrackerConfig, TrackResult

SCHEMA_VERSION = 1


class MediaInfo(NamedTuple):
    id: str
    height: int
    width: int
    frames: int = 1

    @property
    def is_video(self) -> bool:
        return self.frames > 1


class Dataset(_Record):
    __slots__ = _fields = ("media", "records")

    def __init__(self, media: dict[str, MediaInfo], records: Optional[list[DataPoint]] = None):
        self.media = media
        self.records = [] if records is None else records  # in file order


# Predictions keyed by (media_id, phrase).
PredictionSet = dict[tuple[str, str], tuple[Detection, ...]]


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
    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise ValidationError([f"{path}: duplicate key {json.dumps(key)} in a JSON object"])
        return obj

    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ValidationError([f"{path}: cannot read file ({exc})"])
    # ValueError: malformed JSON, bytes that are not UTF-8, or an integer of
    # more digits than int() converts; RecursionError: nesting too deep
    except (ValueError, RecursionError) as exc:
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


def _frame_index(key: str) -> Optional[int]:
    """The frame that ``key`` names, if it is that frame's canonical spelling
    ``str(t)``. A key of more digits than int() converts names no frame."""
    if not (key.isascii() and key.isdigit()):
        return None
    try:
        idx = int(key)
    except ValueError:
        return None
    return idx if str(idx) == key else None


def _frame_keyed(obj: dict, media: MediaInfo, where: str, errs: _Collector) -> dict[int, Any]:
    """The entries of an object keyed by frame, by frame index. Only the
    canonical spelling ``str(t)`` of a frame in the media's range is a key, so
    no two keys can name one frame; other keys are reported and left out."""
    out: dict[int, Any] = {}
    for key, value in obj.items():
        idx = _frame_index(key)
        if idx is None:
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
    if isinstance(counts, list):
        try:
            # RleMask checks the run types once (JSON true/false fails); the
            # loader words that one failure its own way
            return RleMask(media.height, media.width, counts)
        except _RunLengthsError:
            pass
        except ValueError as exc:
            errs.add(where, str(exc))
            return None
    errs.add(where, "'counts' must be a list of non-negative integers")
    return None


def _parse_frame_masks(
    obj, media: MediaInfo, where: str, errs: _Collector
) -> tuple[Optional[FrameMaskSeq], int]:
    """A frame map's masks and ``_first_frame`` of its canonical keys."""
    if not isinstance(obj, dict):
        errs.add(where, "'frames' must be an object keyed by frame index")
        return None, 0
    keyed = _frame_keyed(obj, media, where, errs)
    # a key past the last frame exceeds every key in range; only a map with
    # no key in range is parsed again
    first = min(keyed) if keyed else _first_frame(
        t for t in map(_frame_index, obj) if t is not None)
    frames = {
        t: _parse_rle(value, media, f"{where}.frames[{t}]", errs)
        for t, value in keyed.items()
        if value is not None
    }
    if any(mask is None for mask in frames.values()):
        return None, first
    return FrameMaskSeq(media.height, media.width, frames), first


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
        mask = _parse_frame_masks(inst["frames"], media, where, errs)[0]
    else:
        errs.add(where, "video instance needs a 'frames' object")
        return None
    return None if mask is None else (mask, group)


def _parse_score(
    inst, where, errs: _Collector, video: Optional[MediaInfo] = None
) -> Optional[float]:
    """An instance's confidence. A masklet on ``video`` may give per-frame
    scores instead, aggregated by mean."""
    if video is not None and isinstance(inst, dict) and "frame_scores" in inst:
        if "score" in inst:
            errs.add(where, "give 'score' or 'frame_scores', not both")
            return None
        frame_scores = inst["frame_scores"]
        values = []
        if isinstance(frame_scores, dict):
            keyed = _frame_keyed(frame_scores, video, f"{where}.frame_scores", errs)
            values = list(keyed.values())
        if not values or not all(_is_unit(v) for v in values):
            errs.add(where, "'frame_scores' must map frames to values in [0, 1]")
            return None
        return plain_sum(values) / len(values)
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
        annotations = []
        for a, ann in enumerate(annotations_raw):
            if not isinstance(ann, list):
                errs.add(f"{where}.annotations[{a}]", "annotation must be a list of instances")
                continue
            instances = []
            for k, inst in enumerate(ann):
                parsed = _parse_instance(inst, info, f"{where}.annotations[{a}][{k}]", errs)
                if parsed is not None:
                    instances.append(GtInstance(*parsed))
            annotations.append(tuple(instances))
        if len(annotations) == len(annotations_raw):
            dataset.records.append(DataPoint(info.id, phrase, tuple(annotations)))
    errs.raise_if_any()
    return dataset


def load_predictions(path, dataset: Dataset, *, use_presence: bool = True) -> PredictionSet:
    """Load a prediction file against a dataset's media table.

    When a record carries a ``presence`` score, every instance score is
    multiplied by it (set ``use_presence=False`` for counting-style runs where
    presence is pinned to 1).
    """
    doc, errs = _load_doc(path)
    preds: PredictionSet = {}
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
        if key in preds:
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
            found.append(Detection(mask, final, group))
        preds[key] = tuple(found)
    errs.raise_if_any()
    return preds


def _join(dataset: Dataset, preds: PredictionSet, video: bool) -> tuple[list[DataPoint], int]:
    """Attach predictions to the labeled datapoints on one kind of media.

    Returns the joined datapoints and the number of prediction records on that
    kind of media that had no labeled datapoint (ignored under the federated
    convention).
    """
    # the constructor, not _replace, so the joined predictions are validated
    joined = [
        DataPoint(dp.media_id, dp.phrase, dp.annotations,
                  preds.get((dp.media_id, dp.phrase), ()))
        for dp in dataset.records
        if dataset.media[dp.media_id].is_video == video
    ]
    labeled = {(dp.media_id, dp.phrase) for dp in dataset.records}
    ignored = sum(
        1 for key in preds if dataset.media[key[0]].is_video == video and key not in labeled
    )
    return joined, ignored


def join_image(dataset: Dataset, preds: PredictionSet) -> tuple[list[DataPoint], int]:
    return _join(dataset, preds, video=False)


def join_video(dataset: Dataset, preds: PredictionSet) -> tuple[list[DataPoint], int]:
    return _join(dataset, preds, video=True)


def _media_doc(media: MediaInfo) -> dict:
    return {"id": media.id, "height": media.height, "width": media.width, "frames": media.frames}


class _RunLengths(list):
    """A mask's counts in a document. A mask has at least one run and its run
    lengths are ints, so ``dumps_json`` writes them without looking at them."""

    __slots__ = ()


def _frames_doc(frames: Mapping[int, Optional[RleMask]]) -> dict:
    """Frame map keyed by ``str(t)``; a ``None`` mask (suppressed) stays null."""
    return {
        str(t): None if m is None else {"counts": _RunLengths(m.counts)}
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
        doc = {"counts": _RunLengths(mask.counts)}
    if group:
        doc["group"] = True
    if score is not None:
        doc["score"] = score
    return doc


def dataset_doc(dataset: Dataset) -> dict:
    """Serialize a dataset back into its interchange document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "media": [_media_doc(m) for m in sorted(dataset.media.values(), key=lambda m: m.id)],
        "datapoints": [
            {
                "media_id": dp.media_id,
                "phrase": dp.phrase,
                "annotations": [
                    [_instance_doc(inst.mask, inst.group) for inst in ann]
                    for ann in dp.annotations
                ],
            }
            for dp in dataset.records
        ],
    }


def predictions_doc(preds: PredictionSet) -> dict:
    """Serialize predictions; presence factors are already folded into scores."""
    records = []
    for (media_id, phrase), dets in sorted(preds.items()):
        instances = [_instance_doc(d.mask, d.group, d.score) for d in dets]
        records.append({"media_id": media_id, "phrase": phrase, "instances": instances})
    return {"schema_version": SCHEMA_VERSION, "predictions": records}


# -- detection streams and masklet outputs ----------------------------------


class DetectionStream(NamedTuple):
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
        n_missing = media.frames - len(keyed)  # every key is a distinct frame in range
        if n_missing:
            first = list(islice((t for t in range(media.frames) if t not in keyed), 10))
            more = f" and {n_missing - 10} more ({n_missing} of {media.frames})"
            errs.add("detections", f"missing frames {first}{more if n_missing > 10 else ''}")
        else:
            per_frame = [keyed[t] for t in range(media.frames)]
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


def _first_frame(frames: Iterable[int]) -> int:
    """A masklet's ``first_frame``: its smallest frame key, null frames
    included, or 0 when it has no frames."""
    return min(frames, default=0)


def _masklets_doc(
    media: MediaInfo, masklets: Mapping[int, Mapping[int, Optional[RleMask]]]
) -> dict:
    """Masklet-schema document from each id's frame map."""
    return {
        "schema_version": SCHEMA_VERSION,
        "media": _media_doc(media),
        "masklets": [
            {"id": mid, "first_frame": _first_frame(frames), "frames": _frames_doc(frames)}
            for mid, frames in sorted(masklets.items())
        ],
    }


def tracks_doc(media: MediaInfo, tracks: dict[int, FrameMaskSeq]) -> dict:
    """Masklet-schema document from plain per-id frame sequences."""
    return _masklets_doc(media, {tid: s.frames for tid, s in tracks.items()})


def masklets_doc(media: MediaInfo, result: TrackResult) -> dict:
    return _masklets_doc(media, result.masklets)


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
        seq, expected = _parse_frame_masks(rec["frames"], media, where, errs)
        if seq is None:
            continue
        if "first_frame" in rec:
            first = rec["first_frame"]
            if not (_is_int(first) and first == expected):
                errs.add(where, f"first_frame must be {expected}, the smallest frame key, "
                                f"got {first!r}")
                continue
        if mid in masklets:
            errs.add(where, f"duplicate masklet id {mid}")
            continue
        masklets[mid] = seq
    errs.raise_if_any()
    return media, masklets


# -- configs -----------------------------------------------------------------

# Which JSON values a config field takes, keyed by the type that the NamedTuple
# under a config's validating subclass declares (a ForwardRef to this string).
_FIELD_TYPES = {
    "int": _is_int,
    "float": _is_number,
    "tuple[tuple[int, int, int], ...]": lambda v: isinstance(v, list)
    and all(isinstance(t, list) and len(t) == 3 and all(map(_is_int, t)) for t in v),
}


def _load_config(path, cls, what: str):
    """A config NamedTuple from a JSON object of some of its fields, each
    checked against the field's declared type."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError([f"{path}: {what} config must be a JSON object"])
    types = {name: t.__forward_arg__ for name, t in cls.__base__.__annotations__.items()}
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


_escape = json.encoder.encode_basestring_ascii


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _write_json(value, nl: str, out: list[str]):
    """Append the JSON text of ``value`` to ``out``; ``nl`` is a newline plus
    the indent of the line ``value`` starts on."""
    if type(value) is _RunLengths:
        inner = nl + "  "
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]")
    elif isinstance(value, str):
        out.append(_escape(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_json(value))
    elif isinstance(value, (list, tuple, dict)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, (list, tuple)):
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(value, dict):
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):  # _escape raises TypeError on a key that is not a str
            out.append(sep + _escape(key) + ": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps_json(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte, for
    documents of dicts with ``str`` keys, lists, tuples, strings, numbers,
    booleans and ``None``; anything else raises ``TypeError``. ``json`` drops
    to its pure-Python encoder whenever ``indent`` is set, which yields every
    run length of a mask as its own chunk; this writer escapes strings with
    ``json``'s C escaper and writes a mask's counts in one join."""
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def check_writable(*paths):
    """Reject, naming each, the paths (``None`` skipped) that are a directory
    or, once symlinks are resolved, lie in a directory that does not exist,
    before anything is written."""
    errors = []
    for path in paths:
        if path is None:
            continue
        if os.path.isdir(path):
            errors.append(f"{path}: cannot write file (it is a directory)")
        elif not os.path.isdir(os.path.dirname(os.path.realpath(path))):
            errors.append(f"{path}: cannot write file (no such directory)")
    if errors:
        raise ValidationError(errors)


def _file_mode(path) -> int:
    """The mode ``open(path, "w")`` would leave: an existing file keeps its
    own, a new one gets ``0o666`` less the umask."""
    try:
        return os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        return 0o666 & ~umask


def write_atomic(path, text: str):
    """Write via a sibling temp file and rename, so readers never see a
    partial report. Like ``open(path, "w")``, it writes through a symlink to
    the link's target, and the file gets the mode that call would leave, not
    the temp file's 0o600. A write the system refuses raises
    ``ValidationError`` and leaves no temp file."""
    check_writable(path)
    real = os.path.realpath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.chmod(tmp, _file_mode(real))
        os.replace(tmp, real)
    except OSError as exc:
        raise ValidationError([f"{path}: cannot write file ({exc})"]) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):  # a renamed temp file is gone
            os.unlink(tmp)


def write_atomic_all(files: Iterable[tuple[Any, str]]):
    """``write_atomic`` each ``(path, text)``, all or nothing: a refused write undoes
    the ones before it, removing a new file or restoring a replaced one from a hard link."""
    done: list[tuple[str, Optional[str]]] = []  # (target, link to the file it replaced)
    try:
        for k, (path, text) in enumerate(files):
            real = os.path.realpath(path)
            old = None
            if os.path.exists(real):
                old = os.path.join(os.path.dirname(real), f".tmp-{os.getpid()}-{k}.old")
                try:
                    os.link(real, old)
                except OSError as exc:
                    raise ValidationError([f"{path}: cannot write file ({exc})"]) from exc
            done.append((real, old))
            write_atomic(path, text)
    except ValidationError:
        for real, old in reversed(done):  # the refused target is as it was
            if old is not None:
                os.replace(old, real)
            elif os.path.exists(real):
                os.unlink(real)
        raise
    finally:
        for _, old in done:
            if old is not None and os.path.lexists(old):
                os.unlink(old)


def report_csv(doc: Mapping[str, Any]) -> str:
    """The CSV projection of a report document, columns ``metric,value,tau``:
    the ``metrics`` in document order, then F1 and counts per IoU threshold,
    then, for a video report, the HOTA scalars and HOTA/DetA/AssA per alpha.
    Everything else in the document appears only in its JSON form."""
    rows = [(name, value, "") for name, value in doc["metrics"].items()]
    for t in doc.get("per_threshold", ()):
        tau = f"{t['tau']:.2f}"
        rows += [(key, t[key], tau) for key in ("micro_F1", "macro_F1", "TP", "FP", "FN")]
    if "hota" in doc:
        hota = doc["hota"]
        rows += [(key, hota[key], "") for key in ("pHOTA", "pDetA", "pAssA")]
        for a in hota["per_alpha"]:
            alpha = f"{a['alpha']:.2f}"
            rows += [(key, a[key], alpha) for key in ("HOTA", "DetA", "AssA")]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "value", "tau"])
    writer.writerows([metric, repr(float(value)), tau] for metric, value, tau in rows)
    return buf.getvalue()


def write_report(doc: Mapping[str, Any], path):
    """Write a report document atomically: its CSV projection when ``path``
    ends in ``.csv``, otherwise the JSON document itself."""
    csv_path = str(path).lower().endswith(".csv")
    write_atomic(path, report_csv(doc) if csv_path else dumps_json(doc))
