"""Command-line surface: evaluate, track, simulate, count.

Exit codes: 0 success, 2 file/schema validation failure, 3 a requested metric
was undefined on the given data.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import image_metrics, io_schemas, sim, tracker, video_metrics
from .errors import UndefinedMetricError, ValidationError
from .matching import iom_nms


def _report_format(path: str) -> str:
    return "csv" if str(path).lower().endswith(".csv") else "json"


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _check_annotation_index(index: int, records):
    """Reject an ``--annotation-index`` that a datapoint, given as
    ``(media_id, phrase, annotations)``, does not have."""
    errors = [
        f"datapoint ({media_id!r}, {phrase!r}) has {len(annotations)} annotation(s), "
        f"so --annotation-index {index} is out of range"
        for media_id, phrase, annotations in records
        if index >= len(annotations)
    ]
    if errors:
        raise ValidationError(errors)


def _add_report_args(p: argparse.ArgumentParser):
    p.add_argument("--report", required=True, help="output report path (.json or .csv)")
    p.add_argument("--gate", type=float, default=0.5, help="confidence gate (strict >)")
    p.add_argument("--threads", type=int, default=1, help="worker threads for datapoint folding")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phraseseg",
        description="Metrics and tracking tools for phrase-prompted instance segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-image", help="image metrics (cgF1, pmF1, IL_MCC)")
    p.add_argument("--gt", required=True, help="dataset file")
    p.add_argument("--pred", help="prediction file")
    _add_report_args(p)
    p.add_argument("--oracle", action="store_true", help="score against the best annotation")
    p.add_argument("--annotation-index", type=_int_at_least(0), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--micro", dest="mode", action="store_const", const="micro")
    mode.add_argument("--macro", dest="mode", action="store_const", const="macro")
    p.set_defaults(mode="micro")
    p.add_argument(
        "--random-pair",
        type=_int_at_least(1),
        metavar="TRIALS",
        help="annotator-agreement protocol: median metrics over random ordered annotation pairs",
    )
    p.add_argument(
        "--human-oracle",
        action="store_true",
        help="annotator-agreement upper bound over best ordered annotation pairs",
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval-video", help="video metrics (cgF1, VL_MCC, pHOTA)")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    _add_report_args(p)
    p.add_argument("--annotation-index", type=_int_at_least(0), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--micro", dest="mode", action="store_const", const="micro")
    mode.add_argument("--macro", dest="mode", action="store_const", const="macro")
    p.set_defaults(mode="macro")

    p = sub.add_parser("track", help="run the detector-tracker fusion over a detection stream")
    p.add_argument("--detections", required=True, help="detection stream file")
    p.add_argument("--config", help="tracker config file (JSON)")
    p.add_argument("--out", required=True, help="output masklet file")
    p.add_argument(
        "--propagator",
        choices=("hold", "tracks"),
        default="hold",
        help="hold: repeat last mask; tracks: follow reference tracks from --tracks",
    )
    p.add_argument("--tracks", help="reference masklet file for --propagator tracks")

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    p.add_argument("--config", help="scenario config file (JSON)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out-detections", required=True)
    p.add_argument("--out-gt", help="also write the ground-truth dataset file")
    p.add_argument(
        "--out-tracks",
        help="also write the ground-truth masklets as reference tracks "
        "for 'track --propagator tracks'",
    )
    p.add_argument("--media-id", default="scenario")
    p.add_argument("--phrase", default="object")

    p = sub.add_parser("count", help="instance counting with IoM NMS post-processing")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    _add_report_args(p)
    p.add_argument("--iom", type=float, default=0.5, help="NMS IoM threshold")
    p.add_argument("--annotation-index", type=_int_at_least(0), default=0)
    return parser


def _cmd_eval_image(args) -> int:
    dataset = io_schemas.load_dataset(args.gt)
    protocols = sum(bool(x) for x in (args.pred, args.random_pair, args.human_oracle))
    if protocols != 1:
        raise ValidationError(
            ["choose exactly one of --pred, --random-pair or --human-oracle"]
        )
    if args.pred:
        preds = io_schemas.load_predictions(args.pred, dataset)
        dps, ignored = io_schemas.join_image(dataset, preds)
        _check_annotation_index(
            args.annotation_index, ((dp.media_id, dp.phrase, dp.annotations) for dp in dps)
        )
        report = image_metrics.cg_f1(
            dps,
            gate_threshold=args.gate,
            mode=args.mode,
            oracle=args.oracle,
            annotation_index=args.annotation_index,
            threads=args.threads,
        )
    else:
        dps, ignored = [dp for dp in dataset.image_records], 0
        if args.random_pair:
            report = image_metrics.random_pair(
                dps, trials=args.random_pair, seed=args.seed,
                gate_threshold=args.gate, mode=args.mode,
            )
        else:
            report = image_metrics.human_oracle(dps, gate_threshold=args.gate, mode=args.mode)

    fmt = _report_format(args.report)
    if fmt == "json":
        doc = report.to_dict()
        doc["ignored_predictions"] = ignored
        io_schemas.write_report(doc, args.report, "json")
    else:
        io_schemas.write_report(io_schemas.report_csv(report), args.report, "csv")
    return 0


def _cmd_eval_video(args) -> int:
    dataset = io_schemas.load_dataset(args.gt)
    preds = io_schemas.load_predictions(args.pred, dataset)
    videos = ((r.media.id, r.phrase, r.annotations) for r in dataset.video_records)
    _check_annotation_index(args.annotation_index, videos)
    vdps, ignored = io_schemas.join_video(dataset, preds, args.annotation_index)
    report = video_metrics.video_cg_f1(
        vdps, gate_threshold=args.gate, mode=args.mode, threads=args.threads
    )
    hota_result = video_metrics.hota(video_metrics.phota_remap(vdps, args.gate))

    fmt = _report_format(args.report)
    if fmt == "json":
        doc = report.to_dict()
        doc["ignored_predictions"] = ignored
        doc["hota"] = {
            "pHOTA": hota_result.hota,
            "pDetA": hota_result.det_a,
            "pAssA": hota_result.ass_a,
            "per_alpha": [
                {
                    "alpha": a.alpha,
                    "TP": a.tp,
                    "FN": a.fn,
                    "FP": a.fp,
                    "DetA": a.det_a,
                    "AssA": a.ass_a,
                    "HOTA": a.hota,
                }
                for a in hota_result.per_alpha
            ],
        }
        io_schemas.write_report(doc, args.report, "json")
    else:
        extra = [
            ("pHOTA", hota_result.hota, ""),
            ("pDetA", hota_result.det_a, ""),
            ("pAssA", hota_result.ass_a, ""),
        ]
        extra.extend(
            row
            for a in hota_result.per_alpha
            for row in (
                ("HOTA", a.hota, f"{a.alpha:.2f}"),
                ("DetA", a.det_a, f"{a.alpha:.2f}"),
                ("AssA", a.ass_a, f"{a.alpha:.2f}"),
            )
        )
        io_schemas.write_report(io_schemas.report_csv(report, extra), args.report, "csv")
    return 0


def _cmd_track(args) -> int:
    stream = io_schemas.load_detection_stream(args.detections)
    config = (
        io_schemas.load_tracker_config(args.config) if args.config else tracker.TrackerConfig()
    )
    if args.propagator == "tracks":
        if not args.tracks:
            raise ValidationError(["--propagator tracks needs --tracks FILE"])
        _, reference = io_schemas.load_masklets(args.tracks)
        propagator = sim.follow_reference(reference)
    else:
        propagator = tracker.hold_propagator
    result = tracker.run(stream.frames, propagator, config)
    doc = io_schemas.masklets_doc(stream.media, result)
    io_schemas.write_atomic(args.out, io_schemas.dumps_json(doc))
    return 0


def _cmd_simulate(args) -> int:
    cfg = (
        io_schemas.load_scenario_config(args.config) if args.config else sim.ScenarioConfig()
    )
    if args.seed is not None:
        cfg = sim.ScenarioConfig(**{**cfg.__dict__, "seed": args.seed})
    scenario = sim.gen_scenario(cfg)
    media = io_schemas.MediaInfo(
        id=args.media_id, height=cfg.height, width=cfg.width, frames=cfg.frames
    )
    doc = io_schemas.detection_stream_doc(media, scenario.detections)
    io_schemas.write_atomic(args.out_detections, io_schemas.dumps_json(doc))
    if args.out_gt:
        dataset = io_schemas.Dataset(media={media.id: media})
        dataset.video_records.append(
            io_schemas.VideoRecord(
                media=media,
                phrase=args.phrase,
                annotations=(
                    tuple(io_schemas.VideoInstance(seq=s) for s in scenario.gt_masklets),
                ),
            )
        )
        gt_doc = io_schemas.dataset_doc(dataset)
        io_schemas.write_atomic(args.out_gt, io_schemas.dumps_json(gt_doc))
    if args.out_tracks:
        tracks = dict(enumerate(scenario.gt_masklets))
        doc = io_schemas.tracks_doc(media, tracks)
        io_schemas.write_atomic(args.out_tracks, io_schemas.dumps_json(doc))
    return 0


def _cmd_count(args) -> int:
    dataset = io_schemas.load_dataset(args.gt)
    # Counting mode pins the presence score to 1: the concept is known present.
    preds = io_schemas.load_predictions(args.pred, dataset, use_presence=False)
    dps, ignored = io_schemas.join_image(dataset, preds)
    _check_annotation_index(
        args.annotation_index, ((dp.media_id, dp.phrase, dp.annotations) for dp in dps)
    )
    pairs = []
    per_dp = []
    for dp in dps:
        kept = image_metrics.gate(iom_nms(list(dp.predictions), args.iom), args.gate)
        predicted = len(kept)
        true = len(dp.annotations[args.annotation_index])
        pairs.append((predicted, true))
        per_dp.append(
            {"media_id": dp.media_id, "phrase": dp.phrase, "predicted": predicted, "true": true}
        )
    mae, accuracy = image_metrics.counting_metrics(pairs)
    fmt = _report_format(args.report)
    if fmt == "json":
        doc = {
            "metrics": {"MAE": mae, "accuracy_percent": 100.0 * accuracy},
            "iom_threshold": args.iom,
            "gate": args.gate,
            "ignored_predictions": ignored,
            "datapoints": per_dp,
        }
        io_schemas.write_report(doc, args.report, "json")
    else:
        rows = [("MAE", mae, ""), ("accuracy_percent", 100.0 * accuracy, "")]
        io_schemas.write_report(io_schemas.rows_csv(rows), args.report, "csv")
    return 0


_COMMANDS = {
    "eval-image": _cmd_eval_image,
    "eval-video": _cmd_eval_video,
    "track": _cmd_track,
    "simulate": _cmd_simulate,
    "count": _cmd_count,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        for line in exc.errors:
            print(f"validation error: {line}", file=sys.stderr)
        return 2
    except UndefinedMetricError as exc:
        print(f"undefined metric: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
