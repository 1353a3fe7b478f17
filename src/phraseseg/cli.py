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
from .matching import DEFAULT_GATE, iom_nms


def _report_format(path: str) -> str:
    return "csv" if str(path).lower().endswith(".csv") else "json"


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a finite value in [0, 1], got {text}")
    return value


def _non_empty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty string")
    return text


def _annotation_index(args, dps) -> int:
    """The ``--annotation-index`` (default 0), rejected if a datapoint does not have it."""
    index = args.annotation_index or 0
    errors = [
        f"datapoint ({dp.media_id!r}, {dp.phrase!r}) has {len(dp.annotations)} annotation(s), "
        f"so --annotation-index {index} is out of range"
        for dp in dps
        if index >= len(dp.annotations)
    ]
    if errors:
        raise ValidationError(errors)
    return index


def _gate(args) -> float:
    return DEFAULT_GATE if args.gate is None else args.gate


def _add_report_args(p: argparse.ArgumentParser):
    p.add_argument("--report", required=True, help="output report path (.json or .csv)")
    p.add_argument("--gate", type=_fraction, help="confidence gate (strict >), default 0.5")
    p.add_argument("--threads", type=_int_at_least(1), default=1, help="accepted; has no effect")
    p.add_argument("--annotation-index", type=_int_at_least(0), help="default 0")


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
    p.add_argument("--seed", type=_int_at_least(0), help="default 0; --random-pair only")

    p = sub.add_parser("eval-video", help="video metrics (cgF1, VL_MCC, pHOTA)")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    _add_report_args(p)
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
    p.add_argument("--seed", type=_int_at_least(0), help="override the config seed")
    p.add_argument("--out-detections", required=True)
    p.add_argument("--out-gt", help="also write the ground-truth dataset file")
    p.add_argument(
        "--out-tracks",
        help="also write the ground-truth masklets as reference tracks "
        "for 'track --propagator tracks'",
    )
    p.add_argument("--media-id", type=_non_empty, default="scenario")
    p.add_argument("--phrase", type=_non_empty, default="object")

    p = sub.add_parser("count", help="instance counting with IoM NMS post-processing")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    _add_report_args(p)
    p.add_argument("--iom", type=_fraction, default=0.5, help="NMS IoM threshold")
    return parser


def _cmd_eval_image(args) -> int:
    protocols = sum(bool(x) for x in (args.pred, args.random_pair, args.human_oracle))
    if protocols != 1:
        raise ValidationError(["choose exactly one of --pred, --random-pair or --human-oracle"])
    if not args.pred and (args.oracle or args.annotation_index is not None):
        raise ValidationError(["--oracle and --annotation-index apply only with --pred"])
    if not args.random_pair and args.seed is not None:
        raise ValidationError(["--seed applies only with --random-pair"])
    if not args.pred and args.gate is not None:
        raise ValidationError(["--gate applies only with --pred"])
    dataset = io_schemas.load_dataset(args.gt)
    preds = io_schemas.load_predictions(args.pred, dataset) if args.pred else {}
    dps, ignored = io_schemas.join_image(dataset, preds)
    if args.pred:
        report = image_metrics.cg_f1(
            dps,
            gate_threshold=_gate(args),
            mode=args.mode,
            oracle=args.oracle,
            annotation_index=_annotation_index(args, dps),
        )
    elif args.random_pair:
        report = image_metrics.random_pair(
            dps, trials=args.random_pair, seed=args.seed or 0, mode=args.mode
        )
    else:
        report = image_metrics.human_oracle(dps, mode=args.mode)

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
    dps, ignored = io_schemas.join_video(dataset, preds)
    index, gate = _annotation_index(args, dps), _gate(args)
    report = video_metrics.video_cg_f1(
        dps, gate_threshold=gate, mode=args.mode, annotation_index=index
    )
    hota_result = video_metrics.hota(video_metrics.phota_remap(dps, gate, index))

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
        gt = tuple(image_metrics.GtInstance(s) for s in scenario.gt_masklets)
        dp = image_metrics.DataPoint(media.id, args.phrase, (gt,))
        dataset = io_schemas.Dataset(media={media.id: media}, records=[dp])
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
    index, gate = _annotation_index(args, dps), _gate(args)
    pairs = []
    per_dp = []
    for dp in dps:
        kept = image_metrics.gate(iom_nms(list(dp.predictions), args.iom), gate)
        predicted = len(kept)
        true = len(dp.annotations[index])
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
            "gate": gate,
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
