from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraseseg import ValidationError
from phraseseg import io_schemas as io
from phraseseg.cli import main
from phraseseg.image_metrics import DataPoint, GtInstance
from phraseseg.masks import FrameMaskSeq
from phraseseg.matching import Detection
from phraseseg.tracker import TrackResult

from corpus import build_annotator_corpus, build_image_corpus, build_video_corpus
from conftest import rect_mask

DATA = Path(__file__).parent / "data"


def write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def minimal_gt_doc():
    return {
        "schema_version": 1,
        "media": [{"id": "m0", "height": 4, "width": 4, "frames": 1}],
        "datapoints": [
            {"media_id": "m0", "phrase": "box", "annotations": [[]]},
        ],
    }


class TestDatasetLoader:
    def test_minimal_negative_datapoint(self, tmp_path):
        dataset = io.load_dataset(write(tmp_path / "gt.json", minimal_gt_doc()))
        assert len(dataset.records) == 1
        dp = dataset.records[0]
        assert dp.annotations == ((),)

    def test_counts_mismatch_names_the_mask(self, tmp_path):
        doc = minimal_gt_doc()
        doc["datapoints"][0]["annotations"] = [[{"counts": [15]}]]
        with pytest.raises(ValidationError) as exc:
            io.load_dataset(write(tmp_path / "gt.json", doc))
        assert "datapoints[0].annotations[0][0]" in str(exc.value)

    def test_unknown_media_referential_error(self, tmp_path):
        doc = minimal_gt_doc()
        doc["datapoints"][0]["media_id"] = "ghost"
        with pytest.raises(ValidationError, match="unknown media id"):
            io.load_dataset(write(tmp_path / "gt.json", doc))

    def test_all_errors_reported(self, tmp_path):
        doc = minimal_gt_doc()
        doc["datapoints"].append({"media_id": "ghost", "phrase": "x", "annotations": [[]]})
        doc["datapoints"].append({"media_id": "m0", "phrase": "", "annotations": [[]]})
        with pytest.raises(ValidationError) as exc:
            io.load_dataset(write(tmp_path / "gt.json", doc))
        assert len(exc.value.errors) == 2

    def test_version_checked(self, tmp_path):
        doc = minimal_gt_doc()
        doc["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema_version"):
            io.load_dataset(write(tmp_path / "gt.json", doc))

    def test_duplicate_datapoint_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["datapoints"].append(dict(doc["datapoints"][0]))
        with pytest.raises(ValidationError, match="duplicate datapoint"):
            io.load_dataset(write(tmp_path / "gt.json", doc))


class TestRoundTrips:
    def test_dataset_round_trip(self, tmp_path):
        media = io.MediaInfo(id="img", height=6, width=6)
        vmedia = io.MediaInfo(id="vid", height=6, width=6, frames=3)
        mask = rect_mask(6, 6, 1, 1, 3, 2)
        dataset = io.Dataset(media={"img": media, "vid": vmedia})
        dataset.records.append(
            DataPoint(
                media_id="img",
                phrase="box",
                annotations=(
                    (GtInstance(mask=mask, group=True),),
                    (),
                ),
            )
        )
        dataset.records.append(
            DataPoint(
                media_id="vid",
                phrase="box",
                annotations=(
                    (GtInstance(mask=FrameMaskSeq(6, 6, {0: mask, 2: mask})),),
                ),
            )
        )
        path = tmp_path / "ds.json"
        path.write_text(io.dumps_json(io.dataset_doc(dataset)), encoding="utf-8")
        loaded = io.load_dataset(path)
        assert loaded.media == dataset.media
        assert loaded.records[0] == dataset.records[0]
        assert loaded.records[1].annotations == dataset.records[1].annotations

    def test_predictions_round_trip(self, tmp_path):
        media = io.MediaInfo(id="img", height=6, width=6)
        vmedia = io.MediaInfo(id="vid", height=6, width=6, frames=2)
        dataset = io.Dataset(media={"img": media, "vid": vmedia})
        mask = rect_mask(6, 6, 0, 0, 2, 2)
        preds = {
            ("img", "box"): (Detection(mask=mask, score=0.75),),
            ("vid", "box"): (
                Detection(mask=FrameMaskSeq(6, 6, {1: mask}), score=0.9),
            ),
        }
        path = tmp_path / "pred.json"
        path.write_text(io.dumps_json(io.predictions_doc(preds)), encoding="utf-8")
        loaded = io.load_predictions(path, dataset)
        assert loaded == preds

    def test_video_group_round_trip(self, tmp_path):
        vmedia = io.MediaInfo(id="vid", height=6, width=6, frames=2)
        dataset = io.Dataset(media={"vid": vmedia})
        counts = list(rect_mask(6, 6, 0, 0, 2, 2).counts)
        instance = {"frames": {"1": {"counts": counts}}, "group": True, "score": 0.9}
        doc = {
            "schema_version": 1,
            "predictions": [{"media_id": "vid", "phrase": "box", "instances": [instance]}],
        }
        loaded = io.load_predictions(write(tmp_path / "p.json", doc), dataset)
        assert loaded[("vid", "box")][0].group
        assert io.predictions_doc(loaded) == doc

    def test_video_frame_scores_aggregated_by_mean(self, tmp_path):
        vmedia = io.MediaInfo(id="vid", height=6, width=6, frames=3)
        dataset = io.Dataset(media={"vid": vmedia})
        mask = rect_mask(6, 6, 0, 0, 2, 2)
        doc = {
            "schema_version": 1,
            "predictions": [
                {
                    "media_id": "vid",
                    "phrase": "box",
                    "instances": [
                        {
                            "frames": {"0": {"counts": list(mask.counts)}},
                            "frame_scores": {"0": 0.9, "1": 0.5, "2": 0.7},
                        }
                    ],
                }
            ],
        }
        loaded = io.load_predictions(write(tmp_path / "p.json", doc), dataset)
        assert loaded[("vid", "box")][0].score == pytest.approx(0.7)

    def test_video_frame_scores_mean_sums_left_to_right(self, tmp_path):
        # builtin sum compensates floats from Python 3.12 on: 0.19999999999999998
        dataset = io.Dataset(media={"vid": io.MediaInfo(id="vid", height=6, width=6, frames=3)})
        mask = rect_mask(6, 6, 0, 0, 2, 2)
        instance = {
            "frames": {"0": {"counts": list(mask.counts)}},
            "frame_scores": {"0": 0.1, "1": 0.2, "2": 0.3},
        }
        doc = {
            "schema_version": 1,
            "predictions": [{"media_id": "vid", "phrase": "box", "instances": [instance]}],
        }
        loaded = io.load_predictions(write(tmp_path / "p.json", doc), dataset)
        assert loaded[("vid", "box")][0].score == 0.20000000000000004

    def test_video_frame_scores_validated(self, tmp_path):
        vmedia = io.MediaInfo(id="vid", height=6, width=6, frames=2)
        dataset = io.Dataset(media={"vid": vmedia})
        doc = {
            "schema_version": 1,
            "predictions": [
                {
                    "media_id": "vid",
                    "phrase": "box",
                    "instances": [{"frames": {}, "frame_scores": {"0": 1.5}}],
                }
            ],
        }
        with pytest.raises(ValidationError, match="frame_scores"):
            io.load_predictions(write(tmp_path / "p.json", doc), dataset)

    def test_detection_stream_round_trip(self, tmp_path):
        media = io.MediaInfo(id="vid", height=6, width=6, frames=2)
        frames = (
            (Detection(mask=rect_mask(6, 6, 0, 0, 2, 2), score=0.9),),
            (),
        )
        doc = io.detection_stream_doc(media, frames)
        stream = io.load_detection_stream(write(tmp_path / "stream.json", doc))
        assert stream.media == media
        assert stream.frames == frames

    def test_detection_stream_gap_error(self, tmp_path):
        media = io.MediaInfo(id="vid", height=6, width=6, frames=3)
        doc = {
            "schema_version": 1,
            "media": {"id": "vid", "height": 6, "width": 6, "frames": 3},
            "detections": {"0": [], "2": []},
        }
        with pytest.raises(ValidationError, match="missing frames"):
            io.load_detection_stream(write(tmp_path / "stream.json", doc))

    def test_detection_stream_wrong_length(self, tmp_path):
        doc = {
            "schema_version": 1,
            "media": {"id": "vid", "height": 6, "width": 6, "frames": 3},
            "detections": [[], []],
        }
        with pytest.raises(ValidationError, match="expected 3 frame lists"):
            io.load_detection_stream(write(tmp_path / "stream.json", doc))

    def test_masklets_round_trip(self, tmp_path):
        media = io.MediaInfo(id="vid", height=6, width=6, frames=4)
        mask = rect_mask(6, 6, 2, 2, 2, 2)
        result = TrackResult(height=6, width=6, masklets={3: {1: mask, 2: None, 3: mask}})
        doc = io.masklets_doc(media, result)
        loaded_media, masklets = io.load_masklets(write(tmp_path / "m.json", doc))
        assert loaded_media == media
        assert masklets[3].frames == {1: mask, 3: mask}  # zeroed frame drops out


class TestConfigs:
    def test_tracker_config_round_trip(self, tmp_path):
        path = write(tmp_path / "cfg.json", {"confirmation_window": 10, "reprompt_period": 8})
        cfg = io.load_tracker_config(path)
        assert cfg.confirmation_window == 10
        assert cfg.reprompt_period == 8

    def test_tracker_config_unknown_field(self, tmp_path):
        path = write(tmp_path / "cfg.json", {"nope": 1})
        with pytest.raises(ValidationError, match="unknown tracker config fields"):
            io.load_tracker_config(path)

    def test_scenario_config_occlusions(self, tmp_path):
        path = write(
            tmp_path / "cfg.json",
            {"objects": 2, "frames": 12, "occlusions": [[0, 3, 5]]},
        )
        cfg = io.load_scenario_config(path)
        assert cfg.occlusions == ((0, 3, 5),)

    def test_scenario_config_invalid_value(self, tmp_path):
        path = write(tmp_path / "cfg.json", {"miss_prob": 2.0})
        with pytest.raises(ValidationError):
            io.load_scenario_config(path)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"frames": True}, "frames must be of type int, got True"),
            ({"objects": 2, "frames": 12, "occlusions": [[0, "3", 5.7]]},
             "occlusions must be of type tuple[tuple[int, int, int], ...]"),
            ({"height": 64.0}, "height must be of type int, got 64.0"),
            ({"seed": 1.5}, "seed must be of type int, got 1.5"),
            ({"fp_rate": float("inf")}, "fp_rate must be of type float, got inf"),
            ([1], "scenario config must be a JSON object"),
        ],
        ids=["frames-true", "occlusions-str-float", "height-float", "seed-float", "fp_rate-inf",
             "not-an-object"],
    )
    def test_scenario_config_field_types(self, tmp_path, doc, message):
        with pytest.raises(ValidationError) as exc:
            io.load_scenario_config(write(tmp_path / "cfg.json", doc))
        assert message in str(exc.value)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"confirmation_window": 1.5}, "confirmation_window must be of type int, got 1.5"),
            ({"match_iou": True}, "match_iou must be of type float, got True"),
        ],
        ids=["confirmation_window-float", "match_iou-true"],
    )
    def test_tracker_config_field_types(self, tmp_path, doc, message):
        with pytest.raises(ValidationError) as exc:
            io.load_tracker_config(write(tmp_path / "cfg.json", doc))
        assert message in str(exc.value)

    def test_scenario_config_negative_seed(self, tmp_path):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            io.load_scenario_config(write(tmp_path / "cfg.json", {"seed": -1}))

    @pytest.mark.parametrize("value", [3, None], ids=["3", "null"])
    def test_tracker_config_rejects_output_delay(self, tmp_path, capsys, value):
        # output lags the clock by exactly the confirmation window
        cfg = write(tmp_path / "cfg.json", {"output_delay": value})
        code = main(["track", "--detections", str(DATA / "golden_sim_detections.json"),
                     "--config", cfg, "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "unknown tracker config fields ['output_delay']" in capsys.readouterr().err

    def test_every_config_field_type_is_checked(self):
        from phraseseg.sim import ScenarioConfig
        from phraseseg.tracker import TrackerConfig

        for cls in (TrackerConfig, ScenarioConfig):
            # the NamedTuple under the validating subclass declares the fields
            for name, declared in cls.__base__.__annotations__.items():
                assert declared.__forward_arg__ in io._FIELD_TYPES, (cls.__name__, name, declared)


class TestCliEvalImage:
    def corpus_paths(self, tmp_path):
        gt_doc, pred_doc = build_image_corpus()
        return (
            write(tmp_path / "gt.json", gt_doc),
            write(tmp_path / "pred.json", pred_doc),
        )

    def test_exit_zero_and_report(self, tmp_path):
        gt, pred = self.corpus_paths(tmp_path)
        report = tmp_path / "report.json"
        assert main(["eval-image", "--gt", gt, "--pred", pred, "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        m = doc["metrics"]
        assert m["cgF1"] == pytest.approx(100.0 * m["pmF1"] * m["IL_MCC"])
        assert doc["datapoints"]["total"] == doc["datapoints"]["positive"] + doc["datapoints"]["negative"]

    def test_csv_report(self, tmp_path):
        gt, pred = self.corpus_paths(tmp_path)
        report = tmp_path / "report.csv"
        assert main(["eval-image", "--gt", gt, "--pred", pred, "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "metric,value,tau"
        assert any(line.startswith("cgF1,") for line in lines)
        assert any(",0.50" in line for line in lines)

    def test_validation_error_exit_2(self, tmp_path):
        bad = write(tmp_path / "gt.json", {"schema_version": 1, "media": "nope"})
        code = main(["eval-image", "--gt", bad, "--pred", bad, "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_report_in_missing_directory(self, tmp_path, capsys):
        gt, pred = self.corpus_paths(tmp_path)
        report = tmp_path / "nodir" / "r.json"
        assert main(["eval-image", "--gt", gt, "--pred", pred, "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert f"validation error: {report}: cannot write file (no such directory)" in err
        assert ".part" not in err

    @pytest.mark.parametrize("command", ["eval-image", "eval-video", "count", "track"])
    def test_outputs_checked_before_inputs_are_read(self, tmp_path, capsys, command):
        missing, report = tmp_path / "missing.json", tmp_path / "nodir" / "r.json"
        if command == "track":
            argv = ["track", "--detections", str(missing), "--out", str(report)]
        else:
            argv = [command, "--gt", str(missing), "--pred", str(missing), "--report", str(report)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"validation error: {report}: cannot write file (no such directory)\n")

    def test_unwritable_report_name(self, tmp_path, capsys):
        # a name longer than the file system allows fails on the write itself
        gt, pred = self.corpus_paths(tmp_path)
        report = tmp_path / ("r" * 300 + ".json")
        assert main(["eval-image", "--gt", gt, "--pred", pred, "--report", str(report)]) == 2
        assert f"validation error: {report}: cannot write file (" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.json", "pred.json"]

    def test_undefined_metric_exit_3(self, tmp_path):
        gt = write(tmp_path / "gt.json", minimal_gt_doc())
        pred = write(tmp_path / "pred.json", {"schema_version": 1, "predictions": []})
        code = main(["eval-image", "--gt", gt, "--pred", pred, "--report", str(tmp_path / "r.json")])
        assert code == 3

    def test_threads_byte_identical(self, tmp_path):
        gt, pred = self.corpus_paths(tmp_path)
        r1, r8 = tmp_path / "r1.json", tmp_path / "r8.json"
        assert main(["eval-image", "--gt", gt, "--pred", pred, "--report", str(r1), "--threads", "1"]) == 0
        assert main(["eval-image", "--gt", gt, "--pred", pred, "--report", str(r8), "--threads", "8"]) == 0
        assert r1.read_bytes() == r8.read_bytes()

    def test_golden_report(self, tmp_path):
        gt = str(DATA / "image_corpus_gt.json")
        pred = str(DATA / "image_corpus_pred.json")
        report = tmp_path / "report.json"
        assert main(["eval-image", "--gt", gt, "--pred", pred, "--report", str(report)]) == 0
        assert report.read_bytes() == (DATA / "golden_image_report.json").read_bytes()

    def test_golden_report_backed_by_reference(self):
        # the frozen golden numbers must agree with the independent
        # enumeration-based reference, not just with the engine
        import numpy as np

        from _reference import reference_image_metrics
        from phraseseg.image_metrics import gate

        dataset = io.load_dataset(DATA / "image_corpus_gt.json")
        preds = io.load_predictions(DATA / "image_corpus_pred.json", dataset)
        dps, _ = io.join_image(dataset, preds)
        raw = [
            (
                [
                    set(map(tuple, np.argwhere(inst.mask.decode())))
                    for inst in dp.annotations[0]
                ],
                [
                    (set(map(tuple, np.argwhere(d.mask.decode()))), d.score)
                    for d in dp.predictions
                ],
            )
            for dp in dps
        ]
        expected = reference_image_metrics(raw)
        golden = json.loads((DATA / "golden_image_report.json").read_text())["metrics"]
        assert golden["pmF1"] == pytest.approx(expected["pmF1"], abs=1e-12)
        assert golden["macro_pF1"] == pytest.approx(expected["macro_pF1"], abs=1e-12)
        assert golden["IL_MCC"] == pytest.approx(expected["IL_MCC"], abs=1e-12)
        assert golden["cgF1"] == pytest.approx(expected["cgF1"], abs=1e-12)

    @pytest.mark.parametrize("ext", ["json", "csv"])
    @pytest.mark.parametrize(
        "golden,args",
        [
            ("golden_random_pair_1", ["--random-pair", "1"]),
            ("golden_random_pair_41_seed7", ["--random-pair", "41", "--seed", "7"]),
            ("golden_human_oracle", ["--human-oracle"]),
        ],
    )
    def test_golden_annotator_reports(self, tmp_path, golden, args, ext):
        gt = str(DATA / "annotator_corpus_gt.json")
        report = tmp_path / f"report.{ext}"
        assert main(["eval-image", "--gt", gt, *args, "--report", str(report)]) == 0
        assert report.read_bytes() == (DATA / f"{golden}.{ext}").read_bytes()

    def test_annotator_gold_file_is_the_corpus(self):
        doc = json.loads((DATA / "annotator_corpus_gt.json").read_text())
        assert doc == build_annotator_corpus()

    def test_human_protocols(self, tmp_path):
        h = w = 4
        full = [0, 16]
        one = [5, 1, 10]
        doc = {
            "schema_version": 1,
            "media": [{"id": "m", "height": h, "width": w, "frames": 1}],
            "datapoints": [
                {
                    "media_id": "m",
                    "phrase": "box",
                    "annotations": [[{"counts": one}], [{"counts": one}], [{"counts": full}]],
                },
                {
                    "media_id": "m",
                    "phrase": "pad",
                    "annotations": [[{"counts": one}], [{"counts": one}], [{"counts": one}]],
                },
            ],
        }
        gt = write(tmp_path / "gt.json", doc)
        rp = tmp_path / "rp.json"
        assert main(["eval-image", "--gt", gt, "--random-pair", "33", "--seed", "7", "--report", str(rp)]) == 0
        ho = tmp_path / "ho.json"
        assert main(["eval-image", "--gt", gt, "--human-oracle", "--report", str(ho)]) == 0
        rp_doc, ho_doc = json.loads(rp.read_text()), json.loads(ho.read_text())
        assert ho_doc["metrics"]["pmF1"] >= rp_doc["metrics"]["pmF1"]
        assert rp_doc["protocol"] == "random-pair"

    @pytest.mark.parametrize(
        "protocol", [["--human-oracle"], ["--random-pair", "3"]], ids=["human-oracle", "random-pair"]
    )
    def test_human_protocols_need_two_annotations(self, tmp_path, capsys, protocol):
        one = [{"counts": [5, 1, 10]}]
        doc = {
            "schema_version": 1,
            "media": [{"id": "m", "height": 4, "width": 4, "frames": 1}],
            "datapoints": [
                {"media_id": "m", "phrase": "box", "annotations": [one]},
                {"media_id": "m", "phrase": "pad", "annotations": [one, one]},
                {"media_id": "m", "phrase": "void", "annotations": [[]]},
            ],
        }
        gt = write(tmp_path / "gt.json", doc)
        code = main(["eval-image", "--gt", gt, *protocol, "--report", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert "datapoint ('m', 'box') has 1 annotation(s)" in err
        assert "datapoint ('m', 'void') has 1 annotation(s)" in err
        assert "'pad'" not in err
        assert not (tmp_path / "r.json").exists()

    def test_oracle_flag(self, tmp_path):
        one = [5, 1, 10]
        two = [5, 1, 4, 1, 5]
        doc = {
            "schema_version": 1,
            "media": [{"id": "m", "height": 4, "width": 4, "frames": 1}],
            "datapoints": [
                {
                    "media_id": "m",
                    "phrase": "box",
                    "annotations": [[{"counts": two}], [{"counts": one}]],
                },
                {"media_id": "m", "phrase": "void", "annotations": [[], []]},
            ],
        }
        pred_doc = {
            "schema_version": 1,
            "predictions": [
                {"media_id": "m", "phrase": "box", "instances": [{"counts": one, "score": 0.9}]}
            ],
        }
        gt = write(tmp_path / "gt.json", doc)
        pred = write(tmp_path / "pred.json", pred_doc)
        fixed, oracle = tmp_path / "fixed.json", tmp_path / "oracle.json"
        assert main(["eval-image", "--gt", gt, "--pred", pred, "--report", str(fixed)]) == 0
        assert main(["eval-image", "--gt", gt, "--pred", pred, "--oracle", "--report", str(oracle)]) == 0
        fixed_doc, oracle_doc = json.loads(fixed.read_text()), json.loads(oracle.read_text())
        # the prediction reproduces annotation 1 exactly, so the oracle lifts F1 to 1
        assert oracle_doc["metrics"]["pmF1"] == 1.0
        assert oracle_doc["metrics"]["pmF1"] > fixed_doc["metrics"]["pmF1"]
        assert oracle_doc["protocol"] == "oracle"

    def test_pred_and_random_pair_conflict(self, tmp_path):
        gt, pred = self.corpus_paths(tmp_path)
        code = main(
            ["eval-image", "--gt", gt, "--pred", pred, "--random-pair", "5", "--report", str(tmp_path / "r.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["eval-image", "count"])
    def test_annotation_index_beyond_count(self, tmp_path, capsys, command):
        gt, pred = self.corpus_paths(tmp_path)
        code = main(
            [command, "--gt", gt, "--pred", pred, "--annotation-index", "99", "--report", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert "--annotation-index 99 is out of range" in capsys.readouterr().err

    def test_eval_video_annotation_index_beyond_count(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "media": [{"id": "v", "height": 4, "width": 4, "frames": 2}],
            "datapoints": [{"media_id": "v", "phrase": "box", "annotations": [[]]}],
        }
        gt = write(tmp_path / "gt.json", doc)
        pred = write(tmp_path / "pred.json", {"schema_version": 1, "predictions": []})
        code = main(
            ["eval-video", "--gt", gt, "--pred", pred, "--annotation-index", "1", "--report", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert "datapoint ('v', 'box') has 1 annotation(s)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--annotation-index", "-1"), ("--random-pair", "-3"), ("--random-pair", "0")]
    )
    def test_numeric_argument_out_of_range(self, tmp_path, capsys, flag, value):
        gt, pred = self.corpus_paths(tmp_path)
        source = ["--pred", pred] if flag == "--annotation-index" else []
        with pytest.raises(SystemExit) as exc:
            main(["eval-image", "--gt", gt, *source, flag, value, "--report", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err



class TestCliRejectsIgnoredOrOutOfRangeFlags:
    def paths(self, tmp_path):
        one, two = [5, 1, 10], [5, 1, 4, 1, 5]
        gt_doc = {
            "schema_version": 1,
            "media": [{"id": "m", "height": 4, "width": 4, "frames": 1}],
            "datapoints": [
                {"media_id": "m", "phrase": "box", "annotations": [[{"counts": two}], [{"counts": one}]]},
                {"media_id": "m", "phrase": "void", "annotations": [[], []]},
            ],
        }
        pred_doc = {
            "schema_version": 1,
            "predictions": [
                {"media_id": "m", "phrase": "box", "instances": [{"counts": one, "score": 0.9}]}
            ],
        }
        return write(tmp_path / "gt.json", gt_doc), write(tmp_path / "pred.json", pred_doc)

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("eval-image", "--gate", "nan"),
            ("eval-image", "--gate", "1.5"),
            ("eval-image", "--gate", "-0.1"),
            ("count", "--iom", "nan"),
            ("count", "--iom", "-1"),
            ("eval-image", "--threads", "0"),
            ("eval-image", "--threads", "-2"),
        ],
    )
    def test_numeric_flag_out_of_range(self, tmp_path, capsys, command, flag, value):
        gt, pred = self.paths(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--gt", gt, "--pred", pred, flag, value, "--report", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_negative_random_pair_seed(self, tmp_path, capsys):
        gt, _ = self.paths(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["eval-image", "--gt", gt, "--random-pair", "2", "--seed", "-3",
                  "--report", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "argument --seed: must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--media-id", "--phrase"])
    def test_empty_simulate_name(self, tmp_path, capsys, flag):
        out = tmp_path / "d.json"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", flag, "", "--out-detections", str(out),
                  "--out-gt", str(tmp_path / "gt.json")])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a non-empty string" in capsys.readouterr().err
        assert not out.exists()

    PATH_FLAGS = {
        "eval-image": ("--gt", "--pred", "--report"),
        "eval-video": ("--gt", "--pred", "--report"),
        "count": ("--gt", "--pred", "--report"),
        "track": ("--detections", "--config", "--tracks", "--out"),
        "simulate": ("--config", "--out-detections", "--out-gt", "--out-tracks"),
    }

    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c, flags in PATH_FLAGS.items() for f in flags]
    )
    def test_empty_path_flag(self, tmp_path, capsys, command, flag):
        # "" would pass the output-directory check (its directory is the
        # working directory) or read as an absent optional input
        inputs = {"--gt": str(DATA / "image_corpus_gt.json"),
                  "--pred": str(DATA / "image_corpus_pred.json"),
                  "--detections": str(DATA / "golden_sim_detections.json"),
                  "--tracks": str(DATA / "golden_sim_tracks.json"),
                  "--config": str(DATA / ("golden_track_config.json" if command == "track"
                                          else "golden_sim_config.json"))}
        paths = {f: inputs.get(f, str(tmp_path / f"{f[2:]}.json"))
                 for f in self.PATH_FLAGS[command]}
        paths[flag] = ""
        extra = ["--propagator", "tracks"] if command == "track" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *extra, *(arg for item in paths.items() for arg in item)])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a non-empty string" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_simulate_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seed", "-1", "--out-detections", str(tmp_path / "d.json")])
        assert exc.value.code == 2
        assert "argument --seed: must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "protocol, extra, message",
        [
            (["--random-pair", "5"], ["--oracle"], "--oracle and --annotation-index apply only with --pred"),
            (["--random-pair", "5"], ["--annotation-index", "1"], "apply only with --pred"),
            (["--human-oracle"], ["--oracle"], "apply only with --pred"),
            (["--human-oracle"], ["--annotation-index", "0"], "apply only with --pred"),
            (["--human-oracle"], ["--seed", "3"], "--seed applies only with --random-pair"),
            (["--pred", None], ["--seed", "3"], "--seed applies only with --random-pair"),
            (["--random-pair", "5"], ["--gate", "0.9"], "--gate applies only with --pred"),
            (["--human-oracle"], ["--gate", "0.5"], "--gate applies only with --pred"),
            (["--pred", None, "--oracle"], ["--annotation-index", "0"],
             "--annotation-index does not apply with --oracle"),
            (["--pred", None, "--oracle"], ["--annotation-index", "1"],
             "--annotation-index does not apply with --oracle"),
            ([], [], "choose exactly one of --pred, --random-pair or --human-oracle"),
            (["--pred", None], ["--human-oracle"],
             "choose exactly one of --pred, --random-pair or --human-oracle"),
        ],
    )
    def test_flag_ignored_by_protocol(self, tmp_path, capsys, protocol, extra, message):
        gt, pred = self.paths(tmp_path)
        protocol = [pred if arg is None else arg for arg in protocol]
        code = main(["eval-image", "--gt", gt, *protocol, *extra, "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_flags_checked_before_the_dataset_is_read(self, tmp_path, capsys):
        gt = write(tmp_path / "gt.json", {"schema_version": 1, "media": 5, "datapoints": 5})
        code = main(["eval-image", "--gt", gt, "--human-oracle", "--seed", "3",
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--seed applies only with --random-pair" in err
        assert "media" not in err and "datapoints" not in err

    def test_explicit_defaults_still_accepted(self, tmp_path):
        # an explicit --annotation-index 0 or --seed 0 reads like the default
        gt, pred = self.paths(tmp_path)
        reports = []
        for extra in ([], ["--annotation-index", "0", "--threads", "1"]):
            reports.append(tmp_path / f"pred{len(reports)}.json")
            assert main(["eval-image", "--gt", gt, "--pred", pred, *extra, "--report", str(reports[-1])]) == 0
        for extra in ([], ["--seed", "0", "--threads", "1"]):
            reports.append(tmp_path / f"rp{len(reports)}.json")
            assert main(["eval-image", "--gt", gt, "--random-pair", "5", *extra, "--report", str(reports[-1])]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        assert reports[2].read_bytes() == reports[3].read_bytes()


class TestCliSimulateTrackRejections:
    """Configs and flags that cannot run exit 2 with a message and write nothing."""

    @pytest.mark.parametrize(
        "name, value", [("max_step", -1), ("jitter_px", -3), ("prop_jitter_px", -2)]
    )
    def test_negative_scenario_field(self, tmp_path, capsys, name, value):
        cfg = write(tmp_path / "cfg.json", {name: value})
        out = tmp_path / "d.json"
        assert main(["simulate", "--config", cfg, "--out-detections", str(out)]) == 2
        assert f"{name} must be >= 0, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_unplaceable_scenario(self, tmp_path, capsys):
        doc = {"objects": 200, "height": 8, "width": 8, "min_size": 1, "max_size": 1, "frames": 4}
        cfg = write(tmp_path / "cfg.json", doc)
        out = tmp_path / "d.json"
        assert main(["simulate", "--config", cfg, "--out-detections", str(out)]) == 2
        err = capsys.readouterr().err
        assert "validation error: cannot generate the scenario: could not place" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "gt_name, reason", [("nodir/g.json", "no such directory"), (".", "it is a directory")]
    )
    def test_simulate_checks_every_output_first(self, tmp_path, capsys, gt_name, reason):
        dets, gt = tmp_path / "d.json", tmp_path / gt_name
        assert main(["simulate", "--out-detections", str(dets), "--out-gt", str(gt)]) == 2
        assert f"validation error: {gt}: cannot write file ({reason})" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_simulate_refused_later_write_leaves_no_output(self, tmp_path, capsys, existing):
        dets, tracks = tmp_path / "d.json", tmp_path / "t.json"
        gt = tmp_path / ("g" * 300 + ".json")  # a name too long for the file system
        if existing:
            dets.write_bytes(b"old detections\n")
            dets.chmod(0o640)
        argv = ["simulate", "--seed", "7", "--out-detections", str(dets), "--out-gt", str(gt),
                "--out-tracks", str(tracks)]
        assert main(argv) == 2
        assert f"validation error: {gt}: cannot write file (" in capsys.readouterr().err
        if existing:
            assert dets.read_bytes() == b"old detections\n"
            assert dets.stat().st_mode & 0o777 == 0o640
            assert [p.name for p in tmp_path.iterdir()] == ["d.json"]
        else:
            assert list(tmp_path.iterdir()) == []

    def test_sparse_keyed_stream_names_at_most_ten_missing_frames(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "media": {"id": "v", "height": 4, "width": 4, "frames": 100000},
            "detections": {"5": []},
        }
        out = tmp_path / "m.json"
        assert main(["track", "--detections", write(tmp_path / "d.json", doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert ("missing frames [0, 1, 2, 3, 4, 6, 7, 8, 9, 10] and 99989 more "
                "(99999 of 100000)") in err
        assert not out.exists()

    def test_out_gt_needs_two_frames(self, tmp_path, capsys):
        # a one-frame media loads as an image, so its masklets could not be read back
        cfg = write(tmp_path / "cfg.json", {"frames": 1})
        dets, gt = tmp_path / "d.json", tmp_path / "g.json"
        argv = ["simulate", "--config", cfg, "--out-detections", str(dets), "--out-gt", str(gt)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "validation error: --out-gt needs a scenario of at least 2 frames, got 1" in err
        assert not dets.exists() and not gt.exists()

    def simulate(self, tmp_path, name, size, media_id="scenario", frames=6):
        doc = {"height": size, "width": size + 2, "frames": frames, "objects": 2, "max_size": 6}
        cfg = write(tmp_path / f"{name}.json", doc)
        dets, tracks = tmp_path / f"{name}_d.json", tmp_path / f"{name}_t.json"
        argv = ["simulate", "--config", cfg, "--out-detections", str(dets), "--out-tracks", str(tracks)]
        assert main([*argv, "--media-id", media_id]) == 0
        return str(dets), str(tracks)

    def test_track_reference_of_another_media(self, tmp_path, capsys):
        dets, _ = self.simulate(tmp_path, "a", 20, media_id="vidA")
        _, tracks = self.simulate(tmp_path, "b", 20, media_id="vidB")
        out = tmp_path / "out.json"
        argv = ["track", "--detections", dets, "--propagator", "tracks", "--tracks", tracks]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"validation error: {tracks}: reference tracks are of media 'vidB', the detection stream of 'vidA'" in err
        assert not out.exists()

    def test_track_reference_on_another_grid(self, tmp_path, capsys):
        dets, _ = self.simulate(tmp_path, "a", 20)
        _, tracks = self.simulate(tmp_path, "b", 24)
        out = tmp_path / "out.json"
        argv = ["track", "--detections", dets, "--propagator", "tracks", "--tracks", tracks]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{tracks}: reference tracks are on a 24x26 grid, the detection stream on 20x22" in err
        assert not out.exists()

    def test_track_reference_of_another_length(self, tmp_path, capsys):
        dets, _ = self.simulate(tmp_path, "a", 20)
        _, tracks = self.simulate(tmp_path, "b", 20, frames=5)
        out = tmp_path / "out.json"
        argv = ["track", "--detections", dets, "--propagator", "tracks", "--tracks", tracks]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{tracks}: reference tracks have 5 frame(s), the detection stream 6" in err
        assert not out.exists()

    def test_tracks_without_tracks_propagator(self, tmp_path, capsys):
        dets, tracks = self.simulate(tmp_path, "a", 20)
        out = tmp_path / "out.json"
        assert main(["track", "--detections", dets, "--tracks", tracks, "--out", str(out)]) == 2
        assert "--tracks applies only with --propagator tracks" in capsys.readouterr().err
        assert main(["track", "--detections", dets, "--propagator", "tracks", "--out", str(out)]) == 2
        assert "--propagator tracks needs --tracks FILE" in capsys.readouterr().err
        assert not out.exists()


class TestWrittenFileMode:
    """A written file gets the mode ``open(path, "w")`` would leave, not the
    temp file's 0o600."""

    def test_new_file_follows_the_umask(self, tmp_path):
        path = tmp_path / "r.json"
        old = os.umask(0o022)
        try:
            io.write_atomic(path, "{}\n")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o644

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("old\n")
        path.chmod(0o640)
        io.write_atomic(path, "{}\n")
        assert path.read_text() == "{}\n"
        assert path.stat().st_mode & 0o777 == 0o640


class TestSymlinkedOutput:
    """Like ``open(path, "w")``, a write to a symlink goes to the link's
    target, and the link stays a link."""

    def test_link_target_gets_the_bytes(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("{}\n")
        target.chmod(0o640)
        link.symlink_to(target.name)
        code = main(["eval-image", "--gt", str(DATA / "image_corpus_gt.json"),
                     "--pred", str(DATA / "image_corpus_pred.json"), "--report", str(link)])
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == (DATA / "golden_image_report.json").read_bytes()
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_dangling_link_creates_its_target(self, tmp_path):
        (tmp_path / "sub").mkdir()
        target, link = tmp_path / "sub" / "new.json", tmp_path / "link.json"
        link.symlink_to(target)
        io.write_atomic(link, "{}\n")
        assert link.is_symlink()
        assert target.read_text() == "{}\n"
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["new.json"]

    def test_dangling_link_into_a_missing_directory(self, tmp_path, capsys):
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "missing" / "new.json")
        code = main(["eval-image", "--gt", str(DATA / "image_corpus_gt.json"),
                     "--pred", str(DATA / "image_corpus_pred.json"), "--report", str(link)])
        assert code == 2
        assert f"{link}: cannot write file (no such directory)" in capsys.readouterr().err


class TestCliOutputCollisions:
    """An output path naming another output or an input of the same command
    exits 2, naming both flags, before anything is written."""

    def assert_rejected(self, argv, capsys, flag, other):
        assert main(argv) == 2
        assert f"names the same file as {other}" in capsys.readouterr().err.split(flag, 1)[1]

    @pytest.mark.parametrize(
        "flag, other",
        [("--out-gt", "--out-detections"), ("--out-tracks", "--out-detections"),
         ("--out-tracks", "--out-gt"), ("--out-detections", "--config")],
    )
    def test_simulate(self, tmp_path, capsys, flag, other):
        cfg = write(tmp_path / "cfg.json", {"frames": 4})
        paths = {"--config": cfg, "--out-detections": str(tmp_path / "d.json"),
                 "--out-gt": str(tmp_path / "g.json"), "--out-tracks": str(tmp_path / "t.json")}
        paths[flag] = str(tmp_path / "sub" / ".." / Path(paths[other]).name)
        (tmp_path / "sub").mkdir()
        argv = ["simulate", *(arg for item in paths.items() for arg in item)]
        self.assert_rejected(argv, capsys, flag, other)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sub"]
        assert json.loads(Path(cfg).read_text()) == {"frames": 4}

    @pytest.mark.parametrize("other", ["--gt", "--pred"])
    @pytest.mark.parametrize(
        "command, corpus", [("eval-image", "image"), ("eval-video", "video"), ("count", "image")]
    )
    def test_report_names_an_input(self, tmp_path, capsys, command, corpus, other):
        paths = {}
        for flag, part in (("--gt", "gt"), ("--pred", "pred")):
            paths[flag] = tmp_path / f"{part}.json"
            paths[flag].write_bytes((DATA / f"{corpus}_corpus_{part}.json").read_bytes())
        link = tmp_path / "link.json"
        link.symlink_to(paths[other])
        argv = [command, "--gt", str(paths["--gt"]), "--pred", str(paths["--pred"]),
                "--report", str(link)]
        self.assert_rejected(argv, capsys, "--report", other)
        assert paths[other].read_bytes() == (DATA / f"{corpus}_corpus_{other[2:]}.json").read_bytes()

    @pytest.mark.parametrize("other", ["--detections", "--config", "--tracks"])
    def test_track_out_names_an_input(self, tmp_path, capsys, other):
        inputs = {"--detections": "golden_sim_detections", "--config": "golden_track_config",
                  "--tracks": "golden_sim_tracks"}
        paths = {}
        for flag, name in inputs.items():
            paths[flag] = tmp_path / f"{name}.json"
            paths[flag].write_bytes((DATA / f"{name}.json").read_bytes())
        argv = ["track", "--propagator", "tracks",
                *(arg for flag, path in paths.items() for arg in (flag, str(path))),
                "--out", str(paths[other])]
        self.assert_rejected(argv, capsys, "--out", other)
        assert paths[other].read_bytes() == (DATA / f"{inputs[other]}.json").read_bytes()


class TestCliMixedMedia:
    def test_each_join_counts_its_own_media_kind(self, tmp_path):
        # one file pair holding images and videos, each kind with one
        # prediction record for an unlabeled phrase
        one = {"counts": list(rect_mask(4, 4, 0, 0, 2, 2).counts)}
        video = {"frames": {"0": one, "1": one}}
        gt = write(tmp_path / "gt.json", {
            "schema_version": 1,
            "media": [
                {"id": "vid", "height": 4, "width": 4, "frames": 2},
                {"id": "img", "height": 4, "width": 4, "frames": 1},
            ],
            "datapoints": [
                {"media_id": "vid", "phrase": "box", "annotations": [[video]]},
                {"media_id": "img", "phrase": "box", "annotations": [[one]]},
                {"media_id": "img", "phrase": "void", "annotations": [[]]},
            ],
        })
        pred = write(tmp_path / "pred.json", {
            "schema_version": 1,
            "predictions": [
                {"media_id": "img", "phrase": "box", "instances": [dict(one, score=0.9)]},
                {"media_id": "img", "phrase": "ghost", "instances": []},
                {"media_id": "vid", "phrase": "box", "instances": [dict(video, score=0.9)]},
                {"media_id": "vid", "phrase": "ghost", "instances": []},
            ],
        })
        totals = {}
        for command in ("eval-image", "eval-video"):
            report = tmp_path / f"{command}.json"
            assert main([command, "--gt", gt, "--pred", pred, "--report", str(report)]) == 0
            doc = json.loads(report.read_text())
            assert doc["ignored_predictions"] == 1
            totals[command] = doc["datapoints"]["total"]
        assert totals == {"eval-image": 2, "eval-video": 1}


class TestCliSimulateTrack:
    def test_simulate_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
        cfg = write(tmp_path / "cfg.json", {"objects": 3, "frames": 24, "fp_rate": 0.4, "seed": 0})
        assert main(["simulate", "--config", cfg, "--seed", "7", "--out-detections", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "7", "--out-detections", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        out3 = tmp_path / "d3.json"
        assert main(["simulate", "--config", cfg, "--seed", "8", "--out-detections", str(out3)]) == 0
        assert out1.read_bytes() != out3.read_bytes()

    def test_track_hold_propagator(self, tmp_path):
        media = {"id": "vid", "height": 8, "width": 8, "frames": 20}
        box = rect_mask(8, 8, 1, 1, 3, 3)
        doc = {
            "schema_version": 1,
            "media": media,
            "detections": [[{"counts": list(box.counts), "score": 1.0}] for _ in range(20)],
        }
        stream = write(tmp_path / "stream.json", doc)
        out = tmp_path / "masklets.json"
        assert main(["track", "--detections", stream, "--out", str(out)]) == 0
        _, masklets = io.load_masklets(out)
        assert set(masklets) == {0}
        assert masklets[0].frames == {t: box for t in range(20)}

    def test_track_with_reference_tracks(self, tmp_path):
        frames = 24
        masks = {t: rect_mask(12, 12, min(t, 7), 2, 3, 3) for t in range(frames)}
        media = {"id": "vid", "height": 12, "width": 12, "frames": frames}
        det_doc = {
            "schema_version": 1,
            "media": media,
            "detections": [
                [{"counts": list(masks[t].counts), "score": 1.0}] for t in range(frames)
            ],
        }
        ref_doc = {
            "schema_version": 1,
            "media": media,
            "masklets": [
                {
                    "id": 0,
                    "first_frame": 0,
                    "frames": {str(t): {"counts": list(masks[t].counts)} for t in range(frames)},
                }
            ],
        }
        stream = write(tmp_path / "stream.json", det_doc)
        ref = write(tmp_path / "ref.json", ref_doc)
        out = tmp_path / "out.json"
        assert (
            main(
                [
                    "track",
                    "--detections",
                    stream,
                    "--out",
                    str(out),
                    "--propagator",
                    "tracks",
                    "--tracks",
                    ref,
                ]
            )
            == 0
        )
        _, masklets = io.load_masklets(out)
        assert set(masklets) == {0}
        assert masklets[0].frames == masks

    def test_simulate_then_eval_video_pipeline(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", {"objects": 2, "frames": 20, "seed": 4})
        dets = tmp_path / "dets.json"
        gt = tmp_path / "gt.json"
        assert main(["simulate", "--config", cfg, "--out-detections", str(dets), "--out-gt", str(gt)]) == 0
        out = tmp_path / "masklets.json"
        assert main(["track", "--detections", str(dets), "--out", str(out)]) == 0
        # convert emitted masklets into a prediction file for video eval
        _, masklets = io.load_masklets(out)
        pred_doc = {
            "schema_version": 1,
            "predictions": [
                {
                    "media_id": "scenario",
                    "phrase": "object",
                    "instances": [
                        {
                            "frames": {
                                str(t): {"counts": list(m.counts)}
                                for t, m in sorted(seq.frames.items())
                            },
                            "score": 1.0,
                        }
                        for seq in masklets.values()
                    ],
                }
            ],
        }
        pred = write(tmp_path / "pred.json", pred_doc)
        # add a negative phrase so the presence MCC has both classes
        gt_doc = json.loads(Path(gt).read_text())
        gt_doc["datapoints"].append(
            {"media_id": "scenario", "phrase": "unicorn", "annotations": [[]]}
        )
        gt = write(tmp_path / "gt2.json", gt_doc)
        report = tmp_path / "video_report.json"
        assert main(["eval-video", "--gt", str(gt), "--pred", pred, "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        # zero-noise scenario tracked end to end: everything is perfect
        assert doc["metrics"]["cgF1"] == 100.0
        assert doc["metrics"]["VL_MCC"] == 1.0
        assert doc["hota"]["pHOTA"] == 1.0

    def test_noisy_pipeline_with_reference_tracks(self, tmp_path):
        cfg = write(
            tmp_path / "cfg.json",
            {
                "objects": 3,
                "frames": 48,
                "miss_prob": 0.15,
                "fp_rate": 0.5,
                "distractor_prob": 0.3,
                "jitter_px": 1,
                "seed": 21,
            },
        )
        dets, gt, tracks = (tmp_path / n for n in ("d.json", "gt.json", "tracks.json"))
        out = tmp_path / "masklets.json"
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    cfg,
                    "--out-detections",
                    str(dets),
                    "--out-gt",
                    str(gt),
                    "--out-tracks",
                    str(tracks),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "track",
                    "--detections",
                    str(dets),
                    "--out",
                    str(out),
                    "--propagator",
                    "tracks",
                    "--tracks",
                    str(tracks),
                ]
            )
            == 0
        )
        _, masklets = io.load_masklets(out)
        pred_doc = {
            "schema_version": 1,
            "predictions": [
                {
                    "media_id": "scenario",
                    "phrase": "object",
                    "instances": [
                        {
                            "frames": {
                                str(t): {"counts": list(m.counts)}
                                for t, m in sorted(seq.frames.items())
                            },
                            "score": 1.0,
                        }
                        for seq in masklets.values()
                    ],
                }
            ],
        }
        gt_doc = json.loads(gt.read_text())
        gt_doc["datapoints"].append(
            {"media_id": "scenario", "phrase": "absent", "annotations": [[]]}
        )
        gt2 = write(tmp_path / "gt2.json", gt_doc)
        pred = write(tmp_path / "pred.json", pred_doc)
        report = tmp_path / "report.json"
        assert main(["eval-video", "--gt", gt2, "--pred", pred, "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["metrics"]["VL_MCC"] == 1.0
        assert doc["metrics"]["cgF1"] > 50
        assert doc["hota"]["pHOTA"] > 0.7

    def test_eval_video_zero_positive_exit_3(self, tmp_path):
        doc = {
            "schema_version": 1,
            "media": [{"id": "v", "height": 4, "width": 4, "frames": 2}],
            "datapoints": [{"media_id": "v", "phrase": "box", "annotations": [[]]}],
        }
        gt = write(tmp_path / "gt.json", doc)
        pred = write(tmp_path / "pred.json", {"schema_version": 1, "predictions": []})
        assert main(["eval-video", "--gt", gt, "--pred", pred, "--report", str(tmp_path / "r.json")]) == 3


class TestCliCount:
    def test_nested_duplicates_removed(self, tmp_path):
        h = w = 10
        doc = {
            "schema_version": 1,
            "media": [{"id": "m", "height": h, "width": w, "frames": 1}],
            "datapoints": [
                {
                    "media_id": "m",
                    "phrase": "box",
                    "annotations": [
                        [
                            {"counts": list(rect_mask(h, w, 0, 0, 4, 4).counts)},
                            {"counts": list(rect_mask(h, w, 5, 5, 4, 4).counts)},
                        ]
                    ],
                }
            ],
        }
        pred_doc = {
            "schema_version": 1,
            "predictions": [
                {
                    "media_id": "m",
                    "phrase": "box",
                    "instances": [
                        {"counts": list(rect_mask(h, w, 0, 0, 4, 4).counts), "score": 0.95},
                        {"counts": list(rect_mask(h, w, 1, 1, 2, 2).counts), "score": 0.9},
                        {"counts": list(rect_mask(h, w, 5, 5, 4, 4).counts), "score": 0.85},
                    ],
                }
            ],
        }
        gt = write(tmp_path / "gt.json", doc)
        pred = write(tmp_path / "pred.json", pred_doc)
        report = tmp_path / "count.json"
        assert main(["count", "--gt", gt, "--pred", pred, "--report", str(report)]) == 0
        out = json.loads(report.read_text())
        assert out["datapoints"][0]["predicted"] == 2  # nested duplicate suppressed
        assert out["datapoints"][0]["true"] == 2
        assert out["metrics"]["MAE"] == 0.0
        assert out["metrics"]["accuracy_percent"] == 100.0


class TestGoldenReports:
    """Every scoring command's JSON and CSV report, byte for byte."""

    @pytest.mark.parametrize(
        "golden, command, corpus, extra",
        [
            ("golden_image_report.csv", "eval-image", "image_corpus", []),
            ("golden_video_macro.json", "eval-video", "video_corpus", ["--macro"]),
            ("golden_video_macro.csv", "eval-video", "video_corpus", ["--macro"]),
            ("golden_video_micro.json", "eval-video", "video_corpus", ["--micro"]),
            ("golden_video_micro.csv", "eval-video", "video_corpus", ["--micro"]),
            ("golden_count.json", "count", "image_corpus", []),
            ("golden_count.csv", "count", "image_corpus", []),
        ],
    )
    def test_golden_scoring_reports(self, tmp_path, golden, command, corpus, extra):
        report = tmp_path / f"report{Path(golden).suffix}"
        gt, pred = (str(DATA / f"{corpus}_{part}.json") for part in ("gt", "pred"))
        assert main([command, "--gt", gt, "--pred", pred, *extra, "--report", str(report)]) == 0
        assert report.read_bytes() == (DATA / golden).read_bytes()

    def test_golden_simulate_and_track_outputs(self, tmp_path):
        # a noisy scenario, so detections carry float scores and masklets gaps;
        # CI runs the installed entry point on the same config
        cfg = str(DATA / "golden_sim_config.json")
        dets, gt, tracks, out = (
            tmp_path / f"{n}.json" for n in ("detections", "gt", "tracks", "masklets")
        )
        assert main(["simulate", "--config", cfg, "--out-detections", str(dets),
                     "--out-gt", str(gt), "--out-tracks", str(tracks)]) == 0
        assert main(["track", "--detections", str(dets), "--propagator", "tracks",
                     "--tracks", str(tracks), "--out", str(out)]) == 0
        for path, golden in ((dets, "golden_sim_detections"), (gt, "golden_sim_gt"),
                             (tracks, "golden_sim_tracks"), (out, "golden_track_masklets")):
            assert path.read_bytes() == (DATA / f"{golden}.json").read_bytes(), golden

    def test_golden_track_config(self, tmp_path):
        # a short window and a positive threshold remove masklets that the
        # default config keeps; CI runs the installed entry point on the same files
        out = tmp_path / "masklets.json"
        assert main(["track", "--detections", str(DATA / "golden_sim_detections.json"),
                     "--propagator", "tracks", "--tracks", str(DATA / "golden_sim_tracks.json"),
                     "--config", str(DATA / "golden_track_config.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "golden_track_config_masklets.json").read_bytes()

    def test_golden_track_hold(self, tmp_path):
        # the default propagator repeats each masklet's last mask; CI runs
        # the installed entry point on the same files
        out = tmp_path / "masklets.json"
        assert main(["track", "--detections", str(DATA / "golden_sim_detections.json"),
                     "--config", str(DATA / "golden_track_config.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "golden_track_hold_masklets.json").read_bytes()

    @pytest.mark.parametrize(
        "golden",
        ["golden_track_masklets", "golden_track_config_masklets", "golden_track_hold_masklets"],
    )
    def test_track_output_loads_as_reference_tracks(self, tmp_path, golden):
        # track --out writes these files byte for byte (the tests above read
        # simulate's golden_sim_tracks); their masklets start on later frames
        # and some hold null frames, so each first_frame check is exercised
        out = tmp_path / "masklets.json"
        assert main(["track", "--detections", str(DATA / "golden_sim_detections.json"),
                     "--propagator", "tracks", "--tracks", str(DATA / f"{golden}.json"),
                     "--out", str(out)]) == 0

    def test_video_gold_files_are_the_corpus(self):
        gt_doc, pred_doc = build_video_corpus()
        assert json.loads((DATA / "video_corpus_gt.json").read_text()) == gt_doc
        assert json.loads((DATA / "video_corpus_pred.json").read_text()) == pred_doc

    def test_video_corpus_has_negatives_and_ignored_records(self):
        doc = json.loads((DATA / "golden_video_macro.json").read_text())
        assert doc["ignored_predictions"] == 1
        assert doc["datapoints"]["negative"] > 0 and doc["presence_counts"]["FP"] == 1


# Runs one CLI command in a fresh interpreter and, unless it may load numpy,
# checks that it did not. Importing the CLI must never load dataclasses or
# inspect: both cost more set-up time than the whole package.
_FRESH_CLI = """
import sys
before = set(sys.modules)
from phraseseg.cli import main
added = {"dataclasses", "inspect"} & (set(sys.modules) - before)
if added:
    sys.exit(f"import phraseseg.cli loaded {sorted(added)}")
code = main(sys.argv[2:])
if sys.argv[1] == "numpy-free" and "numpy" in sys.modules:
    sys.exit("numpy was imported")
sys.exit(code)
"""


class TestCliInFreshInterpreter:
    """Scoring and tracking never import numpy; the commands that draw random
    numbers import it on use and still write their golden bytes."""

    @pytest.mark.parametrize(
        "numpy_free, args, golden",
        [
            (True, ["eval-image", "--gt", "image_corpus_gt.json",
                    "--pred", "image_corpus_pred.json"], "golden_image_report.json"),
            (True, ["count", "--gt", "image_corpus_gt.json",
                    "--pred", "image_corpus_pred.json"], "golden_count.json"),
            (True, ["eval-video", "--gt", "video_corpus_gt.json",
                    "--pred", "video_corpus_pred.json", "--macro"], "golden_video_macro.json"),
            (True, ["track", "--detections", "golden_sim_detections.json",
                    "--propagator", "tracks", "--tracks", "golden_sim_tracks.json"],
             "golden_track_masklets.json"),
            (False, ["simulate", "--config", "golden_sim_config.json"],
             "golden_sim_detections.json"),
            (False, ["eval-image", "--gt", "annotator_corpus_gt.json",
                     "--random-pair", "41", "--seed", "7"], "golden_random_pair_41_seed7.json"),
        ],
        ids=["eval-image", "count", "eval-video", "track", "simulate", "random-pair"],
    )
    def test_command(self, tmp_path, numpy_free, args, golden):
        out = tmp_path / "out.json"
        flag = {"simulate": "--out-detections", "track": "--out"}.get(args[0], "--report")
        argv = [str(DATA / a) if a.endswith(".json") else a for a in args] + [flag, str(out)]
        src = str(Path(sys.modules["phraseseg"].__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", _FRESH_CLI, "numpy-free" if numpy_free else "any", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert out.read_bytes() == (DATA / golden).read_bytes()


class TestLoadersRejectCoercion:
    """Inputs the loaders must reject rather than coerce or merge: each run
    exits 2 and names the offending value."""

    FULL = {"counts": [0, 16]}  # every pixel of a 4x4 grid
    VIDEO = {"id": "v", "height": 4, "width": 4, "frames": 2}

    def eval_image(self, tmp_path, gt_instance=FULL, score=0.9, presence=1.0,
                   gt_patch=None, pred_patch=None):
        gt = {
            "schema_version": 1,
            "media": [{"id": "m", "height": 4, "width": 4, "frames": 1}],
            "datapoints": [{"media_id": "m", "phrase": "box", "annotations": [[gt_instance]]}],
        }
        record = {"media_id": "m", "phrase": "box", "presence": presence,
                  "instances": [{**self.FULL, "score": score}]}
        pred = {"schema_version": 1, "predictions": [record]}
        for doc, patch in ((gt, gt_patch), (pred, pred_patch)):
            if patch:
                patch(doc)
        return main(["eval-image", "--gt", write(tmp_path / "gt.json", gt),
                     "--pred", write(tmp_path / "pred.json", pred),
                     "--report", str(tmp_path / "r.json")])

    def eval_video(self, tmp_path, gt_frames=None, pred_instance=None):
        gt = {
            "schema_version": 1,
            "media": [self.VIDEO],
            "datapoints": [{"media_id": "v", "phrase": "box",
                            "annotations": [[{"frames": gt_frames or {"0": self.FULL}}]]}],
        }
        instance = pred_instance or {"frames": {"0": self.FULL}, "score": 0.9}
        pred = {"schema_version": 1,
                "predictions": [{"media_id": "v", "phrase": "box", "instances": [instance]}]}
        return main(["eval-video", "--gt", write(tmp_path / "gt.json", gt),
                     "--pred", write(tmp_path / "pred.json", pred),
                     "--report", str(tmp_path / "r.json")])

    def track(self, tmp_path, detections=([], []), masklets=(), tracks_patch=None,
              stream_patch=None):
        stream = {"schema_version": 1, "media": self.VIDEO, "detections": detections}
        tracks = {"schema_version": 1, "media": self.VIDEO, "masklets": list(masklets)}
        for doc, patch in ((stream, stream_patch), (tracks, tracks_patch)):
            if patch:
                patch(doc)
        return main(["track", "--detections", write(tmp_path / "d.json", stream),
                     "--out", str(tmp_path / "out.json"), "--propagator", "tracks",
                     "--tracks", write(tmp_path / "t.json", tracks)])

    def assert_rejected(self, code, capsys, message):
        assert code == 2
        assert message in capsys.readouterr().err

    LIST_MESSAGE = "'counts' must be a list of non-negative integers"

    @pytest.mark.parametrize(
        "counts, message",
        [
            ("0,16", LIST_MESSAGE),
            ({"0": 16}, LIST_MESSAGE),
            ([], "counts must contain at least one run"),
            ([True, 15], LIST_MESSAGE),
            ([0, 15, False], LIST_MESSAGE),
            ([4.0, 12], LIST_MESSAGE),
            ([0, 16.0], LIST_MESSAGE),
            ([20, -4], LIST_MESSAGE),
            ([4, None, 12], LIST_MESSAGE),
            ([4, 4], "run lengths sum to 8, expected 16"),
        ],
        ids=["string", "object", "empty", "bool", "trailing-bool", "float", "integral-float",
             "negative", "null", "wrong-sum"],
    )
    @pytest.mark.parametrize("media", ["image", "video"])
    def test_malformed_counts_message(self, tmp_path, capsys, media, counts, message):
        # the whole stderr line is pinned: the run checks moved into RleMask,
        # and the loader must still word each rejection as before
        mask = {"counts": counts}
        if media == "image":
            code, where = self.eval_image(tmp_path, gt_instance=mask), ""
        else:
            code, where = self.eval_video(tmp_path, gt_frames={"0": mask}), ".frames[0]"
        assert code == 2
        assert capsys.readouterr().err == (
            f"validation error: datapoints[0].annotations[0][0]{where}: {message}\n")

    def test_true_run_length(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, gt_instance={"counts": [15, True]})
        self.assert_rejected(code, capsys, "'counts' must be a list of non-negative integers")

    def test_true_score(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, score=True)
        self.assert_rejected(code, capsys, "score must be in [0, 1], got True")

    def test_true_presence(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, presence=True)
        self.assert_rejected(code, capsys, "presence must be in [0, 1], got True")

    def test_true_frame_score(self, tmp_path, capsys):
        instance = {"frames": {"0": self.FULL}, "frame_scores": {"0": True}}
        code = self.eval_video(tmp_path, pred_instance=instance)
        self.assert_rejected(code, capsys, "'frame_scores' must map frames to values in [0, 1]")

    def test_score_and_frame_scores(self, tmp_path, capsys):
        instance = {"frames": {"0": self.FULL}, "score": 0.9, "frame_scores": "garbage"}
        code = self.eval_video(tmp_path, pred_instance=instance)
        assert code == 2
        assert capsys.readouterr().err == (
            "validation error: predictions[0].instances[0]: "
            "give 'score' or 'frame_scores', not both\n")

    def test_noncanonical_instance_frame_key(self, tmp_path, capsys):
        code = self.eval_video(tmp_path, gt_frames={"1": self.FULL, "01": self.FULL})
        self.assert_rejected(code, capsys, "frame key '01' is not a canonical integer")

    def test_noncanonical_masklet_frame_key(self, tmp_path, capsys):
        code = self.track(tmp_path, masklets=[{"id": 0, "frames": {"1": self.FULL, "01": None}}])
        self.assert_rejected(code, capsys, "frame key '01' is not a canonical integer")

    def test_noncanonical_detection_frame_key(self, tmp_path, capsys):
        detections = {"0": [], "1": [], "01": [{**self.FULL, "score": 0.9}]}
        code = self.track(tmp_path, detections=detections)
        self.assert_rejected(code, capsys, "frame key '01' is not a canonical integer")

    LONG = "9" * 5000  # more digits than int() converts

    @pytest.mark.parametrize(
        "kind", ["not-utf8", "long-integer", "deep-nesting", "long-frame-key"])
    def test_undecodable_input(self, tmp_path, capsys, kind):
        # each used to end in a traceback instead of a validation error
        if kind == "long-frame-key":
            code = self.track(tmp_path, detections={"0": [], "1": [], self.LONG: []})
            message = f"frame key '{self.LONG}' is not a canonical integer"
            self.assert_rejected(code, capsys, message)
            return
        gt = tmp_path / "gt.json"
        if kind == "not-utf8":
            gt.write_bytes(b"\xff")
        elif kind == "long-integer":
            text = json.dumps(minimal_gt_doc())
            gt.write_text(text.replace('"height": 4', f'"height": {self.LONG}'))
        else:
            gt.write_text("[" * 100000)
        code = main(["eval-image", "--gt", str(gt), "--human-oracle",
                     "--report", str(tmp_path / "r.json")])
        self.assert_rejected(code, capsys, f"validation error: {gt}: invalid JSON (")

    @staticmethod
    def human_oracle(tmp_path, gt):
        return main(["eval-image", "--gt", gt, "--human-oracle",
                     "--report", str(tmp_path / "r.json")])

    @pytest.mark.parametrize(
        "run, message",
        [
            (lambda t, p: t.human_oracle(p, str(p / "missing.json")),
             "missing.json: cannot read file ("),
            (lambda t, p: t.human_oracle(p, write(p / "gt.json", [])),
             "gt.json: top-level value must be a JSON object"),
            (lambda t, p: t.eval_image(p, gt_instance=5),
             "annotations[0][0]: mask must be an object with a 'counts' array"),
            (lambda t, p: t.eval_video(p, gt_frames="x"),
             "annotations[0][0]: 'frames' must be an object keyed by frame index"),
            (lambda t, p: t.eval_image(p, gt_patch=lambda d: d.update(media=[5])),
             "media[0]: media entry must be an object"),
            (lambda t, p: t.track(p, stream_patch=lambda d: d.update(media=5)),
             "media: media entry must be an object"),
            (lambda t, p: t.track(p, tracks_patch=lambda d: d.update(media=5)),
             "media: media entry must be an object"),
            (lambda t, p: t.eval_image(p, gt_patch=lambda d: d.update(datapoints=[5])),
             "datapoints[0]: record must be an object"),
            (lambda t, p: t.eval_video(p, pred_instance={"score": 0.9}),
             "instances[0]: video instance needs a 'frames' object"),
            (lambda t, p: t.eval_image(
                p, pred_patch=lambda d: d["predictions"][0]["instances"][0].pop("score")),
             "instances[0]: instance needs a 'score'"),
            (lambda t, p: t.eval_image(p, gt_patch=lambda d: d["media"].append(d["media"][0])),
             "media[1]: duplicate media id 'm'"),
            (lambda t, p: t.eval_image(
                p, gt_patch=lambda d: d["datapoints"][0].update(annotations=[])),
             "datapoints[0]: datapoint needs at least one annotation list"),
            (lambda t, p: t.eval_image(
                p, pred_patch=lambda d: d["predictions"].append(d["predictions"][0])),
             "predictions[1]: duplicate prediction record for ('m', 'box')"),
            (lambda t, p: t.eval_image(
                p, pred_patch=lambda d: d["predictions"][0].update(instances=5)),
             "predictions[0]: 'instances' must be a list"),
            (lambda t, p: t.track(p, detections=5),
             "detections: must be an array of frame lists or an object keyed by frame"),
            (lambda t, p: t.track(p, detections=[5, []]),
             "detections[0]: frame entry must be a list"),
            (lambda t, p: t.track(p, masklets=[{"id": 0}]),
             "masklets[0]: masklet needs 'id' and 'frames'"),
            (lambda t, p: t.track(p, masklets=[{"id": 0, "frames": {}}] * 2),
             "masklets[1]: duplicate masklet id 0"),
        ],
        ids=["missing-file", "top-level-array", "mask-not-object", "frames-not-object",
             "media-not-object", "stream-media-5", "masklet-media-5", "record-not-object",
             "video-instance-without-frames", "instance-without-score", "duplicate-media-id",
             "no-annotation-list", "duplicate-prediction-record", "instances-not-a-list",
             "detections-not-frames", "frame-entry-not-a-list", "masklet-without-frames",
             "duplicate-masklet-id"],
    )
    def test_malformed_input(self, tmp_path, capsys, run, message):
        self.assert_rejected(run(self, tmp_path), capsys, message)

    def test_masklet_id_string_alias(self, tmp_path, capsys):
        masklets = [{"id": 1, "frames": {"0": self.FULL}}, {"id": "1", "frames": {}}]
        code = self.track(tmp_path, masklets=masklets)
        self.assert_rejected(code, capsys, "masklet id must be a JSON integer, got '1'")

    def test_masklet_id_not_integer(self, tmp_path, capsys):
        code = self.track(tmp_path, masklets=[{"id": "abc", "frames": {}}])
        self.assert_rejected(code, capsys, "masklet id must be a JSON integer, got 'abc'")

    @pytest.mark.parametrize("first", ["x", True, None, -1, 1, 2])
    def test_first_frame_not_the_smallest_frame_key(self, tmp_path, capsys, first):
        # the null frame 0 counts, so 1, the first shown frame, is wrong too
        masklet = {"id": 0, "first_frame": first, "frames": {"0": None, "1": self.FULL}}
        code = self.track(tmp_path, masklets=[masklet])
        assert code == 2
        assert capsys.readouterr().err == (
            "validation error: masklets[0]: first_frame must be 0, the smallest frame key, "
            f"got {first!r}\n")

    @pytest.mark.parametrize(
        "first, frames", [(0, {"0": None, "1": FULL}), (1, {"1": FULL}), (0, {})],
        ids=["null-frame-counts", "later-frame", "no-frames"],
    )
    def test_first_frame_accepted(self, tmp_path, first, frames):
        assert self.track(tmp_path, masklets=[{"id": 0, "first_frame": first, "frames": frames}]) == 0

    def test_annotation_not_a_list(self, tmp_path, capsys):
        code = self.eval_image(
            tmp_path, gt_patch=lambda d: d["datapoints"][0].update(annotations=[{"oops": 1}])
        )
        self.assert_rejected(code, capsys, "annotations[0]: annotation must be a list of instances")

    def test_null_annotation(self, tmp_path, capsys):
        code = self.eval_image(
            tmp_path, gt_patch=lambda d: d["datapoints"][0].update(annotations=[None])
        )
        self.assert_rejected(code, capsys, "annotations[0]: annotation must be a list of instances")

    def test_media_height_string(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, gt_patch=lambda d: d["media"][0].update(height="4"))
        self.assert_rejected(code, capsys, "media[0]: height must be a positive integer, got '4'")

    def test_media_height_float(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, gt_patch=lambda d: d["media"][0].update(height=4.9))
        self.assert_rejected(code, capsys, "media[0]: height must be a positive integer, got 4.9")

    def test_media_height_true(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, gt_patch=lambda d: d["media"][0].update(height=True))
        self.assert_rejected(code, capsys, "media[0]: height must be a positive integer, got True")

    def test_media_id_null(self, tmp_path, capsys):
        def null_id(gt):
            gt["media"][0]["id"] = None
            gt["datapoints"][0]["media_id"] = "None"

        code = self.eval_image(
            tmp_path, gt_patch=null_id, pred_patch=lambda d: d["predictions"][0].update(media_id="None")
        )
        self.assert_rejected(code, capsys, "media[0]: media id must be a non-empty string, got None")

    def test_record_media_id_not_a_string(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, gt_patch=lambda d: d["datapoints"][0].update(media_id=["m"]))
        self.assert_rejected(code, capsys, "datapoints[0]: unknown media id ['m']")

    def test_group_string(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, gt_instance={**self.FULL, "group": "false"})
        self.assert_rejected(code, capsys, "group must be true or false, got 'false'")

    def test_schema_version_true(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, gt_patch=lambda d: d.update(schema_version=True))
        self.assert_rejected(code, capsys, "unsupported schema_version True")

    def test_pred_without_predictions_key(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, pred_patch=lambda d: d.pop("predictions"))
        self.assert_rejected(code, capsys, "predictions: required array is missing")

    def test_predictions_not_an_array(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, pred_patch=lambda d: d.update(predictions=5))
        self.assert_rejected(code, capsys, "predictions: must be a JSON array")

    def test_datapoints_not_an_array(self, tmp_path, capsys):
        code = self.eval_image(tmp_path, gt_patch=lambda d: d.update(datapoints=5))
        self.assert_rejected(code, capsys, "datapoints: must be a JSON array")

    def test_tracks_without_masklets_key(self, tmp_path, capsys):
        code = self.track(tmp_path, tracks_patch=lambda d: d.pop("masklets"))
        self.assert_rejected(code, capsys, "masklets: required array is missing")

    def test_masklets_not_an_array(self, tmp_path, capsys):
        code = self.track(tmp_path, tracks_patch=lambda d: d.update(masklets=5))
        self.assert_rejected(code, capsys, "masklets: must be a JSON array")

    def test_frame_scores_key_not_integer(self, tmp_path, capsys):
        instance = {"frames": {"0": self.FULL}, "frame_scores": {"x": 0.9}}
        code = self.eval_video(tmp_path, pred_instance=instance)
        self.assert_rejected(code, capsys, "frame_scores: frame key 'x' is not a canonical integer")

    def test_frame_scores_key_out_of_range(self, tmp_path, capsys):
        instance = {"frames": {"0": self.FULL}, "frame_scores": {"0": 0.9, "7": 0.1}}
        code = self.eval_video(tmp_path, pred_instance=instance)
        self.assert_rejected(code, capsys, "frame_scores: frame 7 outside media frame range 0..1")

    def test_frame_scores_key_alias(self, tmp_path, capsys):
        instance = {"frames": {"0": self.FULL}, "frame_scores": {"1": 0.9, "01": 0.1}}
        code = self.eval_video(tmp_path, pred_instance=instance)
        self.assert_rejected(code, capsys, "frame_scores: frame key '01' is not a canonical integer")

    @pytest.mark.parametrize(
        "command, corpus, part, old, new, key",
        [
            ("eval-image", "image", "pred", '"score": 0.8794', '"score": 0.8794, "score": 0.0',
             "score"),
            ("eval-video", "video", "pred", '{"frames": {"0": ',
             '{"frames": {"0": {"counts": [768]}, "0": ', "0"),
            ("eval-image", "image", "gt", "{", '{"schema_version": 1, ', "schema_version"),
        ],
        ids=["instance", "frame-map", "top-level"],
    )
    def test_duplicate_key(self, tmp_path, capsys, command, corpus, part, old, new, key):
        # json.load would keep the last value; an instance's score of 0.0
        # would then silently lower cgF1
        paths = {}
        for name in ("gt", "pred"):
            text = (DATA / f"{corpus}_corpus_{name}.json").read_text(encoding="utf-8")
            if name == part:
                assert old in text
                text = text.replace(old, new, 1)
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text, encoding="utf-8")
        report = tmp_path / "r.json"
        code = main([command, "--gt", str(paths["gt"]), "--pred", str(paths["pred"]),
                     "--report", str(report)])
        assert code == 2
        assert capsys.readouterr().err == (
            f'validation error: {paths[part]}: duplicate key "{key}" in a JSON object\n')
        assert not report.exists()

    def test_duplicate_key_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"frames": 4, "frames": 5}', encoding="utf-8")
        out = tmp_path / "d.json"
        code = main(["simulate", "--config", str(cfg), "--out-detections", str(out)])
        self.assert_rejected(code, capsys, f'{cfg}: duplicate key "frames" in a JSON object')
        assert not out.exists()

_TEXT = st.text(st.characters(blacklist_categories=())) | st.sampled_from(
    ["", "é", "naïve 🙂", "\x00\x1f\x7f", '"quoted"', "back\\slash", "\ud800", "\udfff x", "\u2028"]
)
_INTS = st.integers() | st.integers(-(10**40), 10**40)
_FLOATS = (
    st.floats()
    | st.sampled_from([-0.0, 1e-7, 1e16, math.nan, math.inf, -math.inf])
    | st.floats().map(np.float64)
)
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT
_LEAVES = (
    _SCALARS
    | st.lists(_INTS)
    | st.lists(_INTS | st.booleans())
    | st.lists(st.integers(0, 10**6), min_size=1).map(io._RunLengths)  # a mask's counts
)
_DOCS = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=24,
)


class TestDumpsJson:
    """``dumps_json`` writes exactly what ``json.dumps(indent=2, sort_keys=True)``
    writes, and refuses what this schema never writes."""

    @settings(max_examples=400, deadline=None)
    @given(_DOCS)
    def test_matches_stdlib(self, doc):
        assert io.dumps_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "value", [np.int64(3), {1, 2}, object(), {1: "a"}, {"a": [{("k",): 1}]}],
        ids=["np.int64", "set", "object", "int key", "nested tuple key"],
    )
    def test_rejects_non_json(self, value):
        with pytest.raises(TypeError):
            io.dumps_json(value)
