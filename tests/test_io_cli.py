from __future__ import annotations

import json
from pathlib import Path

import pytest

from phraseseg import ValidationError
from phraseseg import io_schemas as io
from phraseseg.cli import main
from phraseseg.image_metrics import DataPoint, GtInstance
from phraseseg.masks import FrameMaskSeq
from phraseseg.matching import Detection
from phraseseg.tracker import EmittedMasklet, TrackResult

from corpus import build_annotator_corpus, build_image_corpus
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
        result = TrackResult(
            height=6,
            width=6,
            outputs=[],
            masklets={
                3: EmittedMasklet(id=3, t_first=1, frames={1: mask, 2: None, 3: mask})
            },
        )
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
        assert cfg.output_delay == 10

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
        ],
        ids=["frames-true", "occlusions-str-float", "height-float", "seed-float", "fp_rate-inf"],
    )
    def test_scenario_config_field_types(self, tmp_path, doc, message):
        with pytest.raises(ValidationError) as exc:
            io.load_scenario_config(write(tmp_path / "cfg.json", doc))
        assert message in str(exc.value)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"confirmation_window": 1.5}, "confirmation_window must be of type int, got 1.5"),
            ({"output_delay": 2.5}, "output_delay must be of type Optional[int], got 2.5"),
            ({"match_iou": True}, "match_iou must be of type float, got True"),
        ],
        ids=["confirmation_window-float", "output_delay-float", "match_iou-true"],
    )
    def test_tracker_config_field_types(self, tmp_path, doc, message):
        with pytest.raises(ValidationError) as exc:
            io.load_tracker_config(write(tmp_path / "cfg.json", doc))
        assert message in str(exc.value)

    def test_scenario_config_negative_seed(self, tmp_path):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            io.load_scenario_config(write(tmp_path / "cfg.json", {"seed": -1}))

    def test_tracker_config_null_output_delay(self, tmp_path):
        cfg = io.load_tracker_config(write(tmp_path / "cfg.json", {"output_delay": None}))
        assert cfg.output_delay == cfg.confirmation_window

    def test_every_config_field_type_is_checked(self):
        from dataclasses import fields

        from phraseseg.sim import ScenarioConfig
        from phraseseg.tracker import TrackerConfig

        for cls in (TrackerConfig, ScenarioConfig):
            for f in fields(cls):
                assert f.type in io._FIELD_TYPES, (cls.__name__, f.name, f.type)


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

    def track(self, tmp_path, detections=([], []), masklets=(), tracks_patch=None):
        stream = {"schema_version": 1, "media": self.VIDEO, "detections": detections}
        tracks = {"schema_version": 1, "media": self.VIDEO, "masklets": list(masklets)}
        if tracks_patch:
            tracks_patch(tracks)
        return main(["track", "--detections", write(tmp_path / "d.json", stream),
                     "--out", str(tmp_path / "out.json"), "--propagator", "tracks",
                     "--tracks", write(tmp_path / "t.json", tracks)])

    def assert_rejected(self, code, capsys, message):
        assert code == 2
        assert message in capsys.readouterr().err

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

    def test_masklet_id_string_alias(self, tmp_path, capsys):
        masklets = [{"id": 1, "frames": {"0": self.FULL}}, {"id": "1", "frames": {}}]
        code = self.track(tmp_path, masklets=masklets)
        self.assert_rejected(code, capsys, "masklet id must be a JSON integer, got '1'")

    def test_masklet_id_not_integer(self, tmp_path, capsys):
        code = self.track(tmp_path, masklets=[{"id": "abc", "frames": {}}])
        self.assert_rejected(code, capsys, "masklet id must be a JSON integer, got 'abc'")

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
