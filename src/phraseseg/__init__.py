"""Evaluation metrics, detector-tracker fusion and simulation tools for
phrase-prompted instance segmentation."""

from .errors import UndefinedMetricError, ValidationError
from .masks import (
    BBox,
    FrameMaskSeq,
    RleMask,
    bbox_iou,
    bbox_of,
    mask_iom,
    mask_iou,
    rle_encode,
    volume_iou,
)
from .matching import Detection, Matching, iom_nms, optimal_match
from .image_metrics import (
    DataPoint,
    GtInstance,
    ILCounts,
    IOU_THRESHOLDS,
    MetricReport,
    cg_f1,
    combine_scores,
    counting_metrics,
    gate,
    il_counts,
    il_mcc,
    local_f1,
    oracle_select,
    random_pair,
)
from .video_metrics import (
    HOTA_ALPHAS,
    HotaResult,
    hota,
    phota_remap,
    video_cg_f1,
)
from .tracker import Masklet, Tracker, TrackerConfig, TrackResult, run
from .sim import PromptEvent, ScenarioConfig, exemplar_policy, gen_scenario

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "DataPoint",
    "Detection",
    "FrameMaskSeq",
    "GtInstance",
    "HOTA_ALPHAS",
    "HotaResult",
    "ILCounts",
    "IOU_THRESHOLDS",
    "Masklet",
    "Matching",
    "MetricReport",
    "PromptEvent",
    "RleMask",
    "ScenarioConfig",
    "Tracker",
    "TrackerConfig",
    "TrackResult",
    "UndefinedMetricError",
    "ValidationError",
    "bbox_iou",
    "bbox_of",
    "cg_f1",
    "combine_scores",
    "counting_metrics",
    "exemplar_policy",
    "gate",
    "gen_scenario",
    "hota",
    "il_counts",
    "il_mcc",
    "iom_nms",
    "local_f1",
    "mask_iom",
    "mask_iou",
    "optimal_match",
    "oracle_select",
    "phota_remap",
    "random_pair",
    "rle_encode",
    "run",
    "video_cg_f1",
    "volume_iou",
]
