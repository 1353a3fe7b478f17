"""Runtime spans and counters around phraseseg's module boundaries.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each target
function, in every ``phraseseg`` module that binds it, with a wrapper that
records one span per call (name, start, end, parent span) plus the counters
the per-layer metrics need. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Target:
    span: str  # span name; its first component is the layer
    path: str  # "module.attr" or "module.Class.attr" under phraseseg
    before: Optional[str] = None  # Tracer method rewriting (args, kwargs)
    after: Optional[str] = None  # Tracer method observing (args, kwargs, result)


_IO_LOADERS = ("load_dataset", "load_predictions", "load_detection_stream",
               "load_masklets", "load_tracker_config", "load_scenario_config")
_IO_WRITERS = ("dumps_json", "write_atomic", "write_report", "report_csv",
               "dataset_doc", "detection_stream_doc", "tracks_doc", "masklets_doc")

TARGETS: tuple[Target, ...] = (
    Target("cli.main", "cli.main"),
    Target("masks.mask_iou", "masks.mask_iou", after="_after_mask_iou"),
    Target("masks.mask_iom", "masks.mask_iom"),
    Target("masks.bbox_of", "masks.bbox_of"),
    Target("masks.rle_encode", "masks.rle_encode"),
    Target("masks.volume_iou", "masks.volume_iou"),
    Target("masks.rlemask_init", "masks.RleMask.__post_init__"),
    Target("matching.optimal_match", "matching.optimal_match"),
    Target("matching.lsa", "matching.linear_sum_assignment"),
    Target("matching.iou_matrix", "matching.iou_matrix", after="_after_iou_matrix"),
    Target("matching.iom_nms", "matching.iom_nms"),
    Target("image_metrics.cg_f1", "image_metrics.cg_f1"),
    Target("image_metrics.evaluate_annotation", "image_metrics.evaluate_annotation",
           after="_after_evaluate_annotation"),
    Target("image_metrics.oracle_select", "image_metrics.oracle_select"),
    Target("image_metrics.human_oracle", "image_metrics.human_oracle"),
    Target("image_metrics.random_pair", "image_metrics.random_pair"),
    Target("image_metrics.counting_metrics", "image_metrics.counting_metrics"),
    Target("video_metrics.video_cg_f1", "video_metrics.video_cg_f1"),
    Target("video_metrics.volume_iou_matrix", "video_metrics.volume_iou_matrix"),
    Target("video_metrics.phota_remap", "video_metrics.phota_remap"),
    Target("video_metrics.hota", "video_metrics.hota"),
    Target("tracker.run", "tracker.run", before="_before_run"),
    Target("tracker.step", "tracker.Tracker.step", after="_after_step"),
    Target("tracker.flush", "tracker.Tracker.flush"),
    Target("sim.gen_scenario", "sim.gen_scenario"),
    Target("io_schemas.join_image", "io_schemas.join_image"),
    Target("io_schemas.join_video", "io_schemas.join_video"),
    *(Target(f"io_schemas.load.{n}", f"io_schemas.{n}", after="_after_load")
      for n in _IO_LOADERS),
    *(Target(f"io_schemas.write.{n}", f"io_schemas.{n}",
             after="_after_write" if n == "write_atomic" else None)
      for n in _IO_WRITERS),
)


class Tracer:
    """Span recorder. One instance per pass; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, appended in start order
        self.name = array("i")
        self.parent = array("i")  # index of the enclosing span, -1 for a root
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.count: dict[str, float] = {}
        self.distinct_annotation_inputs: set = set()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span: str, fn: Callable, before=None, after=None) -> Callable:
        nid = self.name_id(span)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target in place; call :meth:`uninstall` to undo."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "phraseseg" or n.startswith("phraseseg."))]
        for t in targets:
            owner, attr = _resolve(t.path)
            if owner is None:
                self.missing.append(t.path)
                continue
            before = getattr(self, t.before) if t.before else None
            after = getattr(self, t.after) if t.after else None
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(t.span, orig, before, after))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(t.span, orig, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- counters --------------------------------------------------------------

    def _bump(self, key: str, by: float = 1):
        self.count[key] = self.count.get(key, 0) + by

    def _after_mask_iou(self, args, kwargs, result):
        a, b = args
        if result == 0.0:
            self._bump("masks.mask_iou.zero")
        if a.area and b.area:  # the kernel decodes and ANDs both full grids
            self._bump("masks.mask_iou.px_scanned", 2 * a.height * a.width)

    def _after_iou_matrix(self, args, kwargs, result):
        self._bump("matching.iou_matrix.cells", result.size)

    def _after_evaluate_annotation(self, args, kwargs, result):
        preds, gts = args[0], args[1]
        self.distinct_annotation_inputs.add(
            (tuple(d.mask for d in preds), tuple(gts)))

    def _before_run(self, args, kwargs):
        if "propagator" in kwargs:
            return args, dict(kwargs, propagator=self.wrap("tracker.propagate",
                                                           kwargs["propagator"]))
        args = list(args)
        args[1] = self.wrap("tracker.propagate", args[1])
        return tuple(args), kwargs

    def _after_step(self, args, kwargs, result):
        masklets = args[0].masklets
        self._max("tracker.active_masklets_max", len(masklets))
        self._max("tracker.retained_masks_max", sum(len(m.masks) for m in masklets.values()))

    def _max(self, key: str, value: float):
        self.count[key] = max(self.count.get(key, 0), value)

    def _after_load(self, args, kwargs, result):
        self._bump("io_schemas.read_bytes", os.path.getsize(args[0]))

    def _after_write(self, args, kwargs, result):
        self._bump("io_schemas.written_bytes", os.path.getsize(args[0]))

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())


def _resolve(path: str):
    parts = path.split(".")
    try:
        owner = importlib.import_module("phraseseg." + parts[0])
    except ImportError:
        return None, None
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, parts[-1]):
        return None, None
    return owner, parts[-1]


def self_times(name, parent, start, end, n_names: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-name (self seconds, calls).

    A span's self time is its duration minus the durations of its direct
    children; children never overlap each other and lie inside their parent,
    so this is exactly the part of the interval no child covers. A function
    that re-enters itself is charged once per level, never twice.
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - covered
    return (np.bincount(name, weights=own, minlength=n_names),
            np.bincount(name, minlength=n_names))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


PER_LAYER_UNITS: dict[str, str] = {
    "masks.self_s": "s",
    "masks.mask_iou.calls": "count",
    "masks.mask_iou.zero_frac": "ratio",
    "masks.mask_iou.px_scanned": "px",
    "masks.mask_iom.calls": "count",
    "masks.bbox_of.calls": "count",
    "masks.bbox_of.self_s": "s",
    "masks.rle_encode.calls": "count",
    "masks.rle_encode.self_s": "s",
    "masks.volume_iou.calls": "count",
    "masks.volume_iou.self_s": "s",
    "masks.rlemask_init.calls": "count",
    "masks.rlemask_init.self_s": "s",
    "matching.self_s": "s",
    "matching.optimal_match.calls": "count",
    "matching.optimal_match.self_s": "s",
    "matching.lsa.calls": "count",
    "matching.lsa_per_match": "ratio",
    "matching.iou_matrix.cells": "count",
    "matching.iom_nms.self_s": "s",
    "image_metrics.self_s": "s",
    "image_metrics.evaluate_annotation.calls": "count",
    "image_metrics.evaluate_annotation.distinct_frac": "ratio",
    "video_metrics.self_s": "s",
    "video_metrics.hota.self_s": "s",
    "video_metrics.video_cg_f1.self_s": "s",
    "tracker.self_s": "s",
    "tracker.step.self_s": "s",
    "tracker.propagate.calls": "count",
    "tracker.propagate.self_s": "s",
    "tracker.active_masklets_max": "count",
    "tracker.retained_masks_max": "count",
    "sim.gen_scenario.self_s": "s",
    "io_schemas.self_s": "s",
    "io_schemas.load.self_s": "s",
    "io_schemas.read_mb": "MB",
    "io_schemas.write.self_s": "s",
    "io_schemas.written_mb": "MB",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}

_LAYERS = ("masks", "matching", "image_metrics", "video_metrics", "tracker", "sim",
           "io_schemas")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose commands took ``wall_s``,
    except ``trace.overhead_frac``, which needs the untraced passes."""
    a = tracer.arrays()
    own, calls = self_times(a["name"], a["parent"], a["start"], a["end"], len(tracer.names))
    by_span = {n: (float(own[i]), int(calls[i])) for i, n in enumerate(tracer.names)}

    def self_s(prefix: str) -> float:
        return sum((s for n, (s, _) in by_span.items()
                    if n == prefix or n.startswith(prefix + ".")), 0.0)

    def n_calls(span: str) -> int:
        return by_span.get(span, (0.0, 0))[1]

    c = tracer.count
    out = {f"{layer}.self_s": self_s(layer) for layer in _LAYERS}
    for span in ("masks.mask_iou", "masks.mask_iom", "masks.bbox_of", "masks.rle_encode",
                 "masks.volume_iou", "masks.rlemask_init", "matching.optimal_match",
                 "matching.lsa", "image_metrics.evaluate_annotation", "tracker.propagate"):
        out[f"{span}.calls"] = n_calls(span)
    for span in ("masks.bbox_of", "masks.rle_encode", "masks.volume_iou",
                 "masks.rlemask_init", "matching.optimal_match", "matching.iom_nms",
                 "video_metrics.hota", "video_metrics.video_cg_f1", "tracker.step",
                 "tracker.propagate", "sim.gen_scenario", "io_schemas.load",
                 "io_schemas.write", "cli.main"):
        out[f"{span}.self_s"] = self_s(span)
    ann_calls = n_calls("image_metrics.evaluate_annotation")
    out.update({
        "masks.mask_iou.zero_frac": ratio(c.get("masks.mask_iou.zero", 0),
                                          n_calls("masks.mask_iou")),
        "masks.mask_iou.px_scanned": c.get("masks.mask_iou.px_scanned", 0),
        "matching.lsa_per_match": ratio(n_calls("matching.lsa"),
                                        n_calls("matching.optimal_match")),
        "matching.iou_matrix.cells": c.get("matching.iou_matrix.cells", 0),
        "image_metrics.evaluate_annotation.distinct_frac": ratio(
            len(tracer.distinct_annotation_inputs), ann_calls),
        "tracker.active_masklets_max": c.get("tracker.active_masklets_max", 0),
        "tracker.retained_masks_max": c.get("tracker.retained_masks_max", 0),
        "io_schemas.read_mb": c.get("io_schemas.read_bytes", 0) / 1e6,
        "io_schemas.written_mb": c.get("io_schemas.written_bytes", 0) / 1e6,
        "trace.coverage": ratio(float(own.sum()), wall_s),
    })
    return out
