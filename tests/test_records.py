"""Record semantics of every public class: equality by value, hashing and no
assignment for the immutable records, validating constructors, and pickle and
copy round trips."""

from __future__ import annotations

import copy
import inspect
import pickle
import re

import pytest

import phraseseg
from phraseseg import (
    BBox,
    DataPoint,
    Detection,
    FrameMaskSeq,
    GtInstance,
    HotaResult,
    ILCounts,
    Masklet,
    Matching,
    MetricReport,
    PromptEvent,
    RleMask,
    ScenarioConfig,
    Tracker,
    TrackerConfig,
    TrackResult,
    UndefinedMetricError,
    ValidationError,
    cg_f1,
    random_pair,
)

MASK = RleMask(2, 2, (1, 2, 1))
SEQ = FrameMaskSeq(2, 2, {0: MASK, 3: RleMask.full(2, 2)})


def _datapoint():
    return DataPoint("m", "cat", ((GtInstance(MASK),),), (Detection(MASK, 0.9),))


# Each public record and a function that builds one, a new object per call.
RECORDS = {
    BBox: lambda: BBox(1, 2, 3, 4),
    DataPoint: _datapoint,
    Detection: lambda: Detection(MASK, 0.5, True),
    FrameMaskSeq: lambda: FrameMaskSeq(2, 2, {0: MASK, 3: RleMask.full(2, 2)}),
    GtInstance: lambda: GtInstance(SEQ),
    HotaResult: lambda: HotaResult(0.5, 0.25, 1.0, ()),
    ILCounts: lambda: ILCounts(1, 2, 3, 4),
    Masklet: lambda: Masklet(3, 1, {1: MASK}, {1: 0.9}, {2}, -1, {0: 2}),
    Matching: lambda: Matching(((0, 1, 0.5), (2, 0, 1.0))),
    MetricReport: lambda: cg_f1([_datapoint()]),
    PromptEvent: lambda: PromptEvent("negative", BBox(0, 0, 1, 1), 2),
    RleMask: lambda: RleMask(2, 2, (1, 0, 0, 2, 1)),
    ScenarioConfig: lambda: ScenarioConfig(frames=4, occlusions=((0, 1, 2),)),
    TrackerConfig: lambda: TrackerConfig(confirmation_window=3),
    TrackResult: lambda: TrackResult(2, 2, {0: {0: MASK, 1: None}}),
}
NOT_RECORDS = {Tracker, UndefinedMetricError, ValidationError}
# Masklet is the tracker's per-identity state and is updated in place.
MUTABLE = {Masklet}
# Records that hold a dict are immutable but, like a tuple of dicts, unhashable.
UNHASHABLE = MUTABLE | {TrackResult}


def _by_name(classes):
    return sorted(classes, key=lambda c: c.__name__)


def _ids(classes):
    return [c.__name__ for c in classes]


ALL = _by_name(RECORDS)
IMMUTABLE = _by_name(set(RECORDS) - MUTABLE)
HASHABLE = _by_name(set(RECORDS) - UNHASHABLE)


def test_every_public_class_is_covered():
    public = {obj for obj in map(phraseseg.__dict__.get, phraseseg.__all__)
              if inspect.isclass(obj)}
    assert public == set(RECORDS) | NOT_RECORDS


@pytest.mark.parametrize("cls", ALL, ids=_ids(ALL))
def test_equal_records_compare_equal(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert a is not b and type(a) is cls
    assert a == b and not a != b


@pytest.mark.parametrize("cls", ALL, ids=_ids(ALL))
def test_constructor_takes_every_field_by_keyword(cls):
    a = RECORDS[cls]()
    assert cls(**{name: getattr(a, name) for name in a._fields}) == a


@pytest.mark.parametrize("cls", HASHABLE, ids=_ids(HASHABLE))
def test_equal_frozen_records_hash_equal(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", _by_name(UNHASHABLE), ids=_ids(_by_name(UNHASHABLE)))
def test_records_holding_mutable_state_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(RECORDS[cls]())


@pytest.mark.parametrize("cls", IMMUTABLE, ids=_ids(IMMUTABLE))
def test_assigning_to_an_immutable_record_raises(cls):
    a = RECORDS[cls]()
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == RECORDS[cls]()


def test_masklet_state_is_assignable():
    m = RECORDS[Masklet]()
    m.lifetime_mds += 2
    m.zeroed = set()
    assert (m.lifetime_mds, m.zeroed) == (1, set())
    assert m != RECORDS[Masklet]()


def _occlusion_out_of_range():
    ScenarioConfig(frames=4, occlusions=((0, 2, 4),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RleMask(2, 2, (1, 2)), "run lengths sum to 3, expected 4"),
        (lambda: RleMask(0, 2, ()), "mask grid must be non-empty, got 0x2"),
        (lambda: RleMask(2, 2, (1, -1, 4)), "run lengths must be non-negative integers"),
        (lambda: RleMask(2, 2, ()), "counts must contain at least one run"),
        (lambda: BBox(0, 0, -1, 2), "box extent must be non-negative"),
        (lambda: FrameMaskSeq(2, 2, {-1: MASK}), "frame index must be a non-negative int, got -1"),
        (lambda: FrameMaskSeq(2, 2, {0: "m"}), "frame 0 must be an RleMask, got str"),
        (lambda: FrameMaskSeq(3, 2, {0: MASK}), "frame 0 mask is 2x2, sequence grid is 3x2"),
        (lambda: Detection(MASK, 1.5), "detection score must be in [0, 1], got 1.5"),
        (lambda: Matching(((1, 0, 0.5), (0, 1, 0.5))),
         "matching must be injective with ascending prediction order"),
        (lambda: Matching(((0, 0, 0.0),)), "matched pairs must have IoU in (0, 1]"),
        (lambda: DataPoint("m", "cat", ()), "datapoint m/cat has no annotation"),
        (lambda: DataPoint("m", "cat", ((GtInstance(MASK), GtInstance(SEQ)),)),
         "datapoint m/cat mixes image masks and masklets"),
        (lambda: DataPoint("m", "cat", ((GtInstance(MASK),),),
                           (Detection(RleMask.full(1, 1), 1.0),)),
         "datapoint m/cat mixes grids: [(1, 1), (2, 2)]"),
        (lambda: PromptEvent("maybe", BBox(0, 0, 1, 1), 0), "unknown prompt kind 'maybe'"),
        (lambda: PromptEvent("positive", BBox(0, 0, 1, 1), 5),
         "iteration 5 outside the prompt budget"),
        (lambda: TrackerConfig(confirmation_window=0), "confirmation window must be >= 1"),
        (lambda: TrackerConfig(reprompt_period=0), "re-prompt period must be >= 1"),
        (lambda: TrackerConfig(15, 0, 1.5), "match_iou must be in [0, 1], got 1.5"),
        (lambda: ScenarioConfig(frames=0), "frame count must be >= 1"),
        (lambda: ScenarioConfig(max_size=80), "objects must fit inside the grid"),
        (lambda: ScenarioConfig(seed=-1), "seed must be >= 0"),
        (lambda: ScenarioConfig(objects=-1), "object count must be >= 0"),
        (lambda: ScenarioConfig(distractor_prob=1.5), "distractor probability must be in [0, 1]"),
        (lambda: ScenarioConfig(waypoints=1), "need at least 2 trajectory waypoints"),
        (lambda: cg_f1([_datapoint()], mode="x"), "unknown aggregation mode 'x'"),
        (lambda: random_pair([_datapoint()], trials=0), "trials must be >= 1"),
        (_occlusion_out_of_range, "invalid occlusion window (0, 2, 4)"),
    ],
)
def test_validating_constructor_keeps_its_message(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("cls", [BBox, Detection, FrameMaskSeq, RleMask],
                         ids=["BBox", "Detection", "FrameMaskSeq", "RleMask"])
def test_pickle_and_copy_round_trip(cls):
    record = RECORDS[cls]()
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls
        assert clone == record and hash(clone) == hash(record)


@pytest.mark.parametrize("cls", [FrameMaskSeq, Masklet, RleMask],
                         ids=["FrameMaskSeq", "Masklet", "RleMask"])
def test_repr_rebuilds_the_record(cls):
    record = RECORDS[cls]()
    assert eval(repr(record), vars(phraseseg)) == record
    assert record != object()


def test_validation_error_takes_one_message():
    assert ValidationError("one").errors == ["one"]


def test_configs_replace_fields_through_asdict():
    cfg = ScenarioConfig(frames=4)
    assert ScenarioConfig(**{**cfg._asdict(), "seed": 7}) == ScenarioConfig(frames=4, seed=7)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ScenarioConfig(**{**cfg._asdict(), "seed": -1})
