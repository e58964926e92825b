"""The records the analysis commands read are slotted ``Value`` classes, not
dataclasses, so that no command loads ``dataclasses`` at start-up. These
cases hold each one to what ``@dataclass`` gave it."""

from __future__ import annotations

from fractions import Fraction

import pytest

from annoforge.dataset import DatasetRecord, LabelStats, OverlapResult
from annoforge.evaluation import EvalResult, GoldExample, Prediction
from annoforge.notation import (
    TEXT,
    TEXT_LIST,
    EntityClass,
    EntityInstance,
    FieldDef,
    InstanceSet,
    Schema,
)
from annoforge.validation import ErrorCode, ValidationError

# left out of equality and repr
IGNORED = {"span", "offsets", "source"}


def _film() -> EntityClass:
    return EntityClass("Film", "A movie.", [FieldDef("title", TEXT, "the title")])


def _instances() -> InstanceSet:
    return InstanceSet("d1", [EntityInstance("Film", {"title": "Up"})], (3, 25))


# class, a builder of every field in signature order with a sample value,
# and the defaults of the optional fields
CASES = [
    (FieldDef, lambda: {"name": "when", "kind": TEXT_LIST, "comment": "dates",
                        "required": False}, {"required": True}),
    (EntityClass, lambda: {"name": "Film", "guideline": "A movie.",
                           "fields": [FieldDef("title", TEXT, "the title")]}, {}),
    (Schema, lambda: {"classes": [_film()]}, {}),
    (EntityInstance, lambda: {"class_name": "Film", "assignments": {"title": "Up"}}, {}),
    (InstanceSet, lambda: {"doc_id": "d1", "instances": [EntityInstance("Film", {"title": "Up"})],
                           "span": (3, 25), "offsets": [0]}, {"span": None, "offsets": None}),
    (ValidationError, lambda: {"code": ErrorCode.UNGROUNDED_SPAN, "doc_id": "d1",
                               "instance_index": 0, "class_name": "Film", "field": "title",
                               "message": "not in the document"}, {}),
    (DatasetRecord, lambda: {"doc_id": "d1", "document": "Up is a film.", "summary": "A film.",
                             "structured": [{"label": "Film", "attributes": {}}],
                             "guidelines_text": "text", "schema": Schema([_film()]),
                             "instances": _instances(), "validation": {"kept_count": 1},
                             "meta": {"grounding": "exact"}, "source": [(None, "text")]},
     {"validation": {}, "meta": {}, "source": []}),
    (LabelStats, lambda: {"n_docs": 2, "unique_label_count": 1, "doc_frequency": {"Film": 2},
                          "annotation_frequency": {"Film": 3},
                          "avg_distinct_labels_per_doc": Fraction(1),
                          "avg_annotations_per_doc": Fraction(3, 2)}, {}),
    (OverlapResult, lambda: {"benchmark": "conll", "split": "test", "gold_label_count": 4,
                             "matched_count": 1, "coverage": Fraction(1, 4), "matched": ["PER"],
                             "unmatched": ["LOC", "MISC", "ORG"]}, {}),
    (GoldExample, lambda: {"example_id": "1", "text": "Up is a film.",
                           "mentions": [("Film", "Up")]}, {}),
    (Prediction, lambda: {"example_id": "1", "mentions": [("Film", "Up")]}, {}),
    (EvalResult, lambda: {"tp": 1, "fp": 0, "fn": 1, "precision": 1.0, "recall": 0.5,
                          "f1": 2 / 3, "breakdown": {"Film": EvalResult(1, 0, 1, 1.0, 0.5, 0.5)}},
     {"breakdown": {}}),
]


@pytest.mark.parametrize("cls, fields, defaults", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_class_contract(cls, fields, defaults):
    """Keyword and positional construction agree; equality is field by field,
    within one class, and ignores ``span``, ``offsets`` and ``source``, as
    ``repr`` does; instances are mutable and unhashable; each default is a
    fresh object."""
    record = cls(**fields())
    assert record == cls(*fields().values())
    shown = {name: value for name, value in fields().items() if name not in IGNORED}
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in shown.items())})"
    assert record != tuple(fields().values())
    assert record != tuple(shown.values())
    assert record != type("Subclass", (cls,), {"__slots__": ()})(**fields())
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    for name in fields():
        changed = cls(**fields())
        setattr(changed, name, object())
        assert (changed == record) is (name in IGNORED), name
    required = {name: value for name, value in fields().items() if name not in defaults}
    first, second = cls(**required), cls(**required)
    for name, default in defaults.items():
        assert getattr(first, name) == default
        if isinstance(default, (dict, list)):
            assert getattr(first, name) is not getattr(second, name), name
