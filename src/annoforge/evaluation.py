"""Span-level scoring of zero-shot NER predictions.

The matching unit is a (label, span text) pair without character offsets,
under multiset semantics: within one example, each gold mention can satisfy
at most one predicted mention. ``score`` keys the gold examples by id, then
reads the predictions once, as they arrive: it counts the prediction's gold
keys, lets each predicted mention use up one count (a true positive) or else
count as a false positive, and takes the counts left over as false
negatives. ``exact`` matching compares surface strings verbatim and is the
default for reported numbers; ``normalized`` folds case and collapses
whitespace in the span text (labels always compare exactly).
``load_predictions`` yields one prediction per line, and ``eval`` scores each
suite as it reads it, so it holds one suite's gold examples and one
prediction at a time.

Unparseable model outputs score as empty predictions rather than aborting,
so evaluation stays total over a benchmark. A line that is not a well-formed
gold example or prediction (bad JSON, no ``id``, a mention without ``label``
or ``span``, a label, span or ``output`` that is not a string) raises
``ValueError`` naming the file and line. A prediction file is checked as it
is scored: a corrupt line, a duplicate id or an unknown id raises when the
stream reaches it, so of several such faults the earliest in the file is
reported. All 0/0 ratios are defined as 0.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import Value, jsonl
from .notation import TEXT, InstanceSet, ParseError, Schema, parse_instances
from .validation import MATCHING_MODES, normalize_span

Mention = tuple[str, str]  # (label, span text)


class GoldExample(Value):
    __slots__ = _fields = ("example_id", "text", "mentions")

    def __init__(self, example_id: str, text: str, mentions: list[Mention]) -> None:
        self.example_id = example_id
        self.text = text
        self.mentions = mentions


class Prediction(Value):
    __slots__ = _fields = ("example_id", "mentions")

    def __init__(self, example_id: str, mentions: list[Mention]) -> None:
        self.example_id = example_id
        self.mentions = mentions


class EvalResult(Value):
    __slots__ = _fields = ("tp", "fp", "fn", "precision", "recall", "f1", "breakdown")

    def __init__(self, tp: int, fp: int, fn: int, precision: float, recall: float, f1: float,
                 breakdown: dict[str, EvalResult] | None = None) -> None:
        self.tp = tp
        self.fp = fp
        self.fn = fn
        self.precision = precision
        self.recall = recall
        self.f1 = f1
        self.breakdown = {} if breakdown is None else breakdown

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int,
                    breakdown: dict[str, EvalResult] | None = None) -> EvalResult:
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        return cls(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall,
                   f1=f1, breakdown=breakdown)

    def to_dict(self) -> dict:
        out = {"tp": self.tp, "fp": self.fp, "fn": self.fn,
               "precision": self.precision, "recall": self.recall, "f1": self.f1}
        if self.breakdown:
            out["breakdown"] = {k: v.to_dict() for k, v in self.breakdown.items()}
        return out


def score(golds: Iterable[GoldExample], preds: Iterable[Prediction],
          matching: str = "exact") -> EvalResult:
    """Micro P/R/F1 over all examples, with a per-label breakdown.

    ``golds`` is read whole and keyed by id; ``preds`` is read once, one
    prediction at a time, so a generator over a prediction file is scored
    while it is read and only the current prediction is held. A duplicate
    gold id raises before any prediction is drawn; a duplicate or unknown
    prediction id raises when the stream reaches it. Gold examples with no
    prediction are scored against an empty mention set. Within an example,
    each predicted mention takes one unmatched gold mention with the same
    (label, span) key if one is left (a tp) and is otherwise an fp; the gold
    mentions left over are fns. The breakdown holds exactly the labels with
    a nonzero tp, fp or fn.
    """
    if matching not in MATCHING_MODES:
        raise ValueError(f"unknown matching mode {matching!r}")
    gold_by_id: dict[str, GoldExample] = {}
    for g in golds:
        if g.example_id in gold_by_id:
            raise ValueError(f"duplicate example_id {g.example_id!r} in golds")
        gold_by_id[g.example_id] = g

    canon = normalize_span if matching == "normalized" else (lambda span: span)
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    fn: dict[str, int] = {}
    predicted: set[str] = set()
    for pred in preds:
        eid = pred.example_id
        if eid in predicted:
            raise ValueError(f"duplicate example_id {eid!r} in predictions")
        gold = gold_by_id.get(eid)
        if gold is None:
            raise ValueError(f"prediction for unknown example_id {eid!r}")
        predicted.add(eid)
        unmatched: dict[Mention, int] = {}
        for label, span in gold.mentions:
            key = (label, canon(span))
            unmatched[key] = unmatched.get(key, 0) + 1
        for label, span in pred.mentions:
            key = (label, canon(span))
            left = unmatched.get(key)
            if left:
                unmatched[key] = left - 1
                tp[label] = tp.get(label, 0) + 1
            else:
                fp[label] = fp.get(label, 0) + 1
        for (label, _), left in unmatched.items():
            if left:
                fn[label] = fn.get(label, 0) + left
    for eid, gold in gold_by_id.items():
        if eid not in predicted:
            for label, _ in gold.mentions:
                fn[label] = fn.get(label, 0) + 1

    breakdown = {label: EvalResult.from_counts(tp.get(label, 0), fp.get(label, 0),
                                               fn.get(label, 0))
                 for label in sorted(tp.keys() | fp.keys() | fn.keys())}
    return EvalResult.from_counts(sum(tp.values()), sum(fp.values()),
                                  sum(fn.values()), breakdown)


def macro_average(values: list[float]) -> float:
    """Unweighted mean; this is how per-dataset scores aggregate."""
    values = list(values)
    if not values:
        raise ValueError("macro average of no values")
    return sum(values) / len(values)


def mentions_from_instances(instance_set: InstanceSet,
                            schema: Schema | None = None) -> list[Mention]:
    """Flatten instances to (label, span) mentions.

    The span comes from the instance's mention field: the first declared text
    field of the class, else the class's first field, else (for a class the
    schema does not declare) the instance's first assignment. List values
    yield one mention per element.
    """
    classes = schema.class_map() if schema is not None else {}
    mentions: list[Mention] = []
    for inst in instance_set.instances:
        cls = classes.get(inst.class_name)
        if cls is not None:
            fname = next((f.name for f in cls.fields if f.kind == TEXT),
                         cls.fields[0].name)
        else:
            fname = next(iter(inst.assignments), None)
        value = inst.assignments.get(fname)
        if value is None:
            continue
        spans = value if isinstance(value, list) else [value]
        mentions.extend((inst.class_name, span) for span in spans)
    return mentions


def _mentions(record: dict) -> list[Mention]:
    mentions = [(m["label"], m["span"]) for m in record.get("mentions", [])]
    for label, span in mentions:
        if not (isinstance(label, str) and isinstance(span, str)):
            name, value = ("span", span) if isinstance(label, str) else ("label", label)
            raise TypeError(f"mention {name} is {type(value).__name__}, not a string")
    return mentions


def _gold_example(line: str) -> GoldExample:
    record = json.loads(line)
    return GoldExample(example_id=str(record["id"]), text=record.get("text", ""),
                       mentions=_mentions(record))


def load_gold(path: str | Path) -> list[GoldExample]:
    """Read a gold JSONL file: one {id, text, mentions: [{label, span}]} per line.

    A blank span, which normalizes to the empty span, raises ``ValueError``
    naming the file and line."""
    examples = []
    for lineno, example in jsonl.read(path, "corrupt gold example", _gold_example):
        for label, span in example.mentions:
            if not span.strip():
                raise ValueError(f"{path}:{lineno}: empty span for label {label!r}")
        examples.append(example)
    return examples


def load_predictions(path: str | Path, schema: Schema | None = None) -> Iterator[Prediction]:
    """Yield each prediction of a JSONL file as its line is read.

    Each line carries either ``output`` (raw model text, parsed as instance
    notation; a parse failure yields an empty mention set) or a pre-parsed
    ``mentions`` list in the gold format. A corrupt line raises when it is
    reached, after the predictions before it were yielded.
    """
    def prediction(line: str) -> Prediction:
        record = json.loads(line)
        eid = str(record["id"])
        if "mentions" in record:
            return Prediction(example_id=eid, mentions=_mentions(record))
        output = record["output"]
        if not isinstance(output, str):
            raise TypeError(f"output is {type(output).__name__}, not a string")
        try:
            iset = parse_instances(output, doc_id=eid)
        except ParseError:
            return Prediction(example_id=eid, mentions=[])
        return Prediction(example_id=eid, mentions=mentions_from_instances(iset, schema))

    return (pred for _, pred in jsonl.read(path, "corrupt prediction", prediction))


def format_table(rows: list[tuple[str, EvalResult]], macro: float) -> str:
    """Plain-text results table; scores shown as percentages."""
    width = max([len(name) for name, _ in rows] + [len("macro avg")])
    lines = [f"{'':{width}}  {'P':>7} {'R':>7} {'F1':>7}"]
    for name, r in rows:
        lines.append(f"{name:{width}}  {100 * r.precision:7.2f} "
                     f"{100 * r.recall:7.2f} {100 * r.f1:7.2f}")
    lines.append(f"{'macro avg':{width}}  {'':7} {'':7} {100 * macro:7.2f}")
    return "\n".join(lines)
