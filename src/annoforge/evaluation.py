"""Span-level scoring of zero-shot NER predictions.

The matching unit is a (label, span text) pair without character offsets,
under multiset semantics: within one example, each gold mention can satisfy
at most one predicted mention. ``score`` counts this in one pass per
example: it counts the gold keys, lets each prediction use up one count
(a true positive) or else count as a false positive, and takes the counts
left over as false negatives. ``exact`` matching compares surface strings
verbatim and is the default for reported numbers; ``normalized`` folds case
and collapses whitespace in the span text (labels always compare exactly).
``score_benchmarks`` scores each suite as an iterable yields it, so ``eval``
holds one suite's examples at a time.

Unparseable model outputs score as empty predictions rather than aborting,
so evaluation stays total over a benchmark. A line that is not a well-formed
gold example or prediction (bad JSON, no ``id``, a mention without ``label``
or ``span``, an ``output`` that is not a string) raises ``ValueError``
naming the file and line. All 0/0 ratios are defined as 0.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .notation import TEXT, InstanceSet, ParseError, Schema, parse_instances
from .validation import normalize_span

MATCHING_MODES = ("exact", "normalized")

Mention = tuple[str, str]  # (label, span text)


@dataclass
class GoldExample:
    example_id: str
    text: str
    mentions: list[Mention]


@dataclass
class Prediction:
    example_id: str
    mentions: list[Mention]


@dataclass
class EvalResult:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    breakdown: dict[str, EvalResult] = field(default_factory=dict)

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int,
                    breakdown: dict[str, EvalResult] | None = None) -> EvalResult:
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        return cls(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall,
                   f1=f1, breakdown=breakdown or {})

    def to_dict(self) -> dict:
        out = {"tp": self.tp, "fp": self.fp, "fn": self.fn,
               "precision": self.precision, "recall": self.recall, "f1": self.f1}
        if self.breakdown:
            out["breakdown"] = {k: v.to_dict() for k, v in self.breakdown.items()}
        return out


@dataclass
class BenchmarkReport:
    per_dataset: dict[str, EvalResult]
    macro_f1: float


def score(golds: list[GoldExample], preds: list[Prediction],
          matching: str = "exact") -> EvalResult:
    """Micro P/R/F1 over all examples, with a per-label breakdown.

    Predictions for unknown example ids are an error; gold examples with no
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
    pred_by_id: dict[str, Prediction] = {}
    for p in preds:
        if p.example_id in pred_by_id:
            raise ValueError(f"duplicate example_id {p.example_id!r} in predictions")
        if p.example_id not in gold_by_id:
            raise ValueError(f"prediction for unknown example_id {p.example_id!r}")
        pred_by_id[p.example_id] = p

    canon = normalize_span if matching == "normalized" else (lambda span: span)
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    fn: dict[str, int] = {}
    for eid, gold in gold_by_id.items():
        unmatched: dict[Mention, int] = {}
        for label, span in gold.mentions:
            key = (label, canon(span))
            unmatched[key] = unmatched.get(key, 0) + 1
        pred = pred_by_id.get(eid)
        for label, span in (pred.mentions if pred else ()):
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


def score_benchmarks(suites: Iterable[tuple[str, tuple[list[GoldExample], list[Prediction]]]],
                     matching: str = "exact") -> BenchmarkReport:
    """Score each ``(name, (golds, preds))`` suite as it arrives; macro-average the F1."""
    per_dataset = {}
    for name, (golds, preds) in suites:
        per_dataset[name] = score(golds, preds, matching=matching)
        del golds, preds  # let this suite go before the next is drawn
    if not per_dataset:
        raise ValueError("no suites to score")
    macro = macro_average([r.f1 for r in per_dataset.values()])
    return BenchmarkReport(per_dataset=per_dataset, macro_f1=macro)


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


_CORRUPT = (ValueError, KeyError, TypeError, AttributeError)


def _lines(path: str | Path):
    """(line number, line) for each non-blank line of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def _mentions(record: dict) -> list[Mention]:
    return [(m["label"], m["span"]) for m in record.get("mentions", [])]


def load_gold(path: str | Path) -> list[GoldExample]:
    """Read a gold JSONL file: one {id, text, mentions: [{label, span}]} per line."""
    examples = []
    for lineno, line in _lines(path):
        try:
            record = json.loads(line)
            example = GoldExample(example_id=str(record["id"]),
                                  text=record.get("text", ""),
                                  mentions=_mentions(record))
        except _CORRUPT as exc:
            raise ValueError(f"{path}:{lineno}: corrupt gold example ({exc})") from exc
        for label, span in example.mentions:
            if not span:
                raise ValueError(f"{path}:{lineno}: empty span for label {label!r}")
        examples.append(example)
    return examples


def load_predictions(path: str | Path, schema: Schema | None = None) -> list[Prediction]:
    """Read a prediction JSONL file.

    Each line carries either ``output`` (raw model text, parsed as instance
    notation; a parse failure yields an empty mention set) or a pre-parsed
    ``mentions`` list in the gold format.
    """
    preds = []
    for lineno, line in _lines(path):
        try:
            record = json.loads(line)
            eid = str(record["id"])
            if "mentions" in record:
                mentions = _mentions(record)
            else:
                output = record["output"]
                if not isinstance(output, str):
                    raise TypeError(f"output is {type(output).__name__}, not a string")
                try:
                    iset = parse_instances(output, doc_id=eid)
                except ParseError:
                    mentions = []
                else:
                    mentions = mentions_from_instances(iset, schema)
        except _CORRUPT as exc:
            raise ValueError(f"{path}:{lineno}: corrupt prediction ({exc})") from exc
        preds.append(Prediction(example_id=eid, mentions=mentions))
    return preds


def format_table(rows: list[tuple[str, EvalResult]], macro: float | None = None) -> str:
    """Plain-text results table; scores shown as percentages."""
    width = max([len(name) for name, _ in rows] + [len("macro avg")])
    lines = [f"{'':{width}}  {'P':>7} {'R':>7} {'F1':>7}"]
    for name, r in rows:
        lines.append(f"{name:{width}}  {100 * r.precision:7.2f} "
                     f"{100 * r.recall:7.2f} {100 * r.f1:7.2f}")
    if macro is not None:
        lines.append(f"{'macro avg':{width}}  {'':7} {'':7} {100 * macro:7.2f}")
    return "\n".join(lines)
