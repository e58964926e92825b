"""Span-level scoring of zero-shot NER predictions.

The matching unit is a (label, span text) pair without character offsets,
under multiset semantics: within one example, each gold mention can satisfy
at most one predicted mention. ``exact`` matching compares surface strings
verbatim and is the default for reported numbers; ``normalized`` folds case
and collapses whitespace in the span text (labels always compare exactly).

Unparseable model outputs score as empty predictions rather than aborting,
so evaluation stays total over a benchmark. All 0/0 ratios are defined as 0.
"""

from __future__ import annotations

import json
from collections import Counter
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


def _canon(span: str, matching: str) -> str:
    return span if matching == "exact" else normalize_span(span)


def score(golds: list[GoldExample], preds: list[Prediction],
          matching: str = "exact") -> EvalResult:
    """Micro P/R/F1 over all examples, with a per-label breakdown.

    Predictions for unknown example ids are an error; gold examples with no
    prediction are scored against an empty mention set.
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

    tp: Counter[str] = Counter()
    fp: Counter[str] = Counter()
    fn: Counter[str] = Counter()
    for eid, gold in gold_by_id.items():
        gold_counts = Counter((lab, _canon(span, matching)) for lab, span in gold.mentions)
        pred = pred_by_id.get(eid)
        pred_counts = Counter((lab, _canon(span, matching))
                              for lab, span in (pred.mentions if pred else []))
        # equality matching decomposes per key: matched = min of the two counts
        for key in gold_counts | pred_counts:
            label = key[0]
            matched = min(gold_counts[key], pred_counts[key])
            tp[label] += matched
            fp[label] += pred_counts[key] - matched
            fn[label] += gold_counts[key] - matched

    breakdown = {label: EvalResult.from_counts(tp[label], fp[label], fn[label])
                 for label in sorted(tp | fp | fn)}
    return EvalResult.from_counts(sum(tp.values()), sum(fp.values()),
                                  sum(fn.values()), breakdown)


def macro_average(values: list[float]) -> float:
    """Unweighted mean; this is how per-dataset scores aggregate."""
    values = list(values)
    if not values:
        raise ValueError("macro average of no values")
    return sum(values) / len(values)


def score_benchmarks(suites: dict[str, tuple[list[GoldExample], list[Prediction]]],
                     matching: str = "exact") -> BenchmarkReport:
    """Score each named suite and macro-average the per-dataset F1."""
    if not suites:
        raise ValueError("no suites to score")
    per_dataset = {name: score(golds, preds, matching=matching)
                   for name, (golds, preds) in suites.items()}
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


def load_gold(path: str | Path) -> list[GoldExample]:
    """Read a gold JSONL file: one {id, text, mentions: [{label, span}]} per line."""
    examples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            record = json.loads(line)
            mentions = []
            for m in record.get("mentions", []):
                label, span = m["label"], m["span"]
                if not span:
                    raise ValueError(f"{path}:{lineno}: empty span for label {label!r}")
                mentions.append((label, span))
            examples.append(GoldExample(example_id=str(record["id"]),
                                        text=record.get("text", ""),
                                        mentions=mentions))
    return examples


def load_predictions(path: str | Path, schema: Schema | None = None) -> list[Prediction]:
    """Read a prediction JSONL file.

    Each line carries either ``output`` (raw model text, parsed as instance
    notation; a parse failure yields an empty mention set) or a pre-parsed
    ``mentions`` list in the gold format.
    """
    preds = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            eid = str(record["id"])
            if "mentions" in record:
                mentions = [(m["label"], m["span"]) for m in record["mentions"]]
            else:
                try:
                    iset = parse_instances(record["output"], doc_id=eid)
                except ParseError:
                    mentions = []
                else:
                    mentions = mentions_from_instances(iset, schema)
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
