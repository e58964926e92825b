"""Persistence and descriptive analysis of the generated dataset.

A dataset is a JSONL file: a header line carrying the format version, then
one record per line. Records hold every stage output for one document plus
the validation verdicts, so a dataset is auditable and the training emitter
can re-check instances before writing supervised examples. Reading a
dataset parses every record's instance notation; the ``schema`` text is
parsed only for callers that read it (``read_dataset(path, schema=False)``
leaves ``DatasetRecord.schema`` as ``None``).

Label statistics use exact rational arithmetic internally and round only
when formatted. Overlap analysis compares dataset labels against benchmark
label spaces verbatim after trimming whitespace (case folding is opt-in).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .notation import (
    InstanceSet,
    Schema,
    parse_guidelines,
    parse_instances,
    print_guidelines,
    print_instances,
)
from .validation import validate

log = logging.getLogger(__name__)

FORMAT_NAME = "annoforge-dataset"
FORMAT_VERSION = 1


@dataclass
class DatasetRecord:
    """Everything produced for one document, post-validation."""

    doc_id: str
    document: str
    summary: str
    structured: list[dict]  # [{"label": ..., "attributes": {...}}, ...]
    guidelines_text: str  # the raw model output, verbatim
    schema: Schema | None  # None when read with schema=False
    instances: InstanceSet  # survivors of validation filtering
    validation: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def record_to_dict(record: DatasetRecord) -> dict:
    return {
        "doc_id": record.doc_id,
        "document": record.document,
        "summary": record.summary,
        "structured": record.structured,
        "guidelines": record.guidelines_text,
        "schema": print_guidelines(record.schema),
        "instances": print_instances(record.instances),
        "validation": record.validation,
        "meta": record.meta,
    }


def record_from_dict(data: dict, *, schema: bool = True) -> DatasetRecord:
    doc_id = data["doc_id"]
    return DatasetRecord(
        doc_id=doc_id,
        document=data["document"],
        summary=data["summary"],
        # raises KeyError or TypeError on an entry that is not a labelled object
        structured=[{"label": e["label"], "attributes": e["attributes"]}
                    for e in data["structured"]],
        guidelines_text=data["guidelines"],
        schema=parse_guidelines(data["schema"]) if schema else None,
        instances=parse_instances(data["instances"], doc_id=doc_id),
        validation=data.get("validation", {}),
        meta=data.get("meta", {}),
    )


def _header_line() -> str:
    return json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION},
                      sort_keys=True)


def _record_line(record: DatasetRecord) -> str:
    return json.dumps(record_to_dict(record), sort_keys=True, ensure_ascii=False)


def write_dataset(records: list[DatasetRecord], path: str | Path) -> None:
    """Write a whole dataset file, header first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header_line() + "\n")
        for record in records:
            fh.write(_record_line(record) + "\n")


def append_records(records: list[DatasetRecord], path: str | Path) -> None:
    """Append records to an existing dataset file (created if missing)."""
    path = Path(path)
    if not path.exists():
        write_dataset(records, path)
        return
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(_record_line(record) + "\n")


def read_dataset(path: str | Path, *, schema: bool = True) -> list[DatasetRecord]:
    """Read a dataset file back into records.

    With ``schema=False`` the ``schema`` text is not parsed, so a record
    whose schema is corrupt reads without error and its ``schema`` is
    ``None``. A corrupt record line or a bad header raises ``ValueError``
    naming the file.
    """
    path = Path(path)
    records = []
    with open(path, encoding="utf-8") as fh:
        header_seen = False
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not header_seen:
                header = _parse_header(line, path, lineno)
                if header["format"] != FORMAT_NAME:
                    raise ValueError(f"{path}: not a {FORMAT_NAME} file")
                version = header.get("version")
                if version != FORMAT_VERSION:
                    raise ValueError(f"{path}: unsupported dataset version {version}")
                header_seen = True
                continue
            try:
                records.append(record_from_dict(json.loads(line), schema=schema))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: corrupt record ({exc})") from exc
        if not header_seen:
            raise ValueError(f"{path}: missing dataset header")
    return records


def _parse_header(line: str, path: Path, lineno: int) -> dict:
    try:
        header = json.loads(line)
        if not isinstance(header, dict) or "format" not in header:
            raise ValueError("no format field")
        return header
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: missing dataset header ({exc})") from exc


@dataclass
class LabelStats:
    """Label usage summary; averages stay exact until formatted."""

    n_docs: int
    unique_label_count: int
    doc_frequency: dict[str, int]         # docs with >= 1 instance of the label
    annotation_frequency: dict[str, int]  # total instances of the label
    avg_distinct_labels_per_doc: Fraction
    avg_annotations_per_doc: Fraction

    def top(self, k: int) -> list[tuple[str, int]]:
        ranked = sorted(self.annotation_frequency.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def bottom(self, k: int) -> list[tuple[str, int]]:
        ranked = sorted(self.annotation_frequency.items(),
                        key=lambda kv: (kv[1], kv[0]))
        return ranked[:k]

    def to_dict(self, k: int = 10) -> dict:
        return {
            "n_docs": self.n_docs,
            "unique_labels": self.unique_label_count,
            "avg_distinct_labels_per_doc": round(float(self.avg_distinct_labels_per_doc), 2),
            "avg_annotations_per_doc": round(float(self.avg_annotations_per_doc), 2),
            "top": [{"label": label, "count": count} for label, count in self.top(k)],
            "bottom": [{"label": label, "count": count} for label, count in self.bottom(k)],
        }


def compute_stats(records: list[DatasetRecord]) -> LabelStats:
    """Count labels over instances (classes merely declared do not count)."""
    doc_freq: dict[str, int] = {}
    ann_freq: dict[str, int] = {}
    distinct_total = 0
    annotation_total = 0
    for record in records:
        labels = [inst.class_name for inst in record.instances.instances]
        annotation_total += len(labels)
        used = sorted(set(labels))
        distinct_total += len(used)
        for label in used:
            doc_freq[label] = doc_freq.get(label, 0) + 1
        for label in labels:
            ann_freq[label] = ann_freq.get(label, 0) + 1
    n = len(records)
    return LabelStats(
        n_docs=n,
        unique_label_count=len(ann_freq),
        doc_frequency=doc_freq,
        annotation_frequency=ann_freq,
        avg_distinct_labels_per_doc=Fraction(distinct_total, n) if n else Fraction(0),
        avg_annotations_per_doc=Fraction(annotation_total, n) if n else Fraction(0),
    )


@dataclass
class OverlapResult:
    benchmark: str
    split: str
    gold_label_count: int
    matched_count: int
    coverage: Fraction
    matched: list[str]
    unmatched: list[str]


AGGREGATE = "aggregate"


def compute_overlap(dataset_labels: set[str],
                    benchmark_labelspaces: dict[str, dict[str, set[str]]],
                    case_insensitive: bool = False) -> list[OverlapResult]:
    """Coverage of each benchmark label space by the dataset's labels.

    Emits one row per (benchmark, split) plus, per split, an aggregate row
    over the union of that split's gold labels across all benchmarks.
    """
    if not dataset_labels:
        raise ValueError("dataset label set is empty")

    def canon(label: str) -> str:
        label = label.strip()
        return label.casefold() if case_insensitive else label

    have = {canon(label) for label in dataset_labels}

    def row(benchmark: str, split: str, gold: set[str]) -> OverlapResult:
        if not gold:
            raise ValueError(f"empty label space for {benchmark}.{split}")
        trimmed = sorted({g.strip() for g in gold})
        matched = [g for g in trimmed if canon(g) in have]
        unmatched = [g for g in trimmed if canon(g) not in have]
        return OverlapResult(
            benchmark=benchmark, split=split,
            gold_label_count=len(trimmed), matched_count=len(matched),
            coverage=Fraction(len(matched), len(trimmed)),
            matched=matched, unmatched=unmatched)

    results = []
    union_by_split: dict[str, set[str]] = {}
    for benchmark, splits in benchmark_labelspaces.items():
        for split in sorted(splits):
            results.append(row(benchmark, split, splits[split]))
            union_by_split.setdefault(split, set()).update(splits[split])
    for split in sorted(union_by_split):
        results.append(row(AGGREGATE, split, union_by_split[split]))
    return results


def load_labelspace(path: str | Path) -> set[str]:
    """One label per line; blank lines ignored."""
    labels = {line.strip() for line in
              Path(path).read_text(encoding="utf-8").splitlines() if line.strip()}
    if not labels:
        raise ValueError(f"{path}: empty label space")
    return labels


def load_labelspaces(directory: str | Path) -> dict[str, dict[str, set[str]]]:
    """Read ``<benchmark>.<split>.txt`` files from a directory."""
    spaces: dict[str, dict[str, set[str]]] = {}
    for file in sorted(Path(directory).glob("*.txt")):
        parts = file.name.split(".")
        if len(parts) != 3:
            raise ValueError(f"unknown benchmark file format: {file.name} "
                             "(expected <benchmark>.<split>.txt)")
        benchmark, split = parts[0], parts[1]
        spaces.setdefault(benchmark, {})[split] = load_labelspace(file)
    return spaces


def dataset_labels(records: list[DatasetRecord]) -> set[str]:
    """All class names with at least one surviving instance."""
    return {inst.class_name for record in records
            for inst in record.instances.instances}


def emit_training_examples(records: list[DatasetRecord], path: str | Path) -> int:
    """Write supervised examples: guidelines + document in, instance list out.

    Each record is re-validated first; a record that no longer passes is
    skipped with a warning rather than poisoning the training file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            errors = validate(record.instances, record.schema, record.document,
                              grounding=record.meta.get("grounding", "normalized"))
            if errors:
                log.warning("skipping %s: %d validation errors at emit time",
                            record.doc_id, len(errors))
                continue
            example = {
                "doc_id": record.doc_id,
                "input": print_guidelines(record.schema) + "\n\n" + record.document,
                "target": print_instances(record.instances),
            }
            fh.write(json.dumps(example, sort_keys=True, ensure_ascii=False) + "\n")
            written += 1
    return written
