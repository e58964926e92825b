"""Persistence and descriptive analysis of the generated dataset.

A dataset is a JSONL file: a header line carrying the format version, then
one record per line. Records hold every stage output for one document plus
the validation verdicts, so a dataset is auditable and the training emitter
can re-check instances before writing supervised examples. ``generate``
streams records into ``write_dataset``, which flushes each line, so a kill
leaves at most a torn last line; ``resume_doc_ids`` cuts it. ``iter_dataset``
yields one record at a time and the analysis functions take any iterable, so
a command holds one record, not the dataset. Each record's instance notation
is parsed; its ``schema`` text only for callers that read it (with
``schema=False``, ``DatasetRecord.schema`` is ``None``).

Label statistics use exact rational arithmetic internally and round only
when formatted. Overlap analysis compares dataset labels against benchmark
label spaces verbatim after trimming whitespace (case folding is opt-in).
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
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


def write_dataset(records: Iterable[DatasetRecord], path: str | Path, *,
                  append: bool = False) -> None:
    """Write records one flushed line at a time, after a header unless appending."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        if not append:
            fh.write(json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION},
                                sort_keys=True) + "\n")
            fh.flush()
        for record in records:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True,
                                ensure_ascii=False) + "\n")
            fh.flush()


def iter_dataset(path: str | Path, *, schema: bool = True) -> Iterator[DatasetRecord]:
    """Yield a dataset file's records in file order, one at a time.

    With ``schema=False`` the ``schema`` text is not parsed, so a record
    whose schema is corrupt reads without error and its ``schema`` is
    ``None``. A bad header, or a corrupt record line once it is reached,
    raises ``ValueError`` naming the file (and the line).
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        yield from _decode(fh, path, lambda data: record_from_dict(data, schema=schema))


def read_dataset(path: str | Path, *, schema: bool = True) -> list[DatasetRecord]:
    """Every record of ``iter_dataset`` in one list."""
    return list(iter_dataset(path, schema=schema))


def resume_doc_ids(path: str | Path) -> list[str]:
    """The ``doc_id`` of each complete record line, for ``generate --resume``.

    Only the JSON is decoded, never the notation. A last line without its
    newline, a write cut short, is cut from the file with a warning. An
    empty file, left by a kill before the header, holds no records.
    """
    path = Path(path)
    if path.stat().st_size == 0:
        return []
    with open(path, "r+b") as fh:
        return list(_decode(_complete_lines(fh, path), path, itemgetter("doc_id")))


def _complete_lines(fh, path: Path) -> Iterator[bytes]:
    """The lines of a binary file opened for update, cutting a torn last line."""
    offset = 0
    for lineno, line in enumerate(fh, start=1):
        if not line.endswith(b"\n"):
            log.warning("%s:%d: dropping torn last line", path, lineno)
            fh.truncate(offset)
            return
        offset += len(line)
        yield line


def _decode(lines: Iterable, path: Path, decode) -> Iterator:
    """``decode`` of each record line's JSON, after checking the header line."""
    numbered = ((n, line) for n, line in enumerate(lines, start=1) if line.strip())
    lineno, line = next(numbered, (None, None))
    if line is None:
        raise ValueError(f"{path}: missing dataset header")
    try:
        header = json.loads(line)
        if not isinstance(header, dict) or "format" not in header:
            raise ValueError("no format field")
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: missing dataset header ({exc})") from exc
    if header["format"] != FORMAT_NAME:
        raise ValueError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported dataset version {header.get('version')}")
    for lineno, line in numbered:
        try:
            yield decode(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: corrupt record ({exc})") from exc


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


def compute_stats(records: Iterable[DatasetRecord]) -> LabelStats:
    """Count labels over instances (classes merely declared do not count)."""
    doc_freq: dict[str, int] = {}
    ann_freq: dict[str, int] = {}
    n = distinct_total = annotation_total = 0
    for record in records:
        n += 1
        labels = [inst.class_name for inst in record.instances.instances]
        annotation_total += len(labels)
        used = sorted(set(labels))
        distinct_total += len(used)
        for label in used:
            doc_freq[label] = doc_freq.get(label, 0) + 1
        for label in labels:
            ann_freq[label] = ann_freq.get(label, 0) + 1
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


def dataset_labels(records: Iterable[DatasetRecord]) -> set[str]:
    """All class names with at least one surviving instance."""
    return {inst.class_name for record in records
            for inst in record.instances.instances}


def emit_training_examples(records: Iterable[DatasetRecord], path: str | Path) -> int:
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
