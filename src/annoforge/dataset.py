"""Persistence and descriptive analysis of the generated dataset.

A dataset is a JSONL file: a header line carrying the format version, then
one record per line. Records hold every stage output for one document plus
the validation verdicts, so a dataset is auditable and the training emitter
can re-check instances before writing supervised examples. Lines are read
and written through ``jsonl``. ``write_dataset`` flushes each line, so a
killed ``generate`` leaves at most a last line without its newline, which
``jsonl.mend`` keeps or cuts before a resume.
``iter_dataset`` yields one record at a time and the analysis functions
take any iterable, so a command holds one record, not the dataset. Each
record's instance notation is parsed; its ``schema`` text only for callers
that read it (with ``schema=False``, ``DatasetRecord.schema`` is ``None``).

A record read from a file keeps its ``schema`` and ``instances`` text, and is
written with that text while it holds the objects parsed from it; a
``generate`` record carries the ``schema`` text its instances prompt quoted.
A new object (``validate`` dropped an instance), any other record built in
memory, or an instance list with prose around it is printed instead.

A record may hold ``offsets``, a list with one int per span value of its
instance list (instance, keyword, then list-element order): the code-point
index in ``document`` where that span occurs verbatim, or -1 where it does
not (a span grounded only after normalization). ``generate`` writes the
first occurrence under ``exact`` and ``normalized``, and no offsets under
``off``. They are a search hint, no more: ``validation.validate`` tests each
span at its offset and searches the document only where it is not there, so
an offset can never change a verdict. ``validate`` writes back the offsets of
the instances it keeps, refreshed, but never adds the field to a record
without it (a record without offsets is validated with no offset
bookkeeping), and drops it under ``--grounding off``. A record without the
key has no hints; a value that is not a list of ints of at least -1 is a
corrupt record. The field is additive, so the format version stays 1.

Label statistics use exact rational arithmetic internally and round only
when formatted. Overlap analysis compares dataset labels against benchmark
label spaces verbatim after trimming whitespace (case folding is opt-in).
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from . import ConfigError, Value, jsonl
from .notation import (
    InstanceSet,
    Schema,
    parse_guidelines,
    parse_instances,
    print_guidelines,
    print_instances,
)
from .validation import GROUNDING_POLICIES, validate

if TYPE_CHECKING:
    from fractions import Fraction

log = logging.getLogger(__name__)

FORMAT_NAME = "annoforge-dataset"
FORMAT_VERSION = 1


class DatasetRecord(Value):
    """Everything produced for one document, post-validation.

    ``source`` is left out of equality and ``repr``."""

    _fields = ("doc_id", "document", "summary", "structured", "guidelines_text", "schema",
               "instances", "validation", "meta")
    __slots__ = (*_fields, "source")

    def __init__(self, doc_id: str, document: str, summary: str, structured: list[dict],
                 guidelines_text: str, schema: Schema | None, instances: InstanceSet,
                 validation: dict | None = None, meta: dict | None = None,
                 source: list | None = None) -> None:
        self.doc_id = doc_id
        self.document = document
        self.summary = summary
        self.structured = structured  # [{"label": ..., "attributes": {...}}, ...]
        self.guidelines_text = guidelines_text  # the raw model output, verbatim
        self.schema = schema  # None when read with schema=False
        self.instances = instances  # survivors of validation filtering
        self.validation = {} if validation is None else validation
        self.meta = {} if meta is None else meta
        # (parsed object, its text), for each one read from a file or printed already
        self.source = [] if source is None else source

    def text_of(self, parsed: Schema | InstanceSet, printer) -> str:
        """The text ``source`` holds for ``parsed``; else ``parsed`` printed."""
        for held, text in self.source:
            if held is parsed:
                return text
        return printer(parsed)


def record_to_dict(record: DatasetRecord) -> dict:
    data = {
        "doc_id": record.doc_id,
        "document": record.document,
        "summary": record.summary,
        "structured": record.structured,
        "guidelines": record.guidelines_text,
        "schema": record.text_of(record.schema, print_guidelines),
        "instances": record.text_of(record.instances, print_instances),
        "validation": record.validation,
        "meta": record.meta,
    }
    if record.instances.offsets is not None:
        data["offsets"] = record.instances.offsets
    return data


def record_from_dict(data: dict, *, schema: bool = True) -> DatasetRecord:
    """The record a dataset line's object holds; a field of the wrong type or an
    unknown ``meta.grounding`` raises ``TypeError`` or ``ValueError``."""
    doc_id = data["doc_id"]
    if not isinstance(data["document"], str):
        raise TypeError(f"document is {type(data['document']).__name__}, not a string")
    offsets = data.get("offsets")
    if "offsets" in data and not (type(offsets) is list and all(
            type(at) is int and at >= -1 for at in offsets)):
        raise TypeError("offsets is not a list of integers of at least -1")
    for key in ("validation", "meta"):
        if not isinstance(data.get(key, {}), dict):
            raise TypeError(f"{key} is {type(data[key]).__name__}, not an object")
    grounding = data.get("meta", {}).get("grounding", "normalized")
    if grounding not in GROUNDING_POLICIES:
        raise ValueError(f"unknown grounding policy {grounding!r}")
    record = DatasetRecord(
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
    record.instances.offsets = offsets
    record.source = [(record.schema, data["schema"])] if schema else []
    if record.instances.span == (0, len(data["instances"])):  # no prose around the list
        record.source.append((record.instances, data["instances"]))
    return record


def write_dataset(records: Iterable[DatasetRecord], path: str | Path, *,
                  append: bool = False) -> None:
    """Write records one line each, after a header unless appending; each
    line is flushed before the next record is drawn."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = [] if append else [{"format": FORMAT_NAME, "version": FORMAT_VERSION}]
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        for data in chain(header, map(record_to_dict, records)):
            fh.write(jsonl.dumps(data))
            fh.flush()


def iter_dataset(path: str | Path, *, schema: bool = True) -> Iterator[DatasetRecord]:
    """Yield a dataset file's records in file order, one at a time.

    With ``schema=False`` the ``schema`` text is not parsed, so a record
    whose schema is corrupt reads without error and its ``schema`` is
    ``None``. A bad header, or a corrupt record line once it is reached,
    raises ``ValueError`` naming the file (and the line).
    """
    return (record for _, record in
            _records(path, lambda data: record_from_dict(data, schema=schema)))


def read_dataset(path: str | Path) -> list[DatasetRecord]:
    """Every record of ``iter_dataset`` in one list."""
    return list(iter_dataset(path))


def resume_doc_ids(path: str | Path, meta: dict) -> set[str]:
    """The set of record ``doc_id`` values, for ``generate --resume`` (which mends the file first).

    Only the JSON is decoded, never the notation. Each record's ``meta`` must
    hold every value of ``meta``, the resuming run's templates, model and
    grounding policy nested as a record holds them: a record made otherwise raises
    ``ConfigError`` naming the file and line, the differing key and both
    values. A ``doc_id`` held twice raises ``ValueError`` naming both lines.
    An empty file, left by a kill before the header, holds no records.
    """
    if Path(path).stat().st_size == 0:
        return set()
    doc_ids: set[str] = set()
    records = _records(path, lambda data: (data["doc_id"], data.get("meta")))
    for lineno, (doc_id, record_meta) in records:
        differs = _first_difference(record_meta, meta, "meta")
        if differs:
            key, found, wanted = differs
            raise ConfigError(f"{path}:{lineno}: cannot resume: {key} is {found!r} "
                              f"in the dataset but {wanted!r} in this run")
        if doc_id in doc_ids:  # found again to name its first line; only ids are kept
            first = next(n for n, other in _records(path, lambda data: data["doc_id"])
                         if other == doc_id)
            raise ValueError(f"{path}:{lineno}: cannot resume: doc_id {doc_id!r} "
                             f"is already at line {first}")
        doc_ids.add(doc_id)
    return doc_ids


def _first_difference(found, expected: dict, prefix: str) -> tuple | None:
    """(dotted key, found value, expected value) of the first leaf of
    ``expected`` that ``found`` does not hold, or None."""
    for key, wanted in expected.items():
        name = f"{prefix}.{key}"
        value = found.get(key) if isinstance(found, dict) else None
        if isinstance(wanted, dict):
            differs = _first_difference(value, wanted, name)
            if differs:
                return differs
        elif value != wanted:
            return name, value, wanted
    return None


def _records(path: str | Path, decode) -> Iterator[tuple[int, object]]:
    """(line number, ``decode`` of its JSON) for each record line, after the header's."""
    first = []  # the header line's text, checked below with messages of its own

    def decode_line(line: str):
        if first:
            return decode(json.loads(line))
        first.append(line)

    lines = jsonl.read(path, "corrupt record", decode_line)
    lineno, _ = next(lines, (None, None))
    if lineno is None:
        raise ValueError(f"{path}: missing dataset header")
    try:
        header = json.loads(first[0])
        if not isinstance(header, dict) or "format" not in header:
            raise ValueError("no format field")
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: missing dataset header ({exc})") from exc
    if header["format"] != FORMAT_NAME:
        raise ValueError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported dataset version {header.get('version')}")
    yield from lines


class LabelStats(Value):
    """Label usage summary; averages stay exact until formatted."""

    __slots__ = _fields = ("n_docs", "unique_label_count", "doc_frequency",
                           "annotation_frequency", "avg_distinct_labels_per_doc",
                           "avg_annotations_per_doc")

    def __init__(self, n_docs: int, unique_label_count: int, doc_frequency: dict[str, int],
                 annotation_frequency: dict[str, int], avg_distinct_labels_per_doc: Fraction,
                 avg_annotations_per_doc: Fraction) -> None:
        self.n_docs = n_docs
        self.unique_label_count = unique_label_count
        self.doc_frequency = doc_frequency  # docs with >= 1 instance of the label
        self.annotation_frequency = annotation_frequency  # total instances of the label
        self.avg_distinct_labels_per_doc = avg_distinct_labels_per_doc
        self.avg_annotations_per_doc = avg_annotations_per_doc

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
    from fractions import Fraction  # only stats and overlap load it

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


class OverlapResult(Value):
    __slots__ = _fields = ("benchmark", "split", "gold_label_count", "matched_count",
                           "coverage", "matched", "unmatched")

    def __init__(self, benchmark: str, split: str, gold_label_count: int, matched_count: int,
                 coverage: Fraction, matched: list[str], unmatched: list[str]) -> None:
        self.benchmark = benchmark
        self.split = split
        self.gold_label_count = gold_label_count
        self.matched_count = matched_count
        self.coverage = coverage
        self.matched = matched
        self.unmatched = unmatched


AGGREGATE = "aggregate"


def compute_overlap(dataset_labels: set[str],
                    benchmark_labelspaces: dict[str, dict[str, set[str]]],
                    case_insensitive: bool = False) -> list[OverlapResult]:
    """Coverage of each benchmark label space by the dataset's labels.

    Emits one row per (benchmark, split) plus, per split, an aggregate row
    over the union of that split's gold labels across all benchmarks.
    """
    from fractions import Fraction

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
    """Read ``<benchmark>.<split>.txt`` files from a directory; none is a ``ConfigError``."""
    spaces: dict[str, dict[str, set[str]]] = {}
    for file in sorted(Path(directory).glob("*.txt")):
        parts = file.name.split(".")
        if len(parts) != 3:
            raise ValueError(f"unknown benchmark file format: {file.name} "
                             "(expected <benchmark>.<split>.txt)")
        benchmark, split = parts[0], parts[1]
        spaces.setdefault(benchmark, {})[split] = load_labelspace(file)
    if not spaces:
        raise ConfigError(f"no label files in {directory}")
    return spaces


def dataset_labels(records: Iterable[DatasetRecord]) -> set[str]:
    """All class names with at least one surviving instance."""
    return {inst.class_name for record in records
            for inst in record.instances.instances}


def emit_training_examples(records: Iterable[DatasetRecord],
                           path: str | Path) -> tuple[int, int]:
    """Write supervised examples: guidelines + document in, instance list out.

    Each record is re-validated first; a record that no longer passes is
    skipped with a warning rather than poisoning the training file. Returns
    (examples written, records read).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written = read = 0
    with open(path, "w", encoding="utf-8") as fh:
        for read, record in enumerate(records, 1):
            errors = validate(record.instances, record.schema, record.document,
                              grounding=record.meta.get("grounding", "normalized"))
            if errors:
                log.warning("skipping %s: %d validation errors at emit time",
                            record.doc_id, len(errors))
                continue
            example = {
                "doc_id": record.doc_id,
                "input": record.text_of(record.schema, print_guidelines) + "\n\n"
                + record.document,
                "target": record.text_of(record.instances, print_instances),
            }
            fh.write(jsonl.dumps(example))
            written += 1
    return written, read
