from __future__ import annotations

import json
import logging
from fractions import Fraction

import pytest

from annoforge.dataset import (
    AGGREGATE,
    compute_overlap,
    compute_stats,
    dataset_labels,
    emit_training_examples,
    iter_dataset,
    load_labelspace,
    load_labelspaces,
    read_dataset,
    write_dataset,
)
from annoforge.notation import parse_instances
from annoforge.validation import validate
from builders import make_records, stats_record


def test_write_read_round_trip(tmp_path):
    records = make_records()
    path = tmp_path / "dataset.jsonl"
    write_dataset(records, path)
    assert read_dataset(path) == records


def test_dataset_file_layout(tmp_path):
    path = tmp_path / "dataset.jsonl"
    write_dataset(make_records(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"format": "annoforge-dataset", "version": 1}
    assert len(lines) == 3
    body = json.loads(lines[1])
    assert body["doc_id"] == "ml-01"
    assert body["instances"].startswith("[Framework(")


def test_empty_dataset_round_trip(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_dataset([], path)
    assert read_dataset(path) == []


def test_read_rejects_bad_headers(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(ValueError, match="not a annoforge-dataset file"):
        read_dataset(path)
    path.write_text('{"format": "annoforge-dataset", "version": 99}\n')
    with pytest.raises(ValueError, match="unsupported dataset version 99"):
        read_dataset(path)
    path.write_text("")
    with pytest.raises(ValueError, match="missing dataset header"):
        read_dataset(path)


def test_read_header_without_version_names_the_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"format": "annoforge-dataset"}\n')
    with pytest.raises(ValueError, match=r"d\.jsonl: unsupported dataset version None"):
        read_dataset(path)


def test_read_corrupt_line_raises(tmp_path):
    records = make_records()
    path = tmp_path / "d.jsonl"
    write_dataset(records, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1][:40]  # chop mid-JSON
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(ValueError, match=r"d\.jsonl:2: corrupt record"):
        read_dataset(path)


def test_iter_dataset_yields_records_before_a_corrupt_line(tmp_path):
    records = make_records()
    path = tmp_path / "d.jsonl"
    write_dataset(records + records, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3][:40]  # chop the third record mid-JSON
    path.write_text("\n".join(lines) + "\n")

    stream = iter_dataset(path)
    assert [next(stream), next(stream)] == records
    with pytest.raises(ValueError, match=r"d\.jsonl:4: corrupt record"):
        next(stream)


@pytest.mark.parametrize("entry", [
    {"attributes": {"name": "TensorFlow"}},  # no label
    "Framework",                             # not an object
])
def test_read_corrupt_structured_entry_raises(tmp_path, entry):
    path = tmp_path / "d.jsonl"
    write_dataset(make_records(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    body = json.loads(lines[2])
    body["structured"][0] = entry
    lines[2] = json.dumps(body)
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(ValueError, match=r"d\.jsonl:3: corrupt record"):
        read_dataset(path)


def test_read_without_schema_skips_the_schema_parse(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(make_records(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    body = json.loads(lines[2])
    body["schema"] = "not a schema"
    lines[2] = json.dumps(body)
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(ValueError, match=r"d\.jsonl:3: corrupt record"):
        read_dataset(path)
    records = list(iter_dataset(path, schema=False))
    assert [r.schema for r in records] == [None, None]
    assert [r.instances for r in records] == [r.instances for r in make_records()]


def test_write_dataset_append(tmp_path):
    first, second = make_records()
    path = tmp_path / "d.jsonl"
    write_dataset(iter([first]), path)               # header, then the record
    write_dataset(iter([second]), path, append=True)  # no second header
    assert read_dataset(path) == [first, second]
    content = path.read_text(encoding="utf-8")
    assert content.count('"format"') == 1


def test_compute_stats_hand_counts():
    stats = compute_stats([stats_record("d1", ["A", "A", "B"])])
    assert stats.unique_label_count == 2
    assert stats.avg_distinct_labels_per_doc == Fraction(2)
    assert stats.avg_annotations_per_doc == Fraction(3)
    assert stats.annotation_frequency == {"A": 2, "B": 1}
    assert stats.doc_frequency == {"A": 1, "B": 1}


def test_compute_stats_exact_fractions():
    records = [stats_record("d1", ["A", "A", "B"]), stats_record("d2", ["A"])]
    stats = compute_stats(records)
    assert stats.n_docs == 2
    assert stats.avg_distinct_labels_per_doc == Fraction(3, 2)
    assert stats.avg_annotations_per_doc == Fraction(2)
    assert stats.doc_frequency == {"A": 2, "B": 1}
    data = stats.to_dict()
    assert data["avg_distinct_labels_per_doc"] == 1.5


def test_compute_stats_empty_and_empty_instances():
    empty = compute_stats([])
    assert empty.n_docs == 0 and empty.unique_label_count == 0
    assert empty.avg_annotations_per_doc == Fraction(0)

    stats = compute_stats([stats_record("d1", []), stats_record("d2", ["A"])])
    assert stats.avg_distinct_labels_per_doc == Fraction(1, 2)
    assert stats.avg_annotations_per_doc == Fraction(1, 2)


def test_compute_stats_permutation_invariant_and_decomposable():
    a = [stats_record("d1", ["A", "B"]), stats_record("d2", ["B"])]
    b = [stats_record("d3", ["C", "B"])]
    whole = compute_stats(a + b)
    assert whole == compute_stats(list(reversed(a + b)))
    pa, pb = compute_stats(a), compute_stats(b)
    assert whole.annotation_frequency["B"] == \
        pa.annotation_frequency["B"] + pb.annotation_frequency["B"]
    # means recombine by doc-count weighting
    recombined = (pa.avg_annotations_per_doc * pa.n_docs +
                  pb.avg_annotations_per_doc * pb.n_docs) / whole.n_docs
    assert whole.avg_annotations_per_doc == recombined


def test_compute_stats_and_labels_consume_an_iterator():
    records = [stats_record("d1", ["A", "B"]), stats_record("d2", []),
               stats_record("d3", ["B", "C", "B"])]
    assert compute_stats(iter(records)) == compute_stats(records)
    assert compute_stats(iter([])) == compute_stats([])
    assert dataset_labels(iter(records)) == dataset_labels(records) == {"A", "B", "C"}


def test_stats_top_bottom_tables():
    stats = compute_stats([
        stats_record("d1", ["B", "B", "B", "A", "A", "C"]),
        stats_record("d2", ["D", "A"]),
    ])
    assert stats.top(2) == [("A", 3), ("B", 3)]  # tie broken by label
    assert stats.bottom(2) == [("C", 1), ("D", 1)]
    data = stats.to_dict(k=1)
    assert data["top"] == [{"label": "A", "count": 3}]


def test_dataset_labels():
    records = make_records()
    assert dataset_labels(records) == {"Framework", "City"}


def test_compute_overlap_counts_and_aggregate():
    dataset = {"Person", "City", "Drug"}
    spaces = {
        "conll": {"train": {"Person", "Organization", "Location", "Misc"}},
        "medical": {"train": {"Drug", "Disease"}, "test": {"Drug", "City", "Gene"}},
    }
    results = compute_overlap(dataset, spaces)
    by_key = {(r.benchmark, r.split): r for r in results}
    conll = by_key[("conll", "train")]
    assert (conll.gold_label_count, conll.matched_count) == (4, 1)
    assert conll.coverage == Fraction(1, 4)
    assert conll.matched == ["Person"]
    assert "Organization" in conll.unmatched

    agg_train = by_key[(AGGREGATE, "train")]
    assert agg_train.gold_label_count == 6  # union of conll+medical train labels
    assert agg_train.matched_count == 2     # Person, Drug
    agg_test = by_key[(AGGREGATE, "test")]
    assert (agg_test.gold_label_count, agg_test.matched_count) == (3, 2)
    # aggregate rows come last, per sorted split
    assert [r.benchmark for r in results[-2:]] == [AGGREGATE, AGGREGATE]


def test_compute_overlap_canonicalization():
    spaces = {"b": {"test": {" Person ", "city"}}}
    exact = compute_overlap({"Person", "City"}, spaces)
    assert exact[0].matched == ["Person"]  # whitespace trimmed, case respected
    folded = compute_overlap({"Person", "City"}, spaces, case_insensitive=True)
    assert folded[0].matched == ["Person", "city"]


def test_compute_overlap_edge_cases():
    assert compute_overlap({"A"}, {"b": {"t": {"X"}}})[0].coverage == 0
    assert compute_overlap(set(), {"b": {"t": {"X"}}})[0].coverage == 0
    with pytest.raises(ValueError, match="empty label space"):
        compute_overlap({"A"}, {"b": {"t": set()}})


def test_labelspace_files(tmp_path):
    (tmp_path / "conll.train.txt").write_text("Person\nLocation\n\nPerson\n")
    (tmp_path / "conll.test.txt").write_text("Person\n")
    spaces = load_labelspaces(tmp_path)
    assert spaces == {"conll": {"train": {"Person", "Location"}, "test": {"Person"}}}
    assert load_labelspace(tmp_path / "conll.test.txt") == {"Person"}

    (tmp_path / "badname.txt").write_text("X\n")
    with pytest.raises(ValueError, match="unknown benchmark file format"):
        load_labelspaces(tmp_path)

    (tmp_path / "empty.train.txt").write_text(" \n")
    with pytest.raises(ValueError, match="empty label space"):
        load_labelspace(tmp_path / "empty.train.txt")


def test_emit_training_examples(tmp_path):
    records = make_records()
    path = tmp_path / "train.jsonl"
    assert emit_training_examples(records, path) == (2, 2)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [ex["doc_id"] for ex in lines] == ["ml-01", "city-01"]
    first = lines[0]
    assert first["input"].startswith("@dataclass\nclass Framework:")
    assert first["input"].endswith(records[0].document)
    # the target re-parses into exactly the record's instance set
    reparsed = parse_instances(first["target"], doc_id="ml-01")
    assert reparsed == records[0].instances
    assert validate(reparsed, records[0].schema, records[0].document) == []


def test_emit_skips_records_failing_revalidation(tmp_path, caplog):
    records = make_records()
    records[0].document = "totally different text"  # spans no longer grounded
    path = tmp_path / "train.jsonl"
    with caplog.at_level(logging.WARNING, logger="annoforge.dataset"):
        written = emit_training_examples(records, path)
    assert written == (1, 2)
    assert any("skipping ml-01" in m for m in caplog.messages)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["doc_id"] == "city-01"
