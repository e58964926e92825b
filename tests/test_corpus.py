from __future__ import annotations

import json
from pathlib import Path

import pytest

from annoforge.corpus import (
    Document,
    load_corpus,
    sample_corpus,
)

DATA = Path(__file__).parent / "data"


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_load_jsonl_in_file_order(tmp_path):
    path = tmp_path / "docs.jsonl"
    write_jsonl(path, [
        {"id": "b", "text": "second doc", "source": "wiki"},
        {"id": "a", "text": "first doc"},
        {"id": "c", "text": "third doc", "extra": 42},
    ])
    docs = load_corpus(path)
    assert [d.doc_id for d in docs] == ["b", "a", "c"]
    assert docs[1].text == "first doc"


def test_load_jsonl_missing_id_gets_synthesized(tmp_path):
    path = tmp_path / "docs.jsonl"
    write_jsonl(path, [{"text": "alpha"}, {"text": "beta"}])
    docs = load_corpus(path)
    assert [d.doc_id for d in docs] == ["doc-00000", "doc-00001"]


def test_load_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n\n{"id": "b", "text": "y"}\n')
    assert len(load_corpus(path)) == 2


def test_load_jsonl_empty_text_names_line(tmp_path):
    path = tmp_path / "docs.jsonl"
    write_jsonl(path, [{"id": "a", "text": "fine"}, {"id": "b", "text": ""}])
    with pytest.raises(ValueError, match=r":2: record has no text"):
        load_corpus(path)


def test_load_jsonl_bad_json_names_line(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id": "a", "text": "x"}\nnot json\n')
    with pytest.raises(ValueError, match=":2: invalid JSON"):
        load_corpus(path)


def test_load_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "docs.jsonl"
    write_jsonl(path, [{"id": "a", "text": "x"}, {"id": "a", "text": "y"}])
    with pytest.raises(ValueError, match="duplicate doc_id 'a'"):
        load_corpus(path)


def test_load_text_directory(tmp_path):
    for name in ["c.txt", "a.txt", "e.txt", "b.txt", "d.txt"]:
        (tmp_path / name).write_text(f"contents of {name}")
    (tmp_path / "notes.md").write_text("ignored")
    docs = load_corpus(tmp_path)
    assert [d.doc_id for d in docs] == ["a", "b", "c", "d", "e"]
    assert docs[0].text == "contents of a.txt"


def test_load_text_directory_rejects_empty_file(tmp_path):
    (tmp_path / "a.txt").write_text("   \n")
    with pytest.raises(ValueError, match="file is empty"):
        load_corpus(tmp_path)


def test_format_inference(tmp_path):
    (tmp_path / "a.txt").write_text("hello")
    assert load_corpus(tmp_path)[0].doc_id == "a"
    path = tmp_path / "docs.jsonl"
    write_jsonl(path, [{"id": "x", "text": "hi"}])
    assert load_corpus(path)[0].doc_id == "x"
    named_as_text = tmp_path / "more.txt"  # not a directory, so JSONL, whatever its name
    write_jsonl(named_as_text, [{"id": "y", "text": "hey"}])
    assert load_corpus(named_as_text)[0].doc_id == "y"


def make_docs(n):
    return [Document(doc_id=f"d{i:03d}", text="word " * (i + 1)) for i in range(n)]


def test_sample_is_deterministic():
    docs = make_docs(10)
    assert sample_corpus(docs, 3, seed=7) == sample_corpus(docs, 3, seed=7)
    assert {d.doc_id for d in sample_corpus(docs, 10, seed=0)} == {d.doc_id for d in docs}


def test_sample_rejects_oversized_n():
    with pytest.raises(ValueError, match="cannot sample"):
        sample_corpus(make_docs(5), 6, seed=0)


def test_sample_matches_golden_ids():
    # frozen from the first run of the sampler on this fixture
    expected = json.loads((DATA / "sample_seed1.json").read_text())
    picked = sample_corpus(make_docs(100), 20, seed=1)
    assert [d.doc_id for d in picked] == expected
