from __future__ import annotations

import json
import logging
import re

import pytest

from annoforge import jsonl

WHOLE = b'{"doc_id": "a", "text": "Gr\xc3\xbc\xc3\x9fe"}'
LONG = json.dumps({"text": "x" * 200_000}).encode()  # longer than one backward step


def test_read_numbers_the_non_blank_lines(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"a": 2}', encoding="utf-8")
    assert list(jsonl.read(path, "corrupt thing")) == [(1, {"a": 1}), (4, {"a": 2})]
    assert list(jsonl.read(path, "corrupt thing", lambda line: json.loads(line)["a"])) == \
        [(1, 1), (4, 2)]


def test_read_names_the_file_line_and_fault(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"a": 1}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        list(jsonl.read(path, "corrupt thing"))
    assert type(caught.value) is ValueError
    assert str(caught.value) == \
        f"{path}:2: corrupt thing (Expecting value: line 1 column 1 (char 0))"

    path.write_text('{"a": 1}\n{"b": 2}\n', encoding="utf-8")
    lines = jsonl.read(path, "corrupt thing", lambda line: json.loads(line)["a"])
    assert next(lines) == (1, 1)  # the lines before a corrupt one are yielded
    with pytest.raises(ValueError) as caught:
        next(lines)
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"{path}:2: corrupt thing ('a')"

    path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:2: corrupt thing \('utf-8'"):
        list(jsonl.read(path, "corrupt thing"))


@pytest.mark.parametrize("before, after", [
    (b"", b""),
    (WHOLE + b"\n", WHOLE + b"\n"),
    (WHOLE, WHOLE + b"\n"),
    (WHOLE + b"\n" + WHOLE, WHOLE + b"\n" + WHOLE + b"\n"),
    (LONG, LONG + b"\n"),
    (WHOLE + b"\n" + LONG, WHOLE + b"\n" + LONG + b"\n"),
], ids=["empty", "terminated", "one-whole", "last-whole", "long-whole", "long-last-whole"])
def test_mend_keeps_whole_lines(tmp_path, caplog, before, after):
    path = tmp_path / "f.jsonl"
    path.write_bytes(before)
    with caplog.at_level(logging.WARNING):
        jsonl.mend(path)
    assert path.read_bytes() == after
    assert not caplog.records


def test_mend_opens_a_terminated_file_only_to_read_its_last_byte(tmp_path, monkeypatch):
    opened, read = [], []
    real_pread = jsonl.os.pread

    def recording_open(file, mode="r"):
        opened.append(mode)
        return open(file, mode)

    def recording_pread(fd, size, offset):
        read.append(size)
        return real_pread(fd, size, offset)

    monkeypatch.setattr(jsonl, "open", recording_open, raising=False)
    monkeypatch.setattr(jsonl.os, "pread", recording_pread)
    path = tmp_path / "f.jsonl"
    path.write_bytes((WHOLE + b"\n") * 1000)
    jsonl.mend(path)
    assert opened == ["rb"] and read == [1]


@pytest.mark.parametrize("kept, torn", [
    (b"", WHOLE[:10]),
    (WHOLE + b"\n", WHOLE[:-1]),
    (WHOLE + b"\n\n", WHOLE[:-4]),  # cut inside a two-byte character
    (WHOLE + b"\n", LONG[:-1]),
    (WHOLE + b"\n", b"  "),
], ids=["only-line", "last-line", "mid-character", "long", "blank"])
def test_mend_cuts_a_torn_last_line(tmp_path, caplog, kept, torn):
    path = tmp_path / "f.jsonl"
    path.write_bytes(kept + torn)
    with caplog.at_level(logging.WARNING):
        jsonl.mend(path)
    assert path.read_bytes() == kept
    lineno = kept.count(b"\n") + 1
    assert caplog.messages == [f"{path}:{lineno}: dropping torn last line"]


def test_dumps_writes_one_sorted_line():
    assert jsonl.dumps({"b": "Grüße", "a": [1, {"d": 2, "c": 3}]}) == \
        '{"a": [1, {"c": 3, "d": 2}], "b": "Grüße"}\n'
