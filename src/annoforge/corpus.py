"""Loading and sampling the raw document collection.

Documents are kept whole; no segmentation happens here. Two on-disk layouts
are supported: a JSONL file with one ``{"id": ..., "text": ...}`` object per
line, and a directory of ``.txt`` files whose stems become document ids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from . import jsonl


@dataclass
class Document:
    doc_id: str
    text: str


def load_corpus(path: str | Path) -> list[Document]:
    """Load documents from ``path`` in on-disk order: a directory's ``.txt``
    files, or else the lines of a JSONL file."""
    path = Path(path)
    if path.is_dir():
        return _load_text_dir(path)  # file names, so its ids are unique
    return _load_jsonl(path)


def _load_jsonl(path: Path) -> list[Document]:
    docs: list[Document] = []
    lines: dict[str, int] = {}  # each doc_id's line, so a duplicate names both
    for lineno, record in jsonl.read(path, "invalid JSON"):
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: expected an object")
        text = record.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ValueError(f"{path}:{lineno}: record has no text")
        doc_id = str(record["id"]) if record.get("id") is not None else f"doc-{lineno - 1:05d}"
        if doc_id in lines:
            raise ValueError(f"{path}:{lineno}: duplicate doc_id {doc_id!r} "
                             f"is already at line {lines[doc_id]}")
        lines[doc_id] = lineno
        docs.append(Document(doc_id=doc_id, text=text))
    return docs


def _load_text_dir(path: Path) -> list[Document]:
    docs = []
    for file in sorted(path.glob("*.txt")):
        text = file.read_text(encoding="utf-8")
        if not text.strip():
            raise ValueError(f"{file}: file is empty")
        docs.append(Document(doc_id=file.stem, text=text))
    return docs


def sample_corpus(docs: list[Document], n: int, seed: int) -> list[Document]:
    """Draw ``n`` documents without replacement, reproducibly for a given seed."""
    if n > len(docs):
        raise ValueError(f"cannot sample {n} documents from a corpus of {len(docs)}")
    return random.Random(seed).sample(docs, n)
