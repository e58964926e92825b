"""Loading and sampling the raw document collection.

Documents are kept whole; no segmentation happens here. Two on-disk layouts
are supported: a JSONL file with one ``{"id": ..., "text": ...}`` object per
line, and a directory of ``.txt`` files whose stems become document ids.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Document:
    doc_id: str
    text: str


def load_corpus(path: str | Path, format: str | None = None) -> list[Document]:
    """Load documents from ``path`` in on-disk order.

    ``format`` is ``"jsonl"`` or ``"text-directory"``; when omitted it is
    inferred from whether the path is a directory.
    """
    path = Path(path)
    if format is None:
        format = "text-directory" if path.is_dir() else "jsonl"
    if format == "jsonl":
        docs = _load_jsonl(path)
    elif format == "text-directory":
        docs = _load_text_dir(path)
    else:
        raise ValueError(f"unknown corpus format {format!r}")
    seen: set[str] = set()
    for doc in docs:
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r} in {path}")
        seen.add(doc.doc_id)
    return docs


def _load_jsonl(path: Path) -> list[Document]:
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: expected an object")
            text = record.get("text")
            if not isinstance(text, str) or not text.strip():
                raise ValueError(f"{path}:{lineno}: record has no text")
            doc_id = record.get("id")
            doc_id = str(doc_id) if doc_id is not None else f"doc-{lineno - 1:05d}"
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
