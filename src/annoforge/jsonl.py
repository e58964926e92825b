"""JSON Lines: the one line reader, torn-tail rule and line format.

annoforge reads every JSONL file through ``read`` and writes whole lines, so a
kill leaves at most a last line without its newline. ``mend`` keeps or cuts it
before a file is appended to: no proper prefix of a JSON object is valid JSON,
so such a line is whole exactly when it decodes.
"""

from __future__ import annotations

import json
import logging
import os
from collections.abc import Callable, Iterator
from pathlib import Path

log = logging.getLogger(__name__)


def read(path: str | Path, what: str,
         decode: Callable[[str], object] = json.loads) -> Iterator[tuple[int, object]]:
    """Yield (line number, ``decode(line)``) for each non-blank line of ``path``.

    A line ``decode`` fails on raises ``ValueError`` with the text
    ``<file>:<line>: <what> (<error>)``, ``what`` naming the fault.
    """
    with open(path, "rb") as fh:  # decoded line by line, so bad UTF-8 names its line
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                value = decode(line.decode("utf-8"))
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                raise ValueError(f"{path}:{lineno}: {what} ({exc})") from exc
            yield lineno, value


def mend(path: str | Path) -> None:
    """Add the newline a whole last line lacks, or cut a torn one with a warning.

    A file that is empty or ends in a newline is only read, its last byte.
    """
    with open(path, "rb") as fh:
        size = start = fh.seek(0, os.SEEK_END)
        tail = b""
        while start and b"\n" not in tail:  # back to the newline before the last line
            step = min(start, 1 << 16 if tail else 1)  # the last byte alone first
            start -= step
            tail = os.pread(fh.fileno(), step, start) + tail
        line = tail[tail.rfind(b"\n") + 1:]
        if not line:
            return
        try:
            json.loads(line)
        except ValueError:
            fh.seek(0)
            lineno = 1 + sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
            log.warning("%s:%d: dropping torn last line", path, lineno)
            os.truncate(path, size - len(line))
            return
    with open(path, "ab") as fh:
        fh.write(b"\n")


def dumps(obj) -> str:
    """``obj`` as one JSON line, keys sorted and non-ASCII kept, with its newline."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n"
