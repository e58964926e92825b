"""Reference implementations used to cross-check the fast ones.

Deliberately independent of the package internals. The scorers decide
matching by trying every pred-gold pairing (branch and bound over
assignments) instead of counter arithmetic. The instance parser walks the
text one character at a time; only its result types come from the package.
The request key is one ``json.dumps`` of the whole payload, hashed at once.
Grounding is its definition: the normalized span inside the whole normalized
document.
"""

from __future__ import annotations

import hashlib
import json
import keyword
import re
import unicodedata

from annoforge.notation import EntityInstance, InstanceSet, ParseError


def _norm(s: str) -> str:
    return " ".join(s.split()).casefold()


def _match(pred, gold, matching: str) -> bool:
    if pred[0] != gold[0]:
        return False
    if matching == "exact":
        return pred[1] == gold[1]
    return _norm(pred[1]) == _norm(gold[1])


def max_matching(preds: list, golds: list, matching: str) -> int:
    """Size of the largest one-to-one pred/gold matching, by exhaustive search."""
    best = 0

    def walk(i: int, remaining: list, acc: int) -> None:
        nonlocal best
        if acc + (len(preds) - i) <= best:
            return
        if i == len(preds):
            best = max(best, acc)
            return
        walk(i + 1, remaining, acc)
        for j in range(len(remaining)):
            if _match(preds[i], remaining[j], matching):
                walk(i + 1, remaining[:j] + remaining[j + 1:], acc + 1)

    walk(0, list(golds), 0)
    return best


def oracle_counts(golds, preds, matching: str = "exact") -> tuple[int, int, int]:
    """(tp, fp, fn) over a suite of GoldExample/Prediction objects."""
    pred_by_id = {p.example_id: p for p in preds}
    tp = total_gold = total_pred = 0
    for gold in golds:
        pred = pred_by_id.get(gold.example_id)
        pred_mentions = pred.mentions if pred else []
        tp += max_matching(pred_mentions, gold.mentions, matching)
        total_gold += len(gold.mentions)
        total_pred += len(pred_mentions)
    return tp, total_pred - tp, total_gold - tp


def oracle_label_counts(golds, preds, label: str,
                        matching: str = "exact") -> tuple[int, int, int]:
    """(tp, fp, fn) restricted to mentions carrying the given label."""
    pred_by_id = {p.example_id: p for p in preds}
    tp = total_gold = total_pred = 0
    for gold in golds:
        gold_mentions = [m for m in gold.mentions if m[0] == label]
        pred = pred_by_id.get(gold.example_id)
        pred_mentions = [m for m in (pred.mentions if pred else []) if m[0] == label]
        tp += max_matching(pred_mentions, gold_mentions, matching)
        total_gold += len(gold_mentions)
        total_pred += len(pred_mentions)
    return tp, total_pred - tp, total_gold - tp


# -- instance notation, one character at a time ---------------------------------

_NAME_RE = re.compile(r"[A-Za-z_]\w*")
_ESCAPES = {'"': '"', "'": "'", "\\": "\\", "n": "\n", "t": "\t"}


class _Cursor:
    """Character cursor over the raw response text, tracking offsets for errors."""

    def __init__(self, text: str, pos: int) -> None:
        self.text = text
        self.pos = pos

    def error(self, message: str, at: int | None = None) -> ParseError:
        off = self.pos if at is None else at
        line = self.text.count("\n", 0, off) + 1
        col = off - self.text.rfind("\n", 0, off)
        return ParseError(line, col, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str, what: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {what}")
        self.pos += 1

    def take_name(self) -> str:
        m = _NAME_RE.match(self.text, self.pos)
        if m is None:
            raise self.error("expected an identifier")
        self.pos = m.end()
        return m.group(0)

    def check_not_at_end(self) -> None:
        if self.pos >= len(self.text):
            raise self.error("unterminated instance list")


def oracle_parse_instances(text: str, doc_id: str = "") -> InstanceSet:
    """Reference for ``notation.parse_instances``: same result, same errors."""
    start = text.find("[")
    if start < 0:
        raise ParseError(1, 1, "no list literal found")
    cur = _Cursor(text, start)
    cur.expect("[", "'['")
    instances: list[EntityInstance] = []
    cur.skip_ws()
    while cur.peek() != "]":
        cur.check_not_at_end()
        instances.append(_parse_call(cur))
        cur.skip_ws()
        if cur.peek() == ",":
            cur.pos += 1
            cur.skip_ws()
        elif cur.peek() != "]":
            raise cur.error("expected ',' or ']'")
    cur.pos += 1
    return InstanceSet(doc_id=doc_id, instances=instances)


def _parse_call(cur: _Cursor) -> EntityInstance:
    if not (cur.peek().isalpha() or cur.peek() == "_"):
        raise cur.error("expected an instance call")
    at = cur.pos
    name = cur.take_name()
    cur.skip_ws()
    cur.expect("(", "'(' after class name")
    if keyword.iskeyword(name):
        raise cur.error(f"class name {name!r} is a Python keyword", at=at)
    if not name.isidentifier():
        raise cur.error(f"class name {name!r} is not a Python identifier", at=at)
    assignments: dict[str, str | list[str]] = {}
    cur.skip_ws()
    if cur.peek() == ")":
        raise cur.error("expected at least one keyword argument")
    while True:
        _parse_kw(cur, assignments)
        cur.skip_ws()
        if cur.peek() == ",":
            cur.pos += 1
            cur.skip_ws()
        elif cur.peek() == ")":
            break
        else:
            raise cur.error("expected ',' or ')'")
    cur.pos += 1
    return EntityInstance(class_name=name, assignments=assignments)


def _parse_kw(cur: _Cursor, assignments: dict[str, str | list[str]]) -> None:
    at = cur.pos
    cur.check_not_at_end()
    c = cur.peek()
    if c in "\"'[" or c.isdigit():
        raise cur.error("positional arguments are not allowed")
    if not (c.isalpha() or c == "_"):
        raise cur.error("expected a keyword argument")
    key = cur.take_name()
    cur.skip_ws()
    if cur.peek() != "=":
        raise cur.error("non-literal value (expected 'name=value')", at=at)
    cur.pos += 1
    cur.skip_ws()
    if keyword.iskeyword(key):
        raise cur.error(f"field name {key!r} is a Python keyword", at=at)
    if not key.isidentifier():
        raise cur.error(f"field name {key!r} is not a Python identifier", at=at)
    # Python reads identifiers NFKC-normalized: x\ufb01 and xfi are one name
    nfkc = lambda name: unicodedata.normalize("NFKC", name)  # noqa: E731
    if nfkc(key) in map(nfkc, assignments):
        raise cur.error(f"duplicate keyword {key!r}", at=at)
    assignments[key] = _parse_value(cur)


def _parse_value(cur: _Cursor) -> str | list[str]:
    cur.check_not_at_end()
    c = cur.peek()
    if c in "\"'":
        return _parse_string(cur)
    if c == "[":
        cur.pos += 1
        cur.skip_ws()
        items: list[str] = []
        while True:
            cur.check_not_at_end()
            if cur.peek() not in "\"'":
                raise cur.error("expected a string literal in list value")
            items.append(_parse_string(cur))
            cur.skip_ws()
            if cur.peek() == ",":
                cur.pos += 1
                cur.skip_ws()
            elif cur.peek() == "]":
                cur.pos += 1
                return items
            else:
                raise cur.error("expected ',' or ']' in list value")
    raise cur.error("non-literal value (expected a string or list of strings)")


def _parse_string(cur: _Cursor) -> str:
    opening = cur.pos
    quote = cur.peek()
    cur.pos += 1
    out: list[str] = []
    while True:
        if cur.pos >= len(cur.text) or cur.text[cur.pos] == "\n":
            raise cur.error("unterminated string literal", at=opening)
        c = cur.text[cur.pos]
        if c == "\\":
            esc = cur.text[cur.pos + 1:cur.pos + 2]
            if esc not in _ESCAPES:
                raise cur.error(f"unsupported escape '\\{esc}'")
            out.append(_ESCAPES[esc])
            cur.pos += 2
        elif c == quote:
            cur.pos += 1
            return "".join(out)
        else:
            out.append(c)
            cur.pos += 1


def oracle_grounded(span: str, document: str, policy: str) -> bool:
    """Whether ``span`` is grounded in ``document`` under ``policy``: ``exact``
    a verbatim substring, ``normalized`` a substring once both sides have their
    whitespace collapsed and their case folded, ``off`` always."""
    if policy == "off":
        return True
    if policy == "exact":
        return span in document
    return _norm(span) in _norm(document)


def oracle_request_key(prompt: str, params) -> str:
    """sha256 of the canonical one-message payload, serialized in one piece."""
    payload = {
        "messages": [{"role": "user", "content": prompt}],
        "params": {"temperature": params.temperature, "top_p": params.top_p,
                   "max_new_tokens": params.max_new_tokens,
                   "model_name": params.model_name},
    }
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()
