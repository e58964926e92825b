r"""Parser and printer for the code-style annotation notation.

Two small formal languages, parsed statically (nothing is ever executed):

* guideline notation -- decorated class definitions. The class docstring
  holds the annotation guideline for that entity type; each annotated field
  describes one attribute and carries an inline comment explaining it::

      @dataclass
      class Framework:
          \"\"\"A software library used to build machine learning models.\"\"\"
          name: str  # the framework name as it appears in the text
          developer: str  # organization that develops the framework

* instance notation -- a bracketed list of keyword-only constructor calls
  whose values are string or list-of-string literals::

      [Framework(name="TensorFlow", developer="Google")]

Grammar, informally::

    schema     := class_def+
    class_def  := decorator* "class" NAME ":" INDENT docstring field+ DEDENT
    docstring  := TRIPLE_QUOTE TEXT TRIPLE_QUOTE
    field      := NAME ":" type_expr "#" COMMENT
    type_expr  := "str" | "List[str]" | "Optional[" type_expr "]"

    list       := "[" (call ("," call)*)? ","? "]"
    call       := NAME "(" kw ("," kw)* ")"
    kw         := NAME "=" (STRING | "[" STRING ("," STRING)* "]")

Strings accept both quote characters and the escapes \\ \" \' \n \t.
The instance parser tolerates surrounding prose: it locates the first
bracketed list in the input and ignores everything outside it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

TEXT = "text"
TEXT_LIST = "text_list"

_NAME_RE = re.compile(r"[A-Za-z_]\w*")
_CLASS_RE = re.compile(r"class\s+([A-Za-z_]\w*)\s*:\s*$")
_FIELD_RE = re.compile(r"([A-Za-z_]\w*)\s*:\s*(.+?)\s*$")

_ESCAPES = {'"': '"', "'": "'", "\\": "\\", "n": "\n", "t": "\t"}
_QUOTE_MAP = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


class ParseError(ValueError):
    """Parse failure with the 1-based line and column of the offending construct."""

    def __init__(self, line: int, col: int, message: str) -> None:
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


@dataclass
class FieldDef:
    """One attribute of an entity class: a text or text-list slot plus its comment."""

    name: str
    kind: str  # TEXT or TEXT_LIST
    comment: str
    required: bool = True


@dataclass
class EntityClass:
    name: str
    guideline: str
    fields: list[FieldDef]

    def field_map(self) -> dict[str, FieldDef]:
        return {f.name: f for f in self.fields}


@dataclass
class Schema:
    """Ordered entity classes parsed from one guideline text."""

    classes: list[EntityClass]
    source_text: str = field(default="", compare=False, repr=False)

    def class_map(self) -> dict[str, EntityClass]:
        return {c.name: c for c in self.classes}


@dataclass
class EntityInstance:
    class_name: str
    assignments: dict[str, str | list[str]]
    source_offset: int = field(default=-1, compare=False)


@dataclass
class InstanceSet:
    """Ordered instances parsed from one list literal, tied to a document."""

    doc_id: str
    instances: list[EntityInstance]
    source_text: str = field(default="", compare=False, repr=False)


def _indent_width(line: str) -> int:
    return len(line) - len(line.lstrip(" \t"))


def parse_guidelines(text: str) -> Schema:
    """Parse guideline notation into a Schema.

    Unknown decorators and blank lines are tolerated; any other deviation
    from the grammar raises ParseError with a location.
    """
    lines = text.split("\n")
    classes: list[EntityClass] = []
    names: set[str] = set()
    i = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.strip()
        if not stripped:
            i += 1
            continue
        if line[0] in " \t":
            raise ParseError(i + 1, _indent_width(line) + 1,
                             "unexpected indented line outside a class body")
        if stripped.startswith("@"):
            i += 1  # decorator, tolerated
            continue
        m = _CLASS_RE.match(stripped)
        if m is None:
            if stripped.startswith("class"):
                raise ParseError(i + 1, 1, f"malformed class header: {stripped!r}")
            raise ParseError(i + 1, 1, f"unexpected top-level statement: {stripped!r}")
        name = m.group(1)
        if name in names:
            raise ParseError(i + 1, 1, f"duplicate class name {name!r}")
        cls, i = _parse_class_body(lines, i + 1, name)
        names.add(name)
        classes.append(cls)
    if not classes:
        raise ParseError(1, 1, "no classes found")
    return Schema(classes=classes, source_text=text)


def _parse_class_body(lines: list[str], i: int, name: str) -> tuple[EntityClass, int]:
    n = len(lines)
    while i < n and not lines[i].strip():
        i += 1
    if i >= n or lines[i][0] not in " \t":
        raise ParseError(i if i >= n else i + 1, 1, f"class {name!r} has no docstring")
    guideline, i = _parse_docstring(lines, i, name)
    fields: list[FieldDef] = []
    seen: set[str] = set()
    while i < n:
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if line[0] not in " \t":
            break  # dedent ends the class
        fields.append(_parse_field(line, i + 1, seen))
        i += 1
    if not fields:
        raise ParseError(i, 1, f"empty class: {name!r} declares no fields")
    return EntityClass(name=name, guideline=guideline, fields=fields), i


def _parse_docstring(lines: list[str], i: int, name: str) -> tuple[str, int]:
    line = lines[i]
    idx = line.find('"""')
    if idx < 0 or line[:idx].strip():
        raise ParseError(i + 1, _indent_width(line) + 1, f"class {name!r} has no docstring")
    rest = line[idx + 3:]
    close = rest.find('"""')
    if close >= 0:
        if rest[close + 3:].strip():
            raise ParseError(i + 1, idx + close + 7, "unexpected text after docstring")
        guideline = rest[:close]
        i += 1
    else:
        # multi-line: capture continuation lines verbatim up to the closing quotes
        open_line = i + 1
        parts = [rest]
        i += 1
        while True:
            if i >= len(lines):
                raise ParseError(open_line, idx + 1,
                                 f"unterminated docstring in class {name!r}")
            close = lines[i].find('"""')
            if close >= 0:
                if lines[i][close + 3:].strip():
                    raise ParseError(i + 1, close + 4, "unexpected text after docstring")
                parts.append(lines[i][:close])
                i += 1
                break
            parts.append(lines[i])
            i += 1
        guideline = "\n".join(parts)
    if not guideline.strip():
        raise ParseError(i, 1, f"class {name!r} has an empty docstring")
    return guideline, i


def _parse_field(line: str, lineno: int, seen: set[str]) -> FieldDef:
    indent = _indent_width(line)
    content = line.strip()
    hash_idx = content.find("#")
    if hash_idx < 0:
        raise ParseError(lineno, indent + 1, f"field {content.split(':')[0].strip()!r} "
                                             "is missing an explanatory comment")
    ann, comment = content[:hash_idx], content[hash_idx + 1:].strip()
    m = _FIELD_RE.match(ann)
    if m is None:
        raise ParseError(lineno, indent + 1, f"field without annotation: {ann.strip()!r}")
    fname = m.group(1)
    if fname in seen:
        raise ParseError(lineno, indent + 1, f"duplicate field name {fname!r}")
    if not comment:
        raise ParseError(lineno, indent + hash_idx + 1,
                         f"field {fname!r} is missing an explanatory comment")
    kind, required = _parse_type(m.group(2), lineno, indent + m.start(2) + 1)
    seen.add(fname)
    return FieldDef(name=fname, kind=kind, comment=comment, required=required)


def _parse_type(expr: str, lineno: int, col: int) -> tuple[str, bool]:
    s = expr.replace(" ", "")
    required = True
    while s.startswith("Optional[") and s.endswith("]"):
        required = False
        s = s[len("Optional["):-1]
    if s == "str":
        return TEXT, required
    if s == "List[str]":
        return TEXT_LIST, required
    raise ParseError(lineno, col, f"unsupported field kind {expr.strip()!r}")


def print_guidelines(schema: Schema) -> str:
    """Render a Schema in canonical form; parse_guidelines round-trips it."""
    _check_schema(schema)
    blocks = []
    for cls in schema.classes:
        lines = ["@dataclass", f"class {cls.name}:", f'    """{cls.guideline}"""']
        for f in cls.fields:
            t = "str" if f.kind == TEXT else "List[str]"
            if not f.required:
                t = f"Optional[{t}]"
            lines.append(f"    {f.name}: {t}  # {f.comment}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _check_schema(schema: Schema) -> None:
    if not schema.classes:
        raise ValueError("schema has no classes")
    names = set()
    for cls in schema.classes:
        if not _NAME_RE.fullmatch(cls.name):
            raise ValueError(f"invalid class name {cls.name!r}")
        if cls.name in names:
            raise ValueError(f"duplicate class name {cls.name!r}")
        names.add(cls.name)
        if not cls.guideline.strip():
            raise ValueError(f"class {cls.name!r} has an empty guideline")
        if '"""' in cls.guideline or cls.guideline.endswith('"'):
            raise ValueError(f"guideline of {cls.name!r} cannot be quoted verbatim")
        if not cls.fields:
            raise ValueError(f"class {cls.name!r} has no fields")
        fnames = set()
        for f in cls.fields:
            if not _NAME_RE.fullmatch(f.name):
                raise ValueError(f"invalid field name {f.name!r}")
            if f.name in fnames:
                raise ValueError(f"duplicate field name {f.name!r} in {cls.name!r}")
            fnames.add(f.name)
            if f.kind not in (TEXT, TEXT_LIST):
                raise ValueError(f"unknown field kind {f.kind!r}")
            if not f.comment or f.comment != f.comment.strip() or "\n" in f.comment:
                raise ValueError(f"field {cls.name}.{f.name} needs a one-line comment")


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


def parse_instances(text: str, doc_id: str = "") -> InstanceSet:
    """Parse the first bracketed instance list found in ``text``.

    Prose before and after the list is ignored. Binding instances to a
    schema is the validator's job.
    """
    start = text.find("[")
    if start < 0:
        raise ParseError(1, 1, "no list literal found")
    cur = _Cursor(text, start)
    cur.expect("[", "'['")
    instances: list[EntityInstance] = []
    cur.skip_ws()
    while cur.peek() != "]":
        if not cur.peek():
            raise cur.error("unterminated instance list")
        instances.append(_parse_call(cur))
        cur.skip_ws()
        if cur.peek() == ",":
            cur.pos += 1
            cur.skip_ws()
        elif cur.peek() != "]":
            raise cur.error("expected ',' or ']'")
    cur.pos += 1
    return InstanceSet(doc_id=doc_id, instances=instances,
                       source_text=text[start:cur.pos])


def _parse_call(cur: _Cursor) -> EntityInstance:
    offset = cur.pos
    if not (cur.peek().isalpha() or cur.peek() == "_"):
        raise cur.error("expected an instance call")
    name = cur.take_name()
    cur.skip_ws()
    cur.expect("(", "'(' after class name")
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
    return EntityInstance(class_name=name, assignments=assignments, source_offset=offset)


def _parse_kw(cur: _Cursor, assignments: dict[str, str | list[str]]) -> None:
    at = cur.pos
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
    if key in assignments:
        raise cur.error(f"duplicate keyword {key!r}", at=at)
    assignments[key] = _parse_value(cur)


def _parse_value(cur: _Cursor) -> str | list[str]:
    c = cur.peek()
    if c in "\"'":
        return _parse_string(cur)
    if c == "[":
        cur.pos += 1
        cur.skip_ws()
        items: list[str] = []
        while True:
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


def print_instances(instance_set: InstanceSet) -> str:
    """Render an InstanceSet in canonical form; parse_instances round-trips it."""
    parts = []
    for inst in instance_set.instances:
        if not _NAME_RE.fullmatch(inst.class_name):
            raise ValueError(f"invalid class name {inst.class_name!r}")
        if not inst.assignments:
            raise ValueError(f"instance of {inst.class_name!r} has no assignments")
        kws = []
        for key, value in inst.assignments.items():
            if not _NAME_RE.fullmatch(key):
                raise ValueError(f"invalid field name {key!r}")
            kws.append(f"{key}={_format_value(value)}")
        parts.append(f"{inst.class_name}({', '.join(kws)})")
    return "[" + ", ".join(parts) + "]"


def _format_value(value: str | list[str]) -> str:
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
        return "[" + ", ".join(_quote(v) for v in value) + "]"
    raise ValueError(f"unprintable value {value!r}: expected str or non-empty list of str")


def _quote(value: str) -> str:
    return '"' + "".join(_QUOTE_MAP.get(c, c) for c in value) + '"'
