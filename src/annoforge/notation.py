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

A class, field or keyword NAME must be a Python identifier
(``str.isidentifier``) and may not be a Python keyword (``keyword.iskeyword``).
Names are compared as Python reads them, after NFKC normalization, so two
fields ``x\ufb01`` and ``xfi`` are one name written twice.
Strings accept both quote characters and the escapes \\ \" \' \n \t.
The instance parser tolerates surrounding prose: it locates the first
bracketed list in the input and ignores everything outside it. Its token
parser reads the list by whole tokens (a call head ``Name(``, a keyword head ``name=``, a
string literal, a run of whitespace), so its cost is a few regex matches
per keyword argument. Input that ends where a call, a keyword or a value
should start, as a truncated model output does (``[A(x="1", ``, ``[A(``,
``[A(x=``, ``[A(x=[``), raises "unterminated instance list" located at the
end of the input.

The instance parser first tries the layout ``print_instances`` writes: from
the first ``[`` to the end of the text there is no backslash and no newline,
and the text ends with ``]``. In such text every ``"`` opens or closes a
string, so one ``str.split('"')`` yields the values, and each separator
between them (``, ``, ``, key=``, ``), Name(key=``, ``)]``, with ``[`` and
``]`` around list values) is checked against one regex, once per distinct
separator. That is the text every dataset record stores, and the text of
most model answers. Any other text (escapes, single quotes, other spacing,
prose after the list) and any invalid text go to the token parser, which
alone defines the language and locates every error;
``test_parse_instances_fast_path_matches_token_parser`` checks that both
paths give the same InstanceSet and span or the same ParseError.

The guideline parser reads text in the exact layout ``print_guidelines``
writes (``@dataclass``, ``class N:``, a docstring indented four spaces, then
``    name: T  # comment`` lines, blocks joined by a blank line) with one regex
match per class. That is the text every dataset record stores. Any other
layout (CRLF, other decorators, other spacing, blank lines) and any invalid
text go to the line parser, which alone defines the language and locates
every error; ``test_parse_guidelines_matches_line_parser`` checks that both
paths give the same Schema or the same ParseError.

The guideline printer parses its text back, so the parser alone decides what
prints; the instance printer keeps its own checks (see ``print_instances``).
"""

from __future__ import annotations

import functools
import keyword
import re
import unicodedata

from . import Value

TEXT = "text"
TEXT_LIST = "text_list"

_NAME = r"[A-Za-z_]\w*"
_NAME_RE = re.compile(_NAME)
_CLASS_RE = re.compile(r"class\s+([A-Za-z_]\w*)\s*:\s*$")
_FIELD_RE = re.compile(r"([A-Za-z_]\w*)\s*:\s*(.+?)\s*$")

# The layout print_guidelines writes. A docstring holds no '"""' and does not
# end in a quote, and a comment neither starts nor ends with whitespace, so
# the line parser reads each part back exactly as matched.
_CANON_KINDS = {"str": (TEXT, True), "List[str]": (TEXT_LIST, True),
                "Optional[str]": (TEXT, False), "Optional[List[str]]": (TEXT_LIST, False)}
_CANON_FIELD = rf"    ({_NAME}): ({'|'.join(map(re.escape, _CANON_KINDS))})  # (\S(?:[^\n]*\S)?)\n"
_CANON_FIELD_RE = re.compile(_CANON_FIELD)
_CANON_CLASS_RE = re.compile(
    rf'@dataclass\nclass ({_NAME}):\n    """([^"]*(?:""?[^"]+)*)"""\n((?:{_CANON_FIELD})+)(?:\n(?=@)|\Z)')

# Instance-notation tokens. Whitespace is exactly " \t\r\n"; a string stops
# at its closing quote, and a newline or an unknown escape leaves it unmatched
# so the error path can say which.
_WS = r"[ \t\r\n]*"
_DOUBLE_BODY = r'''[^"\\\n]*(?:\\["'\\nt][^"\\\n]*)*'''
_SINGLE_BODY = r"""[^'\\\n]*(?:\\["'\\nt][^'\\\n]*)*"""
_STRING = rf"""(?:"({_DOUBLE_BODY})"|'({_SINGLE_BODY})')"""
_WS_RE = re.compile(_WS)
_DOUBLE_BODY_RE = re.compile(_DOUBLE_BODY)
_SINGLE_BODY_RE = re.compile(_SINGLE_BODY)
_STRING_RE = re.compile(_STRING)
_CALL_HEAD_RE = re.compile(rf"({_NAME}){_WS}\({_WS}")
_KW_HEAD_RE = re.compile(rf"({_NAME}){_WS}={_WS}")
# the common ``name="text",`` in one match: head, string, separator
_KW_STRING_RE = re.compile(rf"({_NAME}){_WS}={_WS}{_STRING}{_WS}(?:(,){_WS})?")
# The layout print_instances writes, split on '"'. After each string value
# comes a separator: an optional "]" that closes a list value, then either
# ")]" that ends the list, or "), Name(" or ", " followed by "key=" and an
# optional "[" that opens a list value. A bare ", " between two items of a
# list value is the one separator this does not match.
_QUOTED_SEP_RE = re.compile(rf"(\]?)(?:\)(\])|(?:\), ({_NAME})\(|, )({_NAME})=(\[?))")
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {'"': '"', "'": "'", "\\": "\\", "n": "\n", "t": "\t"}
_QUOTE_TABLE = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"})


class ParseError(ValueError):
    """Parse failure with the 1-based line and column of the offending construct."""

    def __init__(self, line: int, col: int, message: str) -> None:
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


class FieldDef(Value):
    """One attribute of an entity class: a text or text-list slot plus its comment."""

    __slots__ = _fields = ("name", "kind", "comment", "required")  # kind: TEXT or TEXT_LIST
    _defaults = {"required": True}


class EntityClass(Value):
    __slots__ = _fields = ("name", "guideline", "fields")

    def field_map(self) -> dict[str, FieldDef]:
        return {f.name: f for f in self.fields}


class Schema(Value):
    """Ordered entity classes parsed from one guideline text."""

    __slots__ = _fields = ("classes",)

    def class_map(self) -> dict[str, EntityClass]:
        return {c.name: c for c in self.classes}


class EntityInstance(Value):
    __slots__ = _fields = ("class_name", "assignments")


class InstanceSet(Value):
    """Ordered instances parsed from one list literal, tied to a document.

    ``span`` and ``offsets`` are left out of equality and ``repr``."""

    _fields = ("doc_id", "instances")
    # span: where the list literal sat in the parsed text, as (start, end).
    # offsets: where each span value occurs verbatim in the document, or -1;
    # a hint that ``validation.validate`` checks before use, None when there
    # is none.
    __slots__ = (*_fields, "span", "offsets")
    _defaults = {"span": None, "offsets": None}


def _indent_width(line: str) -> int:
    return len(line) - len(line.lstrip(" \t"))


def parse_guidelines(text: str) -> Schema:
    """Parse guideline notation into a Schema.

    Unknown decorators and blank lines are tolerated; any other deviation
    from the grammar raises ParseError with a location.

    Text in the exact layout ``print_guidelines`` writes, as every dataset
    record stores, is read by one regex match per class; any other text,
    and every error, is left to the line parser, which decides the language.
    ``test_parse_guidelines_matches_line_parser`` keeps the two in agreement.
    """
    return _parse_canonical(text) or _parse_lines(text)


def _parse_canonical(text: str) -> Schema | None:
    """The Schema of ``text`` if it is canonical and valid, else None."""
    classes: list[EntityClass] = []
    names: set[str] = set()
    # NFKC leaves every ASCII name as it is
    is_name = _is_name if text.isascii() else _is_stable_name
    pos = 0
    while pos < len(text):
        m = _CANON_CLASS_RE.match(text, pos)
        if m is None:
            return None
        name, guideline, body = m.group(1, 2, 3)
        if name in names or not is_name(name) or not guideline.strip():
            return None
        fields: list[FieldDef] = []
        seen: set[str] = set()
        for fname, annotation, comment in _CANON_FIELD_RE.findall(body):
            if fname in seen or not is_name(fname):
                return None
            seen.add(fname)
            kind, required = _CANON_KINDS[annotation]
            fields.append(FieldDef(fname, kind, comment, required))
        names.add(name)
        classes.append(EntityClass(name, guideline, fields))
        pos = m.end()
    return Schema(classes) if classes else None


def _is_name(name: str) -> bool:
    return name.isidentifier() and not keyword.iskeyword(name)


def _is_stable_name(name: str) -> bool:
    """A name that NFKC leaves as it is, so that names compared as written
    are compared as Python reads them. The fast paths leave any other name
    to the parser that normalizes."""
    return _is_name(name) and (name.isascii() or unicodedata.normalize("NFKC", name) == name)


def _nfkc(name: str) -> str:
    """``name`` as Python reads an identifier: NFKC-normalized."""
    return name if name.isascii() else unicodedata.normalize("NFKC", name)


def _parse_lines(text: str) -> Schema:
    """Read guideline notation line by line: any layout, every error located."""
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
        if _nfkc(name) in names:
            raise ParseError(i + 1, 1, f"duplicate class name {name!r}")
        if keyword.iskeyword(name):
            raise ParseError(i + 1, 1, f"class name {name!r} is a Python keyword")
        if not name.isidentifier():
            raise ParseError(i + 1, 1, f"class name {name!r} is not a Python identifier")
        cls, i = _parse_class_body(lines, i + 1, name)
        names.add(_nfkc(name))
        classes.append(cls)
    if not classes:
        raise ParseError(1, 1, "no classes found")
    return Schema(classes=classes)


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
    # collect lines verbatim up to the closing quotes, on this line or a later one
    open_line, start, parts = i + 1, idx + 3, []
    while (close := lines[i].find('"""', start)) < 0:
        parts.append(lines[i][start:])
        i, start = i + 1, 0
        if i >= len(lines):
            raise ParseError(open_line, idx + 1, f"unterminated docstring in class {name!r}")
    if lines[i][close + 3:].strip():
        raise ParseError(i + 1, close + 4, "unexpected text after docstring")
    guideline = "\n".join([*parts, lines[i][start:close]])
    i += 1
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
    if _nfkc(fname) in seen:
        raise ParseError(lineno, indent + 1, f"duplicate field name {fname!r}")
    if keyword.iskeyword(fname):
        raise ParseError(lineno, indent + 1, f"field name {fname!r} is a Python keyword")
    if not fname.isidentifier():
        raise ParseError(lineno, indent + 1, f"field name {fname!r} is not a Python identifier")
    if not comment:
        raise ParseError(lineno, indent + hash_idx + 1,
                         f"field {fname!r} is missing an explanatory comment")
    kind, required = _parse_type(m.group(2), lineno, indent + m.start(2) + 1)
    seen.add(_nfkc(fname))
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
    """Render a Schema in canonical form; parse_guidelines decides what prints.

    A schema whose text does not parse back to it raises ValueError.
    """
    blocks = []
    for cls in schema.classes:
        lines = ["@dataclass", f"class {cls.name}:", f'    """{cls.guideline}"""']
        for f in cls.fields:
            t = "str" if f.kind == TEXT else "List[str]"
            if not f.required:
                t = f"Optional[{t}]"
            lines.append(f"    {f.name}: {t}  # {f.comment}")
        blocks.append("\n".join(lines))
    text = "\n\n".join(blocks) + "\n"
    if parse_guidelines(text) != schema:
        raise ValueError("schema does not read back as itself from its printed form")
    return text


def parse_instances(text: str, doc_id: str = "") -> InstanceSet:
    """Parse the first bracketed instance list found in ``text``.

    Prose before and after the list is ignored. Binding instances to a
    schema is the validator's job.

    A list in the layout ``print_instances`` writes, with no backslash from
    its ``[`` on and nothing after its ``]``, as every dataset record stores,
    is read by one split on ``"``; any other text, and every error, is left
    to the token parser, which decides the language.
    ``test_parse_instances_fast_path_matches_token_parser`` keeps the two in
    agreement.
    """
    return _parse_quoted(text, doc_id) or _parse_tokens(text, doc_id)


def _parse_quoted(text: str, doc_id: str) -> InstanceSet | None:
    """The InstanceSet of ``text`` if its list is canonical, valid and runs
    to the end of the text, else None."""
    start = text.find("[")
    tail = text[start:]
    # with no backslash every '"' opens or closes a string; no canonical
    # separator and no valid string holds a newline
    if start < 0 or not tail.endswith("]") or "\\" in tail or "\n" in tail:
        return None
    if tail == "[]":
        return InstanceSet(doc_id=doc_id, instances=[], span=(start, len(text)))
    parts = tail.split('"')
    # "[Name(key=" opens the list as "), Name(key=" would open a next call
    head = _quoted_step("), " + parts[0][1:])
    if head is None or len(parts) % 2 == 0:  # an odd count of quotes
        return None
    _, _, name, key, opens = head
    items: list[str] | None = [] if opens else None
    assignments: dict[str, str | list[str]] = {}
    instances: list[EntityInstance] = []
    for i in range(1, len(parts), 2):
        sep = parts[i + 1]
        in_list = items is not None
        if in_list:
            items.append(parts[i])
            if sep == ", ":
                continue
            value: str | list[str] = items
            items = None
        else:
            value = parts[i]
        step = _quoted_step(sep)
        # a "]" before the separator closes a list value, and only a list value
        if step is None or step[0] is not in_list or key in assignments:
            return None
        assignments[key] = value
        _, end, call, key, opens = step
        if end:
            if i + 2 < len(parts):
                return None
            instances.append(EntityInstance(class_name=name, assignments=assignments))
            return InstanceSet(doc_id=doc_id, instances=instances, span=(start, len(text)))
        if call:
            instances.append(EntityInstance(class_name=name, assignments=assignments))
            name, assignments = call, {}
        if opens:
            items = []
    return None


@functools.lru_cache(maxsize=1024)
def _quoted_step(sep: str) -> tuple[bool, bool, str | None, str | None, bool] | None:
    """What a separator of the quote split does, or None if it is not canonical:
    (closes a list value, ends the instance list, class name of the call it
    opens, keyword it opens, opens a list value)."""
    m = _QUOTED_SEP_RE.fullmatch(sep)
    if m is None:
        return None
    closes, end, call, key, opens = m.groups()
    if not all(_is_stable_name(name) for name in (call, key) if name is not None):
        return None
    return bool(closes), bool(end), call, key, bool(opens)


def _parse_tokens(text: str, doc_id: str) -> InstanceSet:
    """Read instance notation token by token: any layout, every error located."""
    start = text.find("[")
    if start < 0:
        raise ParseError(1, 1, "no list literal found")
    pos = _WS_RE.match(text, start + 1).end()
    # in ASCII text every name _NAME matches is an identifier
    check_names = not text.isascii()
    instances: list[EntityInstance] = []
    while not text.startswith("]", pos):
        head = _CALL_HEAD_RE.match(text, pos)
        if head is None:
            raise _head_error(text, pos, keyword=False)
        if keyword.iskeyword(head.group(1)):
            raise _error(text, pos, f"class name {head.group(1)!r} is a Python keyword")
        if check_names and not head.group(1).isidentifier():
            raise _error(text, pos, f"class name {head.group(1)!r} is not a Python identifier")
        pos = head.end()
        if text.startswith(")", pos):
            raise _error(text, pos, "expected at least one keyword argument")
        assignments: dict[str, str | list[str]] = {}
        while True:
            kw = _KW_STRING_RE.match(text, pos) or _KW_HEAD_RE.match(text, pos)
            if kw is None:
                raise _head_error(text, pos, keyword=True)
            key = kw.group(1)
            if keyword.iskeyword(key):
                raise _error(text, pos, f"field name {key!r} is a Python keyword")
            if check_names and not key.isidentifier():
                raise _error(text, pos, f"field name {key!r} is not a Python identifier")
            if key in assignments or (check_names and _nfkc(key) in map(_nfkc, assignments)):
                raise _error(text, pos, f"duplicate keyword {key!r}")
            if kw.re is _KW_STRING_RE:
                _, double, single, comma = kw.groups()
                value = _unescape(double if double is not None else single)
                pos = kw.end()
            else:
                value, pos = _parse_value(text, kw.end())
                pos = _WS_RE.match(text, pos).end()
                comma = text.startswith(",", pos)
                if comma:
                    pos = _WS_RE.match(text, pos + 1).end()
            assignments[key] = value
            if comma:
                continue
            if text.startswith(")", pos):
                break
            raise _error(text, pos, "expected ',' or ')'")
        instances.append(EntityInstance(class_name=head.group(1), assignments=assignments))
        pos = _WS_RE.match(text, pos + 1).end()
        if text.startswith(",", pos):
            pos = _WS_RE.match(text, pos + 1).end()
        elif not text.startswith("]", pos):
            raise _error(text, pos, "expected ',' or ']'")
    return InstanceSet(doc_id=doc_id, instances=instances, span=(start, pos + 1))


def _parse_value(text: str, pos: int) -> tuple[str | list[str], int]:
    """The string or list-of-strings literal at ``pos``, and the offset after it."""
    if not text.startswith("[", pos):
        return _parse_string(text, pos,
                             "non-literal value (expected a string or list of strings)")
    pos = _WS_RE.match(text, pos + 1).end()
    items: list[str] = []
    while True:
        item, pos = _parse_string(text, pos, "expected a string literal in list value")
        items.append(item)
        pos = _WS_RE.match(text, pos).end()
        if text.startswith(",", pos):
            pos = _WS_RE.match(text, pos + 1).end()
        elif text.startswith("]", pos):
            return items, pos + 1
        else:
            raise _error(text, pos, "expected ',' or ']' in list value")


def _parse_string(text: str, pos: int, expected: str) -> tuple[str, int]:
    m = _STRING_RE.match(text, pos)
    if m is not None:
        return _unescape(m.group(m.lastindex)), m.end()
    quote = text[pos:pos + 1]
    if not quote:
        raise _error(text, pos, "unterminated instance list")
    if quote not in "\"'":
        raise _error(text, pos, expected)
    stop = (_DOUBLE_BODY_RE if quote == '"' else _SINGLE_BODY_RE).match(text, pos + 1).end()
    if text.startswith("\\", stop):
        raise _error(text, stop, f"unsupported escape '\\{text[stop + 1:stop + 2]}'")
    raise _error(text, pos, "unterminated string literal")


def _head_error(text: str, pos: int, keyword: bool) -> ParseError:
    """Why no call head (``Name(``) or keyword head (``name=``) starts at ``pos``."""
    c = text[pos:pos + 1]
    if not c:
        return _error(text, pos, "unterminated instance list")
    if keyword and (c in "\"'[" or c.isdigit()):
        return _error(text, pos, "positional arguments are not allowed")
    if not (c.isalpha() or c == "_"):
        return _error(text, pos, "expected a keyword argument" if keyword
                      else "expected an instance call")
    name = _NAME_RE.match(text, pos)
    if name is None:
        return _error(text, pos, "expected an identifier")
    if keyword:
        return _error(text, pos, "non-literal value (expected 'name=value')")
    return _error(text, _WS_RE.match(text, name.end()).end(),
                  "expected '(' after class name")


def _error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(line, offset - text.rfind("\n", 0, offset), message)


def _unescape(body: str) -> str:
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group(1)], body)


def print_instances(instance_set: InstanceSet) -> str:
    """Render an InstanceSet in canonical form; parse_instances round-trips it.

    It checks names and values itself, each distinct name once per call,
    where ``print_guidelines`` parses its text back: a printer that parsed its
    text back and compared was slower than these checks.
    """
    parts = []
    named = set()  # class and field names that passed one check; a record repeats a few
    for inst in instance_set.instances:
        if inst.class_name not in named:
            if not _NAME_RE.fullmatch(inst.class_name) or not _is_name(inst.class_name):
                raise ValueError(f"invalid class name {inst.class_name!r}")
            named.add(inst.class_name)
        if not inst.assignments:
            raise ValueError(f"instance of {inst.class_name!r} has no assignments")
        if not all(map(str.isascii, inst.assignments)) and (
                len(set(map(_nfkc, inst.assignments))) < len(inst.assignments)):
            raise ValueError(f"instance of {inst.class_name!r} repeats a field name under NFKC")
        kws = []
        for key, value in inst.assignments.items():
            if key not in named:
                if not _NAME_RE.fullmatch(key) or not _is_name(key):
                    raise ValueError(f"invalid field name {key!r}")
                named.add(key)
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
    return '"' + value.translate(_QUOTE_TABLE) + '"'
