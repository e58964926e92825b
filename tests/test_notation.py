from __future__ import annotations

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annoforge import notation
from annoforge.notation import (
    TEXT,
    TEXT_LIST,
    EntityClass,
    EntityInstance,
    FieldDef,
    InstanceSet,
    ParseError,
    Schema,
    parse_guidelines,
    parse_instances,
    print_guidelines,
    print_instances,
)
from oracles import oracle_parse_instances

GUIDELINES = '''@dataclass
class Framework:
    """A software library used to build machine learning models."""
    name: str  # the framework name as it appears in the text
    developer: Optional[str]  # organization that develops the framework
    aliases: List[str]  # alternative names used for the framework
'''


def test_parse_guidelines_structure():
    schema = parse_guidelines(GUIDELINES)
    assert [c.name for c in schema.classes] == ["Framework"]
    cls = schema.classes[0]
    assert cls.guideline == "A software library used to build machine learning models."
    assert [(f.name, f.kind, f.required) for f in cls.fields] == [
        ("name", TEXT, True),
        ("developer", TEXT, False),
        ("aliases", TEXT_LIST, True),
    ]
    assert cls.fields[0].comment == "the framework name as it appears in the text"


def test_print_guidelines_canonical_form():
    schema = Schema(classes=[
        EntityClass(
            name="Symptom",
            guideline="A physical sign of illness.",
            fields=[
                FieldDef(name="name", kind=TEXT, comment="symptom wording"),
                FieldDef(name="severity", kind=TEXT, comment="how bad it is", required=False),
                FieldDef(name="locations", kind=TEXT_LIST, comment="affected body parts"),
            ],
        ),
    ])
    assert print_guidelines(schema) == (
        "@dataclass\n"
        "class Symptom:\n"
        '    """A physical sign of illness."""\n'
        "    name: str  # symptom wording\n"
        "    severity: Optional[str]  # how bad it is\n"
        "    locations: List[str]  # affected body parts\n"
    )


def test_guidelines_round_trip():
    schema = parse_guidelines(GUIDELINES)
    assert print_guidelines(schema) == GUIDELINES
    assert parse_guidelines(print_guidelines(schema)) == schema


def test_multiple_classes_round_trip():
    text = (
        "@dataclass\n"
        "class A:\n"
        '    """First type."""\n'
        "    x: str  # one\n"
        "\n"
        "@dataclass\n"
        "class B:\n"
        '    """Second type."""\n'
        "    y: List[str]  # many\n"
    )
    schema = parse_guidelines(text)
    assert [c.name for c in schema.classes] == ["A", "B"]
    assert print_guidelines(schema) == text


def test_multiline_docstring_verbatim():
    text = (
        "@dataclass\n"
        "class A:\n"
        '    """Line one.\n'
        '    Line two, indented."""\n'
        "    x: str  # c\n"
    )
    schema = parse_guidelines(text)
    assert schema.classes[0].guideline == "Line one.\n    Line two, indented."
    assert parse_guidelines(print_guidelines(schema)) == schema


def test_optional_nesting_and_spacing():
    text = (
        "@dataclass\n"
        "class A:\n"
        '    """Doc."""\n'
        "    a : Optional[ List[str] ]  # spaced out\n"
        "    b: Optional[Optional[str]]  # doubly optional\n"
    )
    schema = parse_guidelines(text)
    a, b = schema.classes[0].fields
    assert (a.kind, a.required) == (TEXT_LIST, False)
    assert (b.kind, b.required) == (TEXT, False)


def test_unknown_decorators_and_blank_lines_tolerated():
    text = (
        "@dataclass(frozen=True)\n"
        "@register\n"
        "\n"
        "class A:\n"
        "\n"
        '    """Doc."""\n'
        "\n"
        "    x: str  # c\n"
        "\n"
    )
    schema = parse_guidelines(text)
    assert schema.classes[0].name == "A"


def test_comment_may_contain_hash():
    text = '@dataclass\nclass A:\n    """Doc."""\n    x: str  # see #3 and #4\n'
    schema = parse_guidelines(text)
    assert schema.classes[0].fields[0].comment == "see #3 and #4"
    assert print_guidelines(schema) == text


@pytest.mark.parametrize("text,fragment,line", [
    ("", "no classes found", 1),
    ("just prose\n", "unexpected top-level statement", 1),
    ("import dataclasses\n", "unexpected top-level statement", 1),
    ("class A\n", "malformed class header", 1),
    ("    x: str  # c\n", "unexpected indented line", 1),
    ("@dataclass\nclass A:\n    x: str  # c\n", "has no docstring", 3),
    ('@dataclass\nclass A:\n    """   """\n    x: str  # c\n', "empty docstring", 3),
    ('@dataclass\nclass A:\n    """Doc.\n', "unterminated docstring", 3),
    ('@dataclass\nclass A:\n    """Doc.""" x: str\n', "unexpected text after docstring", 3),
    ('@dataclass\nclass A:\n    """Doc."""\n', "empty class", 4),
    ('@dataclass\nclass A:\n    """Doc."""\n    x: str\n', "missing an explanatory comment", 4),
    ('@dataclass\nclass A:\n    """Doc."""\n    x: str  #   \n', "missing an explanatory comment", 4),
    ('@dataclass\nclass A:\n    """Doc."""\n    x = 5  # c\n', "field without annotation", 4),
    ('@dataclass\nclass A:\n    """Doc."""\n    x: int  # c\n', "unsupported field kind 'int'", 4),
    ('@dataclass\nclass A:\n    """Doc."""\n    x: list[str]  # c\n', "unsupported field kind", 4),
    ('@dataclass\nclass A:\n    """Doc."""\n    x: Optional[str  # c\n', "unsupported field kind", 4),
    ('@dataclass\nclass A:\n    """D."""\n    x: str  # c\n    x: str  # c\n', "duplicate field name 'x'", 5),
    ('@dataclass\nclass A:\n    """D."""\n    x: str  # c\n\nclass A:\n    """D."""\n    y: str  # c\n',
     "duplicate class name 'A'", 6),
    ('@dataclass\nclass None:\n    """D."""\n    x: str  # c\n', "class name 'None' is a Python keyword", 2),
    ('@dataclass\nclass A:\n    """D."""\n    from: str  # origin\n', "field name 'from' is a Python keyword", 4),
    # \w takes U+00B2, which no Python identifier holds
    ('@dataclass\nclass A\u00b2:\n    """D."""\n    x: str  # c\n',
     "class name 'A\u00b2' is not a Python identifier", 2),
    ('@dataclass\nclass A:\n    """D."""\n    x\u00b2: str  # c\n',
     "field name 'x\u00b2' is not a Python identifier", 4),
    # Python reads names NFKC-normalized: x\ufb01 (U+FB01) and xfi are one name
    ('@dataclass\nclass A:\n    """D."""\n    x\ufb01: str  # c\n    xfi: str  # d\n',
     "duplicate field name 'xfi'", 5),
    ('@dataclass\nclass Afi:\n    """D."""\n    x: str  # c\n\n@dataclass\nclass A\ufb01:\n'
     '    """D."""\n    x: str  # c\n', "duplicate class name 'A\ufb01'", 7),
])
def test_guideline_errors_are_located(text, fragment, line):
    with pytest.raises(ParseError) as exc:
        parse_guidelines(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


INSTANCES = '[Framework(name="TensorFlow", developer="Google"), Framework(name="PyTorch", aliases=["torch", "pt"])]'


def test_parse_instances_structure():
    iset = parse_instances(INSTANCES, doc_id="doc-1")
    assert iset.doc_id == "doc-1"
    assert len(iset.instances) == 2
    first = iset.instances[0]
    assert first.class_name == "Framework"
    assert first.assignments == {"name": "TensorFlow", "developer": "Google"}
    assert iset.instances[1].assignments["aliases"] == ["torch", "pt"]


def test_parse_instances_ignores_surrounding_prose():
    text = "Sure, here are the annotations:\n\n" + INSTANCES + "\n\nLet me know if you need more."
    iset = parse_instances(text)
    assert len(iset.instances) == 2


def test_parse_instances_tolerant_syntax():
    # trailing comma after the last call, newlines between tokens, single quotes
    text = "[\n  A(x='a'),\n  B(y=[\"b\"]),\n]"
    iset = parse_instances(text)
    assert [i.class_name for i in iset.instances] == ["A", "B"]
    assert iset.instances[0].assignments == {"x": "a"}


def test_empty_list_parses():
    iset = parse_instances("No entities found: []")
    assert iset.instances == []
    assert print_instances(iset) == "[]"


def test_string_escapes():
    iset = parse_instances('[A(x="a\\"b\\\\c\\nd\\te", y=\'it\\\'s\')]')
    assert iset.instances[0].assignments == {"x": 'a"b\\c\nd\te', "y": "it's"}


def test_print_instances_canonical_form():
    iset = InstanceSet(doc_id="d", instances=[
        EntityInstance(class_name="A", assignments={"x": 'say "hi"\nnow', "y": ["a", "b"]}),
    ])
    assert print_instances(iset) == '[A(x="say \\"hi\\"\\nnow", y=["a", "b"])]'


def test_instances_round_trip():
    iset = parse_instances(INSTANCES, doc_id="d")
    assert print_instances(iset) == INSTANCES
    assert parse_instances(print_instances(iset), doc_id="d") == iset


def test_equality_ignores_source_info():
    a = parse_instances("  " + INSTANCES, doc_id="d")
    b = parse_instances(INSTANCES + "\ntrailing", doc_id="d")
    assert a == b
    assert (a.span, b.span) == ((2, 2 + len(INSTANCES)), (0, len(INSTANCES)))
    s1 = parse_guidelines(GUIDELINES)
    s2 = parse_guidelines(GUIDELINES + "\n")
    assert s1 == s2


@pytest.mark.parametrize("text,fragment", [
    ("no brackets here", "no list literal found"),
    ("[A(x=\"1\")", "expected ',' or ']'"),
    ("[Framework()]", "at least one keyword argument"),
    ('[Framework("positional")]', "positional arguments are not allowed"),
    ('[Framework([])]', "positional arguments are not allowed"),
    ("[Framework(name=compute())]", "non-literal value"),
    ("[Framework(name=5)]", "non-literal value"),
    ("[Framework(name=other)]", "non-literal value"),
    ('[Framework(name="a", name="b")]', "duplicate keyword 'name'"),
    ('[Framework(name="a",)]', "expected a keyword argument"),
    ('[Framework(name="unclosed)]', "unterminated string literal"),
    ('[Framework(name="a\nb")]', "unterminated string literal"),
    ('[Framework(name="a\\qb")]', "unsupported escape"),
    ('[Framework(name=[])]', "expected a string literal in list value"),
    ('[Framework(name=["a",])]', "expected a string literal in list value"),
    ('[Framework(name=["a" "b"])]', "expected ',' or ']' in list value"),
    ("[A(x=\"1\") B(y=\"2\")]", "expected ',' or ']'"),
    # Python keywords are not names, as in guideline notation
    ('[None(x="a")]', "class name 'None' is a Python keyword"),
    ('[Flight(from="Paris")]', "field name 'from' is a Python keyword"),
    ('[A\u00b2(x="v")]', "class name 'A\u00b2' is not a Python identifier"),
    ('[A(x\u00b2="v")]', "field name 'x\u00b2' is not a Python identifier"),
    ('[A(x\u00b2=["v"])]', "field name 'x\u00b2' is not a Python identifier"),
    ('[A(x\ufb01="a", xfi="b")]', "duplicate keyword 'xfi'"),
    ('[A(xfi=["a"], x\ufb01="b")]', "duplicate keyword 'x\ufb01'"),
    # truncated output: the input ends where a keyword or a value should start
    ('[A(x="1", ', "unterminated instance list"),
    ("[A(", "unterminated instance list"),
    ("[A(x=", "unterminated instance list"),
    ("[A(x=[", "unterminated instance list"),
])
def test_instance_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_instances(text)
    assert fragment in str(exc.value)
    if fragment == "unterminated instance list":
        assert (exc.value.line, exc.value.col) == (1, len(text) + 1)


def test_instance_error_location_is_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_instances('[A(x="ok"),\n B(y=broken)]')
    assert exc.value.line == 2
    assert str(exc.value).startswith("line 2, col ")


def test_print_rejects_unprintable_values():
    with pytest.raises(ValueError):
        print_instances(InstanceSet(doc_id="d", instances=[
            EntityInstance(class_name="A", assignments={})]))
    with pytest.raises(ValueError):
        print_instances(InstanceSet(doc_id="d", instances=[
            EntityInstance(class_name="A", assignments={"x": []})]))
    with pytest.raises(ValueError):
        print_instances(InstanceSet(doc_id="d", instances=[
            EntityInstance(class_name="A", assignments={"x": 5})]))
    with pytest.raises(ValueError, match="invalid class name 'None'"):
        print_instances(InstanceSet(doc_id="d", instances=[
            EntityInstance(class_name="None", assignments={"x": "a"})]))
    with pytest.raises(ValueError, match="invalid field name 'from'"):
        print_instances(InstanceSet(doc_id="d", instances=[
            EntityInstance(class_name="Flight", assignments={"from": "Paris"})]))
    with pytest.raises(ValueError, match="invalid class name 'A\u00b2'"):
        print_instances(InstanceSet(doc_id="d", instances=[
            EntityInstance(class_name="A\u00b2", assignments={"x": "v"})]))
    with pytest.raises(ValueError, match="invalid field name 'x\u00b2'"):
        print_instances(InstanceSet(doc_id="d", instances=[
            EntityInstance(class_name="A", assignments={"x\u00b2": "v"})]))
    with pytest.raises(ValueError, match="invalid field name 'x\u00b2'"):  # after a valid A
        print_instances(InstanceSet(doc_id="d", instances=[
            EntityInstance(class_name="A", assignments={"x": "1"}),
            EntityInstance(class_name="A", assignments={"x\u00b2": "2"})]))
    with pytest.raises(ValueError, match="repeats a field name under NFKC"):
        print_instances(InstanceSet(doc_id="d", instances=[
            EntityInstance(class_name="A", assignments={"x\ufb01": "a", "xfi": "b"})]))


def printable_schema() -> Schema:
    return Schema(classes=[EntityClass(name="A", guideline="An a.", fields=[
        FieldDef(name="x", kind=TEXT, comment="the x")])])


# one row per way a schema can fail to print as notation that reads back as itself
UNPRINTABLE = {
    "no-classes": lambda s: s.classes.clear(),
    "class-name-not-identifier": lambda s: setattr(s.classes[0], "name", "1A"),
    "duplicate-class": lambda s: s.classes.append(EntityClass(
        name="A", guideline="Another a.", fields=[FieldDef(name="y", kind=TEXT,
                                                           comment="the y")])),
    "blank-guideline": lambda s: setattr(s.classes[0], "guideline", " \n "),
    "guideline-with-triple-quote": lambda s: setattr(s.classes[0], "guideline",
                                                     'has """ inside'),
    "guideline-ending-in-quote": lambda s: setattr(s.classes[0], "guideline",
                                                   'ends with a quote"'),
    "no-fields": lambda s: s.classes[0].fields.clear(),
    "field-name-not-identifier": lambda s: setattr(s.classes[0].fields[0], "name", "x y"),
    "duplicate-field": lambda s: s.classes[0].fields.append(
        FieldDef(name="x", kind=TEXT_LIST, comment="more x")),
    "unknown-kind": lambda s: setattr(s.classes[0].fields[0], "kind", "number"),
    "empty-comment": lambda s: setattr(s.classes[0].fields[0], "comment", ""),
    "padded-comment": lambda s: setattr(s.classes[0].fields[0], "comment", " the x "),
    "multi-line-comment": lambda s: setattr(s.classes[0].fields[0], "comment", "the\nx"),
    "class-name-keyword": lambda s: setattr(s.classes[0], "name", "None"),
    "field-name-keyword": lambda s: s.classes[0].fields.append(
        FieldDef(name="from", kind=TEXT, comment="origin")),
    "class-name-not-python-identifier": lambda s: setattr(s.classes[0], "name", "A\u00b2"),
    "field-name-not-python-identifier": lambda s: setattr(s.classes[0].fields[0], "name",
                                                          "x\u00b2"),
    "field-names-equal-under-nfkc": lambda s: s.classes[0].fields.extend([
        FieldDef(name="x\ufb01", kind=TEXT, comment="one"),
        FieldDef(name="xfi", kind=TEXT, comment="the same")]),
}


@pytest.mark.parametrize("spoil", UNPRINTABLE.values(), ids=UNPRINTABLE)
def test_print_rejects_a_schema_that_would_not_read_back(spoil):
    schema = printable_schema()
    print_guidelines(schema)
    spoil(schema)
    with pytest.raises(ValueError):
        print_guidelines(schema)


# -- randomized round-trip properties -----------------------------------------

names = st.builds(
    lambda first, rest: first + rest,
    st.sampled_from("ABCXYZabcz_"),
    st.text("abcxyz_0123456789", max_size=6),
)

guideline_texts = st.text(min_size=1, max_size=80).filter(
    lambda s: s.strip() and '"""' not in s and not s.endswith('"'))

comments = st.text(min_size=1, max_size=40).filter(
    lambda s: s == s.strip() and s and "\n" not in s and "\r" not in s)

field_defs = st.builds(
    FieldDef,
    name=names,
    kind=st.sampled_from([TEXT, TEXT_LIST]),
    comment=comments,
    required=st.booleans(),
)


@st.composite
def schemas(draw):
    class_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    classes = []
    for cname in class_names:
        fields = draw(st.lists(field_defs, min_size=1, max_size=5,
                               unique_by=lambda f: f.name))
        classes.append(EntityClass(name=cname, guideline=draw(guideline_texts),
                                   fields=fields))
    return Schema(classes=classes)


values = st.one_of(
    st.text(max_size=30),
    st.lists(st.text(max_size=15), min_size=1, max_size=4),
)


@st.composite
def instance_sets(draw):
    count = draw(st.integers(min_value=0, max_value=5))
    instances = []
    for _ in range(count):
        keys = draw(st.lists(names, min_size=1, max_size=4, unique=True))
        instances.append(EntityInstance(
            class_name=draw(names),
            assignments={k: draw(values) for k in keys}))
    return InstanceSet(doc_id="d", instances=instances)


@settings(max_examples=200, deadline=None)
@given(schemas())
def test_schema_round_trip_property(schema):
    # printed text takes the canonical path: the line parser never runs
    with mock.patch.object(notation, "_parse_lines",
                           side_effect=AssertionError("printed text reached the line parser")):
        text = print_guidelines(schema)
        assert parse_guidelines(text) == schema
        # printed text is a fixed point, so a dataset may write back the text it read
        assert print_guidelines(parse_guidelines(text)) == text


@settings(max_examples=200, deadline=None)
@given(instance_sets())
def test_instance_round_trip_property(iset):
    text = print_instances(iset)
    tokens = notation._parse_tokens

    def no_escape_reaches_tokens(text, doc_id):
        # printed text with no escape takes the quote split
        assert "\\" in text, "printed text reached the token parser"
        return tokens(text, doc_id)

    with mock.patch.object(notation, "_parse_tokens", no_escape_reaches_tokens):
        parsed = parse_instances(text, doc_id="d")
    assert parsed == iset
    assert print_instances(parsed) == text
    assert parsed.span == (0, len(text))  # the printed list is the whole text


# -- differential test against the reference parser ----------------------------

# Layout and literal contents come from one binary draw each, mapped onto a
# small alphabet: per-character draws would make generation the test's cost.
LAYOUT = ["", "", "", " ", "  ", "\n", "\t", "\r\n", "\n    "]
LITERAL_CHARS = "ab \\\n\t\"'\u00e9\r,=)]"
EDIT_CHARS = list("[]()\"'\\=,") + ["\n", "\t", "\u00e9", "0", "7"]
literal_bytes = st.binary(min_size=1, max_size=9)
short_names = st.sampled_from(["A", "Foo", "_k", "x9", "B\u00e9", "x\u00b2", "name", "from",
                               "xfi", "x\ufb01"])


def string_literal(data: bytes) -> str:
    """A quoted literal: the first byte picks the quote style and whether the
    optional escapes are used, the rest picks the characters."""
    quote, other = ("\"", "'") if data[0] % 2 else ("'", "\"")
    escapes = {"\\": "\\\\", "\n": "\\n", quote: "\\" + quote}
    if data[0] % 4 >= 2:
        escapes.update({"\t": "\\t", other: "\\" + other})
    value = (LITERAL_CHARS[b % len(LITERAL_CHARS)] for b in data[1:])
    return quote + "".join(escapes.get(c, c) for c in value) + quote


@st.composite
def notation_texts(draw):
    """Instance notation with free layout between tokens, prose, trailing commas
    and a few one-character edits."""
    seps = iter([LAYOUT[b % len(LAYOUT)] for b in draw(st.binary(max_size=96))])
    ws = lambda: next(seps, "")  # noqa: E731
    calls = []
    for _ in range(draw(st.integers(0, 4))):
        keys = draw(st.lists(short_names, min_size=1, max_size=3, unique=True))
        if draw(st.integers(0, 9)) == 0:
            keys.append(keys[0])
        kws = []
        for key in keys:
            if draw(st.booleans()):
                items = [string_literal(draw(literal_bytes))
                         for _ in range(draw(st.integers(1, 3)))]
                value = "[" + ws() + (ws() + "," + ws()).join(items) + ws() + "]"
            else:
                value = string_literal(draw(literal_bytes))
            kws.append(key + ws() + "=" + ws() + value)
        calls.append(draw(short_names) + ws() + "(" + ws() + (ws() + "," + ws()).join(kws)
                     + ws() + ")")
    body = (ws() + "," + ws()).join(calls)
    if calls and draw(st.booleans()):
        body += ws() + ","
    prose = draw(st.sampled_from(["", "Sure: ", "Here (1):\n", "x = "]))
    text = prose + "[" + ws() + body + ws() + "]" + draw(st.sampled_from(["", " Done.", "]"]))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "substitute"]))
        char = draw(st.sampled_from(EDIT_CHARS))
        if edit == "insert":
            text = text[:at] + char + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at + 1:]
    return text


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return (exc.line, exc.col, exc.message)


@settings(max_examples=300, deadline=None)
@given(notation_texts())
def test_parse_instances_matches_reference_parser(text):
    assert _outcome(parse_instances, text, "d") == _outcome(oracle_parse_instances, text, "d")


# Ways a model's guideline text departs from the canonical layout, each one
# substitution on one line; some make valid text invalid.
LINE_EDITS = [
    (r"$", "\r"),
    (r"$", " "),
    (r"^    ", "\t"),
    (r"^    ", "  "),
    (r"^", "\n"),
    (r"^", " \n"),
    (r"^@dataclass$", "@dataclass(frozen=True)"),
    (r"^@dataclass$", "@register\n@dataclass"),
    (r"^@dataclass$", ""),
    (r"Optional\[(.*)\]", r"Optional[ \1 ]"),
    (r": ", " : "),
    (r"  # ", " #"),
    (r"  # ", "  #  "),
    (r"  # .*", "  #  "),
    (r'^    """', '    """"'),
    (r'"""$', '""""'),
    (r'^    """.*', '    """ """'),
    (r"^(class |    )\w+", r"\1from"),
    (r"^(class |    )\w+", "\\g<0>\u00b2"),
    (r"^.*$", r"\g<0>\n\g<0>"),
]
GUIDELINE_EDIT_CHARS = list('"#:@[] \n\t\rx_') + ["\u00b2", "\u00e9", "\x0c"]


def near_canonical(text, picks):
    """Variants of canonical text: itself, every class twice, each line edit
    alone and paired with another, and a one-character edit per pick. A pick
    chooses which line an edit applies to, or where a character goes."""
    lines = text.split("\n")

    def edit(lines, k, pick):
        pattern, repl = LINE_EDITS[k % len(LINE_EDITS)]
        where = [i for i, line in enumerate(lines) if re.search(pattern, line)]
        if not where:
            return lines
        at = where[pick % len(where)]
        return lines[:at] + [re.sub(pattern, repl, lines[at], count=1)] + lines[at + 1:]

    yield text
    yield text + "\n" + text
    for k in range(len(LINE_EDITS)):
        once = edit(lines, k, picks[0])
        yield "\n".join(once)
        yield "\n".join(edit(once, k + picks[1], picks[2]))
    for pick in picks:
        at = pick % (len(text) + 1)
        char = GUIDELINE_EDIT_CHARS[(pick >> 8) % len(GUIDELINE_EDIT_CHARS)]
        yield text[:at] + char + text[at + pick % 2:]


@settings(max_examples=100, deadline=None)
@given(schemas(), st.lists(st.integers(0, 2**16), min_size=3, max_size=8))
def test_parse_guidelines_matches_line_parser(schema, picks):
    for text in near_canonical(print_guidelines(schema), picks):
        assert _outcome(parse_guidelines, text) == _outcome(notation._parse_lines, text), text


# Ways a model's instance list departs from the layout print_instances writes,
# each one substitution at the match a pick chooses; most make the list invalid.
INSTANCE_EDITS = [
    (r'="', '="\\\\'),  # a backslash in a value
    (r'\["', '["\n'),  # a raw newline in a value
    (r'="', '="\''),  # a single quote in a value
    (r'=\["[^"]*"', "=['a'"),  # a single-quoted item
    (r'=(?:"[^"]*"|\[[^\]]*\])', "=[]"),  # an empty list value
    (r"\)\]$", "), ]"),  # a trailing ", " closing the list
    (r'"\)', '", )'),  # a trailing ", " closing a call
    (r", ", ", , "),  # a doubled separator
    (r", ", ","),  # a removed space
    (r"\w+=", "from="),  # keyword names and non-ASCII names
    (r"\w+\(", "None("),
    (r"\w+=", "x\u00b2="),
    (r"\w+\(", "B\u00e9("),
    (r"\w+=", "B\u00e9="),
    (r"\w+=", "x\ufb01="),
    (r'\((\w+)(="[^"]*", )\w+=', r"(\1\2\1="),  # a duplicate key
    (r'\((\w+)(="[^"]*", )\w+=', "(xfi\\2x\ufb01="),  # keys equal under NFKC
    (r"\]$", "]\n"),  # other layout
    (r"^\[", "[ "),
]
# prose around the list; the last one ends as a list does, after a quote
INSTANCE_PROSE = [("", ""), ("Sure: ", ""), ('Found "these" \\ here:\n', ""), ("", " Done."),
                  ("[1] ", ""), ("", '"x")]')]


def near_printed(text, picks):
    """Variants of printed instance text: with prose before or after, each edit
    alone and paired with another, and a one-character edit per pick."""
    def edit(text, k, pick):
        pattern, repl = INSTANCE_EDITS[k % len(INSTANCE_EDITS)]
        where = list(re.finditer(pattern, text))
        if not where:
            return text
        m = where[pick % len(where)]
        return text[:m.start()] + m.expand(repl) + text[m.end():]

    for before, after in INSTANCE_PROSE:
        yield before + text + after
    for k in range(len(INSTANCE_EDITS)):
        once = edit(text, k, picks[0])
        yield once
        yield edit(once, k + picks[1], picks[2])
    for pick in picks:
        at = pick % (len(text) + 1)
        char = EDIT_CHARS[(pick >> 8) % len(EDIT_CHARS)]
        yield text[:at] + char + text[at + pick % 2:]


@settings(max_examples=150, deadline=None)
@given(instance_sets(), st.lists(st.integers(0, 2**16), min_size=3, max_size=8))
def test_parse_instances_fast_path_matches_token_parser(iset, picks):
    for text in near_printed(print_instances(iset), picks):
        fast = _outcome(parse_instances, text, "d")
        tokens = _outcome(notation._parse_tokens, text, "d")
        assert fast == tokens, text
        assert getattr(fast, "span", None) == getattr(tokens, "span", None), text
