from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annoforge import validation
from annoforge.notation import EntityInstance, InstanceSet, parse_guidelines, parse_instances
from annoforge.validation import (
    GROUNDING_POLICIES,
    ErrorCode,
    filter_instances,
    normalize_span,
    validate,
)
from oracles import oracle_grounded

SCHEMA = parse_guidelines('''@dataclass
class Framework:
    """A machine learning library."""
    name: str  # the framework name
    developer: Optional[str]  # who builds it
    aliases: Optional[List[str]]  # other names

@dataclass
class Dataset:
    """A named collection of training data."""
    name: str  # the dataset name
''')

DOC = "TensorFlow was developed by Google. PyTorch, also called torch, trains on ImageNet."


def check(text, **kwargs):
    return validate(parse_instances(text, doc_id="d1"), SCHEMA, DOC, **kwargs)


def codes(errors):
    return [e.code for e in errors]


def test_clean_instances_produce_no_errors():
    errs = check('[Framework(name="TensorFlow", developer="Google"), '
                 'Framework(name="PyTorch", aliases=["torch"]), '
                 'Dataset(name="ImageNet")]')
    assert errs == []


def test_undefined_entity_type():
    errs = check('[Methodology(name="TensorFlow")]')
    assert codes(errs) == [ErrorCode.UNDEFINED_ENTITY_TYPE]
    assert errs[0].class_name == "Methodology"
    assert errs[0].field is None
    assert errs[0].code.value == "UndefinedEntityType"


def test_undefined_type_still_checks_values():
    # the class is unknown, but blank and ungrounded values are still reported
    errs = check('[Methodology(name="  ", source="Mars")]')
    assert codes(errs) == [ErrorCode.UNDEFINED_ENTITY_TYPE,
                           ErrorCode.EMPTY_VALUE,
                           ErrorCode.UNGROUNDED_SPAN]


def test_misaligned_attribute():
    errs = check('[Framework(name="TensorFlow", country="Google")]')
    assert codes(errs) == [ErrorCode.MISALIGNED_ATTRIBUTE]
    assert errs[0].field == "country"
    assert errs[0].code.value == "MisalignedAttribute"


def test_missing_required_field():
    errs = check('[Framework(developer="Google")]')
    assert codes(errs) == [ErrorCode.MISSING_REQUIRED_FIELD]
    assert errs[0].field == "name"
    assert errs[0].code.value == "MissingRequiredField"


def test_optional_fields_may_be_absent():
    assert check('[Framework(name="TensorFlow")]') == []


def test_type_mismatch_list_for_text():
    errs = check('[Framework(name=["TensorFlow", "PyTorch"])]')
    assert codes(errs) == [ErrorCode.TYPE_MISMATCH]
    assert errs[0].code.value == "TypeMismatch"


def test_type_mismatch_text_for_list():
    errs = check('[Framework(name="PyTorch", aliases="torch")]')
    assert codes(errs) == [ErrorCode.TYPE_MISMATCH]
    assert errs[0].field == "aliases"


def test_empty_value_variants():
    assert codes(check('[Framework(name="")]')) == [ErrorCode.EMPTY_VALUE]
    assert codes(check('[Framework(name="   ")]')) == [ErrorCode.EMPTY_VALUE]
    assert codes(check('[Framework(name="PyTorch", aliases=["torch", " "])]')) == \
        [ErrorCode.EMPTY_VALUE]
    assert check('[Framework(name="")]')[0].code.value == "EmptyValue"


def test_ungrounded_span():
    errs = check('[Framework(name="Keras")]')
    assert codes(errs) == [ErrorCode.UNGROUNDED_SPAN]
    assert "Keras" in errs[0].message
    assert errs[0].code.value == "UngroundedSpan"


def test_grounding_checks_each_list_element():
    errs = check('[Framework(name="PyTorch", aliases=["torch", "PT"])]')
    assert codes(errs) == [ErrorCode.UNGROUNDED_SPAN]
    assert errs[0].field == "aliases"
    assert "'PT'" in errs[0].message


def test_grounding_policy_exact_vs_normalized():
    shouting = '[Framework(name="TENSORFLOW")]'
    assert codes(check(shouting, grounding="exact")) == [ErrorCode.UNGROUNDED_SPAN]
    assert check(shouting, grounding="normalized") == []
    assert check(shouting, grounding="off") == []


def test_normalized_grounding_collapses_whitespace():
    doc = "The New\n  York  office opened."
    errs = validate(parse_instances('[City(name="New York")]', doc_id="d"),
                    parse_guidelines('@dataclass\nclass City:\n    """A city."""\n'
                                     '    name: str  # city name\n'),
                    doc)
    assert errs == []


# letters, two of which change length when case-folded, and whitespace that is not a space
GROUNDING_ALPHABET = "aAbSs\u00df\u0130i \t\n\xa0\u2028"
WHITESPACE_RUNS = [" ", "\t", "\xa0", "\u2028", "  \n"]


@st.composite
def grounding_cases(draw):
    """A document and spans cut from it (verbatim, case- or whitespace-varied) or not."""
    document = draw(st.text(GROUNDING_ALPHABET, max_size=30))
    spans = []
    for kind in draw(st.lists(st.sampled_from(["slice", "case", "space", "absent"]),
                              min_size=1, max_size=6)):
        start = draw(st.integers(0, len(document)))
        span = document[start:draw(st.integers(start, len(document)))]  # may cut mid-word
        if kind == "case":
            span = draw(st.sampled_from([str.upper, str.lower, str.swapcase, str.casefold]))(span)
        elif kind == "space":
            span = re.sub(r"\s+", lambda _: draw(st.sampled_from(WHITESPACE_RUNS)), span)
        elif kind == "absent":
            span = draw(st.text(GROUNDING_ALPHABET + "z", min_size=1, max_size=8))
        spans.append(span)
    return document, spans


SPAN_SCHEMA = parse_guidelines('@dataclass\nclass Span:\n    """A span."""\n'
                               "    value: str  # the text\n")


def span_set(spans, offsets=None):
    return InstanceSet(doc_id="d", instances=[EntityInstance("Span", {"value": span})
                                              for span in spans], offsets=offsets)


@settings(max_examples=300, deadline=None)
@given(grounding_cases())
def test_validate_flags_exactly_the_spans_the_definition_calls_ungrounded(case):
    document, spans = case
    iset = span_set(spans)
    for policy in GROUNDING_POLICIES:
        flagged = {e.instance_index for e in validate(iset, SPAN_SCHEMA, document, policy)
                   if e.code == ErrorCode.UNGROUNDED_SPAN}
        assert flagged == {i for i, span in enumerate(spans)
                           if span.strip() and not oracle_grounded(span, document, policy)}


@settings(max_examples=300, deadline=None)
@given(grounding_cases(), st.data())
def test_offsets_never_change_a_verdict(case, data):
    """No, right and bad offsets give the same errors; each offset left on the
    set is -1 exactly when its span is not a verbatim substring."""
    document, spans = case
    right = [document.find(span) for span in spans]
    # negative, past the end or off by one, entry by entry
    bad = [data.draw(st.sampled_from([-1, -2, len(document) + 1, at - 1, at + 1]))
           for at in right]
    wrong_length = data.draw(st.sampled_from([[], right[:-1], right + [0]]))
    for policy in GROUNDING_POLICIES:
        expected = validate(span_set(spans), SPAN_SCHEMA, document, policy)
        for hints in (right, bad, wrong_length):
            iset = span_set(spans, offsets=list(hints))
            assert validate(iset, SPAN_SCHEMA, document, policy) == expected
            if policy == "off":
                assert iset.offsets is None
                continue
            assert len(iset.offsets) == len(spans)
            for span, at in zip(spans, iset.offsets):
                if span in document:
                    assert at >= 0 and document.startswith(span, at)
                else:
                    assert at == -1
            kept, _ = filter_instances(span_set(spans, list(hints)), SPAN_SCHEMA,
                                       document, policy)
            flagged = {e.instance_index for e in expected}
            assert kept.offsets == [at for i, at in enumerate(iset.offsets)
                                    if i not in flagged]


def test_filter_keeps_the_offsets_of_the_kept_instances():
    iset = parse_instances('[Framework(name="PyTorch", aliases=["torch", "Keras"]), '
                           'Framework(name="TensorFlow", developer="Google"), '
                           'Dataset(name="ImageNet")]', doc_id="d1")
    iset.offsets = []  # no hints
    kept, errors = filter_instances(iset, SCHEMA, DOC)
    assert codes(errors) == [ErrorCode.UNGROUNDED_SPAN]
    assert iset.offsets == [DOC.find("PyTorch"), DOC.find("torch"), -1, 0,
                            DOC.find("Google"), DOC.find("ImageNet")]
    assert kept.offsets == iset.offsets[3:]
    assert validate(kept, SCHEMA, DOC) == []


def test_a_set_without_offsets_gets_none():
    iset = parse_instances('[Framework(name="TensorFlow"), Dataset(name="Imaginary")]',
                           doc_id="d1")
    for policy in GROUNDING_POLICIES:
        kept, _ = filter_instances(iset, SCHEMA, DOC, policy)
        assert iset.offsets is kept.offsets is None


def test_normalized_grounding_normalizes_the_document_only_for_a_span_not_verbatim(monkeypatch):
    normalized = []

    def counting(text):
        normalized.append(text)
        return normalize_span(text)

    monkeypatch.setattr(validation, "normalize_span", counting)
    verbatim = '[Framework(name="TensorFlow", aliases=["torch"]), Dataset(name="ImageNet")]'
    assert check(verbatim) == []
    assert normalized == []
    assert check('[Framework(name="TENSORFLOW", aliases=["Torch"])]') == []
    assert normalized.count(DOC) == 1


def test_grounding_off_skips_document_entirely():
    errs = check('[Framework(name="Keras", developer="nobody")]', grounding="off")
    assert errs == []


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        check('[Framework(name="TensorFlow")]', grounding="fuzzy")


def test_error_metadata():
    errs = check('[Framework(name="TensorFlow"), Dataset(name="Imaginary")]')
    assert len(errs) == 1
    err = errs[0]
    assert (err.doc_id, err.instance_index, err.class_name) == ("d1", 1, "Dataset")


def test_validate_is_deterministic():
    text = '[Framework(name="Keras", country="x"), Dataset(title="y")]'
    assert check(text) == check(text)


def test_filter_drops_only_flagged_instances():
    iset = parse_instances(
        '[Framework(name="TensorFlow"), Framework(name="Keras"), Dataset(name="ImageNet")]',
        doc_id="d1")
    kept, errors = filter_instances(iset, SCHEMA, DOC)
    assert [i.assignments["name"] for i in kept.instances] == ["TensorFlow", "ImageNet"]
    assert kept.doc_id == "d1"
    assert codes(errors) == [ErrorCode.UNGROUNDED_SPAN]
    assert errors == validate(iset, SCHEMA, DOC)


def test_filter_survivors_revalidate_cleanly():
    iset = parse_instances(
        '[Framework(name="Keras"), Methodology(name="x"), Framework(name="PyTorch", aliases=["torch", ""])]',
        doc_id="d1")
    kept, _ = filter_instances(iset, SCHEMA, DOC)
    assert validate(kept, SCHEMA, DOC) == []


def test_filter_can_drop_everything():
    iset = parse_instances('[Methodology(name="x")]', doc_id="d1")
    kept, errors = filter_instances(iset, SCHEMA, DOC)
    assert kept.instances == []
    assert errors


def test_normalize_span():
    assert normalize_span("  New\n\tYork  ") == "new york"
    assert normalize_span("Straße") == "strasse"
