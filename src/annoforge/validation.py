"""Static checks that bind extracted instances to a schema and a document.

Every check is purely structural; no model is consulted. The error taxonomy:

* ``UndefinedEntityType`` -- the instance names a class the schema lacks
* ``MisalignedAttribute`` -- a keyword that is not a field of the class
* ``MissingRequiredField`` -- a non-Optional field with no assignment
* ``TypeMismatch`` -- a list where text is declared, or text where a list is
* ``UngroundedSpan`` -- a value that does not occur in the source document
* ``EmptyValue`` -- a blank string, an empty list, or a blank list element

Grounding is controlled by a policy: ``exact`` requires verbatim substring
presence, ``normalized`` (the default) compares after case folding and
whitespace collapsing, ``off`` disables the check.

Under ``normalized`` a span is first looked up verbatim, and the document is
normalized only for a span that is not found so. The shortcut is exact: a
verbatim substring stays a substring once both sides are normalized.
Collapsing whitespace keeps the substring's words in order, one space apart;
only the two words it cuts at its ends are shorter than the document's, and
each still ends or starts its own. ``casefold`` then maps each character on
its own, with no context, so folding both sides keeps one inside the other.
"""

from __future__ import annotations

import enum

from . import Value
from .notation import TEXT, TEXT_LIST, InstanceSet, Schema

GROUNDING_POLICIES = ("exact", "normalized", "off")
MATCHING_MODES = ("exact", "normalized")  # how ``eval`` compares span text


class ErrorCode(str, enum.Enum):
    UNDEFINED_ENTITY_TYPE = "UndefinedEntityType"
    MISALIGNED_ATTRIBUTE = "MisalignedAttribute"
    MISSING_REQUIRED_FIELD = "MissingRequiredField"
    TYPE_MISMATCH = "TypeMismatch"
    UNGROUNDED_SPAN = "UngroundedSpan"
    EMPTY_VALUE = "EmptyValue"

    def __str__(self) -> str:  # "ErrorCode.X" would leak into messages
        return self.value


class ValidationError(Value):
    __slots__ = _fields = ("code", "doc_id", "instance_index", "class_name", "field", "message")

    def __init__(self, code: ErrorCode, doc_id: str, instance_index: int, class_name: str,
                 field: str | None, message: str) -> None:
        self.code = code
        self.doc_id = doc_id
        self.instance_index = instance_index
        self.class_name = class_name
        self.field = field
        self.message = message


def normalize_span(text: str) -> str:
    """Collapse runs of whitespace and fold case, for lenient span matching."""
    return " ".join(text.split()).casefold()


def validate(instance_set: InstanceSet, schema: Schema, document: str,
             grounding: str = "normalized") -> list[ValidationError]:
    """Check every instance against the schema and the document.

    Returns one entry per violation, in instance order; an empty list means
    the set is clean under the given grounding policy. A span that occurs
    verbatim is grounded under either policy; only under ``normalized``, and
    only for a span that does not, is the document normalized, at most once
    per call (the module docstring says why this gives the same verdicts).
    """
    if grounding not in GROUNDING_POLICIES:
        raise ValueError(f"unknown grounding policy {grounding!r}")
    classes = schema.class_map()
    norm_doc = None  # the normalized document, made at the first span it is needed for
    errors: list[ValidationError] = []

    def add(code: ErrorCode, index: int, cname: str, fname: str | None, msg: str) -> None:
        errors.append(ValidationError(code=code, doc_id=instance_set.doc_id,
                                      instance_index=index, class_name=cname,
                                      field=fname, message=msg))

    for index, inst in enumerate(instance_set.instances):
        cls = classes.get(inst.class_name)
        if cls is None:
            add(ErrorCode.UNDEFINED_ENTITY_TYPE, index, inst.class_name, None,
                f"no class named {inst.class_name!r} in the schema")
        fields = cls.field_map() if cls is not None else {}
        for key, value in inst.assignments.items():
            fdef = fields.get(key)
            if cls is not None and fdef is None:
                add(ErrorCode.MISALIGNED_ATTRIBUTE, index, inst.class_name, key,
                    f"{inst.class_name} has no field {key!r}")
            elif fdef is not None:
                if fdef.kind == TEXT and isinstance(value, list):
                    add(ErrorCode.TYPE_MISMATCH, index, inst.class_name, key,
                        f"{key!r} expects text but got a list")
                elif fdef.kind == TEXT_LIST and isinstance(value, str):
                    add(ErrorCode.TYPE_MISMATCH, index, inst.class_name, key,
                        f"{key!r} expects a list but got text")
            spans = value if isinstance(value, list) else [value]
            if not spans or any(not s.strip() for s in spans):
                add(ErrorCode.EMPTY_VALUE, index, inst.class_name, key,
                    f"{key!r} is empty")
                continue
            if grounding == "off":
                continue
            for span in spans:
                if span in document:
                    continue
                if grounding == "normalized":
                    if norm_doc is None:
                        norm_doc = normalize_span(document)
                    if normalize_span(span) in norm_doc:
                        continue
                add(ErrorCode.UNGROUNDED_SPAN, index, inst.class_name, key,
                    f"value {span!r} of {key!r} does not occur in the document")
        if cls is not None:
            for fdef in cls.fields:
                if fdef.required and fdef.name not in inst.assignments:
                    add(ErrorCode.MISSING_REQUIRED_FIELD, index, inst.class_name,
                        fdef.name, f"required field {fdef.name!r} is not assigned")
    return errors


def filter_instances(instance_set: InstanceSet, schema: Schema, document: str,
                     grounding: str = "normalized"
                     ) -> tuple[InstanceSet, list[ValidationError]]:
    """Drop every instance with at least one violation.

    Returns the surviving instances (original order) plus all errors found.
    The survivors always re-validate cleanly under the same policy.
    """
    errors = validate(instance_set, schema, document, grounding=grounding)
    flagged = {e.instance_index for e in errors}
    kept = [inst for i, inst in enumerate(instance_set.instances) if i not in flagged]
    return InstanceSet(doc_id=instance_set.doc_id, instances=kept), errors
