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

An ``InstanceSet`` may carry ``offsets``: one entry per span value, in
instance, keyword and list-element order, each the code-point index in the
document where that span occurs verbatim, or -1. ``validate`` tests each span
at its entry with ``document.startswith`` and searches the document only
where that fails (a list of another length gives no hints). An offset is
checked before it is used, so it can only spare a search: a right, stale or
missing offset gives the same errors. ``validate`` then sets the offsets to
what it found, the first occurrence for a span it searched, and
``filter_instances`` keeps the entries of the surviving instances. A set
without offsets gets none, and takes the loop with no offset bookkeeping.
Under ``off`` nothing is searched, so the offsets become None.
"""

from __future__ import annotations

import enum

from . import Value
from .notation import TEXT, TEXT_LIST, EntityInstance, InstanceSet, Schema

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
    A set with ``offsets`` has them checked and replaced (module docstring).
    """
    if grounding not in GROUNDING_POLICIES:
        raise ValueError(f"unknown grounding policy {grounding!r}")
    classes = schema.class_map()
    norm_doc = None  # the normalized document, made at the first span it is needed for
    verbatim = document  # ``span in verbatim``: does the span occur verbatim?
    if instance_set.offsets is not None:
        if grounding == "off":
            instance_set.offsets = None  # nothing is searched, so no offset is known
        else:
            verbatim = _locate(instance_set, document)
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
                if span in verbatim:
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


def _spans(inst: EntityInstance) -> list[str]:
    """The instance's span values, in keyword and list-element order."""
    return [span for value in inst.assignments.values()
            for span in (value if isinstance(value, list) else (value,))]


def _locate(instance_set: InstanceSet, document: str) -> set[str]:
    """The spans of ``instance_set`` that occur verbatim in ``document``.

    Each span is tested at its offset and searched for only where it is not
    there; the offsets are then replaced by what was found."""
    spans = [span for inst in instance_set.instances for span in _spans(inst)]
    hints = instance_set.offsets
    if len(hints) != len(spans):
        hints = [-1] * len(spans)
    offsets = [at if at >= 0 and document.startswith(span, at) else document.find(span)
               for span, at in zip(spans, hints)]
    instance_set.offsets = offsets
    return {span for span, at in zip(spans, offsets) if at >= 0}


def filter_instances(instance_set: InstanceSet, schema: Schema, document: str,
                     grounding: str = "normalized"
                     ) -> tuple[InstanceSet, list[ValidationError]]:
    """Drop every instance with at least one violation.

    Returns the surviving instances (original order), with the offsets
    ``validate`` left for them, plus all errors found. The survivors always
    re-validate cleanly under the same policy.
    """
    errors = validate(instance_set, schema, document, grounding=grounding)
    flagged = {e.instance_index for e in errors}
    kept = [inst for i, inst in enumerate(instance_set.instances) if i not in flagged]
    offsets = instance_set.offsets
    if offsets is not None and flagged:
        offsets, pos = [], 0
        for i, inst in enumerate(instance_set.instances):
            end = pos + len(_spans(inst))
            if i not in flagged:
                offsets += instance_set.offsets[pos:end]
            pos = end
    return InstanceSet(doc_id=instance_set.doc_id, instances=kept, offsets=offsets), errors
