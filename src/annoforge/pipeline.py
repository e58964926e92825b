"""Four-stage generation pipeline over one document at a time.

Stage order is strict: summarize the document, reorganize it into structured
JSON, derive per-document annotation guidelines (dataclass notation), then
extract instances of those classes. Each stage's prompt renders only from
earlier outputs plus the original document, and unparseable output triggers
a bounded repair loop before the document is rejected.

Every model call is audited as a StageRecord that names its prompt instead
of copying it: the request key, the template version and the prompt's
length. A prompt is rebuilt by rendering its template from the document and
the parsed responses of the document's earlier stages; a repair appends
``REPAIR_SUFFIX`` with the previous attempt's ``error``.

Documents are independent. Under ``replay`` no call waits on a network, so
they run one at a time in the calling thread, and the next document is drawn
only after the previous outcome is yielded; worker threads would only contend
for the interpreter lock. Under the other backends they run on
``2 * client.parallelism`` workers; one holds an endpoint slot only while its
request is on the wire. Outcomes are yielded in input order, each once it and
every earlier document are done, so a replay-backed run is byte-deterministic
and output can be streamed.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .corpus import Document
from .dataset import DatasetRecord
from .llm import LLMClient, LLMError
from .notation import (
    InstanceSet,
    ParseError,
    Schema,
    parse_guidelines,
    parse_instances,
    print_guidelines,
)
from .validation import filter_instances

STAGES = ("summarize", "structure", "guidelines", "instances")
STAGE_PLACEHOLDERS = {
    "summarize": ("document",),
    "structure": ("document", "summary"),
    "guidelines": ("document", "summary", "structured_json"),
    "instances": ("document", "structured_json", "guidelines"),
}
_PLACEHOLDER_RE = re.compile(r"\{(document|summary|structured_json|guidelines)\}")
_FENCE_RE = re.compile(r"```[a-zA-Z]*\s*\n(.*?)```", re.DOTALL)

MAX_PARSE_ATTEMPTS = 3  # first ask plus two repair re-asks
REPAIR_SUFFIX = ("\n\nYour previous response could not be used ({error}). "
                 "Answer again, following the required format exactly.")
# Document workers per endpoint slot: a document waiting out a retry or doing
# its own CPU work holds no slot, so one worker per slot leaves slots idle.
DOC_WORKERS_PER_SLOT = 2


class StageError(Exception):
    def __init__(self, stage: str, doc_id: str, reason: str) -> None:
        self.stage = stage
        self.doc_id = doc_id
        self.reason = reason
        super().__init__(f"stage {stage} failed for {doc_id}: {reason}")


@dataclass
class PromptTemplate:
    """A stage prompt with named placeholders, versioned by content hash."""

    stage: str
    template_text: str
    version: str = field(init=False)
    # the text between placeholders and the placeholders' names, alternating
    pieces: list[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        required = STAGE_PLACEHOLDERS[self.stage]
        found = _PLACEHOLDER_RE.findall(self.template_text)
        for name in required:
            if found.count(name) != 1:
                raise ValueError(f"{self.stage} template must use {{{name}}} exactly "
                                 f"once, found {found.count(name)}")
        for name in found:
            if name not in required:
                raise ValueError(f"{self.stage} template must not use {{{name}}}")
        digest = hashlib.sha256(self.template_text.encode("utf-8")).hexdigest()
        self.version = digest[:8]
        self.pieces = _PLACEHOLDER_RE.split(self.template_text)

    def render(self, **bindings: str) -> tuple[str, ...]:
        """The prompt's parts, in order: template text and bound values.

        Each value is its binding's own string object, so a document bound in
        several prompts keeps one memoized escape for the request key.
        Placeholder-like text inside a binding is left alone.
        """
        required = STAGE_PLACEHOLDERS[self.stage]
        missing = [name for name in required if name not in bindings]
        if missing:
            raise ValueError(f"unbound placeholders: {missing}")
        return tuple(bindings[piece] if i % 2 else piece
                     for i, piece in enumerate(self.pieces))


def load_template(path: str | Path, stage: str) -> PromptTemplate:
    try:
        return PromptTemplate(stage=stage,
                              template_text=Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def default_templates() -> dict[str, PromptTemplate]:
    """The packaged template assets, one per stage."""
    directory = Path(__file__).parent / "templates"
    return {stage: load_template(directory / f"{stage}.txt", stage)
            for stage in STAGES}


@dataclass
class StageRecord:
    doc_id: str
    stage: str
    attempt: int
    parsed_ok: bool
    raw_response: str
    request_key: str
    template: str  # the stage template's version
    prompt_chars: int
    error: str | None  # what the response drew; the next re-ask quotes it
    usage: dict | None  # token counts, from a live endpoint only


@dataclass
class RejectEntry:
    doc_id: str
    stage: str
    reason: str


# one document's result: a record or a reject (the other is None), and its trail
Outcome = tuple[DatasetRecord | None, RejectEntry | None, list[StageRecord]]


def _ask(client: LLMClient, tmpl: PromptTemplate, prompt: tuple[str, ...], parse,
         doc_id: str, trail: list[StageRecord]):
    """Ask, parse, and re-ask with the parser's complaint appended on failure."""
    error = None
    for attempt in range(1, MAX_PARSE_ATTEMPTS + 1):
        parts = prompt if error is None else (*prompt, REPAIR_SUFFIX.format(error=error))
        try:
            response = client.complete(*parts)
        except LLMError as exc:
            raise StageError(tmpl.stage, doc_id, str(exc)) from exc
        error = None
        if response.finish_reason == "length":
            error = "response truncated by the token limit"
        else:
            try:
                value = parse(response.text)
            except (ParseError, ValueError) as exc:
                error = str(exc)
        trail.append(StageRecord(doc_id=doc_id, stage=tmpl.stage, attempt=attempt,
                                 parsed_ok=error is None, raw_response=response.text,
                                 request_key=response.request_key,
                                 template=tmpl.version, prompt_chars=sum(map(len, parts)),
                                 error=error, usage=response.usage))
        if error is None:
            return value
    raise StageError(tmpl.stage, doc_id, error)


def strip_fences(text: str) -> str:
    """Return the contents of the first markdown code fence, if any."""
    m = _FENCE_RE.search(text)
    return m.group(1) if m else text


def stage_summarize(doc: Document, tmpl: PromptTemplate, client: LLMClient,
                    trail: list[StageRecord]) -> str:
    def parse(text: str) -> str:
        if not text.strip():
            raise ValueError("empty summary")
        return text.strip()

    prompt = tmpl.render(document=doc.text)
    return _ask(client, tmpl, prompt, parse, doc.doc_id, trail)


def _parse_structured(text: str) -> list[dict]:
    """Normalise the structure stage's JSON to ``[{"label", "attributes"}]``."""
    try:
        payload = json.loads(strip_fences(text).strip())
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from exc
    if isinstance(payload, dict) and isinstance(payload.get("entities"), list):
        payload = payload["entities"]
    if isinstance(payload, dict):
        payload = [{"label": label, "attributes": attrs}
                   for label, attrs in payload.items()]
    if not isinstance(payload, list):
        raise ValueError("expected a JSON array of entities")
    entries = []
    for item in payload:
        if not isinstance(item, dict):
            raise ValueError("each entity must be a JSON object")
        label = item.get("label") or item.get("type") or item.get("entity")
        if not isinstance(label, str) or not label.strip():
            raise ValueError("entity without a label")
        raw_attrs = item.get("attributes")
        if raw_attrs is None:
            raw_attrs = {k: v for k, v in item.items()
                         if k not in ("label", "type", "entity")}
        if not isinstance(raw_attrs, dict):
            raise ValueError(f"attributes of {label!r} must be an object")
        attrs: dict[str, str | list[str]] = {}
        for name, value in raw_attrs.items():
            attrs[name] = _coerce_value(label, name, value)
        # key order is part of the rendered prompts, and so of the request keys
        entries.append({"label": label.strip(), "attributes": attrs})
    if not entries:
        raise ValueError("empty structured record")
    return entries


def _coerce_value(label: str, name: str, value) -> str | list[str]:
    def scalar(v) -> str:
        if isinstance(v, (dict, list)):
            raise ValueError(f"nested value for {label}.{name} is not supported")
        text = v if isinstance(v, str) else json.dumps(v)
        if not text.strip():
            raise ValueError(f"empty value for {label}.{name}")
        return text

    if isinstance(value, list):
        if not value:
            raise ValueError(f"empty value for {label}.{name}")
        return [scalar(v) for v in value]
    return scalar(value)


def structured_to_json(structured: list[dict]) -> str:
    return json.dumps(structured, indent=2, ensure_ascii=False)


def stage_structure(doc: Document, summary: str, tmpl: PromptTemplate,
                    client: LLMClient, trail: list[StageRecord]) -> list[dict]:
    prompt = tmpl.render(document=doc.text, summary=summary)
    return _ask(client, tmpl, prompt, _parse_structured, doc.doc_id, trail)


def stage_guidelines(doc: Document, summary: str, structured_json: str,
                     tmpl: PromptTemplate, client: LLMClient,
                     trail: list[StageRecord]) -> tuple[str, Schema]:
    def parse(text: str):
        return text, parse_guidelines(strip_fences(text))

    prompt = tmpl.render(document=doc.text, summary=summary,
                         structured_json=structured_json)
    return _ask(client, tmpl, prompt, parse, doc.doc_id, trail)


def stage_instances(doc: Document, structured_json: str, guidelines: str,
                    tmpl: PromptTemplate, client: LLMClient,
                    trail: list[StageRecord]) -> InstanceSet:
    prompt = tmpl.render(document=doc.text, structured_json=structured_json,
                         guidelines=guidelines)
    return _ask(client, tmpl, prompt,
                lambda text: parse_instances(text, doc_id=doc.doc_id), doc.doc_id, trail)


def truncate_document(text: str, max_chars: int | None) -> tuple[str, bool]:
    """Tail-first truncation to a character budget, cut at a word boundary."""
    if max_chars is None or len(text) <= max_chars:
        return text, False
    cut = text[:max_chars]
    split_mid_word = (max_chars > 0 and not cut[-1].isspace()
                      and not text[max_chars].isspace())
    if split_mid_word and any(c.isspace() for c in cut.strip()):
        cut = cut.rsplit(None, 1)[0]
    return cut, True


def config_meta(templates: dict[str, PromptTemplate], client: LLMClient,
                grounding: str) -> dict:
    """The part of a record's ``meta`` the run's config sets; ``--resume`` checks it."""
    return {"templates": {stage: templates[stage].version for stage in STAGES},
            "model": client.params.model_name,
            "grounding": grounding}


def run_pipeline(docs: Iterable[Document], templates: dict[str, PromptTemplate],
                 client: LLMClient, *, keep_empty: bool = False,
                 grounding: str = "normalized",
                 max_doc_chars: int | None = None) -> Iterator[Outcome]:
    """Run all four stages per document; failures reject, never abort.

    Yields an ``Outcome`` per document, in input order; closing the generator
    cancels the documents not yet started. A resume passes only the documents
    its output dataset does not hold yet.
    """
    for stage in STAGES:
        if stage not in templates:
            raise ValueError(f"missing template for stage {stage!r}")

    def process(doc: Document):
        trail: list[StageRecord] = []
        text, truncated = truncate_document(doc.text, max_doc_chars)
        doc = Document(doc.doc_id, text)
        try:
            summary = stage_summarize(doc, templates["summarize"], client, trail)
            structured = stage_structure(doc, summary, templates["structure"],
                                         client, trail)
            # rendered once: the guidelines and instances prompts both quote it
            structured_json = structured_to_json(structured)
            guidelines_text, schema = stage_guidelines(
                doc, summary, structured_json, templates["guidelines"], client, trail)
            # printed once: the instances prompt quotes it and the record stores it
            schema_text = print_guidelines(schema)
            raw_instances = stage_instances(doc, structured_json, schema_text,
                                            templates["instances"], client, trail)
        except StageError as exc:
            return None, RejectEntry(doc_id=doc.doc_id, stage=exc.stage,
                                     reason=exc.reason), trail
        raw_instances.offsets = []  # no hints: validate records where it finds each span
        kept, errors = filter_instances(raw_instances, schema, doc.text,
                                        grounding=grounding)
        if not kept.instances and not keep_empty:
            return None, RejectEntry(
                doc_id=doc.doc_id, stage="filter",
                reason=f"no instances survived validation "
                       f"({len(raw_instances.instances)} raw, "
                       f"{len(errors)} errors)"), trail
        record = DatasetRecord(
            doc_id=doc.doc_id,
            document=doc.text,
            summary=summary,
            structured=structured,
            guidelines_text=guidelines_text,
            schema=schema,
            instances=kept,
            source=[(schema, schema_text)],
            validation={
                "grounding": grounding,
                "raw_count": len(raw_instances.instances),
                "kept_count": len(kept.instances),
                "errors": [{"code": e.code.value, "instance_index": e.instance_index,
                            "class_name": e.class_name, "field": e.field,
                            "message": e.message} for e in errors],
            },
            meta={
                **config_meta(templates, client, grounding),
                "backend": client.backend,
                "truncated": truncated,
                # wall-clock stamps would break replay byte-determinism
                "generated_at": (None if client.backend == "replay" else
                                 datetime.now(timezone.utc).isoformat()),
            },
        )
        return record, None, trail

    if client.backend == "replay":  # no call waits, so a worker would only wait for the GIL
        yield from map(process, docs)
        return
    with ThreadPoolExecutor(max_workers=DOC_WORKERS_PER_SLOT * client.parallelism) as pool:
        # closing pool.map's iterator cancels its pending futures
        yield from pool.map(process, docs)
