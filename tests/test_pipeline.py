from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

import annoforge.dataset
import annoforge.pipeline
from annoforge import llm
from annoforge.config import build_client, build_templates, load_config, load_docs
from annoforge.corpus import Document
from annoforge.dataset import record_to_dict, write_dataset
from annoforge.notation import print_guidelines
from annoforge.pipeline import (
    PromptTemplate,
    StageError,
    default_templates,
    load_template,
    run_pipeline,
    stage_guidelines,
    stage_instances,
    stage_structure,
    stage_summarize,
    strip_fences,
    structured_to_json,
    truncate_document,
)
from builders import collect, make_records, paris_client
from scripted import GUIDELINES, INSTANCES, REPAIR, STRUCTURE, SUMMARIZE, ScriptedClient

DOC = Document(doc_id="ml-01",
               text="TensorFlow was developed by Google. PyTorch came from Meta.")

SUMMARY_TEXT = "- TensorFlow: a framework by Google\n- PyTorch: a framework by Meta"
STRUCTURE_TEXT = """```json
[
  {"label": "Framework", "attributes": {"name": "TensorFlow", "developer": "Google"}},
  {"label": "Framework", "attributes": {"name": "PyTorch", "developer": "Meta"}}
]
```"""
GUIDELINE_TEXT = '''```python
@dataclass
class Framework:
    """A software library used to build machine learning models. Annotate
    every framework the document names, once per framework."""
    name: str  # the framework's name exactly as written
    developer: Optional[str]  # the organization that created it
```'''
INSTANCE_TEXT = ('[Framework(name="TensorFlow", developer="Google"), '
                 'Framework(name="PyTorch", developer="Meta")]')


def scripted_for(doc_needle="TensorFlow was developed"):
    client = ScriptedClient()
    client.add((SUMMARIZE, doc_needle), SUMMARY_TEXT)
    client.add((STRUCTURE, doc_needle), STRUCTURE_TEXT)
    client.add((GUIDELINES, doc_needle), GUIDELINE_TEXT)
    client.add((INSTANCES, doc_needle), INSTANCE_TEXT)
    return client


def test_default_templates_cover_all_stages():
    templates = default_templates()
    assert set(templates) == {"summarize", "structure", "guidelines", "instances"}
    for stage, tmpl in templates.items():
        assert tmpl.stage == stage
        assert len(tmpl.version) == 8
        int(tmpl.version, 16)  # hex content hash


def test_template_placeholder_validation():
    with pytest.raises(ValueError, match="exactly once"):
        PromptTemplate(stage="summarize", template_text="no placeholder")
    with pytest.raises(ValueError, match="exactly once"):
        PromptTemplate(stage="summarize", template_text="{document} and {document}")
    with pytest.raises(ValueError, match="must not use"):
        PromptTemplate(stage="summarize", template_text="{document} {guidelines}")
    with pytest.raises(ValueError, match="unknown stage"):
        PromptTemplate(stage="translate", template_text="{document}")


def test_template_render_is_single_pass():
    tmpl = PromptTemplate(stage="structure", template_text="D={document} S={summary}")
    out = "".join(tmpl.render(document="doc has {summary} inside", summary="s"))
    # the placeholder-like text inside the document binding is left alone
    assert out == "D=doc has {summary} inside S=s"
    with pytest.raises(ValueError, match="unbound placeholders"):
        tmpl.render(document="x")


def test_template_literal_braces_survive():
    tmpl = PromptTemplate(stage="summarize",
                          template_text='Reply {"answer": ...} for {document}')
    assert "".join(tmpl.render(document="d")) == 'Reply {"answer": ...} for d'


def test_load_template_version_is_content_hash(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("Summarize: {document}")
    first = load_template(path, "summarize")
    assert load_template(path, "summarize").version == first.version
    path.write_text("Summarize better: {document}")
    assert load_template(path, "summarize").version != first.version


def test_strip_fences():
    assert strip_fences("```json\n[1]\n```") == "[1]\n"
    assert strip_fences("prose\n```python\ncode\n```\nmore") == "code\n"
    assert strip_fences("no fences") == "no fences"


def test_stage_summarize(tmp_path):
    client = scripted_for()
    trail = []
    summary = stage_summarize(DOC, default_templates()["summarize"], client, trail)
    assert summary == SUMMARY_TEXT
    assert len(trail) == 1
    assert (trail[0].stage, trail[0].attempt, trail[0].parsed_ok) == ("summarize", 1, True)
    assert DOC.text in client.calls[0]


def test_stage_summarize_rejects_blank_after_repairs():
    client = ScriptedClient().add(SUMMARIZE, "   ")
    trail = []
    with pytest.raises(StageError, match="empty summary"):
        stage_summarize(DOC, default_templates()["summarize"], client, trail)
    assert [r.attempt for r in trail] == [1, 2, 3]
    assert not any(r.parsed_ok for r in trail)
    assert REPAIR in client.calls[1]


def test_truncated_response_is_retried():
    client = ScriptedClient()
    client.add((SUMMARIZE, REPAIR), "complete summary")
    client.add(SUMMARIZE, "partial sum", finish_reason="length")
    trail = []
    summary = stage_summarize(DOC, default_templates()["summarize"], client, trail)
    assert summary == "complete summary"
    assert [r.parsed_ok for r in trail] == [False, True]
    assert "truncated" in client.calls[1]


def test_stage_structure_parses_fenced_json():
    client = scripted_for()
    trail = []
    structured = stage_structure(DOC, SUMMARY_TEXT, default_templates()["structure"],
                                 client, trail)
    assert [e["label"] for e in structured] == ["Framework", "Framework"]
    assert structured[0] == {"label": "Framework",
                             "attributes": {"name": "TensorFlow", "developer": "Google"}}
    assert SUMMARY_TEXT in client.calls[0]


@pytest.mark.parametrize("payload,labels", [
    ('{"Framework": {"name": "TensorFlow"}}', ["Framework"]),
    ('{"entities": [{"label": "City", "attributes": {"name": "Paris"}}]}', ["City"]),
    ('[{"type": "City", "name": "Paris"}]', ["City"]),
])
def test_stage_structure_tolerated_shapes(payload, labels):
    client = ScriptedClient().add(STRUCTURE, payload)
    structured = stage_structure(DOC, "s", default_templates()["structure"], client, [])
    assert [e["label"] for e in structured] == labels


def test_stage_structure_coerces_scalars():
    client = ScriptedClient().add(
        STRUCTURE, '[{"label": "City", "attributes": {"name": "Paris", "founded": 250}}]')
    structured = stage_structure(DOC, "s", default_templates()["structure"], client, [])
    assert structured[0]["attributes"]["founded"] == "250"


@pytest.mark.parametrize("payload,reason", [
    ("not json at all", "invalid JSON"),
    ("[]", "empty structured record"),
    ('[{"attributes": {"a": "b"}}]', "entity without a label"),
    ('[{"label": "X", "attributes": {"a": {"nested": 1}}}]', "nested value"),
    ('[{"label": "X", "attributes": {"a": ""}}]', "empty value"),
    ('["just a string"]', "must be a JSON object"),
])
def test_stage_structure_rejects_bad_payloads(payload, reason):
    client = ScriptedClient().add(STRUCTURE, payload)
    with pytest.raises(StageError, match=reason):
        stage_structure(DOC, "s", default_templates()["structure"], client, [])


def test_stage_structure_repair_loop_recovers():
    client = ScriptedClient()
    client.add((STRUCTURE, REPAIR), '[{"label": "City", "attributes": {"name": "Paris"}}]')
    client.add(STRUCTURE, "garbage")
    trail = []
    structured = stage_structure(DOC, "s", default_templates()["structure"], client, trail)
    assert structured[0]["label"] == "City"
    assert [(r.attempt, r.parsed_ok) for r in trail] == [(1, False), (2, True)]


def test_stage_guidelines_returns_raw_text_and_schema():
    client = scripted_for()
    trail = []
    structured_json = structured_to_json(stage_structure(
        DOC, SUMMARY_TEXT, default_templates()["structure"], client, []))
    raw, schema = stage_guidelines(DOC, SUMMARY_TEXT, structured_json,
                                   default_templates()["guidelines"], client, trail)
    assert raw == GUIDELINE_TEXT  # verbatim, fences included
    assert [c.name for c in schema.classes] == ["Framework"]
    assert '"label": "Framework"' in client.calls[1]  # after the structure call


def test_stage_guidelines_surfaces_parse_errors():
    bad = ('@dataclass\nclass A:\n    """D."""\n    x: str  # c\n'
           '@dataclass\nclass A:\n    """D."""\n    y: str  # c\n')
    client = ScriptedClient().add(GUIDELINES, bad)
    with pytest.raises(StageError, match="duplicate class name"):
        stage_guidelines(DOC, "s", _structured_json(client),
                         default_templates()["guidelines"], client, [])


def _structured_json(client):
    client.add(STRUCTURE, '[{"label": "A", "attributes": {"x": "y"}}]')
    return structured_to_json(
        stage_structure(DOC, "s", default_templates()["structure"], client, []))


def test_stage_instances_prompt_uses_canonical_guidelines():
    client = scripted_for()
    [(record, _, _)] = run_pipeline([DOC], default_templates(), client)
    assert len(record.instances.instances) == 2
    [instances_prompt] = [call for call in client.calls if INSTANCES in call]
    assert print_guidelines(record.schema) in instances_prompt


def test_stage_instances_empty_list_is_valid():
    client = ScriptedClient().add(INSTANCES, "No entities apply here: []")
    iset = stage_instances(DOC, "[]", '@dataclass\nclass A:\n    """D."""\n    x: str  # c\n',
                           default_templates()["instances"], client, [])
    assert iset.instances == []


def test_each_generated_record_prints_its_schema_once(tmp_path, monkeypatch):
    calls = []
    for module in (annoforge.pipeline, annoforge.dataset):
        printer = module.print_guidelines

        def counting(schema, printer=printer):
            calls.append(schema)
            return printer(schema)

        monkeypatch.setattr(module, "print_guidelines", counting)
    records = make_records()
    write_dataset(records, tmp_path / "dataset.jsonl")
    assert len(records) == 2
    assert len(calls) == 2


def test_truncate_document():
    assert truncate_document("short text", 100) == ("short text", False)
    assert truncate_document("short text", None) == ("short text", False)
    text, truncated = truncate_document("alpha beta gamma delta", 12)
    assert truncated
    assert text == "alpha beta"


SECOND_DOC = Document(doc_id="city-01", text="Paris hosted the 1924 Olympics.")


def scripted_two_docs():
    client = scripted_for()
    needle = "Paris hosted"
    client.add((SUMMARIZE, needle), "- Paris: city, hosted the 1924 Olympics")
    client.add((STRUCTURE, needle),
               '[{"label": "City", "attributes": {"name": "Paris"}}]')
    client.add((GUIDELINES, needle),
               '@dataclass\nclass City:\n    """A populated place named in the '
               'document."""\n    name: str  # the city name as written\n')
    client.add((INSTANCES, needle), '[City(name="Paris")]')
    return client


def test_run_pipeline_happy_path():
    client = scripted_two_docs()
    records, rejects, trail = collect(run_pipeline([DOC, SECOND_DOC],
                                                   default_templates(), client))
    assert [r.doc_id for r in records] == ["ml-01", "city-01"]
    assert rejects == []
    record = records[0]
    assert record.summary == SUMMARY_TEXT
    assert len(record.instances.instances) == 2
    assert record.validation["kept_count"] == 2
    assert record.validation["errors"] == []
    assert record.meta["templates"]["summarize"] == default_templates()["summarize"].version
    assert record.meta["backend"] == "scripted"
    assert record.meta["truncated"] is False
    # audit completeness: every call the client saw is in the trail
    assert len(trail) == len(client.calls) == 8


def test_run_pipeline_yields_each_document_with_its_own_trail():
    client = scripted_for()  # knows nothing about the second doc
    (record, no_reject, first), (no_record, reject, second) = run_pipeline(
        [DOC, SECOND_DOC], default_templates(), client)
    assert (record.doc_id, no_reject) == ("ml-01", None)
    assert (no_record, reject.doc_id) == (None, "city-01")
    assert [t.doc_id for t in first] == ["ml-01"] * 4
    assert second == []  # the first call failed before any response


def test_run_pipeline_filters_and_rejects_vacuous_docs():
    client = scripted_two_docs()
    # make every instance of the second doc ungrounded so the filter drops them
    client.rules = [(n, r) for n, r in client.rules
                    if "City(name=" not in r.text]
    client.add((INSTANCES, "Paris hosted"), '[City(name="Berlin")]')
    records, rejects, _ = collect(run_pipeline([DOC, SECOND_DOC],
                                               default_templates(), client))
    assert [r.doc_id for r in records] == ["ml-01"]
    assert len(rejects) == 1
    reject = rejects[0]
    assert (reject.doc_id, reject.stage) == ("city-01", "filter")
    assert "no instances survived" in reject.reason

    kept, _, _ = collect(run_pipeline([SECOND_DOC], default_templates(), client,
                                      keep_empty=True))
    assert len(kept) == 1
    assert kept[0].instances.instances == []
    assert kept[0].validation["raw_count"] == 1


@pytest.mark.parametrize("grounding, kept", [
    ("exact", ["PyTorch", "Meta"]),
    ("normalized", ["PyTorch", "Meta", "TENSORFLOW"]),
    ("off", ["Keras", "Google", "PyTorch", "Meta", "TENSORFLOW"]),
])
def test_run_pipeline_records_where_it_found_each_kept_span(grounding, kept):
    client = scripted_for()
    client.rules = [(n, r) for n, r in client.rules if r.text != INSTANCE_TEXT]
    client.add((INSTANCES, "TensorFlow was developed"),
               '[Framework(name="Keras", developer="Google"), '
               'Framework(name="PyTorch", developer="Meta"), Framework(name="TENSORFLOW")]')
    (record,), _, _ = collect(run_pipeline([DOC], default_templates(), client,
                                           grounding=grounding))
    assert [value for inst in record.instances.instances
            for value in inst.assignments.values()] == kept
    if grounding == "off":  # nothing was searched, so no offset is known
        assert record.instances.offsets is None
        assert "offsets" not in record_to_dict(record)
    else:  # the first occurrence, or -1 for a span grounded only after normalization
        assert record_to_dict(record)["offsets"] == [DOC.text.find(span) for span in kept]


def test_run_pipeline_stage_failure_names_stage():
    client = scripted_for()
    client.add((SUMMARIZE, "Paris hosted"), "- Paris: a city")
    client.add((STRUCTURE, "Paris hosted"), "still not json")
    records, rejects, _ = collect(run_pipeline([DOC, SECOND_DOC],
                                               default_templates(), client))
    assert [r.doc_id for r in records] == ["ml-01"]
    assert [(r.doc_id, r.stage) for r in rejects] == [("city-01", "structure")]
    assert "invalid JSON" in rejects[0].reason


def test_run_pipeline_client_error_rejects_doc():
    client = scripted_for()  # knows nothing about the second doc
    records, rejects, _ = collect(run_pipeline([DOC, SECOND_DOC],
                                               default_templates(), client))
    assert [r.doc_id for r in records] == ["ml-01"]
    assert rejects[0].doc_id == "city-01"
    assert rejects[0].stage == "summarize"
    assert "no scripted response" in rejects[0].reason


def test_run_pipeline_empty_corpus():
    assert list(run_pipeline([], default_templates(), scripted_for())) == []


def test_run_pipeline_requires_all_templates():
    templates = default_templates()
    del templates["instances"]
    client = scripted_for()
    with pytest.raises(ValueError, match="missing template for stage 'instances'"):
        list(run_pipeline([DOC], templates, client))
    assert client.calls == []


def record_bytes(records):
    dicts = [record_to_dict(r) for r in records]
    for d in dicts:
        d["meta"]["generated_at"] = None  # wall clock; only set off-replay
    return json.dumps(dicts, sort_keys=True)


def test_run_pipeline_parallelism_preserves_order_and_bytes():
    serial, _, _ = collect(run_pipeline([DOC, SECOND_DOC], default_templates(),
                                        scripted_two_docs()))
    client = scripted_two_docs()
    client.parallelism = 3
    parallel, _, _ = collect(run_pipeline([DOC, SECOND_DOC], default_templates(), client))
    assert record_bytes(serial) == record_bytes(parallel)


def test_replay_runs_each_document_in_the_calling_thread_once_drawn():
    """No replay call waits on a network, so the documents run one at a time
    in the caller's thread, each drawn only once the previous one is taken."""
    cfg = load_config(Path(__file__).parent / "data" / "config.yaml")
    client = build_client(cfg)
    assert (client.backend, client.parallelism) == ("replay", 2)
    threads = []
    complete = client.complete

    def on_thread(*parts):
        threads.append(threading.get_ident())
        return complete(*parts)

    client.complete = on_thread
    drawn = []

    def counted(docs):
        for doc in docs:
            drawn.append(doc.doc_id)
            yield doc

    outcomes = run_pipeline(counted(load_docs(cfg)), build_templates(cfg), client)
    _, reject, _ = next(outcomes)
    assert reject is None and len(drawn) == 1
    outcomes.close()
    assert len(drawn) == 1
    assert len(threads) == 4 and set(threads) == {threading.get_ident()}


BROKEN_DOC = Document(doc_id="rome-01", text="Rome was founded on the Palatine.")
UNKNOWN_DOC = Document(doc_id="none-01", text="Nothing is scripted for this text.")


class FirstDocsLast(ScriptedClient):
    """Answers the first two documents only once the last two are done."""

    def __init__(self, rules):
        super().__init__(parallelism=3)
        self.rules = rules
        self.second_done = threading.Event()
        self.unknown_done = threading.Event()

    def complete(self, *parts):
        prompt = "".join(parts)
        if DOC.text in prompt or BROKEN_DOC.text in prompt:
            assert self.second_done.wait(5) and self.unknown_done.wait(5)
        try:
            return super().complete(*parts)
        finally:
            if INSTANCES in prompt and SECOND_DOC.text in prompt:
                self.second_done.set()
            if UNKNOWN_DOC.text in prompt:
                self.unknown_done.set()


def test_run_pipeline_keeps_input_order_when_later_docs_finish_first():
    docs = [DOC, BROKEN_DOC, SECOND_DOC, UNKNOWN_DOC]
    reference = scripted_two_docs()
    reference.add((SUMMARIZE, "Rome was founded"), "- Rome: a city")
    reference.add((STRUCTURE, "Rome was founded"), "still not json")
    one_slot = collect(run_pipeline(docs, default_templates(), reference))
    records, rejects, trail = collect(
        run_pipeline(docs, default_templates(), FirstDocsLast(reference.rules)))

    assert [r.doc_id for r in records] == ["ml-01", "city-01"]
    assert [(r.doc_id, r.stage) for r in rejects] == \
        [("rome-01", "structure"), ("none-01", "summarize")]
    assert [t.doc_id for t in trail] == \
        ["ml-01"] * 4 + ["rome-01"] * 4 + ["city-01"] * 4
    assert record_bytes(records) == record_bytes(one_slot[0])
    assert rejects == one_slot[1]
    assert trail == one_slot[2]


def test_run_pipeline_truncates_long_documents():
    long_doc = Document(doc_id="long-01", text=DOC.text + " filler" * 2000)
    client = ScriptedClient()
    client.add(SUMMARIZE, SUMMARY_TEXT)
    client.add(STRUCTURE, STRUCTURE_TEXT)
    client.add(GUIDELINES, GUIDELINE_TEXT)
    client.add(INSTANCES, INSTANCE_TEXT)
    [(record, _, _)] = run_pipeline([long_doc], default_templates(), client,
                                    max_doc_chars=len(DOC.text))
    assert record.meta["truncated"] is True
    assert record.document == DOC.text
    # the truncated text, not the original, is what every prompt rendered
    assert all(len(call) < 3000 for call in client.calls)


def test_a_document_is_escaped_once_for_all_its_prompts(monkeypatch):
    """The request key reuses each prompt part's escape, and the document is
    one part in all five prompts here (four stages and a structure repair)."""
    text = "Paris is quoted by five prompts and escaped for their keys once."
    escaped = []

    def counting(part):
        escaped.append(part)
        return json.encoder.encode_basestring_ascii(part)

    monkeypatch.setattr(llm, "encode_basestring_ascii", counting)
    llm._escaped.cache_clear()
    client = ScriptedClient().add((STRUCTURE, REPAIR),
                                  '[{"label": "City", "attributes": {"name": "Paris"}}]')
    client = paris_client(client.add(STRUCTURE, "not json"))
    records, rejects, trail = collect(run_pipeline(
        [Document("paris-01", text)], default_templates(), client, max_doc_chars=1000))
    assert (len(records), rejects) == (1, [])
    assert [t.stage for t in trail] == \
        ["summarize", "structure", "structure", "guidelines", "instances"]
    assert len([part for part in escaped if text in part]) == 1
