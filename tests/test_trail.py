"""The trail names each prompt by its request key; these tests show that no
audit is lost: every prompt can be rebuilt from the trail, the templates and
the documents, and matches the key and length the trail recorded."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from annoforge.cli import main
from annoforge.config import build_client, build_templates, load_config
from annoforge.corpus import Document
from annoforge.llm import ChatRequest
from annoforge.notation import parse_guidelines, print_guidelines
from annoforge.pipeline import (
    REPAIR_SUFFIX,
    STAGES,
    _parse_structured,
    default_templates,
    run_pipeline,
    strip_fences,
    structured_to_json,
)
from builders import DOC1, DOC2, collect, demo_client, paris_client
from clirunner import CliRunner
from scripted import INSTANCES, REPAIR, STRUCTURE, SUMMARIZE, ScriptedClient

DATA = Path(__file__).parent / "data"
CONFIG = DATA / "config.yaml"


def render(stage: str, templates, text: str, answers: dict[str, str]) -> str:
    """A stage's first prompt, from the document and earlier parsed answers."""
    tmpl = templates[stage]
    if stage == "summarize":
        return "".join(tmpl.render(document=text))
    summary = answers["summarize"].strip()
    if stage == "structure":
        return "".join(tmpl.render(document=text, summary=summary))
    structured_json = structured_to_json(_parse_structured(answers["structure"]))
    if stage == "guidelines":
        return "".join(tmpl.render(document=text, summary=summary,
                                   structured_json=structured_json))
    schema = parse_guidelines(strip_fences(answers["guidelines"]))
    return "".join(tmpl.render(document=text, structured_json=structured_json,
                               guidelines=print_guidelines(schema)))


def rebuild_prompts(lines: list[dict], texts: dict[str, str], templates) -> list[str]:
    """Every prompt the trail names, in trail order."""
    prompts, answers, previous = [], {}, None
    for line in lines:
        assert line["template"] == templates[line["stage"]].version
        done = answers.setdefault(line["doc_id"], {})
        prompt = render(line["stage"], templates, texts[line["doc_id"]], done)
        if line["attempt"] > 1:
            prompt += REPAIR_SUFFIX.format(error=previous["error"])
        prompts.append(prompt)
        if line["parsed_ok"]:
            done[line["stage"]] = line["raw_response"]
        previous = line
    return prompts


def generate_golden(tmp_path) -> list[dict]:
    result = CliRunner().invoke(main, ["--config", str(CONFIG), "--output-dir",
                                       str(tmp_path), "generate"], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return [json.loads(line) for line in
            (tmp_path / "trail.jsonl").read_text(encoding="utf-8").splitlines()]


def test_golden_trail_rebuilds_every_prompt(tmp_path):
    lines = generate_golden(tmp_path)
    cfg = load_config(CONFIG)
    texts = {json.loads(line)["id"]: json.loads(line)["text"]
             for line in (DATA / "docs.jsonl").read_text(encoding="utf-8").splitlines()}
    cached = {json.loads(line)["request_key"]
              for line in (DATA / "cache.jsonl").read_text(encoding="utf-8").splitlines()}
    params = build_client(cfg).params
    prompts = rebuild_prompts(lines, texts, build_templates(cfg))
    assert len(prompts) == 20
    for line, prompt in zip(lines, prompts):
        key = ChatRequest((prompt,), params).request_key
        assert key == line["request_key"]
        assert key in cached
        assert len(prompt) == line["prompt_chars"]
        assert line["error"] is None and line["usage"] is None


def test_trail_keeps_the_keys_the_benchmark_reads(tmp_path):
    for line in generate_golden(tmp_path):
        assert isinstance(line["doc_id"], str)
        assert line["stage"] in STAGES
        assert isinstance(line["attempt"], int) and line["attempt"] >= 1
        assert isinstance(line["parsed_ok"], bool)


def test_repairs_rebuild_exactly_the_prompts_sent():
    one, two = "TensorFlow was developed", "Paris hosted"
    client = demo_client()
    structure = next(r for n, r in client.rules if n == (STRUCTURE, one))
    client.rules[:0] = ScriptedClient() \
        .add((SUMMARIZE, one, REPAIR), "- TensorFlow and PyTorch: frameworks") \
        .add((SUMMARIZE, one), "- TensorFlow and", finish_reason="length") \
        .add((STRUCTURE, one, REPAIR), structure.text) \
        .add((STRUCTURE, one), "not json") \
        .add((INSTANCES, two), "no list at all").rules
    records, rejects, trail = collect(run_pipeline([DOC1, DOC2], default_templates(),
                                                   client))
    assert [r.doc_id for r in records] == [DOC1.doc_id]
    assert [(r.doc_id, r.stage) for r in rejects] == [(DOC2.doc_id, "instances")]
    lines = [asdict(step) for step in trail]
    assert [line["error"] is not None for line in lines[:4]] == [True, False, True, False]
    assert lines[0]["error"] == "response truncated by the token limit"
    assert lines[2]["error"].startswith("invalid JSON")

    prompts = rebuild_prompts(lines, {DOC1.doc_id: DOC1.text, DOC2.doc_id: DOC2.text},
                              default_templates())
    # two documents run at once, so the calls interleave across them
    assert sorted(prompts) == sorted(client.calls)
    for line, prompt in zip(lines, prompts):
        assert line["request_key"] == ChatRequest((prompt,), client.params).request_key
        assert line["prompt_chars"] == len(prompt)


def test_trail_lines_do_not_grow_with_the_document():
    client = paris_client()
    sentence = "Paris is a city on the Seine. "
    docs = [Document(f"d{size}", (sentence * (size // len(sentence) + 1))[:size])
            for size in (1_000, 100_000)]
    mean_line = {}
    for _, _, steps in run_pipeline(docs, default_templates(), client):
        assert len(steps) == 4
        mean_line[steps[0].doc_id] = sum(len(json.dumps(asdict(s))) for s in steps) / 4
    assert mean_line["d100000"] < 2 * mean_line["d1000"]
