"""End-to-end command tests against the committed replay fixtures."""

import argparse
import gc
import json
import logging
import os
import shlex
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import annoforge
import annoforge.dataset
from annoforge.cli import build_parser, main
from annoforge.dataset import write_dataset
from annoforge.jsonl import dumps
from annoforge.llm import ChatRequest, GenerationParams, ReplayCache
from annoforge.notation import EntityInstance, parse_instances, print_instances
from annoforge.pipeline import PromptTemplate, default_templates
from builders import make_records, paris_client, stats_record
from chatserver import completion
from clirunner import CliRunner
from memory import traced_peak
from scripted import ScriptedClient

DATA = Path(__file__).parent / "data"
CONFIG = DATA / "config.yaml"
GOLDEN_DATASET = DATA / "golden" / "dataset.jsonl"
GOLDEN_TRAIN = DATA / "golden" / "train.jsonl"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


def generate_into(runner, out_dir):
    result = invoke(runner, "--config", CONFIG, "--output-dir", out_dir, "generate")
    assert result.exit_code == 0, result.output + result.stderr
    return out_dir / "dataset.jsonl"


def mutated_dataset(tmp_path):
    """Golden dataset with every document replaced, so no span grounds."""
    lines = GOLDEN_DATASET.read_text(encoding="utf-8").splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        record = json.loads(line)
        record["document"] = "Completely unrelated text."
        out.append(json.dumps(record, sort_keys=True, ensure_ascii=False))
    path = tmp_path / "mutated.jsonl"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def edited_dataset(tmp_path, lineno, edit):
    """Golden dataset whose record on line ``lineno`` was changed in place by ``edit``."""
    lines = GOLDEN_DATASET.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[lineno - 1])
    edit(record)
    lines[lineno - 1] = json.dumps(record, sort_keys=True, ensure_ascii=False)
    path = tmp_path / "corrupt.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def corrupted_dataset(tmp_path, field):
    """Golden dataset whose second record has unparseable ``field`` text."""
    return edited_dataset(tmp_path, 3, lambda record: record.update({field: "not notation"}))


def cli_env() -> dict:
    """The environment for a CLI subprocess that imports this annoforge."""
    src = str(Path(annoforge.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# -- generate -----------------------------------------------------------------

def test_generate_matches_golden(runner, tmp_path, no_network):
    dataset = generate_into(runner, tmp_path)
    assert dataset.read_bytes() == GOLDEN_DATASET.read_bytes()
    assert (tmp_path / "rejects.jsonl").read_text() == ""
    trail = (tmp_path / "trail.jsonl").read_text().splitlines()
    assert len(trail) == 20


def test_generate_reports_counts(runner, tmp_path):
    result = invoke(runner, "--config", CONFIG, "--output-dir", tmp_path, "generate")
    assert "generated 5 records (5 total, 0 rejected)" in result.output


def test_generate_resume_skips_completed_docs(runner, tmp_path, no_network):
    dataset = generate_into(runner, tmp_path)
    before = dataset.read_bytes()
    trail = (tmp_path / "trail.jsonl").read_bytes()
    assert trail.count(b"\n") == 20

    # the resumed run must not need the model at all: point it at an empty
    # cache, where any request would fail with a replay miss
    (tmp_path / "empty-cache.jsonl").write_text("")
    (tmp_path / "resume.yaml").write_text(
        f"corpus: {DATA / 'docs.jsonl'}\n"
        "client: {backend: replay, cache: empty-cache.jsonl, model: fixture}\n",
        encoding="utf-8")
    result = invoke(runner, "--config", tmp_path / "resume.yaml",
                    "--output-dir", tmp_path, "--resume", "generate")
    assert result.exit_code == 0, result.output + result.stderr
    assert "generated 0 records (5 total, 0 rejected)" in result.output
    assert dataset.read_bytes() == before
    # the audit of the first run survives the resume
    assert (tmp_path / "trail.jsonl").read_bytes() == trail
    assert (tmp_path / "rejects.jsonl").read_bytes() == b""


@pytest.mark.parametrize("key", ["meta.templates.instances", "meta.model", "meta.grounding"])
def test_resume_refuses_records_of_another_config(runner, tmp_path, key):
    """A resume must not append records of other templates, another model or
    another grounding policy."""
    dataset = generate_into(runner, tmp_path)
    before = {name: (tmp_path / name).read_bytes()
              for name in ("dataset.jsonl", "trail.jsonl", "rejects.jsonl")}
    instances = default_templates()["instances"]
    edited = PromptTemplate("instances", instances.template_text + "\nBe exact.\n")
    (tmp_path / "instances.txt").write_text(edited.template_text, encoding="utf-8")
    model, changed, found, wanted = {
        "meta.templates.instances": ("fixture", "templates: {instances: instances.txt}\n",
                                     instances.version, edited.version),
        "meta.model": ("other", "", "fixture", "other"),
        "meta.grounding": ("fixture", "pipeline: {grounding: exact}\n", "normalized", "exact"),
    }[key]
    config = tmp_path / "changed.yaml"
    config.write_text(f"corpus: {DATA / 'docs.jsonl'}\n"
                      f"client: {{backend: replay, cache: {DATA / 'cache.jsonl'}, "
                      f"model: {model}}}\n{changed}", encoding="utf-8")
    result = invoke(runner, "--config", config, "--output-dir", tmp_path,
                    "--resume", "generate")
    assert result.exit_code == 2, result.output + result.stderr
    assert (f"{dataset}:2: cannot resume: {key} is {found!r} in the dataset "
            f"but {wanted!r} in this run") in result.stderr
    for name, content in before.items():
        assert (tmp_path / name).read_bytes() == content, name


def test_resume_cuts_a_torn_last_line(runner, tmp_path, caplog):
    golden = GOLDEN_DATASET.read_bytes().splitlines(keepends=True)
    dataset = tmp_path / "dataset.jsonl"
    # header, records 1-2, then record 3 cut off mid-line, as a kill leaves it
    dataset.write_bytes(b"".join(golden[:3]) + golden[3][:len(golden[3]) // 2])
    # cache lines 9-20 answer documents 3-5 only: a re-run of 1-2 would reject
    cache = (DATA / "cache.jsonl").read_bytes().splitlines(keepends=True)
    (tmp_path / "part-cache.jsonl").write_bytes(b"".join(cache[8:20]))
    # the trail and the rejects of the killed run, each torn the same way
    earlier = b'{"doc_id": "earlier"}\n'
    for name in ("trail.jsonl", "rejects.jsonl"):
        (tmp_path / name).write_bytes(earlier + b'{"doc_id": "ear')
    config = tmp_path / "part.yaml"
    config.write_text(f"corpus: {DATA / 'docs.jsonl'}\n"
                      "client: {backend: replay, cache: part-cache.jsonl, model: fixture}\n",
                      encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        result = invoke(runner, "--config", config, "--output-dir", tmp_path,
                        "--resume", "generate")
    assert result.exit_code == 0, result.output + result.stderr
    assert "generated 3 records (5 total, 0 rejected)" in result.output
    assert dataset.read_bytes() == GOLDEN_DATASET.read_bytes()
    assert f"{dataset}:4: dropping torn last line" in caplog.text
    trail = (tmp_path / "trail.jsonl").read_bytes().splitlines(keepends=True)
    assert trail[0] == earlier and len(trail) == 1 + 3 * 4
    assert [json.loads(line)["doc_id"] for line in trail[1:]] == \
        [doc_id for doc_id in list(FIXTURE_DOCS)[2:] for _ in range(4)]
    assert (tmp_path / "rejects.jsonl").read_bytes() == earlier
    for name in ("trail.jsonl", "rejects.jsonl"):
        assert f"{tmp_path / name}:2: dropping torn last line" in caplog.text


@pytest.mark.parametrize("kept_lines", [1, 0], ids=["header-only", "empty"])
def test_resume_without_records_writes_the_whole_dataset(runner, tmp_path, kept_lines):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_bytes(b"".join(GOLDEN_DATASET.read_bytes()
                                 .splitlines(keepends=True)[:kept_lines]))
    result = invoke(runner, "--config", CONFIG, "--output-dir", tmp_path,
                    "--resume", "generate")
    assert result.exit_code == 0, result.output + result.stderr
    assert "generated 5 records (5 total, 0 rejected)" in result.output
    assert dataset.read_bytes() == GOLDEN_DATASET.read_bytes()


def test_resume_keeps_a_whole_last_line_without_its_newline(runner, tmp_path):
    """A last line is whole exactly when it decodes: only its newline is
    added, and its document does not run again."""
    golden = GOLDEN_DATASET.read_bytes().splitlines(keepends=True)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_bytes(b"".join(golden[:4])[:-1])  # header and records 1-3
    result = invoke(runner, "--config", CONFIG, "--output-dir", tmp_path,
                    "--resume", "generate")
    assert result.exit_code == 0, result.output + result.stderr
    assert "generated 2 records (5 total, 0 rejected)" in result.output
    assert dataset.read_bytes() == GOLDEN_DATASET.read_bytes()
    trail = (tmp_path / "trail.jsonl").read_bytes().splitlines()
    assert [json.loads(line)["doc_id"] for line in trail] == \
        [doc_id for doc_id in list(FIXTURE_DOCS)[3:] for _ in range(4)]


def replay_from(runner, tmp_path):
    """``generate`` on the fixture corpus, replayed from ``tmp_path/cache.jsonl``."""
    config = tmp_path / "replay.yaml"
    config.write_text(f"corpus: {DATA / 'docs.jsonl'}\n"
                      "client: {backend: replay, cache: cache.jsonl, model: fixture}\n",
                      encoding="utf-8")
    return invoke(runner, "--config", config, "--output-dir", tmp_path / "out", "generate")


def test_replay_leaves_a_whole_cache_untouched(runner, tmp_path):
    cache = tmp_path / "cache.jsonl"
    shutil.copy(DATA / "cache.jsonl", cache)
    os.utime(cache, ns=(10**18, 10**18))
    before = cache.read_bytes()
    result = replay_from(runner, tmp_path)
    assert result.exit_code == 0, result.output + result.stderr
    assert cache.read_bytes() == before
    assert cache.stat().st_mtime_ns == 10**18


@pytest.mark.parametrize("line", ['{"request_key": "k1", "respo', '{"foo": 1}'],
                         ids=["bad-json", "no-response"])
def test_corrupt_cache_line_names_the_cache_and_line(runner, tmp_path, line):
    cache = tmp_path / "cache.jsonl"
    cache.write_text(line + "\n", encoding="utf-8")
    result = replay_from(runner, tmp_path)
    assert result.exit_code == 3
    assert f"runtime failure: {cache}:1: corrupt cache entry (" in result.stderr


def test_seed_without_a_sample_section_is_config_error(runner, tmp_path):
    result = invoke(runner, "--config", CONFIG, "--output-dir", tmp_path,
                    "--seed", "7", "generate")
    assert result.exit_code == 2
    assert "error: --seed needs a sample section" in result.stderr
    assert not (tmp_path / "dataset.jsonl").exists()


def test_resume_corrupt_middle_line_is_runtime_failure(runner, tmp_path):
    lines = GOLDEN_DATASET.read_bytes().splitlines(keepends=True)
    lines[2] = b"not json\n"
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_bytes(b"".join(lines))
    result = invoke(runner, "--config", CONFIG, "--output-dir", tmp_path,
                    "--resume", "generate")
    assert result.exit_code == 3
    assert f"{dataset}:3: corrupt record" in result.stderr
    assert dataset.read_bytes() == b"".join(lines)


def test_resume_refuses_a_doc_id_held_twice(runner, tmp_path):
    """A resume must not extend a dataset that already holds a document twice."""
    lines = GOLDEN_DATASET.read_bytes().splitlines(keepends=True)
    lines.insert(3, lines[1])  # record 1 again, as line 4
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_bytes(b"".join(lines))
    result = invoke(runner, "--config", CONFIG, "--output-dir", tmp_path,
                    "--resume", "generate")
    assert result.exit_code == 3
    doc_id = json.loads(lines[1])["doc_id"]
    assert (f"{dataset}:4: cannot resume: doc_id {doc_id!r} is already at line 2"
            in result.stderr)
    assert dataset.read_bytes() == b"".join(lines)


def paris_corpus(tmp_path, n_docs):
    """``n_docs`` short documents about Paris, and a config that reads them."""
    with open(tmp_path / "docs.jsonl", "w", encoding="utf-8") as fh:
        for i in range(n_docs):
            fh.write(json.dumps({"id": f"d{i:02d}", "text": f"Paris, text {i}."}) + "\n")
    (tmp_path / "cfg.yaml").write_text("corpus: docs.jsonl\n", encoding="utf-8")


class SlowAfterFirst(ScriptedClient):
    """Answers the first document at once and every other one after a wait,
    so the writer fails while the next two are still in flight."""

    def complete(self, *parts):
        if "text 0." not in "".join(parts):
            time.sleep(0.05)
        return super().complete(*parts)


def test_failed_write_stops_generate_early(runner, tmp_path, monkeypatch):
    """A writer error must not leave the queued documents running: on an
    HTTP backend each of them is paid model calls."""
    n_docs = 15
    paris_corpus(tmp_path, n_docs)
    client = paris_client(SlowAfterFirst())
    monkeypatch.setattr("annoforge.config.build_client", lambda cfg: client)

    def full_disk(records, path, *, append=False):
        next(iter(records))
        raise OSError("No space left on device")

    monkeypatch.setattr("annoforge.dataset.write_dataset", full_disk)
    result = invoke(runner, "--config", tmp_path / "cfg.yaml",
                    "--output-dir", tmp_path, "generate")
    assert result.exit_code == 3
    assert "No space left on device" in result.stderr
    # the first document, plus at most the two workers' documents in flight
    assert len(client.calls) <= 3 * 4 < n_docs * 4
    # and the document pool is shut down, not working through its queue
    assert not [t for t in threading.enumerate()
                if t.name.startswith("ThreadPoolExecutor")]


FIXTURE_DOCS = {json.loads(line)["id"]: json.loads(line)["text"]
                for line in (DATA / "docs.jsonl").read_text(encoding="utf-8").splitlines()}
FIXTURE_REPLIES = {entry["request_key"]: entry["response_text"]
                   for entry in map(json.loads, (DATA / "cache.jsonl").read_text(
                       encoding="utf-8").splitlines())}


def doc_of(payload: dict) -> str:
    prompt = payload["messages"][-1]["content"]
    return next(doc_id for doc_id, text in FIXTURE_DOCS.items() if text in prompt)


def fixture_reply(payload: dict):
    """The fixture cache's answer, served over HTTP."""
    request = ChatRequest(
        (payload["messages"][-1]["content"],),
        params=GenerationParams(temperature=payload["temperature"],
                                top_p=payload["top_p"],
                                max_new_tokens=payload["max_tokens"],
                                model_name=payload["model"]))
    return 200, completion(FIXTURE_REPLIES[request.request_key])


def without_clock(dataset: Path) -> list[dict]:
    records = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
    for record in records[1:]:
        record["meta"]["generated_at"] = None
    return records


def test_sigkill_then_resume_matches_an_uninterrupted_run(runner, tmp_path, chat_server):
    config = tmp_path / "http.yaml"
    config.write_text(f"corpus: {DATA / 'docs.jsonl'}\n"
                      f"client: {{backend: http, base_url: {chat_server.base_url}, "
                      # more slots than stalled documents, so 1-2 can finish
                      "model: fixture, parallelism: 4}\n", encoding="utf-8")
    first_two = set(list(FIXTURE_DOCS)[:2])
    release = threading.Event()

    def stall_after_two(payload):
        if doc_of(payload) not in first_two:
            release.wait(30)
        return fixture_reply(payload)

    chat_server.responder = stall_after_two
    killed = tmp_path / "killed"
    env = cli_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "annoforge.cli", "--config", str(config),
         "--output-dir", str(killed), "generate"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    dataset = killed / "dataset.jsonl"
    try:
        deadline = time.monotonic() + 30
        while not (dataset.exists() and dataset.read_bytes().count(b"\n") == 3):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
    finally:
        proc.kill()
        proc.wait(timeout=10)
    assert dataset.read_bytes().endswith(b"\n")  # each record is flushed whole
    # and after its document's trail, which is on disk whole as well
    trail = (killed / "trail.jsonl").read_bytes()
    assert trail.endswith(b"\n")
    assert [json.loads(line)["doc_id"] for line in trail.splitlines()] == \
        [doc_id for doc_id in list(FIXTURE_DOCS)[:2] for _ in range(4)]

    with chat_server.state_lock:
        chat_server.seen.clear()
    chat_server.responder = fixture_reply
    release.set()
    resumed = invoke(runner, "--config", config, "--output-dir", killed,
                     "--resume", "generate")
    assert resumed.exit_code == 0, resumed.output + resumed.stderr
    assert "generated 3 records (5 total, 0 rejected)" in resumed.output
    assert not first_two & {doc_of(s["payload"]) for s in chat_server.seen}
    trail = (killed / "trail.jsonl").read_bytes().splitlines()
    assert [json.loads(line)["doc_id"] for line in trail] == \
        [doc_id for doc_id in FIXTURE_DOCS for _ in range(4)]

    whole = tmp_path / "whole"
    assert invoke(runner, "--config", config, "--output-dir", whole,
                  "generate").exit_code == 0
    assert without_clock(dataset) == without_clock(whole / "dataset.jsonl")
    assert [r["doc_id"] for r in without_clock(dataset)[1:]] == list(FIXTURE_DOCS)


def test_record_miss_writes_token_usage_to_the_trail(runner, tmp_path, chat_server):
    chat_server.responder = fixture_reply
    config = tmp_path / "record.yaml"
    config.write_text(f"corpus: {DATA / 'docs.jsonl'}\n"
                      f"client: {{backend: record, base_url: {chat_server.base_url}, "
                      "cache: cache.jsonl, model: fixture}\n", encoding="utf-8")

    def trail_usage(out):
        assert invoke(runner, "--config", config, "--output-dir", out,
                      "generate").exit_code == 0
        return [json.loads(line)["usage"]
                for line in (out / "trail.jsonl").read_text(encoding="utf-8").splitlines()]

    assert trail_usage(tmp_path / "miss") == [{"prompt_tokens": 7, "completion_tokens": 5}] * 20
    assert len(chat_server.seen) == 20
    # the cache keeps its format, so a hit has no usage to report
    assert {tuple(sorted(json.loads(line))) for line in
            (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()} == \
        {("finish_reason", "request_key", "response_text")}
    assert trail_usage(tmp_path / "hit") == [None] * 20
    assert len(chat_server.seen) == 20


@pytest.mark.parametrize("content", ["A summary \ud83d cut short", None],
                         ids=["lone-surrogate", "null"])
def test_a_reply_the_trail_cannot_hold_rejects_only_its_document(runner, tmp_path,
                                                                 chat_server, content):
    bad_doc = list(FIXTURE_DOCS)[2]

    def one_bad_summary(payload):
        if doc_of(payload) == bad_doc and \
                "You are preparing a document" in payload["messages"][-1]["content"]:
            return 200, completion(content)
        return fixture_reply(payload)

    chat_server.responder = one_bad_summary
    config = tmp_path / "http.yaml"
    config.write_text(f"corpus: {DATA / 'docs.jsonl'}\n"
                      f"client: {{backend: http, base_url: {chat_server.base_url}, "
                      "model: fixture}\n", encoding="utf-8")
    result = invoke(runner, "--config", config, "--output-dir", tmp_path, "generate")
    assert result.exit_code == 0, result.output + result.stderr
    assert "generated 4 records (4 total, 1 rejected)" in result.output
    [reject] = [json.loads(line) for line in
                (tmp_path / "rejects.jsonl").read_text(encoding="utf-8").splitlines()]
    assert (reject["doc_id"], reject["stage"]) == (bad_doc, "summarize")
    assert reject["reason"].startswith("malformed endpoint response")
    records = without_clock(tmp_path / "dataset.jsonl")[1:]
    assert [r["doc_id"] for r in records] == [d for d in FIXTURE_DOCS if d != bad_doc]


def test_generate_logs_about_twenty_progress_lines(runner, tmp_path, monkeypatch, caplog):
    paris_corpus(tmp_path, 40)
    client = paris_client()
    monkeypatch.setattr("annoforge.config.build_client", lambda cfg: client)
    with caplog.at_level(logging.INFO, logger="annoforge.cli"):
        result = invoke(runner, "--config", tmp_path / "cfg.yaml",
                        "--output-dir", tmp_path, "generate")
    assert result.exit_code == 0, result.output + result.stderr
    progress = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("progress:")]
    assert 1 < len(progress) <= 20
    assert progress[-1].startswith("progress: 40/40 documents, ")
    assert "docs/s, ETA 0:00:00" in progress[-1]


def test_quiet_hides_progress_and_changes_no_output(tmp_path):
    env = cli_env()
    outputs, stderr = [], []
    for flags in ([], ["--quiet"]):
        out = tmp_path / ("quiet" if flags else "loud")
        result = subprocess.run(
            [sys.executable, "-m", "annoforge.cli", *flags, "--config", str(CONFIG),
             "--output-dir", str(out), "generate"],
            capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        stderr.append(result.stderr)
        outputs.append([(out / name).read_bytes()
                        for name in ("dataset.jsonl", "trail.jsonl", "rejects.jsonl")])
    # the CLI's own logger name, also when it runs as __main__
    assert "INFO annoforge.cli: progress: 5/5 documents" in stderr[0]
    assert "progress" not in stderr[1]
    assert outputs[0] == outputs[1]


def test_generate_without_resume_and_empty_cache_fails_all_docs(runner, tmp_path):
    (tmp_path / "empty-cache.jsonl").write_text("")
    (tmp_path / "cfg.yaml").write_text(
        f"corpus: {DATA / 'docs.jsonl'}\n"
        "client: {backend: replay, cache: empty-cache.jsonl, model: fixture}\n",
        encoding="utf-8")
    result = invoke(runner, "--config", tmp_path / "cfg.yaml",
                    "--output-dir", tmp_path, "generate")
    assert result.exit_code == 1
    assert "generated 0 records (0 total, 5 rejected)" in result.output
    rejects = [json.loads(line)
               for line in (tmp_path / "rejects.jsonl").read_text().splitlines()]
    assert len(rejects) == 5
    assert all(r["stage"] == "summarize" for r in rejects)


def test_generate_needs_config(runner, tmp_path):
    result = invoke(runner, "--output-dir", tmp_path, "generate")
    assert result.exit_code == 2
    assert "needs --config" in result.stderr


def test_config_with_credentials_is_rejected(runner, tmp_path):
    (tmp_path / "bad.yaml").write_text("client: {api_key: sk-123}\n")
    result = invoke(runner, "--config", tmp_path / "bad.yaml",
                    "--output-dir", tmp_path, "generate")
    assert result.exit_code == 2
    assert "credentials belong in the environment" in result.stderr


@pytest.mark.parametrize("section", ["client: 5", "pipeline: [grounding]"])
def test_config_section_that_is_not_a_mapping_is_config_error(runner, tmp_path, section):
    (tmp_path / "bad.yaml").write_text(section + "\n")
    result = invoke(runner, "--config", tmp_path / "bad.yaml",
                    "--output-dir", tmp_path, "generate")
    assert result.exit_code == 2
    assert f"error: {section.split(':')[0]} must be a mapping, got" in result.stderr


@pytest.mark.parametrize("value", [".nan", ".inf", "nan"])
def test_non_finite_temperature_is_config_error(runner, tmp_path, value):
    # NaN passes a "< 0" check, and no cached key would ever match it
    (tmp_path / "cfg.yaml").write_text(
        f"corpus: {DATA / 'docs.jsonl'}\n"
        f"client: {{backend: replay, cache: {DATA / 'cache.jsonl'}, model: fixture, "
        f"temperature: {value}}}\n", encoding="utf-8")
    result = invoke(runner, "--config", tmp_path / "cfg.yaml",
                    "--output-dir", tmp_path, "generate")
    assert result.exit_code == 2, result.output + result.stderr
    assert "error: client.temperature must be finite, got " in result.stderr


def test_missing_replay_cache_is_config_error(runner, tmp_path):
    (tmp_path / "cfg.yaml").write_text(
        f"corpus: {DATA / 'docs.jsonl'}\n"
        "client: {backend: replay, cache: gone.jsonl}\n", encoding="utf-8")
    result = invoke(runner, "--config", tmp_path / "cfg.yaml",
                    "--output-dir", tmp_path, "generate")
    assert result.exit_code == 2
    assert "replay cache not found" in result.stderr


# -- validate -----------------------------------------------------------------

def test_validate_clean_dataset(runner, tmp_path):
    dataset = generate_into(runner, tmp_path)
    result = invoke(runner, "validate", dataset)
    assert result.exit_code == 0
    assert "dropped 0 instances across 5 records" in result.output
    filtered = tmp_path / "dataset.filtered.jsonl"
    assert filtered.exists()


def test_validate_drops_ungrounded_instances(runner, tmp_path):
    path = mutated_dataset(tmp_path)
    out = tmp_path / "clean.jsonl"
    result = invoke(runner, "validate", path, "--out", out)
    assert result.exit_code == 1
    assert "UngroundedSpan:" in result.output
    assert "dropped 16 instances across 5 records" in result.output
    kept = [json.loads(line)["instances"]
            for line in out.read_text().splitlines()[1:]]
    assert all(instances == "[]" for instances in kept)


def test_validate_grounding_off_keeps_everything(runner, tmp_path):
    path = mutated_dataset(tmp_path)
    result = invoke(runner, "validate", path, "--grounding", "off")
    assert result.exit_code == 0
    assert "dropped 0 instances" in result.output


def test_validate_corrupt_dataset_is_runtime_failure(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    header = GOLDEN_DATASET.read_text().splitlines()[0]
    bad.write_text(header + "\nnot json\n", encoding="utf-8")
    result = invoke(runner, "validate", bad)
    assert result.exit_code == 3
    assert "runtime failure:" in result.stderr


def test_validate_in_place_keeps_every_record(runner, tmp_path):
    dataset = tmp_path / "ip.jsonl"
    shutil.copy(GOLDEN_DATASET, dataset)
    apart = invoke(runner, "validate", GOLDEN_DATASET, "--out", tmp_path / "apart.jsonl")
    result = invoke(runner, "validate", dataset, "--out", dataset)
    assert result.exit_code == apart.exit_code == 0, result.stderr
    assert "dropped 0 instances across 5 records" in result.output
    assert dataset.read_bytes() == (tmp_path / "apart.jsonl").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["apart.jsonl", "ip.jsonl"]


# Each record holds ``offsets``, where each span of its instance list occurs
# verbatim: a hint that spares a search only where it holds.

class SearchCounting(str):
    """A document that records each span searched for in it."""

    def __contains__(self, span):
        self.searches.append(span)
        return super().__contains__(span)

    def find(self, span, *args):
        self.searches.append(span)
        return super().find(span, *args)


def counted_searches(monkeypatch) -> list[str]:
    """Every span searched for in a document that ``annoforge.dataset`` reads."""
    searches = []
    read = annoforge.dataset.record_from_dict

    def reading(data, **kwargs):
        record = read(data, **kwargs)
        record.document = SearchCounting(record.document)
        record.document.searches = searches
        return record

    monkeypatch.setattr(annoforge.dataset, "record_from_dict", reading)
    return searches


def golden_record(lineno: int) -> tuple[dict, list[str]]:
    """The golden dataset's record on ``lineno`` and its span values in order."""
    record = json.loads(GOLDEN_DATASET.read_text(encoding="utf-8").splitlines()[lineno - 1])
    spans = [span for inst in parse_instances(record["instances"]).instances
             for value in inst.assignments.values()
             for span in (value if isinstance(value, list) else [value])]
    return record, spans


def test_offsets_that_hold_spare_every_search(runner, tmp_path, monkeypatch):
    searches = counted_searches(monkeypatch)
    record, spans = golden_record(3)
    stale = edited_dataset(tmp_path, 3, lambda data: data["offsets"].__setitem__(
        1, data["offsets"][1] + 1))
    for dataset, searched in [(GOLDEN_DATASET, []), (stale, [spans[1]])]:
        for command in ("validate", "emit-train"):
            out = tmp_path / f"{command}.jsonl"
            result = invoke(runner, command, dataset, "--out", out)
            assert result.exit_code == 0, result.stderr
            assert searches == searched, (dataset, command)
            searches.clear()
        # validate writes the offsets back, the stale one found again
        assert json.loads((tmp_path / "validate.jsonl").read_text(
            encoding="utf-8").splitlines()[2])["offsets"] == record["offsets"]


def test_offsets_of_another_length_are_searched_again(runner, tmp_path, monkeypatch):
    record, spans = golden_record(3)
    dataset = edited_dataset(tmp_path, 3, lambda data: data["offsets"].pop())
    searches = counted_searches(monkeypatch)
    out = tmp_path / "out.jsonl"
    result = invoke(runner, "validate", dataset, "--out", out)
    assert result.exit_code == 0, result.stderr
    assert searches == spans
    assert json.loads(out.read_text(encoding="utf-8").splitlines()[2])["offsets"] \
        == record["offsets"]


def test_validate_adds_no_offsets_to_a_record_without_them(runner, tmp_path):
    header, *lines = GOLDEN_DATASET.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for record in records:
        del record["offsets"]
    dataset, out = tmp_path / "dataset.jsonl", tmp_path / "out.jsonl"
    dataset.write_text(header + "\n" + "".join(map(dumps, records)), encoding="utf-8")
    result = invoke(runner, "validate", dataset, "--out", out)
    assert result.exit_code == 0, result.stderr
    # each record as it was read, with the new verdict
    assert out.read_text(encoding="utf-8") == header + "\n" + "".join(
        dumps({**record, "validation": {**record["validation"], "revalidated": "normalized"}})
        for record in records)


def test_grounding_off_writes_no_offsets(runner, tmp_path):
    config = tmp_path / "off.yaml"
    config.write_text(f"corpus: {DATA / 'docs.jsonl'}\n"
                      f"client: {{backend: replay, cache: {DATA / 'cache.jsonl'}, "
                      "model: fixture}\npipeline: {grounding: 'off'}\n", encoding="utf-8")
    result = invoke(runner, "--config", config, "--output-dir", tmp_path / "gen", "generate")
    assert result.exit_code == 0, result.output + result.stderr
    out = tmp_path / "off.jsonl"
    result = invoke(runner, "validate", GOLDEN_DATASET, "--grounding", "off", "--out", out)
    assert result.exit_code == 0, result.stderr
    for dataset in (tmp_path / "gen" / "dataset.jsonl", out):
        records = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 6 and not any("offsets" in record for record in records)


@pytest.mark.parametrize("command", ["validate", "emit-train"])
def test_failed_run_leaves_the_previous_output(runner, tmp_path, command):
    """Records 1-2 stream out before line 4 fails; the old output must survive."""
    lines = GOLDEN_DATASET.read_text(encoding="utf-8").splitlines()
    lines[3] = "{not json"
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"previous output\n")
    result = invoke(runner, command, dataset, "--out", out)
    assert result.exit_code == 3
    assert f"{dataset}:4: corrupt record" in result.stderr
    assert out.read_bytes() == b"previous output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "out.jsonl"]


# A record read from a dataset writes back the schema and instances text it
# was read from; only an object that changed is printed again.

def counted_printers(monkeypatch) -> dict:
    """Count the calls to the printers that ``annoforge.dataset`` binds."""
    counts = {}
    for name in ("print_guidelines", "print_instances"):
        printer = getattr(annoforge.dataset, name)
        counts[name] = 0

        def counting(parsed, name=name, printer=printer):
            counts[name] += 1
            return printer(parsed)

        monkeypatch.setattr(annoforge.dataset, name, counting)
    return counts


def test_printers_run_only_for_changed_objects(runner, tmp_path, monkeypatch):
    n, k = 6, 2
    records = []
    for i in range(n):
        record = make_records()[i % 2]
        record.doc_id = f"{record.doc_id}-{i}"
        if i < k:  # one instance the document does not contain
            cls = record.schema.classes[0].name
            record.instances.instances.append(EntityInstance(cls, {"name": "Nowhere"}))
        records.append(record)
    dataset = tmp_path / "canonical.jsonl"
    write_dataset(records, dataset)
    written = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()[1:]]

    counts = counted_printers(monkeypatch)
    result = invoke(runner, "validate", dataset, "--out", tmp_path / "filtered.jsonl")
    assert result.exit_code == 1
    assert f"dropped {k} instances across {n} records" in result.output
    assert counts == {"print_guidelines": 0, "print_instances": k}
    filtered = [json.loads(line) for line in
                (tmp_path / "filtered.jsonl").read_text(encoding="utf-8").splitlines()[1:]]
    for i, (before, after) in enumerate(zip(written, filtered)):
        assert after["schema"] == before["schema"]
        if i < k:  # the survivors are printed, not the text that was read
            records[i].instances.instances.pop()
            assert after["instances"] == print_instances(records[i].instances)
            assert after["instances"] != before["instances"]
        else:
            assert after["instances"] == before["instances"]

    for source in (dataset, tmp_path / "filtered.jsonl"):
        counts.update(print_guidelines=0, print_instances=0)
        result = invoke(runner, "emit-train", source, "--out", tmp_path / "train.jsonl")
        assert f"wrote {n - k if source == dataset else n} of {n}" in result.output
        assert counts == {"print_guidelines": 0, "print_instances": 0}


def hand_edited(tmp_path, **fields) -> Path:
    """A one-record dataset (the Paris document) with ``fields`` replaced."""
    path = tmp_path / "edited.jsonl"
    write_dataset(make_records()[1:], path)
    header, line = path.read_text(encoding="utf-8").splitlines()
    line = json.dumps({**json.loads(line), **fields}, sort_keys=True, ensure_ascii=False)
    path.write_text(header + "\n" + line + "\n", encoding="utf-8")
    return path


def written_back(runner, tmp_path, dataset) -> tuple[dict, dict]:
    """The record ``validate`` writes and the example ``emit-train`` writes."""
    for command, out in (("validate", "filtered.jsonl"), ("emit-train", "train.jsonl")):
        result = invoke(runner, command, dataset, "--out", tmp_path / out)
        assert result.exit_code == 0, result.output + result.stderr
    return tuple(json.loads((tmp_path / out).read_text(encoding="utf-8").splitlines()[-1])
                 for out in ("filtered.jsonl", "train.jsonl"))


@pytest.mark.parametrize("text", [
    'Here: [City(name="Paris")] ok',
    '[City(name="Paris")] see [1]',
    'Here: [City(name="Paris")]',
    ' [City(name="Paris")]\n',
])
def test_prose_around_the_instance_list_is_not_written_back(runner, tmp_path, text):
    record, example = written_back(runner, tmp_path, hand_edited(tmp_path, instances=text))
    assert record["instances"] == example["target"] == '[City(name="Paris")]'


def test_a_whole_non_canonical_record_is_written_back_verbatim(runner, tmp_path):
    schema = ('@dataclass\n@frozen\nclass City:\n    """A city."""\n\n'
              "    name:str # the name\n")
    instances = "[ City(name='Paris'), ]"
    record, example = written_back(
        runner, tmp_path, hand_edited(tmp_path, schema=schema, instances=instances))
    assert record["schema"] == schema
    assert record["instances"] == example["target"] == instances
    assert example["input"].startswith(schema + "\n\n")


def built_dataset(path: Path, n: int) -> Path:
    """``n`` small records, each with its own doc_id and a 1 KB document."""
    record = stats_record("doc", [])
    record.document = "x " * 500
    write_dataset([record], path)
    header, line = path.read_text(encoding="utf-8").splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(line.replace('"doc_id": "doc"', f'"doc_id": "doc-{i}"', 1) + "\n"
                      for i in range(n))
    return path


def test_analysis_memory_does_not_grow_with_the_dataset(runner, tmp_path):
    """validate, stats and emit-train hold one record at a time, not the dataset."""
    small = built_dataset(tmp_path / "small.jsonl", 200)
    large = built_dataset(tmp_path / "large.jsonl", 2000)

    def peaks(dataset):
        found = {}
        for args in (["validate", dataset, "--out", tmp_path / "filtered.jsonl"],
                     ["stats", dataset],
                     ["emit-train", dataset, "--out", tmp_path / "train.jsonl"]):
            result, found[args[0]] = traced_peak(invoke, runner, *args)
            assert result.exit_code == 0, result.output + result.stderr
        return found

    peaks(built_dataset(tmp_path / "warm.jsonl", 5))  # first-call caches, lazy imports
    base, grown = peaks(small), peaks(large)
    for command, peak in grown.items():
        assert peak < 1.5 * base[command], (command, base[command], peak)


def eval_suite(tmp_path: Path, name: str, n_examples: int, pred_mentions: int,
               suites: int = 1) -> tuple:
    """``suites`` gold suites of one-mention examples, and predictions of
    ``pred_mentions`` each."""
    gold, pred = tmp_path / name / "gold", tmp_path / name / "pred"
    gold.mkdir(parents=True)
    pred.mkdir()
    for suite in range(suites):
        with open(gold / f"suite{suite}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"id": i, "text": f"entity {i}",
                                      "mentions": [{"label": "A", "span": f"entity {i}"}]})
                          + "\n" for i in range(n_examples))
        with open(pred / f"suite{suite}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"id": i, "mentions": [
                {"label": "A", "span": f"entity {i}-{k}"} for k in range(pred_mentions)]})
                + "\n" for i in range(n_examples))
    return gold, pred


def eval_peak(runner, gold: Path, pred: Path) -> int:
    """The traced peak of one successful ``eval --json``."""
    result, found = traced_peak(invoke, runner, "eval", gold, pred, "--json")
    assert result.exit_code == 0, result.output + result.stderr
    return found


def test_eval_memory_does_not_grow_with_the_prediction_file(runner, tmp_path):
    """eval holds a suite's gold examples and one prediction, not every prediction."""
    eval_peak(runner, *eval_suite(tmp_path, "warm", 5, 1))  # first-call caches, lazy imports
    base = eval_peak(runner, *eval_suite(tmp_path, "one", 400, 1))
    grown = eval_peak(runner, *eval_suite(tmp_path, "forty", 400, 40))
    assert grown < 1.5 * base, (base, grown)


def test_eval_holds_one_suite_at_a_time(runner, tmp_path):
    """eval lets each suite's gold examples go before it loads the next suite."""
    eval_peak(runner, *eval_suite(tmp_path, "warm", 5, 1))  # first-call caches, lazy imports
    base = eval_peak(runner, *eval_suite(tmp_path, "one", 400, 1))
    grown = eval_peak(runner, *eval_suite(tmp_path, "eight", 400, 1, suites=8))
    assert grown < 1.25 * base, (base, grown)


# stats and overlap never read a record's schema, so they do not parse it:
# a corrupt schema fails only the commands that use it.

@pytest.mark.parametrize("args", [["stats"], ["stats", "--json"],
                                  ["overlap", "--labels", DATA / "labels"]])
def test_corrupt_schema_does_not_fail_stats_or_overlap(runner, tmp_path, args):
    path = corrupted_dataset(tmp_path, "schema")
    result = invoke(runner, args[0], path, *args[1:])
    assert result.exit_code == 0, result.stderr
    assert result.output == invoke(runner, args[0], GOLDEN_DATASET, *args[1:]).output


@pytest.mark.parametrize("command", ["validate", "emit-train"])
def test_corrupt_schema_fails_validate_and_emit_train(runner, tmp_path, command):
    path = corrupted_dataset(tmp_path, "schema")
    result = invoke(runner, command, path)
    assert result.exit_code == 3
    assert f"{path}:3: corrupt record" in result.stderr


def test_corrupt_instances_fail_stats(runner, tmp_path):
    path = corrupted_dataset(tmp_path, "instances")
    result = invoke(runner, "stats", path)
    assert result.exit_code == 3
    assert f"{path}:3: corrupt record" in result.stderr


def test_dataset_path_required_somewhere(runner):
    result = invoke(runner, "stats")
    assert result.exit_code == 2
    assert "give a dataset path" in result.stderr


@pytest.mark.parametrize("command", [["stats"], ["validate"], ["emit-train"],
                                     ["overlap", "--labels", DATA / "labels"]])
def test_directory_as_dataset_is_a_usage_error(runner, tmp_path, command):
    # like a missing file: exit 2, naming the path
    result = invoke(runner, *command, tmp_path)
    assert result.exit_code == 2, result.output + result.stderr
    assert f"dataset is a directory, not a file: {tmp_path}" in result.stderr


# -- stats --------------------------------------------------------------------

def test_stats_table(runner):
    result = invoke(runner, "stats", GOLDEN_DATASET)
    assert result.exit_code == 0
    assert "documents               5" in result.output
    assert "unique labels           9" in result.output
    assert "distinct labels per doc 1.80" in result.output
    assert "annotations per doc     3.20" in result.output
    assert "Symptom" in result.output


def test_stats_json(runner):
    result = invoke(runner, "stats", GOLDEN_DATASET, "--json", "--top", "3")
    payload = json.loads(result.output)
    assert payload["n_docs"] == 5
    assert payload["unique_labels"] == 9
    assert payload["avg_distinct_labels_per_doc"] == 1.8
    assert payload["avg_annotations_per_doc"] == 3.2
    assert payload["top"][0] == {"label": "Symptom", "count": 5}
    assert len(payload["top"]) == 3


@pytest.mark.parametrize("top", ["0", "-1"])
def test_stats_top_below_one_is_usage_error(runner, top):
    result = invoke(runner, "stats", GOLDEN_DATASET, "--top", top)
    assert result.exit_code == 2
    assert "--top" in result.stderr


def test_stats_via_output_dir(runner, tmp_path):
    generate_into(runner, tmp_path)
    result = invoke(runner, "--output-dir", tmp_path, "stats")
    assert result.exit_code == 0
    assert "documents               5" in result.output


# -- overlap ------------------------------------------------------------------

def test_overlap_table(runner):
    result = invoke(runner, "overlap", GOLDEN_DATASET, "--labels", DATA / "labels")
    assert result.exit_code == 0
    assert "bio.test" in result.output
    assert "2 /    3" in result.output
    assert "66.7%" in result.output


def test_overlap_json_rows(runner):
    result = invoke(runner, "overlap", GOLDEN_DATASET,
                    "--labels", DATA / "labels", "--json")
    rows = {(r["benchmark"], r["split"]): r for r in json.loads(result.output)}
    assert rows[("bio", "test")]["matched"] == 2
    assert rows[("bio", "test")]["gold_labels"] == 3
    assert rows[("general", "train")]["matched"] == 1
    assert rows[("general", "test")]["matched"] == 1
    assert rows[("aggregate", "test")]["gold_labels"] == 5
    assert rows[("aggregate", "test")]["matched"] == 3
    assert rows[("aggregate", "train")]["gold_labels"] == 3
    assert rows[("aggregate", "train")]["matched"] == 1
    assert rows[("bio", "test")]["coverage"] == pytest.approx(2 / 3, abs=1e-4)


@pytest.mark.parametrize("labels", ["empty-dir", "file"])
def test_overlap_without_label_files_is_config_error(runner, tmp_path, labels):
    path = tmp_path / "labels"
    if labels == "file":
        path.write_text("Person\n", encoding="utf-8")
    else:
        path.mkdir()
    result = invoke(runner, "overlap", GOLDEN_DATASET, "--labels", path)
    assert result.exit_code == 2
    assert f"error: no label files in {path}" in result.stderr


def test_overlap_on_a_header_only_dataset_names_it(runner, tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_bytes(GOLDEN_DATASET.read_bytes().splitlines(keepends=True)[0])
    result = invoke(runner, "overlap", dataset, "--labels", DATA / "labels")
    assert result.exit_code == 3
    assert f"runtime failure: {dataset}: dataset label set is empty" in result.stderr


# -- emit-train ---------------------------------------------------------------

def test_emit_train_matches_golden(runner, tmp_path):
    out = tmp_path / "train.jsonl"
    result = invoke(runner, "emit-train", GOLDEN_DATASET, "--out", out)
    assert result.exit_code == 0
    assert "wrote 5 of 5 examples" in result.output
    assert out.read_bytes() == GOLDEN_TRAIN.read_bytes()


def test_emit_train_skips_failing_records(runner, tmp_path):
    path = mutated_dataset(tmp_path)
    out = tmp_path / "train.jsonl"
    result = invoke(runner, "emit-train", path, "--out", out)
    assert result.exit_code == 1
    assert "wrote 0 of 5 examples" in result.output
    assert out.read_text().splitlines() == []


# -- eval ---------------------------------------------------------------------

def test_eval_table(runner):
    result = invoke(runner, "eval", DATA / "eval" / "gold", DATA / "eval" / "pred")
    assert result.exit_code == 0
    assert "movies" in result.output and "science" in result.output
    assert "80.00" in result.output
    assert "macro avg" in result.output


def test_eval_json_scores(runner):
    result = invoke(runner, "eval", DATA / "eval" / "gold", DATA / "eval" / "pred",
                    "--json")
    payload = json.loads(result.output)
    movies = payload["per_dataset"]["movies"]
    assert (movies["tp"], movies["fp"], movies["fn"]) == (2, 0, 1)
    assert movies["f1"] == pytest.approx(0.8)
    science = payload["per_dataset"]["science"]
    assert (science["tp"], science["fp"], science["fn"]) == (1, 1, 0)
    assert science["f1"] == pytest.approx(2 / 3)
    assert payload["macro_f1"] == pytest.approx((0.8 + 2 / 3) / 2)


def test_eval_missing_predictions_scores_empty_and_warns(runner, tmp_path):
    gold = tmp_path / "gold"
    shutil.copytree(DATA / "eval" / "gold", gold)
    pred = tmp_path / "pred"
    pred.mkdir()
    shutil.copy(DATA / "eval" / "pred" / "movies.jsonl", pred)
    result = invoke(runner, "eval", gold, pred, "--json")
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["per_dataset"]["science"]["fn"] == 1
    assert payload["per_dataset"]["science"]["tp"] == 0


def eval_dirs(tmp_path, gold_line=None, pred_line=None):
    """Copies of the eval fixtures with one line appended to movies.jsonl."""
    gold, pred = tmp_path / "gold", tmp_path / "pred"
    shutil.copytree(DATA / "eval" / "gold", gold)
    shutil.copytree(DATA / "eval" / "pred", pred)
    for directory, line in ((gold, gold_line), (pred, pred_line)):
        if line is not None:
            with open(directory / "movies.jsonl", "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
    return gold, pred


GOLD_LINES = len((DATA / "eval" / "gold" / "movies.jsonl").read_text().splitlines())
PRED_LINES = len((DATA / "eval" / "pred" / "movies.jsonl").read_text().splitlines())


@pytest.mark.parametrize("line", [
    "not json",
    '{"text": "no id", "mentions": []}',
    '{"id": "m9", "mentions": [{"span": "Up"}]}',
    '{"id": "m9", "mentions": [{"label": "Film"}]}',
], ids=["bad-json", "no-id", "no-label", "no-span"])
def test_eval_corrupt_gold_line_names_file_and_line(runner, tmp_path, line):
    gold, pred = eval_dirs(tmp_path, gold_line=line)
    result = invoke(runner, "eval", gold, pred)
    assert result.exit_code == 3
    where = f"{gold / 'movies.jsonl'}:{GOLD_LINES + 1}: corrupt gold example"
    assert where in result.stderr


@pytest.mark.parametrize("line", [
    '{"id": "m1", "output": 5}',
    '{"id": "m1", "output": null}',
    '{"output": "[Film(title=\\"Up\\")]"}',
    "[1, 2",
], ids=["int-output", "null-output", "no-id", "bad-json"])
def test_eval_corrupt_prediction_line_names_file_and_line(runner, tmp_path, line):
    gold, pred = eval_dirs(tmp_path, pred_line=line)
    result = invoke(runner, "eval", gold, pred)
    assert result.exit_code == 3
    where = f"{pred / 'movies.jsonl'}:{PRED_LINES + 1}: corrupt prediction"
    assert where in result.stderr


def test_eval_unparseable_output_scores_as_empty(runner, tmp_path):
    gold, pred = eval_dirs(tmp_path, gold_line=json.dumps({
        "id": "m9", "text": "Up.", "mentions": [{"label": "Film", "span": "Up"}]}),
        pred_line='{"id": "m9", "output": "[Film(title="}')
    result = invoke(runner, "eval", gold, pred, "--json")
    assert result.exit_code == 0, result.stderr
    movies = json.loads(result.output)["per_dataset"]["movies"]
    assert (movies["tp"], movies["fp"], movies["fn"]) == (2, 0, 2)


def test_eval_empty_gold_dir_is_config_error(runner, tmp_path):
    (tmp_path / "gold").mkdir()
    (tmp_path / "pred").mkdir()
    result = invoke(runner, "eval", tmp_path / "gold", tmp_path / "pred")
    assert result.exit_code == 2
    assert "no gold files" in result.stderr


def test_eval_schema_selects_mention_field(runner, tmp_path):
    gold = tmp_path / "gold"
    pred = tmp_path / "pred"
    gold.mkdir()
    pred.mkdir()
    (gold / "films.jsonl").write_text(json.dumps({
        "id": "f1", "text": "Inception came out in 2010.",
        "mentions": [{"label": "Film", "span": "Inception"}]}) + "\n")
    (pred / "films.jsonl").write_text(json.dumps({
        "id": "f1",
        "output": '[Film(year="2010", title="Inception")]'}) + "\n")
    schema = tmp_path / "films.schema"
    schema.write_text('@dataclass\nclass Film:\n    """A movie."""\n'
                      "    title: str  # the title\n"
                      "    year: Optional[str]  # release year\n")

    blind = invoke(runner, "eval", gold, pred, "--json")
    assert json.loads(blind.output)["per_dataset"]["films"]["f1"] == 0.0

    sighted = invoke(runner, "eval", gold, pred, "--schema", schema, "--json")
    assert json.loads(sighted.output)["per_dataset"]["films"]["f1"] == 1.0


def test_eval_schema_that_is_not_guidelines_names_the_file(runner, tmp_path):
    schema = tmp_path / "films.schema"
    schema.write_text("not guidelines\n", encoding="utf-8")
    result = invoke(runner, "eval", DATA / "eval" / "gold", DATA / "eval" / "pred",
                    "--schema", schema)
    assert result.exit_code == 3
    assert f"runtime failure: {schema}: line 1, col 1: unexpected top-level statement" \
        in result.stderr


# -- input faults -------------------------------------------------------------

def faulty_input(tmp_path: Path, fault: str) -> Path:
    """A path in ``tmp_path`` to an input with ``fault``."""
    path = tmp_path / "input.jsonl"
    if fault == "under-a-file":
        (tmp_path / "file").write_text("x\n", encoding="utf-8")
        return tmp_path / "file" / "input.jsonl"
    if fault == "corrupt-record":
        return corrupted_dataset(tmp_path, "instances")
    if fault in RECORD_FAULTS:
        return edited_dataset(tmp_path, *RECORD_FAULTS[fault])
    if fault in EVAL_FAULTS:  # gold/x.jsonl and pred/x.jsonl, one example each
        for side, mention in zip(("gold", "pred"), EVAL_FAULTS[fault]):
            (path / side).mkdir(parents=True)
            (path / side / "x.jsonl").write_text(json.dumps(
                {"id": 1, "text": "x 5", "mentions": [mention]}) + "\n", encoding="utf-8")
        return path
    if fault == "not-utf8":
        path.write_bytes(b"\xff{document}\n")
        return path
    if fault in ("directory", "dir-of-empty-file"):
        path.mkdir()
        if fault == "dir-of-empty-file":
            (path / "movies.jsonl").write_text("", encoding="utf-8")
        return path
    path.write_text({
        "empty-file": "",
        "header-only": GOLDEN_DATASET.read_text(encoding="utf-8").splitlines()[0] + "\n",
        "not-json": "hello world\n",
        "no-text": '{"id": "a", "body": "no text field"}\n',
        "duplicate-id": "".join(json.dumps({"id": doc_id, "text": "x"}) + "\n"
                                for doc_id in "aba"),
    }[fault], encoding="utf-8")
    return path


# a record field of the wrong type: (line, edit of that line's record)
RECORD_FAULTS = {
    "document-null": (2, lambda record: record.update(document=None)),
    "document-int": (2, lambda record: record.update(document=7)),
    "meta-list": (2, lambda record: record.update(meta=[])),
    "grounding-unknown": (2, lambda record: record["meta"].update(grounding="fuzzy")),
    "validation-list": (3, lambda record: record.update(validation=[])),
    "offsets-string": (2, lambda record: record.update(offsets="0 69")),
    "offsets-float": (2, lambda record: record["offsets"].__setitem__(1, 69.0)),
    "offsets-true": (2, lambda record: record["offsets"].__setitem__(0, True)),
    "offsets-minus-two": (3, lambda record: record["offsets"].__setitem__(0, -2)),
}
# (gold mention, predicted mention) of one example whose text is "x 5"
EVAL_FAULTS = {
    "gold-span-int": ({"label": "A", "span": 5}, {"label": "A", "span": "5"}),
    "gold-label-null": ({"label": None, "span": "5"}, {"label": "A", "span": "5"}),
    "gold-span-blank": ({"label": "A", "span": "  "}, {"label": "A", "span": "5"}),
    "pred-span-int": ({"label": "A", "span": "5"}, {"label": "A", "span": 5}),
    "pred-label-null": ({"label": "A", "span": "5"}, {"label": None, "span": "5"}),
}
EVAL_FAULT = ["eval", "{input}/gold", "{input}/pred"]


DATASET_COMMANDS = {
    "validate": ["validate", "{input}", "--out", "{tmp}/out.jsonl"],
    "stats": ["stats", "{input}"],
    "emit-train": ["emit-train", "{input}", "--out", "{tmp}/train.jsonl"],
    "overlap": ["overlap", "{input}", "--labels", str(DATA / "labels")],
}
EVAL_GOLD, EVAL_PRED = str(DATA / "eval" / "gold"), str(DATA / "eval" / "pred")
GENERATE = ["--config", "{tmp}/cfg.yaml", "--output-dir", "{tmp}/out", "generate"]
REPLAY = f"backend: replay, cache: {DATA / 'cache.jsonl'}, model: fixture"
CORPUS_CONFIG = "corpus: {input}\nclient: {" + REPLAY + "}\n"
CACHE_CONFIG = f"corpus: {DATA / 'docs.jsonl'}\n" "client: {backend: replay, cache: {input}}\n"
# nothing listens there, so a request would fail after the retry waits
RECORD_CONFIG = (f"corpus: {DATA / 'docs.jsonl'}\n"
                 "client: {backend: record, base_url: 'http://127.0.0.1:1', cache: {input}}\n")
TEMPLATE_CONFIG = (f"corpus: {DATA / 'docs.jsonl'}\n" "client: {" + REPLAY + "}\n"
                   "templates: {summarize: {input}}\n")

# (row id, command line, config file or None, fault, exit code, text stderr holds);
# "{input}" is the faulty path and "{tmp}" the test's directory. The exit code
# follows the cli docstring: 2 for a usage or configuration error, which
# includes a path that is missing, is a directory where a file belongs (or the
# reverse) or lies under a file; 3 for an input whose content is at fault,
# named with its line where it has one; 0 or 1 where the input is merely empty.
INPUT_FAULTS = [
    *[(f"{name}-{fault}", args, None, fault, code, named)
      for name, args in DATASET_COMMANDS.items()
      for fault, code, named in [
          ("empty-file", 3, "{input}: missing dataset header"),
          ("not-json", 3, "{input}:1: missing dataset header"),
          ("corrupt-record", 3, "{input}:3: corrupt record"),
          ("directory", 2, "error: dataset is a directory, not a file: {input}"),
          ("under-a-file", 2, "error: dataset not found: {input}"),
      ]],
    *[(f"{name}-{fault}", args, None, fault, 3, f"{{input}}:{line}: corrupt record")
      for name, args in DATASET_COMMANDS.items()
      for fault, (line, _) in RECORD_FAULTS.items()],
    *[(f"{name}-header-only", DATASET_COMMANDS[name], None, "header-only", 0, None)
      for name in ("validate", "stats", "emit-train")],
    ("overlap-header-only", DATASET_COMMANDS["overlap"], None, "header-only", 3,
     "{input}: dataset label set is empty"),
    ("overlap-labels-empty-dir", ["overlap", str(GOLDEN_DATASET), "--labels", "{input}"],
     None, "directory", 2, "error: no label files in {input}"),
    ("overlap-labels-file", ["overlap", str(GOLDEN_DATASET), "--labels", "{input}"],
     None, "not-json", 2, "error: no label files in {input}"),
    ("eval-schema-not-guidelines", ["eval", EVAL_GOLD, EVAL_PRED, "--schema", "{input}"],
     None, "not-json", 3, "{input}: line 1, col 1"),
    ("eval-schema-directory", ["eval", EVAL_GOLD, EVAL_PRED, "--schema", "{input}"],
     None, "directory", 2, "path '{input}' is a directory, not a file"),
    ("eval-gold-empty-dir", ["eval", "{input}", EVAL_PRED], None, "directory", 2,
     "error: no gold files in {input}"),
    ("eval-gold-file", ["eval", "{input}", EVAL_PRED], None, "empty-file", 2,
     "path '{input}' is not a directory"),
    ("eval-pred-file", ["eval", EVAL_GOLD, "{input}"], None, "empty-file", 2,
     "path '{input}' is not a directory"),
    ("eval-empty-files", ["eval", "{input}", "{input}"], None, "dir-of-empty-file", 0, None),
    ("eval-gold-span-int", EVAL_FAULT, None, "gold-span-int", 3,
     "{input}/gold/x.jsonl:1: corrupt gold example (mention span is int, not a string)"),
    ("eval-normalized-gold-span-int", [*EVAL_FAULT, "--matching", "normalized"], None,
     "gold-span-int", 3, "{input}/gold/x.jsonl:1: corrupt gold example"),
    ("eval-gold-label-null", EVAL_FAULT, None, "gold-label-null", 3,
     "{input}/gold/x.jsonl:1: corrupt gold example (mention label is NoneType, not a string)"),
    ("eval-gold-span-blank", EVAL_FAULT, None, "gold-span-blank", 3,
     "{input}/gold/x.jsonl:1: empty span for label 'A'"),
    ("eval-pred-span-int", EVAL_FAULT, None, "pred-span-int", 3,
     "{input}/pred/x.jsonl:1: corrupt prediction"),
    ("eval-pred-label-null", EVAL_FAULT, None, "pred-label-null", 3,
     "{input}/pred/x.jsonl:1: corrupt prediction"),
    ("generate-corpus-no-text", GENERATE, CORPUS_CONFIG, "no-text", 3,
     "{input}:1: record has no text"),
    ("generate-corpus-not-json", GENERATE, CORPUS_CONFIG, "not-json", 3,
     "{input}:1: invalid JSON"),
    ("generate-corpus-duplicate-id", GENERATE, CORPUS_CONFIG, "duplicate-id", 3,
     "{input}:3: duplicate doc_id 'a' is already at line 1"),
    ("generate-corpus-empty-file", GENERATE, CORPUS_CONFIG, "empty-file", 1, None),
    ("generate-corpus-empty-dir", GENERATE, CORPUS_CONFIG, "directory", 1, None),
    ("generate-corpus-under-a-file", GENERATE, CORPUS_CONFIG, "under-a-file", 2,
     "error: corpus not found: {input}"),
    ("generate-cache-not-json", GENERATE, CACHE_CONFIG, "not-json", 3,
     "{input}:1: corrupt cache entry"),
    ("generate-cache-directory", GENERATE, CACHE_CONFIG, "directory", 2,
     "error: cache is a directory, not a file: {input}"),
    ("generate-cache-under-a-file", GENERATE, CACHE_CONFIG, "under-a-file", 2,
     "error: replay cache not found: {input}"),
    ("generate-record-cache-under-a-file", GENERATE, RECORD_CONFIG, "under-a-file", 2,
     "error: cache directory cannot be made for {input}"),
    ("generate-template-directory", GENERATE, TEMPLATE_CONFIG, "directory", 2,
     "error: template for stage 'summarize' is a directory, not a file: {input}"),
    ("generate-template-not-utf8", GENERATE, TEMPLATE_CONFIG, "not-utf8", 3,
     "{input}: 'utf-8' codec can't decode byte 0xff"),
    ("generate-template-no-document", GENERATE, TEMPLATE_CONFIG, "not-json", 3,
     "{input}: summarize template must use {document} exactly once, found 0"),
    ("generate-config-not-mapping", ["--config", "{input}", "generate"], None, "not-json",
     2, "error: {input}: expected a mapping at top level"),
    ("generate-config-directory", ["--config", "{input}", "generate"], None, "directory",
     2, "error: config file is a directory: {input}"),
    ("generate-config-under-a-file", ["--config", "{input}", "generate"], None,
     "under-a-file", 2, "error: config file not found: {input}"),
]


@pytest.mark.parametrize("args, config, fault, code, named",
                         [row[1:] for row in INPUT_FAULTS],
                         ids=[row[0] for row in INPUT_FAULTS])
def test_each_input_fault_exits_by_the_rule_and_names_its_input(
        runner, tmp_path, args, config, fault, code, named):
    path = faulty_input(tmp_path, fault)

    def fill(text: str) -> str:
        return text.replace("{input}", str(path)).replace("{tmp}", str(tmp_path))

    if config is not None:
        (tmp_path / "cfg.yaml").write_text(fill(config), encoding="utf-8")
    result = invoke(runner, "--quiet", *map(fill, args))
    assert result.exit_code == code, result.output + result.stderr
    if named is not None:
        assert fill(named) in result.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files in /proc")
def test_no_command_leaves_a_file_for_the_collector(runner, tmp_path):
    """run() freezes the collector before exit, so the collections at shutdown
    finalize nothing the command made: with the collector off, every command
    has closed each file it opened when main() returns, on success and on
    each input fault above."""
    rows = [(args, None, None) for args in DATASET_COMMANDS.values()]
    rows += [(["eval", EVAL_GOLD, EVAL_PRED], None, None),
             (["--config", str(CONFIG), "--output-dir", "{tmp}/out", "generate"], None, None)]
    rows += [(args, config, fault) for _, args, config, fault, _, _ in INPUT_FAULTS]
    gc.collect()
    gc.disable()
    try:
        for i, (args, config, fault) in enumerate(rows):
            tmp = tmp_path / str(i)
            tmp.mkdir()
            path = GOLDEN_DATASET if fault is None else faulty_input(tmp, fault)

            def fill(text: str) -> str:
                return text.replace("{input}", str(path)).replace("{tmp}", str(tmp))

            if config is not None:
                (tmp / "cfg.yaml").write_text(fill(config), encoding="utf-8")
            before = set(os.listdir("/proc/self/fd"))
            invoke(runner, "--quiet", *map(fill, args))
            assert set(os.listdir("/proc/self/fd")) == before, (args, fault)
    finally:
        gc.enable()


# -- misc ---------------------------------------------------------------------

def test_quiet_flag_accepted(runner):
    result = invoke(runner, "--quiet", "stats", GOLDEN_DATASET)
    assert result.exit_code == 0


COMMANDS = ("generate", "validate", "stats", "overlap", "emit-train", "eval")


def test_help_lists_all_commands(runner):
    result = invoke(runner, "--help")
    assert result.exit_code == 0
    for command in COMMANDS:
        assert command in result.output


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_exits_0(runner, command):
    result = invoke(runner, command, "--help")
    assert result.exit_code == 0, result.stderr
    assert "--help" in result.output


def readme_cli_lines() -> list[str]:
    """The command lines of README's CLI section, comments cut."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0] for line in block.splitlines()]


def test_every_readme_cli_line_runs(runner, tmp_path, monkeypatch):
    """Each line of README's CLI section, run in order in a directory that
    holds what it names, exits 0."""
    (tmp_path / "run.yaml").write_text(
        f"corpus: {DATA / 'docs.jsonl'}\n"
        "sample: {n: 3, seed: 1}\n"  # so --seed picks another sample
        f"client: {{backend: replay, cache: {DATA / 'cache.jsonl'}, model: fixture}}\n",
        encoding="utf-8")
    shutil.copytree(DATA / "labels", tmp_path / "benchmarks")
    shutil.copytree(DATA / "eval" / "gold", tmp_path / "gold")
    shutil.copytree(DATA / "eval" / "pred", tmp_path / "pred")
    (tmp_path / "guidelines.py").write_text(
        '@dataclass\nclass Film:\n    """A movie."""\n    title: str  # the title\n',
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert len(lines) >= 6
    for line in lines:
        program, *args = shlex.split(line)
        assert program == "annoforge", line
        result = invoke(runner, *args)
        assert result.exit_code == 0, (line, result.output + result.stderr)


def test_readme_cli_lines_use_every_option():
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert sorted(commands.choices) == sorted(COMMANDS)
    options = {option for p in [parser, *commands.choices.values()]
               for action in p._actions for option in action.option_strings}
    used = {word for line in readme_cli_lines() for word in shlex.split(line)}
    assert options - used == {"--help"}


@pytest.mark.parametrize("args, named", [
    (["stats", GOLDEN_DATASET, "--bogus"], "--bogus"),
    (["--bogus", "stats", GOLDEN_DATASET], "--bogus"),
    (["eval", DATA / "eval" / "gold", DATA / "eval" / "pred", "--matching", "fuzzy"],
     "--matching"),
    (["validate", GOLDEN_DATASET, "--grounding", "loose"], "--grounding"),
    (["--seed", "x", "stats", GOLDEN_DATASET], "--seed"),
    (["eval", DATA / "eval" / "nowhere", DATA / "eval" / "pred"], "GOLD_DIR"),
    (["eval", DATA / "eval" / "gold", DATA / "eval" / "nowhere"], "PRED_DIR"),
    (["eval", DATA / "eval" / "gold", DATA / "eval" / "pred", "--schema", DATA / "nowhere"],
     "--schema"),
    (["overlap", GOLDEN_DATASET, "--labels", DATA / "nowhere"], "--labels"),
    (["overlap", GOLDEN_DATASET], "--labels"),
    (["nowhere"], "nowhere"),
    ([], "COMMAND"),
], ids=["unknown-option", "unknown-global-option", "matching", "grounding", "seed",
        "missing-gold-dir", "missing-pred-dir", "missing-schema", "missing-labels-dir",
        "no-labels", "unknown-command", "no-command"])
def test_usage_error_exits_2_and_names_the_argument(runner, args, named):
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert named in result.stderr
    assert result.output == ""


OFFLINE_RUN = """
import sys
import annoforge.cli
from annoforge.dataset import compute_stats, iter_dataset, read_dataset
from annoforge.evaluation import GoldExample, Prediction, score

dataset, cache, prompt = sys.argv[1:]
assert compute_stats(read_dataset(dataset)).n_docs == 5
assert compute_stats(iter_dataset(dataset, schema=False)).n_docs == 5
gold = GoldExample(example_id="1", text="", mentions=[("A", "x")])
assert score([gold], [Prediction(example_id="1", mentions=[("A", "x")])]).f1 == 1.0
generate_only = ("annoforge.pipeline", "annoforge.llm", "concurrent.futures")
print(sorted(name for name in generate_only if name in sys.modules))

from annoforge.llm import LLMClient
client = LLMClient(backend="replay", cache_path=cache)
assert client.complete(prompt).text == "cached"
http_stack = ("http.client", "requests", "urllib.request")
print(sorted(name for name in (*http_stack, "yaml") if name in sys.modules))
"""


def test_offline_commands_load_no_http_client_nor_yaml(tmp_path):
    """Start-up cost: the analysis commands load no module only generate
    uses, only an HTTP call imports the HTTP client, and only --config yaml."""
    cache = tmp_path / "cache.jsonl"
    ReplayCache(cache).put(ChatRequest(("hello",)).request_key, "cached", "stop")
    env = cli_env()
    result = subprocess.run(
        [sys.executable, "-c", OFFLINE_RUN, str(GOLDEN_DATASET), str(cache), "hello"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]"]


COMMAND_RUN = """
import sys
from annoforge.cli import main

try:
    main(args=sys.argv[1:])
except SystemExit as exc:
    print(exc.code)
watched = ("click", "annoforge.dataset", "annoforge.evaluation", "annoforge.pipeline",
           "annoforge.llm", "yaml", "http.client", "dataclasses", "inspect", "fractions")
print(sorted(name for name in watched if name in sys.modules))
"""


@pytest.mark.parametrize("args, loaded", [
    (["validate", GOLDEN_DATASET, "--out", "filtered.jsonl"], ["annoforge.dataset"]),
    (["stats", GOLDEN_DATASET], ["annoforge.dataset", "fractions"]),
    (["emit-train", GOLDEN_DATASET, "--out", "train.jsonl"], ["annoforge.dataset"]),
    (["overlap", GOLDEN_DATASET, "--labels", DATA / "labels"], ["annoforge.dataset", "fractions"]),
    (["eval", DATA / "eval" / "gold", DATA / "eval" / "pred"], ["annoforge.evaluation"]),
], ids=["validate", "stats", "emit-train", "overlap", "eval"])
def test_each_offline_command_loads_only_its_modules(tmp_path, args, loaded):
    """Start-up cost, command by command in a fresh interpreter: no command
    loads click, the dataset commands do not load evaluation, eval does not
    load dataset, and none loads the pipeline, the client, yaml, http.client,
    dataclasses or inspect; only stats and overlap load fractions."""
    result = subprocess.run([sys.executable, "-c", COMMAND_RUN, *map(str, args)],
                            capture_output=True, text=True, env=cli_env(), cwd=tmp_path,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["0", str(loaded)]


def test_analysis_modules_load_no_run_configuration():
    """Start-up cost: ConfigError lives in the package root, so the modules of
    the analysis commands load neither config nor corpus."""
    code = ("import sys, annoforge.cli, annoforge.dataset, annoforge.evaluation\n"
            "print(sorted(m for m in ('annoforge.config', 'annoforge.corpus') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=cli_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


PROCESS_COMMANDS = {
    "validate": ["validate", GOLDEN_DATASET, "--out", "filtered.jsonl"],
    "stats": ["stats", GOLDEN_DATASET],
    "emit-train": ["emit-train", GOLDEN_DATASET, "--out", "train.jsonl"],
    "overlap": ["overlap", GOLDEN_DATASET, "--labels", DATA / "labels"],
    "eval": ["eval", DATA / "eval" / "gold", DATA / "eval" / "pred"],
}


@pytest.mark.parametrize("args", PROCESS_COMMANDS.values(), ids=PROCESS_COMMANDS)
def test_process_entry_point_matches_main(runner, tmp_path, monkeypatch, args):
    """``python -m annoforge.cli`` (``run()``) prints, writes and exits exactly
    as ``main()`` does in process, and ``main()`` leaves the collector unfrozen."""
    by_process, in_process = tmp_path / "process", tmp_path / "main"
    by_process.mkdir()
    in_process.mkdir()
    proc = subprocess.run([sys.executable, "-m", "annoforge.cli", *map(str, args)],
                          capture_output=True, env=cli_env(), cwd=by_process, timeout=60)
    monkeypatch.chdir(in_process)
    result = invoke(runner, *args)
    assert gc.get_freeze_count() == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        result.exit_code, result.output.encode(), result.stderr.encode())
    assert {p.name: p.read_bytes() for p in by_process.iterdir()} == {
        p.name: p.read_bytes() for p in in_process.iterdir()}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_report_cut_short_by_its_reader_exits_141_quietly(tmp_path, unbuffered):
    """``annoforge stats ... | head -1``: the report is several times what a
    pipe holds, so the reader always closes before the writing ends."""
    dataset = tmp_path / "dataset.jsonl"
    write_dataset([stats_record("doc", [f"LabelNumber{i:05d}" for i in range(4000)])], dataset)
    env = {key: value for key, value in cli_env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open(tmp_path / "stderr", "wb") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "annoforge.cli", "stats", dataset,
                                 "--top", "4000"], stdout=subprocess.PIPE, stderr=stderr, env=env)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert first == b"documents               1\n"
    assert code == 141
    assert (tmp_path / "stderr").read_bytes() == b""
