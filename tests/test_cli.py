"""End-to-end command tests against the committed replay fixtures."""

import gc
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import annoforge
from annoforge.cli import main
from annoforge.dataset import write_dataset
from annoforge.llm import ChatMessage, ChatRequest, GenerationParams, ReplayCache, user_request
from builders import stats_record
from chatserver import completion
from scripted import GUIDELINES, INSTANCES, STRUCTURE, SUMMARIZE, ScriptedClient

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


def corrupted_dataset(tmp_path, field):
    """Golden dataset whose second record has unparseable ``field`` text."""
    lines = GOLDEN_DATASET.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    record[field] = "not notation"
    lines[2] = json.dumps(record, sort_keys=True, ensure_ascii=False)
    path = tmp_path / "corrupt.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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


def test_resume_cuts_a_torn_last_line(runner, tmp_path, caplog):
    golden = GOLDEN_DATASET.read_bytes().splitlines(keepends=True)
    dataset = tmp_path / "dataset.jsonl"
    # header, records 1-2, then record 3 cut off mid-line, as a kill leaves it
    dataset.write_bytes(b"".join(golden[:3]) + golden[3][:len(golden[3]) // 2])
    # cache lines 9-20 answer documents 3-5 only: a re-run of 1-2 would reject
    cache = (DATA / "cache.jsonl").read_bytes().splitlines(keepends=True)
    (tmp_path / "part-cache.jsonl").write_bytes(b"".join(cache[8:20]))
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


class SlowAfterFirst(ScriptedClient):
    """Answers the first document at once and every other one after a wait,
    so the writer fails while the next two are still in flight."""

    def complete(self, request):
        if "text 0." not in request.messages[-1].content:
            time.sleep(0.05)
        return super().complete(request)


def test_failed_write_stops_generate_early(runner, tmp_path, monkeypatch):
    """A writer error must not leave the queued documents running: on an
    HTTP backend each of them is paid model calls."""
    n_docs = 15
    with open(tmp_path / "docs.jsonl", "w", encoding="utf-8") as fh:
        for i in range(n_docs):
            fh.write(json.dumps({"id": f"d{i:02d}", "text": f"Paris, text {i}."}) + "\n")
    (tmp_path / "cfg.yaml").write_text("corpus: docs.jsonl\n", encoding="utf-8")
    client = SlowAfterFirst()
    client.add(SUMMARIZE, "- Paris: a city")
    client.add(STRUCTURE, '[{"label": "City", "attributes": {"name": "Paris"}}]')
    client.add(GUIDELINES, '@dataclass\nclass City:\n    """A city."""\n'
                           "    name: str  # the name\n")
    client.add(INSTANCES, '[City(name="Paris")]')
    monkeypatch.setattr("annoforge.cli.build_client", lambda cfg: client)

    def full_disk(records, path, *, append=False):
        next(iter(records))
        raise OSError("No space left on device")

    monkeypatch.setattr("annoforge.cli.write_dataset", full_disk)
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
        messages=tuple(ChatMessage(m["role"], m["content"]) for m in payload["messages"]),
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
    src = str(Path(annoforge.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
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

    with chat_server.state_lock:
        chat_server.seen.clear()
    chat_server.responder = fixture_reply
    release.set()
    resumed = invoke(runner, "--config", config, "--output-dir", killed,
                     "--resume", "generate")
    assert resumed.exit_code == 0, resumed.output + resumed.stderr
    assert "generated 3 records (5 total, 0 rejected)" in resumed.output
    assert not first_two & {doc_of(s["payload"]) for s in chat_server.seen}

    whole = tmp_path / "whole"
    assert invoke(runner, "--config", config, "--output-dir", whole,
                  "generate").exit_code == 0
    assert without_clock(dataset) == without_clock(whole / "dataset.jsonl")
    assert [r["doc_id"] for r in without_clock(dataset)[1:]] == list(FIXTURE_DOCS)


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
            gc.collect()  # garbage of an earlier run, freed mid-run, would lower the peak
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert invoke(runner, *args).exit_code == 0
            found[args[0]] = tracemalloc.get_traced_memory()[1] - before
        return found

    peaks(built_dataset(tmp_path / "warm.jsonl", 5))  # first-call caches, lazy imports
    tracemalloc.start()
    try:
        base, grown = peaks(small), peaks(large)
    finally:
        tracemalloc.stop()
    for command, peak in grown.items():
        assert peak < 1.5 * base[command], (command, base[command], peak)


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


# -- misc ---------------------------------------------------------------------

def test_quiet_flag_accepted(runner):
    result = invoke(runner, "--quiet", "stats", GOLDEN_DATASET)
    assert result.exit_code == 0


def test_help_lists_all_commands(runner):
    result = invoke(runner, "--help")
    for command in ("generate", "validate", "stats", "overlap", "emit-train", "eval"):
        assert command in result.output


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

from annoforge.llm import LLMClient, user_request
client = LLMClient(backend="replay", cache_path=cache)
assert client.complete(user_request(prompt)).text == "cached"
print(sorted(name for name in ("requests", "yaml") if name in sys.modules))
"""


def test_offline_commands_load_neither_requests_nor_yaml(tmp_path):
    """Start-up cost: the analysis commands load no module only generate
    uses, only an HTTP call imports requests, and only --config yaml."""
    cache = tmp_path / "cache.jsonl"
    ReplayCache(cache).put(user_request("hello").request_key, "cached", "stop")
    src = str(Path(annoforge.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", OFFLINE_RUN, str(GOLDEN_DATASET), str(cache), "hello"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]"]
