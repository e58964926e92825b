"""Regenerate the committed end-to-end fixtures in this directory.

Run from the repository root after any change to the packaged prompt
templates (cache keys hash the fully rendered prompts, so template edits
invalidate every cache entry)::

    PYTHONPATH=src python3 tests/data/gen_fixtures.py

Produces:

* docs.jsonl     -- the five fixture documents
* cache.jsonl    -- replay cache covering all twenty pipeline calls
* config.yaml    -- replay-backend run configuration
* golden/dataset.jsonl, golden/train.jsonl -- first-run outputs, frozen

The canned completions are hand-written so that every stage parses cleanly
and every extracted span is grounded in its document.
"""

from __future__ import annotations

import json
from pathlib import Path

from annoforge.config import build_client, build_templates, load_config
from annoforge.dataset import emit_training_examples, write_dataset
from annoforge.llm import ChatRequest, ChatResponse, GenerationParams, ReplayCache
from annoforge.corpus import Document
from annoforge.pipeline import run_pipeline

HERE = Path(__file__).parent

DOCS = [
    Document(
        doc_id="ml-frameworks-001",
        text=(
            "TensorFlow is an open-source machine learning framework developed "
            "by Google. It offers the Keras API for rapid prototyping and runs "
            "on CPUs, GPUs, and TPUs. PyTorch, developed by Meta, is known for "
            "dynamic computation graphs and a define-by-run style that "
            "researchers find intuitive. Both frameworks support automatic "
            "differentiation and distributed training.")),
    Document(
        doc_id="flu-care-002",
        text=(
            "Influenza typically begins with a sudden fever, followed by a dry "
            "cough and a sore throat. Many patients also report muscle aches "
            "and fatigue. Physicians often prescribe oseltamivir, an antiviral "
            "manufactured by Roche, within the first 48 hours of symptom "
            "onset. Rest and fluids remain the standard supportive care.")),
    Document(
        doc_id="treaty-versailles-003",
        text=(
            "The Treaty of Versailles was signed on 28 June 1919 at the Palace "
            "of Versailles, formally ending the state of war between Germany "
            "and the Allied Powers. French premier Georges Clemenceau pushed "
            "for harsh reparations, while American president Woodrow Wilson "
            "promoted his Fourteen Points. The treaty established the League "
            "of Nations, an organization intended to prevent future wars.")),
    Document(
        doc_id="composer-clara-004",
        text=(
            "Clara Schumann was a German pianist and composer born in Leipzig "
            "in 1819. She premiered many works of her husband Robert Schumann "
            "and toured Europe for over six decades. Her Piano Concerto in A "
            "minor, written at age fourteen, remains in the repertoire.")),
    Document(
        doc_id="mooc-cs50-005",
        text=(
            "CS50 is Harvard University's introductory course in computer "
            "science, taught by David J. Malan. The course is available free "
            "of charge on the edX platform and covers C, Python, SQL, and web "
            "development. Hundreds of thousands of learners enroll every "
            "year.")),
]

RESPONSES = {
    ("ml-frameworks-001", "summarize"): (
        "- TensorFlow: open-source machine learning framework developed by "
        "Google, offers the Keras API\n"
        "- PyTorch: framework developed by Meta, known for dynamic "
        "computation graphs\n"
        "- Both frameworks support automatic differentiation and distributed "
        "training"),
    ("ml-frameworks-001", "structure"): """```json
[
  {"label": "Framework", "attributes": {"name": "TensorFlow", "developer": "Google", "features": ["Keras API", "automatic differentiation"]}},
  {"label": "Framework", "attributes": {"name": "PyTorch", "developer": "Meta", "features": ["dynamic computation graphs", "distributed training"]}}
]
```""",
    ("ml-frameworks-001", "guidelines"): '''```python
@dataclass
class Framework:
    """A software library or platform used to build and train machine
    learning models. Annotate every framework the document names, once per
    distinct framework, even when it is only mentioned in passing. General
    terms such as 'software' without a proper name do not count."""
    name: str  # the framework's name exactly as it appears in the text
    developer: str  # the company or organization that develops the framework
    features: Optional[List[str]]  # capabilities the text attributes to the framework
```''',
    ("ml-frameworks-001", "instances"): (
        '[Framework(name="TensorFlow", developer="Google", '
        'features=["Keras API", "automatic differentiation"]), '
        'Framework(name="PyTorch", developer="Meta", '
        'features=["dynamic computation graphs", "distributed training"])]'),

    ("flu-care-002", "summarize"): (
        "- Influenza symptoms: sudden fever, dry cough, sore throat, muscle "
        "aches, fatigue\n"
        "- Treatment: oseltamivir, an antiviral manufactured by Roche\n"
        "- Supportive care: rest and fluids"),
    ("flu-care-002", "structure"): """```json
[
  {"label": "Symptom", "attributes": {"name": "fever"}},
  {"label": "Symptom", "attributes": {"name": "dry cough"}},
  {"label": "Symptom", "attributes": {"name": "sore throat"}},
  {"label": "Symptom", "attributes": {"name": "muscle aches"}},
  {"label": "Symptom", "attributes": {"name": "fatigue"}},
  {"label": "Medication", "attributes": {"name": "oseltamivir", "manufacturer": "Roche"}}
]
```""",
    ("flu-care-002", "guidelines"): '''@dataclass
class Symptom:
    """A physical sign or complaint that the text associates with an
    illness. Annotate each distinct symptom using the shortest span that
    names it, without surrounding verbs or qualifiers. General states of
    being unwell that the text does not name as a sign do not count."""
    name: str  # the symptom exactly as the text names it

@dataclass
class Medication:
    """A drug or pharmaceutical product given to treat an illness.
    Annotate prescription and over-the-counter medications alike, but not
    general care such as rest or fluids."""
    name: str  # the medication name as written
    manufacturer: Optional[str]  # the company that makes it, when stated''',
    ("flu-care-002", "instances"): (
        '[Symptom(name="fever"), Symptom(name="dry cough"), '
        'Symptom(name="sore throat"), Symptom(name="muscle aches"), '
        'Symptom(name="fatigue"), '
        'Medication(name="oseltamivir", manufacturer="Roche")]'),

    ("treaty-versailles-003", "summarize"): (
        "- Treaty of Versailles signed 28 June 1919 at the Palace of "
        "Versailles, ending the war between Germany and the Allied Powers\n"
        "- Georges Clemenceau (French premier) pushed for reparations; "
        "Woodrow Wilson (American president) promoted his Fourteen Points\n"
        "- The treaty established the League of Nations"),
    ("treaty-versailles-003", "structure"): """```json
[
  {"label": "Treaty", "attributes": {"name": "Treaty of Versailles", "date": "28 June 1919", "location": "Palace of Versailles"}},
  {"label": "Statesman", "attributes": {"name": "Georges Clemenceau", "role": "French premier"}},
  {"label": "Statesman", "attributes": {"name": "Woodrow Wilson", "role": "American president"}},
  {"label": "Organization", "attributes": {"name": "League of Nations", "purpose": "prevent future wars"}}
]
```""",
    ("treaty-versailles-003", "guidelines"): '''@dataclass
class Treaty:
    """A formal written agreement between states that the document names.
    Annotate the treaty's proper name; do not annotate generic references
    such as 'the agreement' unless no proper name appears."""
    name: str  # the treaty's proper name
    date: Optional[str]  # the signing date as written, when stated
    location: Optional[str]  # where it was signed, when stated

@dataclass
class Statesman:
    """A political leader or government figure the document names in
    connection with the treaty. Annotate each person once."""
    name: str  # the person's full name as written
    role: Optional[str]  # their office or title as the text gives it

@dataclass
class Organization:
    """An institution or body the document names, other than a state.
    Annotate the proper name only."""
    name: str  # the organization's proper name
    purpose: Optional[str]  # its stated purpose, when the text gives one''',
    ("treaty-versailles-003", "instances"): (
        '[Treaty(name="Treaty of Versailles", date="28 June 1919", '
        'location="Palace of Versailles"), '
        'Statesman(name="Georges Clemenceau", role="French premier"), '
        'Statesman(name="Woodrow Wilson", role="American president"), '
        'Organization(name="League of Nations", purpose="prevent future wars")]'),

    ("composer-clara-004", "summarize"): (
        "- Clara Schumann: German pianist and composer, born in Leipzig in "
        "1819\n"
        "- Premiered works of her husband Robert Schumann; toured Europe "
        "for over six decades\n"
        "- Wrote the Piano Concerto in A minor at age fourteen"),
    ("composer-clara-004", "structure"): """```json
[
  {"label": "Musician", "attributes": {"name": "Clara Schumann", "birthplace": "Leipzig", "birth_year": "1819", "occupations": ["pianist", "composer"]}},
  {"label": "Musician", "attributes": {"name": "Robert Schumann"}},
  {"label": "Work", "attributes": {"title": "Piano Concerto in A minor", "composer": "Clara Schumann"}}
]
```""",
    ("composer-clara-004", "guidelines"): '''@dataclass
class Musician:
    """A person the document identifies as a performer or composer of
    music. Annotate each musician once, even when mentioned several
    times."""
    name: str  # the musician's full name as written
    birthplace: Optional[str]  # city of birth, when stated
    birth_year: Optional[str]  # year of birth as written, when stated
    occupations: Optional[List[str]]  # musical roles the text assigns them

@dataclass
class Work:
    """A musical composition the document names. Annotate the title span
    only, without dates or commentary."""
    title: str  # the work's title as written
    composer: Optional[str]  # who composed it, when the text says so''',
    ("composer-clara-004", "instances"): (
        '[Musician(name="Clara Schumann", birthplace="Leipzig", '
        'birth_year="1819", occupations=["pianist", "composer"]), '
        'Musician(name="Robert Schumann"), '
        'Work(title="Piano Concerto in A minor", composer="Clara Schumann")]'),

    ("mooc-cs50-005", "summarize"): (
        "- CS50: Harvard University's introductory computer science course, "
        "taught by David J. Malan\n"
        "- Free of charge on the edX platform\n"
        "- Covers C, Python, SQL, and web development"),
    ("mooc-cs50-005", "structure"): """```json
[
  {"label": "Course", "attributes": {"name": "CS50", "institution": "Harvard University", "instructor": "David J. Malan", "platform": "edX", "topics": ["C", "Python", "SQL", "web development"]}}
]
```""",
    ("mooc-cs50-005", "guidelines"): '''@dataclass
class Course:
    """An organized program of study the document names. Annotate each
    named course once; do not annotate fields of study that are not
    offered as a course."""
    name: str  # the course's name or code as written
    institution: str  # the university or body offering it
    instructor: Optional[str]  # the named teacher, when stated
    platform: Optional[str]  # where it is hosted, when stated
    topics: Optional[List[str]]  # subjects the course covers''',
    ("mooc-cs50-005", "instances"): (
        '[Course(name="CS50", institution="Harvard University", '
        'instructor="David J. Malan", platform="edX", '
        'topics=["C", "Python", "SQL", "web development"])]'),
}

CONFIG_YAML = """\
corpus: docs.jsonl
client:
  backend: replay
  cache: cache.jsonl
  model: fixture
  parallelism: 2
pipeline:
  grounding: normalized
  keep_empty: false
output_dir: out
"""

STAGE_OPENERS = {
    "summarize": "You are preparing a document",
    "structure": "You are organizing the contents",
    "guidelines": "You are writing annotation guidelines",
    "instances": "You are annotating a document by instantiating",
}


class RecordingClient:
    """Serves the canned responses and writes each pair into the cache."""

    backend = "record"
    parallelism = 1

    def __init__(self, cache_path: Path):
        self.params = GenerationParams(model_name="fixture")
        self.cache = ReplayCache(cache_path)
        self.calls = 0

    def complete(self, *parts):
        prompt = "".join(parts)
        stage = next(s for s, opener in STAGE_OPENERS.items() if opener in prompt)
        doc = next(d for d in DOCS if d.text[:60] in prompt)
        text = RESPONSES[(doc.doc_id, stage)]
        key = ChatRequest(parts, self.params).request_key
        self.cache.put(key, text, "stop")
        self.calls += 1
        return ChatResponse(text=text, finish_reason="stop", request_key=key)


def main():
    with open(HERE / "docs.jsonl", "w", encoding="utf-8") as fh:
        for doc in DOCS:
            fh.write(json.dumps({"id": doc.doc_id, "text": doc.text,
                                 "source": "fixture"}, ensure_ascii=False) + "\n")
    (HERE / "config.yaml").write_text(CONFIG_YAML, encoding="utf-8")

    cache_path = HERE / "cache.jsonl"
    cache_path.write_text("")
    cfg = load_config(HERE / "config.yaml")
    templates = build_templates(cfg)
    recorder = RecordingClient(cache_path)
    # one document per run, so the cache lines come out in document order
    for doc in DOCS:
        for _, reject, _ in run_pipeline([doc], templates, recorder,
                                         grounding=cfg.grounding,
                                         keep_empty=cfg.keep_empty):
            assert reject is None, reject
    assert recorder.calls == len(DOCS) * 4, recorder.calls

    # golden outputs come from the real replay client, same as any later run
    replayer = build_client(cfg)
    outcomes = list(run_pipeline(DOCS, templates, replayer,
                                 grounding=cfg.grounding, keep_empty=cfg.keep_empty))
    assert all(reject is None for _, reject, _ in outcomes), outcomes
    records = [record for record, _, _ in outcomes]
    golden = HERE / "golden"
    golden.mkdir(exist_ok=True)
    write_dataset(records, golden / "dataset.jsonl")
    emitted = emit_training_examples(records, golden / "train.jsonl")
    assert emitted == (len(DOCS), len(DOCS)), emitted
    print(f"wrote {len(records)} records, {recorder.calls} cache entries")


if __name__ == "__main__":
    main()
