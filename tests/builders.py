"""Shared construction of small, fully valid pipeline outputs for tests."""

from __future__ import annotations

from annoforge.corpus import Document
from annoforge.dataset import DatasetRecord
from annoforge.notation import parse_guidelines, parse_instances
from annoforge.pipeline import default_templates, run_pipeline
from scripted import GUIDELINES, INSTANCES, STRUCTURE, SUMMARIZE, ScriptedClient

DOC1 = Document(doc_id="ml-01",
                text="TensorFlow was developed by Google. PyTorch came from Meta.")
DOC2 = Document(doc_id="city-01", text="Paris hosted the 1924 Olympics.")


def demo_client() -> ScriptedClient:
    client = ScriptedClient()
    one, two = "TensorFlow was developed", "Paris hosted"
    client.add((SUMMARIZE, one), "- TensorFlow: a framework by Google\n"
                                 "- PyTorch: a framework by Meta")
    client.add((STRUCTURE, one),
               '[{"label": "Framework", "attributes": {"name": "TensorFlow", '
               '"developer": "Google"}},\n {"label": "Framework", "attributes": '
               '{"name": "PyTorch", "developer": "Meta"}}]')
    client.add((GUIDELINES, one),
               '@dataclass\nclass Framework:\n    """A software library used to '
               'build machine learning models."""\n'
               "    name: str  # the framework's name exactly as written\n"
               "    developer: Optional[str]  # the organization that created it\n")
    client.add((INSTANCES, one),
               '[Framework(name="TensorFlow", developer="Google"), '
               'Framework(name="PyTorch", developer="Meta")]')
    client.add((SUMMARIZE, two), "- Paris: city that hosted the 1924 Olympics")
    client.add((STRUCTURE, two),
               '[{"label": "City", "attributes": {"name": "Paris"}}]')
    client.add((GUIDELINES, two),
               '@dataclass\nclass City:\n    """A populated place named in the '
               'document."""\n    name: str  # the city name as written\n')
    client.add((INSTANCES, two), '[City(name="Paris")]')
    return client


def paris_client(client: ScriptedClient | None = None) -> ScriptedClient:
    """Answers every stage of any document that names Paris."""
    client = client or ScriptedClient()
    client.add(SUMMARIZE, "- Paris: a city")
    client.add(STRUCTURE, '[{"label": "City", "attributes": {"name": "Paris"}}]')
    client.add(GUIDELINES, '@dataclass\nclass City:\n    """A city."""\n'
                           "    name: str  # the name\n")
    client.add(INSTANCES, '[City(name="Paris")]')
    return client


def collect(outcomes) -> tuple[list, list, list]:
    """``run_pipeline``'s stream as lists of records, rejects and trail entries."""
    records, rejects, trail = [], [], []
    for record, reject, steps in outcomes:
        trail.extend(steps)
        if reject is None:
            records.append(record)
        else:
            rejects.append(reject)
    return records, rejects, trail


def make_records() -> list[DatasetRecord]:
    records, rejects, _ = collect(run_pipeline([DOC1, DOC2], default_templates(),
                                               demo_client()))
    assert not rejects, rejects
    return records


def stats_record(doc_id: str, labels: list[str]) -> DatasetRecord:
    """A minimal record whose instances carry the given class names."""
    schema = parse_guidelines(
        "\n".join(f'@dataclass\nclass {name}:\n    """Type {name}."""\n'
                  f"    name: str  # the name\n"
                  for name in sorted(set(labels))) or
        '@dataclass\nclass Unused:\n    """Placeholder."""\n    name: str  # n\n')
    calls = ", ".join(f'{label}(name="x")' for label in labels)
    return DatasetRecord(
        doc_id=doc_id, document="x", summary="s",
        structured=[],
        guidelines_text="", schema=schema,
        instances=parse_instances(f"[{calls}]", doc_id=doc_id),
        validation={}, meta={"grounding": "off"})
