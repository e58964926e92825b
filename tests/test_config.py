"""Tests for YAML run configuration loading and object construction."""

import re
import textwrap
from pathlib import Path

import pytest
import yaml

from annoforge import config
from annoforge.config import (
    ConfigError,
    GenerationParams,
    RunConfig,
    build_client,
    build_templates,
    load_config,
    load_docs,
)
from annoforge.pipeline import STAGES, default_templates


def write_cfg(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_defaults_from_empty_file(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ""))
    assert cfg.corpus_path is None
    assert cfg.backend == "replay"
    assert cfg.params == GenerationParams()
    assert (cfg.params.model_name, cfg.params.temperature, cfg.params.top_p,
            cfg.params.max_new_tokens) == ("default", 0.7, 0.95, 1024)
    assert cfg.parallelism == 1
    assert cfg.grounding == "normalized"
    assert cfg.keep_empty is False
    assert cfg.max_doc_chars is None


def test_full_config_round_trip(tmp_path):
    (tmp_path / "docs.jsonl").write_text('{"id": "a", "text": "hi"}\n')
    (tmp_path / "cache.jsonl").write_text("")
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    (prompts / "summarize.txt").write_text("Short summary of {document}.")
    cfg = load_config(write_cfg(tmp_path, """\
corpus: docs.jsonl
sample: {n: 1, seed: 7}
templates:
  summarize: prompts/summarize.txt
client:
  backend: record
  base_url: http://localhost:9
  cache: cache.jsonl
  model: m1
  temperature: 0.2
  top_p: 0.5
  max_new_tokens: 64
  parallelism: 4
pipeline:
  grounding: exact
  keep_empty: true
  max_doc_chars: 500
output_dir: results
"""))
    assert cfg.corpus_path == tmp_path / "docs.jsonl"
    assert cfg.sample_n == 1 and cfg.sample_seed == 7
    assert cfg.template_paths == {"summarize": prompts / "summarize.txt"}
    assert cfg.backend == "record"
    assert cfg.base_url == "http://localhost:9"
    assert cfg.cache_path == tmp_path / "cache.jsonl"
    assert cfg.params == GenerationParams(temperature=0.2, top_p=0.5, max_new_tokens=64,
                                          model_name="m1")
    assert cfg.parallelism == 4
    assert cfg.grounding == "exact"
    assert cfg.keep_empty is True
    assert cfg.max_doc_chars == 500
    assert cfg.output_dir == tmp_path / "results"


def test_relative_paths_resolve_against_config_dir(tmp_path):
    nested = tmp_path / "conf"
    nested.mkdir()
    (nested / "c.jsonl").write_text('{"id": "a", "text": "hi"}\n')
    cfg = load_config(write_cfg(nested, "corpus: c.jsonl\noutput_dir: out\n"))
    assert cfg.corpus_path == nested / "c.jsonl"
    assert cfg.output_dir == nested / "out"


def test_absolute_paths_kept(tmp_path):
    corpus = tmp_path / "abs.jsonl"
    corpus.write_text('{"id": "a", "text": "hi"}\n')
    cfg = load_config(write_cfg(tmp_path, f"corpus: {corpus}\n"))
    assert cfg.corpus_path == corpus


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_invalid_yaml_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(write_cfg(tmp_path, "corpus: [unclosed\n"))


def test_non_mapping_top_level_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mapping at top level"):
        load_config(write_cfg(tmp_path, "- a\n- b\n"))


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys.*corpsu"):
        load_config(write_cfg(tmp_path, "corpsu: docs.jsonl\n"))


def test_unknown_client_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown client keys"):
        load_config(write_cfg(tmp_path, "client: {retries: 9}\n"))


@pytest.mark.parametrize("written", ["exact", "off", '"off"', "false"])
def test_grounding_reads_as_written(tmp_path, written):
    """YAML 1.1 reads an unquoted ``off`` as false, which means ``off`` here."""
    cfg = load_config(write_cfg(tmp_path, f"pipeline: {{grounding: {written}}}\n"))
    assert cfg.grounding == ("exact" if written == "exact" else "off")


@pytest.mark.parametrize("key", ["api_key", "apikey", "token", "secret"])
def test_credentials_in_config_rejected(tmp_path, key):
    with pytest.raises(ConfigError, match="credentials belong in the environment"):
        load_config(write_cfg(tmp_path, f"client: {{{key}: sk-123}}\n"))


def test_credentials_rejected_at_top_level_too(tmp_path):
    with pytest.raises(ConfigError, match="credentials belong in the environment"):
        load_config(write_cfg(tmp_path, "token: sk-123\n"))


@pytest.mark.parametrize("snippet,message", [
    ("client: {backend: teapot}", "unknown backend"),
    # the corpus path decides its format, so no key names it
    pytest.param("corpus_format: parquet", "unknown config keys: ['corpus_format']",
                 id="corpus_format: parquet-unknown corpus_format"),
    ("pipeline: {grounding: fuzzy}", "unknown grounding policy"),
    ("pipeline: {grounding: on}", "unknown grounding policy True"),
    ("client: {parallelism: 0}", "parallelism must be >= 1"),
    ("sample: {n: 0}", "sample n must be >= 1"),
    ("pipeline: {max_doc_chars: 0}", "max_doc_chars must be >= 1"),
    ("client: {temperature: -0.5}", "temperature must be a finite number >= 0"),
    ("client: {top_p: 2}", "top_p must be in (0, 1]"),
    ("client: {max_new_tokens: 0}", "max_new_tokens must be positive"),
])
def test_invalid_values_rejected(tmp_path, snippet, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(write_cfg(tmp_path, snippet + "\n"))


@pytest.mark.parametrize("snippet,message", [
    ("client: {temperature: hot}", "client.temperature must be a number, got 'hot'"),
    ("client: {top_p: [0.5]}", "client.top_p must be a number"),
    ("client: {max_new_tokens: lots}", "client.max_new_tokens must be an integer"),
    ("client: {parallelism: two}", "client.parallelism must be an integer"),
    ("pipeline: {max_doc_chars: 1e3}", "pipeline.max_doc_chars must be an integer"),
    ("sample: {n: many}", "sample.n must be an integer, got 'many'"),
    ("sample: {seed: abc}", "sample.seed must be an integer"),
    ('pipeline: {keep_empty: "false"}', "pipeline.keep_empty must be true or false, got 'false'"),
    ("pipeline: {keep_empty: 0}", "pipeline.keep_empty must be true or false, got 0"),
    ("client: {parallelism: 1.9}", "client.parallelism must be an integer, got 1.9"),
    ("client: {max_new_tokens: 2.5}", "client.max_new_tokens must be an integer, got 2.5"),
    ("client: {max_new_tokens: 512.0}", "client.max_new_tokens must be an integer, got 512.0"),
    ("pipeline: {max_doc_chars: 1000.5}", "pipeline.max_doc_chars must be an integer"),
    ("sample: {n: 2.5}", "sample.n must be an integer, got 2.5"),
    ("sample: {seed: 1.5}", "sample.seed must be an integer, got 1.5"),
    ("client: {parallelism: true}", "client.parallelism must be an integer, got True"),
    ("sample: {n: true}", "sample.n must be an integer, got True"),
    ("sample: {seed: false}", "sample.seed must be an integer, got False"),
    ("client: {temperature: true}", "client.temperature must be a number, got True"),
    ("client: {base_url: 123}", "client.base_url must be a non-empty string, got 123"),
    ("client: {model: null}", "client.model must be a non-empty string, got None"),
    ("client: {model: }", "client.model must be a non-empty string, got None"),
    ('client: {model: ""}', "client.model must be a non-empty string, got ''"),
])
def test_non_numeric_values_name_their_key(tmp_path, snippet, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(write_cfg(tmp_path, snippet + "\n"))


@pytest.mark.parametrize("snippet,message", [
    ("client: 5", "client must be a mapping, got 5"),
    ("client: http", "client must be a mapping, got 'http'"),
    ("sample: 3", "sample must be a mapping, got 3"),
    ("templates: 7", "templates must be a mapping, got 7"),
    ("pipeline: [grounding]", "pipeline must be a mapping, got ['grounding']"),
])
def test_non_mapping_sections_name_their_section(tmp_path, snippet, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(write_cfg(tmp_path, snippet + "\n"))


def test_missing_template_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="template for stage 'summarize' not found"):
        load_config(write_cfg(tmp_path, "templates: {summarize: gone.txt}\n"))


def test_unknown_template_stage_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown templates keys"):
        load_config(write_cfg(tmp_path, "templates: {translate: x.txt}\n"))


def test_build_templates_defaults_cover_all_stages(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ""))
    templates = build_templates(cfg)
    assert set(templates) == set(STAGES)
    for stage, template in templates.items():
        assert template.stage == stage


def test_build_templates_override_replaces_one_stage(tmp_path):
    custom = tmp_path / "s.txt"
    custom.write_text("Summarize: {document}")
    cfg = load_config(write_cfg(tmp_path, "templates: {summarize: s.txt}\n"))
    templates = build_templates(cfg)
    assert templates["summarize"].template_text == "Summarize: {document}"
    defaults = default_templates()
    assert templates["structure"].version == defaults["structure"].version
    assert templates["summarize"].version != defaults["summarize"].version


def test_build_client_wraps_value_errors(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "client: {backend: http}\n"))
    with pytest.raises(ConfigError, match="needs a base_url"):
        build_client(cfg)


def test_build_client_replay(tmp_path):
    (tmp_path / "cache.jsonl").write_text("")
    cfg = load_config(write_cfg(tmp_path, "client: {cache: cache.jsonl, model: m}\n"))
    client = build_client(cfg)
    assert client.backend == "replay"
    assert client.params.model_name == "m"


def test_build_client_passes_parallelism(tmp_path):
    (tmp_path / "cache.jsonl").write_text("")
    cfg = load_config(write_cfg(tmp_path, "client: {cache: cache.jsonl, parallelism: 4}\n"))
    assert cfg.parallelism == 4
    assert build_client(cfg).parallelism == cfg.parallelism


def test_load_docs_requires_corpus(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ""))
    with pytest.raises(ConfigError, match="declares no corpus"):
        load_docs(cfg)


def test_load_docs_missing_corpus_path(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "corpus: gone.jsonl\n"))
    with pytest.raises(ConfigError, match="corpus not found"):
        load_docs(cfg)


def test_load_docs_sampling_and_seed_override(tmp_path):
    lines = "".join(f'{{"id": "d{i}", "text": "doc {i}"}}\n' for i in range(30))
    (tmp_path / "docs.jsonl").write_text(lines)
    cfg = load_config(write_cfg(
        tmp_path, "corpus: docs.jsonl\nsample: {n: 5, seed: 3}\n"))
    first = [d.doc_id for d in load_docs(cfg)]
    again = [d.doc_id for d in load_docs(cfg)]
    assert first == again and len(first) == 5
    other = [d.doc_id for d in load_docs(cfg, seed=4)]
    assert other != first


def test_run_config_is_plain_data():
    cfg = RunConfig()
    cfg.output_dir = Path("elsewhere")
    assert cfg.output_dir == Path("elsewhere")


def documented_keys(layout: str) -> set[str]:
    """The config keys a YAML layout names, a section's as ``section.key``;
    a ``templates`` entry counts as ``templates`` when it names a stage."""
    keys = set()
    for key, value in yaml.safe_load(layout).items():
        if key == "templates":
            assert set(value) <= set(STAGES), value
        if isinstance(value, dict) and key != "templates":
            keys.update(f"{key}.{sub}" for sub in value)
        else:
            keys.add(key)
    return keys


def test_docs_name_exactly_the_keys_load_config_accepts():
    sections = {"client": config._CLIENT_KEYS, "pipeline": config._PIPELINE_KEYS,
                "sample": config._SAMPLE_KEYS}
    accepted = ({key for key in config._TOP_KEYS if key not in sections}
                | {f"{name}.{key}" for name, keys in sections.items() for key in keys})
    docstring = textwrap.dedent(config.__doc__.split("Layout::\n", 1)[1])
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    readme_block = readme.split("## Configuration", 1)[1].split("```yaml\n", 1)[1]
    assert documented_keys(docstring) == accepted
    assert documented_keys(readme_block.split("```", 1)[0]) == accepted
