"""Run configuration: one YAML file describing a whole workflow.

Paths inside the file are resolved relative to the file itself, so a config
can travel with its fixtures. Credentials are deliberately not accepted
here; the API key comes from the environment only. YAML 1.1 reads an
unquoted ``off`` (or ``false`` or ``no``) as false, so a false ``grounding``
means ``off``.

Layout::

    corpus: docs.jsonl            # a directory means its .txt files, else JSONL
    sample: {n: 100, seed: 13}    # optional subsampling
    templates:                    # optional; packaged defaults otherwise
      summarize: prompts/summarize.txt
    client:
      backend: replay             # http | record | replay
      base_url: http://localhost:8000
      cache: cache.jsonl
      model: default
      temperature: 0.7
      top_p: 0.95
      max_new_tokens: 1024
      parallelism: 1              # requests in flight to the endpoint; replay sends none
    pipeline:
      grounding: normalized       # exact | normalized | off
      keep_empty: false
      max_doc_chars: null
    output_dir: out
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from . import ConfigError  # defined in the package root; importable from here too
from .corpus import Document, load_corpus, sample_corpus
from .validation import GROUNDING_POLICIES

if TYPE_CHECKING:
    from .llm import LLMClient
    from .pipeline import PromptTemplate


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.7
    top_p: float = 0.95
    max_new_tokens: int = 1024
    model_name: str = "default"

    def __post_init__(self) -> None:
        if not 0 <= self.temperature < math.inf:
            raise ConfigError("temperature must be a finite number >= 0")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p must be in (0, 1]")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be positive")


@dataclass
class RunConfig:
    corpus_path: Path | None = None
    sample_n: int | None = None
    sample_seed: int = 0
    template_paths: dict[str, Path] = field(default_factory=dict)
    backend: str = "replay"
    base_url: str | None = None
    cache_path: Path | None = None
    params: GenerationParams = field(default_factory=GenerationParams)
    parallelism: int = 1
    grounding: str = "normalized"
    keep_empty: bool = False
    max_doc_chars: int | None = None
    output_dir: Path = Path("out")


_TOP_KEYS = {"corpus", "sample", "templates", "client", "pipeline", "output_dir"}
_CLIENT_KEYS = {"backend", "base_url", "cache", "model", "temperature",
                "top_p", "max_new_tokens", "parallelism"}
_PIPELINE_KEYS = {"grounding", "keep_empty", "max_doc_chars"}
_SAMPLE_KEYS = {"n", "seed"}


def _section(raw: dict, name: str, allowed: set[str]) -> dict:
    """The mapping under ``name``, empty when absent, with its keys checked."""
    section = {} if raw.get(name) is None else raw[name]
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a mapping, got {section!r}")
    _check_keys(section, allowed, name)
    return section


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    for secret in ("api_key", "apikey", "token", "secret"):
        if secret in section:
            raise ConfigError(f"{where} must not contain {secret!r}; "
                              "credentials belong in the environment")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _convert(kind: type, value, key: str):
    """``value`` as an int or float; a value that is neither names its key.

    A bool is neither, and an integer key takes no float, so nothing is
    silently truncated.
    """
    if not isinstance(value, bool) and not (kind is int and isinstance(value, float)):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    noun = "an integer" if kind is int else "a number"
    raise ConfigError(f"{key} must be {noun}, got {value!r}")


def _string(value, key: str) -> str:
    if isinstance(value, str) and value:
        return value
    raise ConfigError(f"{key} must be a non-empty string, got {value!r}")


def load_config(path: str | Path) -> RunConfig:
    import yaml  # here, not at the top: only --config needs it

    from .llm import BACKENDS
    from .pipeline import STAGES

    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, NotADirectoryError):  # the latter: a path under a file
        raise ConfigError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config file is a directory: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    _check_keys(raw, _TOP_KEYS, "config")
    base = path.parent

    def resolve(p) -> Path:
        p = Path(str(p))
        return p if p.is_absolute() else base / p

    cfg = RunConfig()
    if raw.get("corpus") is not None:
        cfg.corpus_path = resolve(raw["corpus"])

    sample = _section(raw, "sample", _SAMPLE_KEYS)
    if sample.get("n") is not None:
        cfg.sample_n = _convert(int, sample["n"], "sample.n")
        if cfg.sample_n < 1:
            raise ConfigError("sample n must be >= 1")
    cfg.sample_seed = _convert(int, sample.get("seed", 0), "sample.seed")

    templates = _section(raw, "templates", set(STAGES))
    cfg.template_paths = {stage: resolve(p) for stage, p in templates.items()}
    for stage, p in cfg.template_paths.items():
        if not p.exists():
            raise ConfigError(f"template for stage {stage!r} not found: {p}")
        if p.is_dir():
            raise ConfigError(f"template for stage {stage!r} is a directory, not a file: {p}")

    client = _section(raw, "client", _CLIENT_KEYS)
    cfg.backend = client.get("backend", cfg.backend)
    if cfg.backend not in BACKENDS:
        raise ConfigError(f"unknown backend {cfg.backend!r}")
    if client.get("base_url") is not None:
        cfg.base_url = _string(client["base_url"], "client.base_url")
    if client.get("cache") is not None:
        cfg.cache_path = resolve(client["cache"])
    defaults = cfg.params
    model_name = _string(client.get("model", defaults.model_name), "client.model")
    temperature = _convert(float, client.get("temperature", defaults.temperature),
                           "client.temperature")
    if not math.isfinite(temperature):  # the range check's message would not name the key
        raise ConfigError(f"client.temperature must be finite, got {temperature!r}")
    cfg.params = GenerationParams(  # which checks the ranges
        temperature=temperature,
        top_p=_convert(float, client.get("top_p", defaults.top_p), "client.top_p"),
        max_new_tokens=_convert(int, client.get("max_new_tokens", defaults.max_new_tokens),
                                "client.max_new_tokens"),
        model_name=model_name)
    cfg.parallelism = _convert(int, client.get("parallelism", cfg.parallelism),
                               "client.parallelism")
    if cfg.parallelism < 1:
        raise ConfigError("parallelism must be >= 1")

    pipeline = _section(raw, "pipeline", _PIPELINE_KEYS)
    cfg.grounding = pipeline.get("grounding", cfg.grounding)
    if cfg.grounding is False:  # what YAML makes of an unquoted off
        cfg.grounding = "off"
    if cfg.grounding not in GROUNDING_POLICIES:
        raise ConfigError(f"unknown grounding policy {cfg.grounding!r}")
    cfg.keep_empty = pipeline.get("keep_empty", cfg.keep_empty)
    if not isinstance(cfg.keep_empty, bool):
        raise ConfigError(f"pipeline.keep_empty must be true or false, "
                          f"got {cfg.keep_empty!r}")
    if pipeline.get("max_doc_chars") is not None:
        cfg.max_doc_chars = _convert(int, pipeline["max_doc_chars"], "pipeline.max_doc_chars")
        if cfg.max_doc_chars < 1:
            raise ConfigError("max_doc_chars must be >= 1")

    cfg.output_dir = resolve(raw.get("output_dir", "out"))
    return cfg


def build_templates(cfg: RunConfig) -> dict[str, PromptTemplate]:
    from .pipeline import default_templates, load_template

    templates = default_templates()
    for stage, path in cfg.template_paths.items():
        templates[stage] = load_template(path, stage)
    return templates


def build_client(cfg: RunConfig) -> LLMClient:
    from .llm import LLMClient

    return LLMClient(backend=cfg.backend, base_url=cfg.base_url, cache_path=cfg.cache_path,
                     params=cfg.params, parallelism=cfg.parallelism)


def load_docs(cfg: RunConfig, seed: int | None = None) -> list[Document]:
    if seed is not None and cfg.sample_n is None:
        raise ConfigError("--seed needs a sample section with n in the config")
    if cfg.corpus_path is None:
        raise ConfigError("config declares no corpus path")
    if not cfg.corpus_path.exists():
        raise ConfigError(f"corpus not found: {cfg.corpus_path}")
    docs = load_corpus(cfg.corpus_path)
    if cfg.sample_n is not None:
        docs = sample_corpus(docs, cfg.sample_n,
                             cfg.sample_seed if seed is None else seed)
    return docs
