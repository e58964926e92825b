"""The benchmark's tracer binds annoforge functions by name; keep them bound.

``perfbench/traced_cli.py`` builds its table of traced functions at import
time and reads some of their positional arguments. A rename or a reordered
parameter in ``src/`` would otherwise surface only when the benchmark runs
with ``--trace 1``. The tracer is loaded here without ``install()``, so no
module is patched.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


@pytest.fixture(scope="module")
def traced_cli():
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_still_bound_in_its_module(traced_cli):
    assert traced_cli.FUNCTIONS
    for span, func in traced_cli.FUNCTIONS.items():
        module = sys.modules[func.__module__]
        assert module.__name__.startswith("annoforge."), span
        assert getattr(module, func.__name__, None) is func, span


def test_traced_methods_exist(traced_cli):
    llm, pipeline = traced_cli.llm, traced_cli.pipeline
    assert callable(llm.LLMClient.complete)
    assert callable(llm.ReplayCache.__init__)
    assert callable(pipeline.PromptTemplate.render)
    assert isinstance(llm.ChatRequest.request_key, property)


def positional(func) -> list[str]:
    return list(inspect.signature(func).parameters)


def test_arguments_the_tracer_reads_keep_their_positions(traced_cli):
    functions = traced_cli.FUNCTIONS
    for stage in ("summarize", "structure", "guidelines", "instances"):
        assert positional(functions[f"pipeline.stage.{stage}"])[0] == "doc"
    assert positional(functions["notation.parse_instances"])[0] == "text"
    assert positional(functions["dataset.write"])[:2] == ["records", "path"]
    assert positional(functions["dataset.read"])[0] == "path"
    assert positional(functions["validation.validate"])[0] == "instance_set"


def test_dataset_read_returns_a_list(traced_cli):
    # the tracer's dataset.read size is len() of the result
    golden = Path(__file__).resolve().parent / "data" / "golden" / "dataset.jsonl"
    records = traced_cli.FUNCTIONS["dataset.read"](golden)
    assert isinstance(records, list)
    assert traced_cli._size_of("dataset.read", (golden,), records) == 5
