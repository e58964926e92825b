"""Run the annoforge CLI with timing wrappers around each layer's public calls.

Usage: PERFBENCH_TRACE_OUT=spans.json python3 traced_cli.py <annoforge args>

annoforge's modules bind names with ``from .x import y``, so one function
can be reachable under several module namespaces (``parse_instances`` is
bound in ``notation``, ``pipeline``, ``dataset`` and ``evaluation``). The
wrapper is installed in every namespace that holds the original object, and
on the class for methods and properties. Spans record name, start, end,
parent span, document id and a size where one is cheap to take. They are
kept in memory and written once, when the command exits.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

import annoforge.cli as cli
from annoforge import config, corpus, dataset, evaluation, llm, notation, pipeline, validation

MODULES = (cli, config, corpus, dataset, evaluation, llm, notation, pipeline, validation)

_spans: dict[int, tuple] = {}  # id -> (name, start, end, parent id, doc_id, size)
_ids = itertools.count()
_local = threading.local()


def _size_of(name: str, args: tuple, result):
    """A per-call size for the few spans whose metrics need one."""
    if name == "notation.parse_instances":
        return len(args[0])
    if name == "dataset.read":
        return len(result)
    if name == "dataset.write":
        return Path(args[1]).stat().st_size
    if name == "validation.validate":
        return [len(args[0].instances), len({e.instance_index for e in result})]
    return None


def _doc_id_of(args: tuple) -> str | None:
    doc = args[0] if args else None
    return getattr(doc, "doc_id", None)


def traced(name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        parent = stack[-1] if stack else None
        doc_id = _doc_id_of(args) if name.startswith("pipeline.stage.") else (
            parent[1] if parent else None)
        index = next(_ids)
        stack.append((index, doc_id))
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        _spans[index] = (name, start, end, parent[0] if parent else None, doc_id,
                         _size_of(name, args, result))
        return result
    return wrapper


FUNCTIONS = {
    "config.load_config": config.load_config,
    "corpus.load": config.load_docs,
    "pipeline.stage.summarize": pipeline.stage_summarize,
    "pipeline.stage.structure": pipeline.stage_structure,
    "pipeline.stage.guidelines": pipeline.stage_guidelines,
    "pipeline.stage.instances": pipeline.stage_instances,
    "notation.parse_instances": notation.parse_instances,
    "notation.parse_guidelines": notation.parse_guidelines,
    "notation.print_instances": notation.print_instances,
    "notation.print_guidelines": notation.print_guidelines,
    "validation.validate": validation.validate,
    "dataset.write": dataset.write_dataset,
    "dataset.read": dataset.read_dataset,
    "dataset.compute_stats": dataset.compute_stats,
    "dataset.emit_train": dataset.emit_training_examples,
    "evaluation.load_gold": evaluation.load_gold,
    "evaluation.load_predictions": evaluation.load_predictions,
    "evaluation.score": evaluation.score,
}


def install() -> None:
    for name, func in FUNCTIONS.items():
        wrapper = traced(name, func)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
    llm.LLMClient.complete = traced("llm.complete", llm.LLMClient.complete)
    llm.ReplayCache.__init__ = traced("llm.cache_load", llm.ReplayCache.__init__)
    pipeline.PromptTemplate.render = traced("pipeline.render", pipeline.PromptTemplate.render)
    key = llm.ChatRequest.request_key
    llm.ChatRequest.request_key = property(traced("llm.request_key", key.fget))


def write_spans(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[i, *span] for i, span in sorted(_spans.items())], fh)


def main() -> int:
    install()
    try:
        cli.main(args=sys.argv[1:], prog_name="annoforge")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        write_spans(os.environ["PERFBENCH_TRACE_OUT"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
