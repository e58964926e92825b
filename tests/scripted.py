"""A canned stand-in for LLMClient, matching prompts by substring rules."""

from __future__ import annotations

from dataclasses import replace

from annoforge.llm import ChatRequest, ChatResponse, GenerationParams, LLMError


class ScriptedClient:
    """Replies from an ordered rule list; first matching rule wins.

    A rule's needle is a substring (or tuple of substrings, all required)
    of the rendered prompt. Unmatched prompts raise, which keeps tests
    honest about exactly which calls a scenario makes.
    """

    backend = "scripted"

    def __init__(self, params: GenerationParams | None = None, parallelism: int = 1):
        self.params = params or GenerationParams()
        self.parallelism = parallelism
        self.rules: list[tuple[tuple[str, ...], ChatResponse]] = []
        self.calls: list[str] = []

    def add(self, needle, text: str, finish_reason: str = "stop"):
        needles = (needle,) if isinstance(needle, str) else tuple(needle)
        self.rules.append((needles, ChatResponse(text=text,
                                                 finish_reason=finish_reason)))
        return self

    def complete(self, *parts: str) -> ChatResponse:
        prompt = "".join(parts)
        self.calls.append(prompt)
        for needles, response in self.rules:
            if all(n in prompt for n in needles):
                return replace(response,
                               request_key=ChatRequest(parts, self.params).request_key)
        raise LLMError(f"no scripted response matches: {prompt[:120]!r}")


SUMMARIZE = "You are preparing a document"
STRUCTURE = "You are organizing the contents"
GUIDELINES = "You are writing annotation guidelines"
INSTANCES = "You are annotating a document by instantiating"
REPAIR = "could not be used"
