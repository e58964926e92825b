"""Chat-completion client with retries and record/replay caching.

A request is one prompt, sent as the single user turn of a chat completion.
Requests go out through the standard library's ``urllib.request``, one
connection per request, each attempt with a 120 s timeout. A call makes at
most 3 attempts. A retryable HTTP reply (429 or 5xx) is retried after its
``Retry-After`` delay, capped at 120 s; without a usable one, after 1 s and
then 2 s. A transport failure (no connection, a timeout, a reply cut short or
not HTTP at all) is retried with the same backoff.
``urllib.request`` is imported by the first HTTP call, not with this module, so
the replay backend and the offline commands never load it.

``parallelism`` bounds the requests in flight: a call holds a slot only while
its request is sent and its reply read, never across a retry wait, parsing or
a cache write.

Three backends share one interface:

* ``http``   -- POST to a chat-completions endpoint; the cache is never opened
* ``record`` -- like http, but every (request_key, response) pair is written
  to a JSONL cache; cached keys are served without touching the network
* ``replay`` -- serve exclusively from the cache; a miss is an error and no
  network I/O ever happens

The cache file is mended by ``jsonl.mend``, under ``replay`` too, before it loads.

The request key hashes the prompt, as its one user message, plus the
generation parameters, canonically serialized, so it is stable across runs and
platforms and any prompt edit invalidates stale cache entries. A prompt arrives
as parts (template text and bound values), and the key is hashed part by part:
the one-message canonical payload's head, each part's JSON escape, then its
tail. The ``ensure_ascii`` escape maps each code point on its own, so the
escapes of the parts concatenate to the escape of the joined prompt, and the
key equals the hash of the whole payload. Escapes are memoized per part, so a
document quoted by all four stage prompts is escaped once, not once per call.
Only an HTTP call joins the parts, for the request body.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from urllib.parse import urlsplit

from . import __version__, jsonl
from .config import ConfigError, GenerationParams

BACKENDS = ("http", "replay", "record")
API_KEY_VARS = ("ANNOFORGE_API_KEY", "OPENAI_API_KEY")
RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
USER_AGENT = f"annoforge/{__version__}"  # not urllib's default, which some gateways block
TIMEOUT = 120.0  # seconds per HTTP attempt, and the cap on a Retry-After wait
MAX_ATTEMPTS = 3
BACKOFF_BASE = 1.0  # seconds before the second attempt, doubled before each later one
# Prompt parts whose escapes are kept. It must hold the parts of the documents
# in flight, at about five parts each (the document, earlier answers, a repair
# note), plus about 20 template pieces. A replay run has one document in
# flight; the other backends have pipeline.DOC_WORKERS_PER_SLOT x parallelism,
# and 64 covers parallelism 4. Past that, keys stay right and a part is only
# escaped again. Each kept escape is about as large as its part.
ESCAPE_MEMO_SIZE = 64


class LLMError(Exception):
    pass


class ReplayCacheMissError(LLMError):
    def __init__(self, request_key: str) -> None:
        self.request_key = request_key
        super().__init__(f"no cached response for request_key {request_key}")


@functools.lru_cache(maxsize=ESCAPE_MEMO_SIZE)
def _escaped(part: str) -> bytes:
    """``part`` as canonical JSON string content: ``ensure_ascii`` escapes, no quotes."""
    return encode_basestring_ascii(part)[1:-1].encode("ascii")


@dataclass(frozen=True)
class ChatRequest:
    parts: tuple[str, ...]  # joined, the one user message
    params: GenerationParams = field(default_factory=GenerationParams)

    @property
    def request_key(self) -> str:
        """sha256 of the canonical payload ``{"messages": [{"role": "user",
        "content": PROMPT}], "params": {...}}`` (sorted keys, ASCII, no spaces)."""
        payload = {
            "messages": [{"role": "user", "content": ""}],
            "params": {
                "temperature": self.params.temperature,
                "top_p": self.params.top_p,
                "max_new_tokens": self.params.max_new_tokens,
                "model_name": self.params.model_name,
            },
        }
        frame = json.dumps(payload, sort_keys=True, ensure_ascii=True,
                           separators=(",", ":"), allow_nan=False).encode("ascii")
        # the parts' escapes go between the quotes of the frame's empty content
        head, tail = frame.split(b'"content":""', 1)
        digest = hashlib.sha256(head + b'"content":"')
        for part in self.parts:
            digest.update(_escaped(part))
        digest.update(b'"' + tail)
        return digest.hexdigest()


@dataclass
class ChatResponse:
    text: str
    finish_reason: str  # stop | length
    usage: dict | None = None
    request_key: str | None = None  # set by complete(), so no caller hashes again


class ReplayCache:
    """JSONL-backed response cache; concurrent reads, serialized appends."""

    def __init__(self, path: str | Path, must_exist: bool = False) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[str, str]] = {}
        if self.path.is_dir():
            raise ConfigError(f"cache is a directory, not a file: {self.path}")
        if self.path.exists():
            jsonl.mend(self.path)
            self._entries = dict(entry for _, entry in
                                 jsonl.read(self.path, "corrupt cache entry", _cache_entry))
        elif must_exist:
            raise FileNotFoundError(f"replay cache not found: {self.path}")
        else:  # here, so a path under a file fails before any request is paid for
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cache directory cannot be made for {self.path}: "
                                  f"{exc}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> tuple[str, str]:
        if key not in self._entries:
            raise ReplayCacheMissError(key)
        return self._entries[key]

    def put(self, key: str, text: str, finish_reason: str) -> None:
        # request_key first, unlike jsonl.dumps, so a line's start names its key
        line = json.dumps({"request_key": key, "response_text": text,
                           "finish_reason": finish_reason}, ensure_ascii=False)
        with self._lock:
            self._entries[key] = (text, finish_reason)
            with open(self.path, "ab") as fh:
                fh.write((line + "\n").encode("utf-8"))


def _cache_entry(line: str) -> tuple[str, tuple[str, str]]:
    record = json.loads(line)
    return record["request_key"], (record["response_text"], record["finish_reason"])


class LLMClient:
    """Uniform access to a chat-completion model; shareable across threads."""

    def __init__(self, backend: str, base_url: str | None = None,
                 cache_path: str | Path | None = None,
                 params: GenerationParams | None = None, parallelism: int = 1) -> None:
        if backend not in BACKENDS:
            raise ConfigError(f"unknown backend {backend!r}")
        if backend in ("http", "record") and not base_url:
            raise ConfigError(f"backend {backend!r} needs a base_url")
        try:
            scheme = urlsplit(base_url or "").scheme
        except ValueError:  # a malformed host, such as an unclosed IPv6 bracket
            scheme = None
        if backend in ("http", "record") and scheme not in ("http", "https"):
            raise ConfigError(f"base_url must be an http:// or https:// URL, got {base_url!r}")
        if backend in ("replay", "record") and not cache_path:
            raise ConfigError(f"backend {backend!r} needs a cache_path")
        if parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        self.backend = backend
        self.base_url = base_url.rstrip("/") if base_url else None
        self.params = params or GenerationParams()
        self.parallelism = parallelism
        self._slots = threading.BoundedSemaphore(parallelism)
        self.cache = (None if backend == "http" else
                      ReplayCache(cache_path, must_exist=backend == "replay"))

    def complete(self, *parts: str) -> ChatResponse:
        """Ask the prompt ``parts`` join to; raises LLMError when no response
        can be produced."""
        request = ChatRequest(parts, self.params)
        key = request.request_key
        if self.backend == "replay" or (self.backend == "record" and key in self.cache):
            text, finish_reason = self.cache.get(key)
            return ChatResponse(text=text, finish_reason=finish_reason, request_key=key)
        response = self._http_call(request)
        response.request_key = key
        if self.backend == "record":
            self.cache.put(key, response.text, response.finish_reason)
        return response

    def _http_call(self, request: ChatRequest) -> ChatResponse:
        import http.client

        body = {
            "model": request.params.model_name,
            "messages": [{"role": "user", "content": "".join(request.parts)}],
            "temperature": request.params.temperature,
            "top_p": request.params.top_p,
            "max_tokens": request.params.max_new_tokens,
        }
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        headers = {"Content-Type": "application/json", "User-Agent": USER_AGENT}
        api_key = next((os.environ[v] for v in API_KEY_VARS if os.environ.get(v)), None)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        url = f"{self.base_url}/v1/chat/completions"
        for attempt in range(1, MAX_ATTEMPTS + 1):
            wait = BACKOFF_BASE * 2 ** (attempt - 1)
            try:
                with self._slots:  # released before any retry wait
                    status, reply_headers, reply = _post(url, data, headers, TIMEOUT)
            # OSError covers refused connections, timeouts and resets; HTTPException
            # a reply cut short (IncompleteRead) or not HTTP at all (BadStatusLine)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"transport error: {exc}"
            else:
                if status == 200:
                    return self._parse_response(reply)
                last_error = f"HTTP {status}: {reply.decode('utf-8', 'replace')[:200]}"
                if status not in RETRYABLE_STATUS:
                    raise LLMError(last_error)
                retry_after = _delta_seconds(reply_headers.get("Retry-After"))
                if retry_after is not None:
                    wait = min(retry_after, TIMEOUT)
            if attempt < MAX_ATTEMPTS:
                time.sleep(wait)
        raise LLMError(f"giving up after {MAX_ATTEMPTS} attempts; {last_error}")

    @staticmethod
    def _parse_response(reply: bytes) -> ChatResponse:
        try:
            payload = json.loads(reply)
            choice = payload["choices"][0]
            text = choice["message"]["content"]
            str.encode(text, "utf-8")  # a str the trail can write: no lone surrogate
        except (ValueError, LookupError, TypeError) as exc:
            raise LLMError(f"malformed endpoint response: {exc}") from exc
        finish_reason = choice.get("finish_reason")
        return ChatResponse(
            text=text,
            finish_reason="length" if finish_reason == "length" else "stop",
            usage=payload.get("usage"),
        )


def _post(url: str, data: bytes, headers: dict, timeout: float):
    """POST ``data``; the reply's status, headers and whole body, its connection closed.

    An HTTP error status is a reply like any other here, not an exception.
    """
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        reply = urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as exc:
        reply = exc
    with reply:
        return reply.status, reply.headers, reply.read()


def _delta_seconds(value: str | None) -> float | None:
    """A ``Retry-After`` value read as delta-seconds; None unless a number >= 0.

    An HTTP-date form is not parsed and yields None, as does a missing header.
    """
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if seconds >= 0 else None
