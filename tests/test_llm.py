from __future__ import annotations

import inspect
import json
import logging
import re
import socketserver
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annoforge
from annoforge.config import RunConfig, build_client
from annoforge.llm import (
    ChatRequest,
    ChatResponse,
    GenerationParams,
    LLMClient,
    LLMError,
    ReplayCache,
    ReplayCacheMissError,
)
from chatserver import ChatServer, completion
from oracles import oracle_request_key


def test_generation_params_defaults():
    params = GenerationParams()
    assert (params.temperature, params.top_p, params.max_new_tokens) == (0.7, 0.95, 1024)


def test_generation_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(temperature=-0.1)
    with pytest.raises(ValueError):
        GenerationParams(top_p=0.0)
    with pytest.raises(ValueError):
        GenerationParams(top_p=1.2)
    with pytest.raises(ValueError):
        GenerationParams(max_new_tokens=0)


def test_request_key_matches_canonical_hash():
    req = ChatRequest(("Say hi",))
    # frozen from the first run; also re-derived here from the canonical form
    assert req.request_key == \
        "30684f02c5fff5cc920f24ad0ce72c7195d7a3f8280b3ebed2f039d4f66679da"
    assert req.request_key == oracle_request_key("Say hi", GenerationParams())


def test_request_key_sensitivity():
    base = ChatRequest(("Say hi",))
    assert base.request_key == ChatRequest(("Say hi",)).request_key
    assert base.request_key != ChatRequest(("Say hi!",)).request_key
    assert base.request_key != \
        ChatRequest(("Say hi",), GenerationParams(temperature=0.0)).request_key
    assert base.request_key != \
        ChatRequest(("Say hi",), GenerationParams(model_name="m2")).request_key


def test_request_key_unicode_stable():
    req = ChatRequest(("Grüße, 世界",))
    assert req.request_key == \
        "8bb598869b77579b33f16f36406863f7505fbeb0752dfa06af20d65150643ed2"


# what JSON escapes (quote, backslash, controls), DEL, non-ASCII, a non-BMP
# character (a surrogate pair when escaped) and lone surrogates of both halves
KEY_CHARS = st.one_of(st.sampled_from('"\\\x7fé世\U0001f600\ud83d\ude00'),
                      st.characters(max_codepoint=0x1f),
                      st.characters(exclude_categories=()))
PARTS = st.lists(st.text(KEY_CHARS, max_size=12), max_size=6)
PARAMS = st.builds(GenerationParams, temperature=st.floats(0, 2),
                   top_p=st.floats(0.01, 1), max_new_tokens=st.integers(1, 4096),
                   model_name=st.text(KEY_CHARS, min_size=1, max_size=12))


@settings(max_examples=300, deadline=None)
@given(PARTS, PARAMS)
def test_request_key_of_parts_is_the_key_of_their_join(parts, params):
    assert ChatRequest(tuple(parts), params).request_key == \
        oracle_request_key("".join(parts), params)


@settings(max_examples=300, deadline=None)
@given(st.text(KEY_CHARS, max_size=30), st.lists(st.integers(0, 30), max_size=5))
def test_every_split_of_a_prompt_gives_one_key(text, cuts):
    cuts = sorted(min(cut, len(text)) for cut in cuts)
    parts = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    assert "".join(parts) == text
    assert ChatRequest(tuple(parts)).request_key == ChatRequest((text,)).request_key


def test_replay_cache_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ReplayCache(path)
    cache.put("k1", "hello", "stop")
    assert cache.get("k1") == ("hello", "stop")
    # a fresh instance reads the persisted entry back
    again = ReplayCache(path)
    assert again.get("k1") == ("hello", "stop")
    with pytest.raises(ReplayCacheMissError):
        again.get("nope")


def test_replay_cache_drops_torn_last_line(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"request_key": "k1", "response_text": "a", "finish_reason": "stop"}\n'
                    '{"request_key": "k2", "respo', encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="annoforge.llm"):
        cache = ReplayCache(path)
    assert "k1" in cache and "k2" not in cache
    assert "torn last line" in caplog.text
    # the next entry replaces the fragment instead of extending it
    cache.put("k3", "c", "stop")
    assert path.read_text(encoding="utf-8").splitlines()[1:] == \
        ['{"request_key": "k3", "response_text": "c", "finish_reason": "stop"}']
    caplog.clear()
    again = ReplayCache(path)
    assert again.get("k1") == ("a", "stop") and again.get("k3") == ("c", "stop")
    assert not caplog.records


def test_replay_cache_keeps_complete_unterminated_last_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"request_key": "k1", "response_text": "a", "finish_reason": "stop"}',
                    encoding="utf-8")
    cache = ReplayCache(path)
    assert cache.get("k1") == ("a", "stop")
    cache.put("k2", "b", "stop")
    again = ReplayCache(path)
    assert again.get("k1") == ("a", "stop") and again.get("k2") == ("b", "stop")


def test_replay_cache_malformed_terminated_line_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"request_key": "k1", "respo\n'
                    '{"request_key": "k2", "response_text": "b", "finish_reason": "stop"}\n',
                    encoding="utf-8")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:1: ") as caught:
        ReplayCache(path)
    assert type(caught.value) is ValueError


def test_replay_cache_must_exist(tmp_path):
    with pytest.raises(FileNotFoundError):
        ReplayCache(tmp_path / "missing.jsonl", must_exist=True)


def test_http_backend_never_opens_its_cache(tmp_path):
    corrupt = tmp_path / "bad.jsonl"
    corrupt.write_bytes(b"not json")
    for cache_path in (corrupt, tmp_path / "missing" / "cache.jsonl"):
        client = LLMClient(backend="http", base_url="http://127.0.0.1:1",
                           cache_path=cache_path)
        assert client.cache is None
    assert corrupt.read_bytes() == b"not json"  # not mended
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


def test_client_config_validation(tmp_path):
    with pytest.raises(ValueError, match="unknown backend"):
        LLMClient(backend="grpc")
    with pytest.raises(ValueError, match="needs a base_url"):
        LLMClient(backend="http")
    with pytest.raises(ValueError, match="needs a cache_path"):
        LLMClient(backend="replay")


@pytest.mark.parametrize("base_url", ["localhost:8000", "ftp://host", "file:///etc"])
def test_base_url_must_be_http(base_url):
    # urllib would read file: and ftp: URLs, and reject one without a scheme
    # before any request; fail at start-up instead
    with pytest.raises(ValueError, match="must be an http:// or https:// URL"):
        LLMClient(backend="http", base_url=base_url)
    with pytest.raises(ValueError, match="must be an http:// or https:// URL"):
        LLMClient(backend="record", base_url=base_url, cache_path="unused.jsonl")


def test_zero_parallelism_is_rejected():
    # a zero-slot semaphore would block every HTTP call forever
    with pytest.raises(ValueError, match="parallelism must be >= 1"):
        LLMClient(backend="http", base_url="http://127.0.0.1:1", parallelism=0)


def test_client_takes_only_what_build_client_passes(monkeypatch):
    """A parameter no config key reaches is a setting only tests can change."""
    passed = {}
    monkeypatch.setattr("annoforge.llm.LLMClient", lambda **kwargs: passed.update(kwargs))
    build_client(RunConfig())
    accepted = list(inspect.signature(LLMClient).parameters)
    assert accepted == list(passed) == \
        ["backend", "base_url", "cache_path", "params", "parallelism"]


def test_replay_serves_cache_without_network(tmp_path, no_network):
    cache = ReplayCache(tmp_path / "cache.jsonl")
    cache.put(ChatRequest(("question",)).request_key, "answer", "stop")
    client = LLMClient(backend="replay", cache_path=tmp_path / "cache.jsonl")
    response = client.complete("question")
    assert response.text == "answer"
    assert response.finish_reason == "stop"


def test_replay_miss_names_key(tmp_path, no_network):
    (tmp_path / "cache.jsonl").write_text("")
    client = LLMClient(backend="replay", cache_path=tmp_path / "cache.jsonl")
    key = ChatRequest(("never asked",)).request_key
    with pytest.raises(ReplayCacheMissError) as exc:
        client.complete("never asked")
    assert key in str(exc.value)
    assert exc.value.request_key == key


def test_no_network_guard_trips_on_an_http_call(chat_server, no_network):
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    with pytest.raises(AssertionError, match="network I/O attempted"):
        client.complete("ping")
    assert chat_server.seen == []


def test_http_complete(chat_server):
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    response = client.complete("ping")
    assert response.text == "echo: ping"
    assert response.finish_reason == "stop"
    assert response.usage == {"prompt_tokens": 7, "completion_tokens": 5}
    sent = chat_server.seen[0]
    assert sent["path"] == "/v1/chat/completions"
    assert sent["payload"]["model"] == "default"
    assert sent["payload"]["temperature"] == 0.7
    assert sent["payload"]["top_p"] == 0.95
    assert sent["payload"]["max_tokens"] == 1024


def test_request_shape(chat_server):
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    client.complete("Grüße")
    sent = chat_server.seen[0]
    headers = sent["headers"]
    assert headers["User-Agent"] == f"annoforge/{annoforge.__version__}"
    assert headers["Content-Type"] == "application/json"
    body = {"model": "default", "messages": [{"role": "user", "content": "Grüße"}],
            "temperature": 0.7, "top_p": 0.95, "max_tokens": 1024}
    # the bytes json.dumps writes by default, so request sizes stay comparable
    assert sent["body"] == json.dumps(body).encode()
    assert int(headers["Content-Length"]) == len(json.dumps(body).encode())


def test_api_key_header(chat_server, monkeypatch):
    monkeypatch.setenv("ANNOFORGE_API_KEY", "sekrit")
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    client.complete("ping")
    assert chat_server.seen[0]["headers"]["Authorization"] == "Bearer sekrit"


def test_record_then_replay_round_trip(chat_server, tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    recorder = LLMClient(backend="record", base_url=chat_server.base_url,
                         cache_path=cache_path)
    prompt = "what is 2+2?"
    recorded = recorder.complete(prompt)
    assert len(chat_server.seen) == 1
    # a second record call is served from cache, not the network
    assert recorder.complete(prompt).text == recorded.text
    assert len(chat_server.seen) == 1

    replayer = LLMClient(backend="replay", cache_path=cache_path)
    replayed = replayer.complete(prompt)
    assert replayed.text == recorded.text
    assert replayed.finish_reason == recorded.finish_reason


def test_length_finish_reason_passes_through(chat_server):
    chat_server.responder = lambda payload: (200, completion("cut off", "length"))
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    assert client.complete("long").finish_reason == "length"


def test_retries_on_5xx_then_succeeds(chat_server, sleeps):
    failures = ["boom", "boom"]

    def flaky(payload):
        if failures:
            failures.pop()
            return 500, {"error": "server exploded"}
        return 200, completion("finally")

    chat_server.responder = flaky
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    assert client.complete("x").text == "finally"
    assert len(chat_server.seen) == 3


def test_gives_up_after_max_attempts(chat_server, sleeps):
    chat_server.responder = lambda payload: (503, {"error": "down"})
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    with pytest.raises(LLMError, match="giving up after 3 attempts"):
        client.complete("x")
    assert len(chat_server.seen) == 3


def test_429_is_retryable_but_404_is_not(chat_server, sleeps, monkeypatch):
    monkeypatch.setattr("annoforge.llm.MAX_ATTEMPTS", 2)
    chat_server.responder = lambda payload: (429, {"error": "slow down"})
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    with pytest.raises(LLMError):
        client.complete("x")
    assert len(chat_server.seen) == 2

    chat_server.seen.clear()
    chat_server.responder = lambda payload: (404, {"error": "no such model"})
    with pytest.raises(LLMError, match="HTTP 404"):
        client.complete("x")
    assert len(chat_server.seen) == 1


@pytest.fixture
def sleeps(monkeypatch):
    recorded = []
    monkeypatch.setattr("annoforge.llm.time.sleep", recorded.append)
    return recorded


@pytest.mark.parametrize("status,retry_after,failures,expected", [
    (429, "0", 1, [0]),
    (429, "1", 1, [1.0]),
    (503, "0.5", 1, [0.5]),
    (429, None, 2, [5, 10]),
    (429, "soon", 2, [5, 10]),
    (429, "-3", 2, [5, 10]),
    (429, "Wed, 21 Oct 2015 07:28:00 GMT", 2, [5, 10]),
    (429, "9999", 1, [30]),
])
def test_retry_waits_for_retry_after(chat_server, sleeps, monkeypatch, status,
                                     retry_after, failures, expected):
    monkeypatch.setattr("annoforge.llm.BACKOFF_BASE", 5)
    monkeypatch.setattr("annoforge.llm.TIMEOUT", 30)
    replies = [(status, {"error": "wait"},
                {} if retry_after is None else {"Retry-After": retry_after})] * failures
    chat_server.responder = lambda payload: \
        replies.pop() if replies else (200, completion("done"))
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    assert client.complete("x").text == "done"
    assert sleeps == expected
    assert len(chat_server.seen) == failures + 1


def test_transport_error_keeps_exponential_backoff(sleeps, monkeypatch):
    monkeypatch.setattr("annoforge.llm.BACKOFF_BASE", 5)
    monkeypatch.setattr("annoforge.llm.TIMEOUT", 1)
    # nothing listens on port 1, so every attempt is refused without a response
    client = LLMClient(backend="http", base_url="http://127.0.0.1:1")
    with pytest.raises(LLMError, match="giving up after 3 attempts; transport error"):
        client.complete("x")
    assert sleeps == [5, 10]


def test_default_retry_policy(chat_server, sleeps):
    # 3 attempts, 1 s then 2 s apart; a Retry-After is capped at 120 s
    chat_server.responder = lambda payload: (503, {"error": "down"})
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    with pytest.raises(LLMError, match="giving up after 3 attempts"):
        client.complete("x")
    assert sleeps == [1, 2]
    chat_server.responder = lambda payload: (429, {"error": "wait"}, {"Retry-After": "9999"})
    sleeps.clear()
    with pytest.raises(LLMError):
        client.complete("x")
    assert sleeps == [120, 120]


class _RawReply(socketserver.StreamRequestHandler):
    """Read one request whole, then write the server's ``reply`` bytes as they are."""

    def handle(self):
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.rfile.read(length)
        self.server.connections += 1
        self.wfile.write(self.server.reply)


@pytest.fixture
def raw_server():
    server = socketserver.TCPServer(("127.0.0.1", 0), _RawReply)
    server.reply, server.connections = b"", 0
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 100\r\n\r\n{\"choices\": [",
    b"garbage\r\n\r\n",
    b"",
], ids=["body-cut-short", "garbage-status-line", "closed-without-reply"])
def test_broken_replies_are_retried_as_transport_errors(raw_server, sleeps, monkeypatch,
                                                       reply):
    monkeypatch.setattr("annoforge.llm.BACKOFF_BASE", 5)
    monkeypatch.setattr("annoforge.llm.TIMEOUT", 5)
    raw_server.reply = reply
    host, port = raw_server.server_address
    client = LLMClient(backend="http", base_url=f"http://{host}:{port}")
    with pytest.raises(LLMError, match="^giving up after 3 attempts; transport error: "):
        client.complete("x")
    assert raw_server.connections == 3
    assert sleeps == [5, 10]


def test_429_with_retry_after_still_gives_up_after_three(chat_server, sleeps):
    chat_server.responder = lambda payload: (429, {"error": "wait"}, {"Retry-After": "0"})
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    with pytest.raises(LLMError, match="giving up after 3 attempts"):
        client.complete("x")
    assert len(chat_server.seen) == 3
    assert sleeps == [0, 0]


def test_malformed_response_is_an_error(chat_server):
    chat_server.responder = lambda payload: (200, {"surprise": True})
    client = LLMClient(backend="http", base_url=chat_server.base_url)
    with pytest.raises(LLMError, match="malformed endpoint response"):
        client.complete("x")


def test_chat_response_shape():
    r = ChatResponse(text="x", finish_reason="stop")
    assert r.usage is None


def run_threads(targets, timeout=10):
    threads = [threading.Thread(target=t) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive()


def test_request_keys_stay_right_when_threads_share_the_escape_memo():
    # more distinct parts than the memo holds, so threads evict each other's
    documents = [f"document {i}: " + "Grüße \"quoted\" \ud83d\n" * 300 for i in range(90)]
    requests = [ChatRequest((f"Stage {i % 4}: ", documents[i % 90], f" answer {i}"))
                for i in range(360)]
    expected = [oracle_request_key("".join(r.parts), r.params) for r in requests]
    wrong = []

    def worker(offset: int) -> None:
        for i in range(offset, offset + len(requests)):
            request = requests[i % len(requests)]
            if request.request_key != expected[i % len(requests)]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_threads([lambda k=k: worker(k * 45) for k in range(8)], timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_parallelism_bounds_requests_in_flight(chat_server):
    lock = threading.Lock()
    handling = {"now": 0, "peak": 0}

    def slow(payload):
        with lock:
            handling["now"] += 1
            handling["peak"] = max(handling["peak"], handling["now"])
        time.sleep(0.05)
        with lock:
            handling["now"] -= 1
        return ChatServer.echo(payload)

    chat_server.responder = slow
    client = LLMClient(backend="http", base_url=chat_server.base_url, parallelism=2)
    texts = []
    run_threads([lambda i=i: texts.append(client.complete(f"q{i}").text)
                 for i in range(6)])
    assert sorted(texts) == [f"echo: q{i}" for i in range(6)]
    assert handling["peak"] == 2


def test_waiting_retry_holds_no_slot(chat_server):
    events = []
    first_sent = threading.Event()

    def responder(payload):
        content = payload["messages"][-1]["content"]
        if content == "A" and not first_sent.is_set():
            events.append("A sent")
            first_sent.set()
            return 429, {"error": "wait"}, {"Retry-After": "0.3"}
        events.append(f"{content} sent")
        return ChatServer.echo(payload)

    chat_server.responder = responder
    client = LLMClient(backend="http", base_url=chat_server.base_url, parallelism=1)

    def ask_b():
        assert first_sent.wait(5)
        client.complete("B")
        events.append("B answered")

    run_threads([lambda: client.complete("A"), ask_b])
    # B is sent and answered while A waits out its Retry-After
    assert events == ["A sent", "B sent", "B answered", "A sent"]
