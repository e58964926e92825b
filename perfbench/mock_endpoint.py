"""Deterministic chat-completions endpoint for the benchmark, run as its own process.

It serves ``POST /v1/chat/completions`` from a plan written by ``gen.py``:
each document's answer per stage plus a fault script. The stage is found
from the first line of annoforge's packaged template in the prompt, and the
document from the ``docref-`` marker in its text. The n-th request the
endpoint sees for one (document, stage) pair takes the n-th action of that
pair's script (``ok`` once the script is exhausted), so faults depend on
(document, stage, attempt) and never on the order requests arrive in.

Every reply waits ``--fixed-ms`` plus ``--per-char-us`` per output
character, a scaled-down model latency. ``GET /stats`` returns counters
since the last ``POST /reset``: requests, TCP connections, request bytes,
429 replies, the summed time from each 429 to its retry, the in-flight
integral and each document's first-arrival and last-reply timestamps.

Usage: python3 mock_endpoint.py --plan plan.json --templates DIR [--fixed-ms 15]
The process prints ``port <n>`` once it listens.
"""

from __future__ import annotations

import argparse
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

STAGES = ("summarize", "structure", "guidelines", "instances")
DOC_RE = re.compile(r"docref-([A-Za-z0-9]+)")
UNPARSEABLE = {
    "summarize": "",
    "structure": "Here are the entities: {label: unfinished",
    "guidelines": "The classes are probably people and places.",
    "instances": "No instances found.",
}


class Stats:
    """Counters guarded by one lock; times are time.monotonic() seconds."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = self.connections = self.request_bytes = 0
        self.status_429 = self.retries_after_429 = self.first_retries = 0
        self.retry_wait_s = self.first_retry_wait_s = 0.0
        self.in_flight = 0
        self.in_flight_area = 0.0
        self.last_change = None
        self.first_arrival = self.last_reply = None
        self.doc_first: dict[str, float] = {}
        self.doc_last: dict[str, float] = {}
        self.pending_429: dict[tuple[str, str], float] = {}
        self.seen: dict[tuple[str, str], int] = {}

    def _tick(self, now: float, delta: int) -> None:
        if self.last_change is not None:
            self.in_flight_area += self.in_flight * (now - self.last_change)
        self.last_change = now
        self.in_flight += delta

    def arrive(self, key: tuple[str, str], nbytes: int, new_connection: bool) -> int:
        """Record an arrival; return how many earlier requests this pair had."""
        now = time.monotonic()
        with self.lock:
            self.requests += 1
            self.connections += new_connection
            self.request_bytes += nbytes
            self._tick(now, +1)
            if self.first_arrival is None:
                self.first_arrival = now
            self.doc_first.setdefault(key[0], now)
            index = self.seen.get(key, 0)
            sent = self.pending_429.pop(key, None)
            if sent is not None:
                self.retries_after_429 += 1
                self.retry_wait_s += now - sent
                if index == 1:
                    self.first_retries += 1
                    self.first_retry_wait_s += now - sent
            self.seen[key] = index + 1
            return index

    def reply(self, key: tuple[str, str], status: int) -> None:
        now = time.monotonic()
        with self.lock:
            self._tick(now, -1)
            self.last_reply = now
            self.doc_last[key[0]] = now
            if status == 429:
                self.status_429 += 1
                self.pending_429[key] = now

    def snapshot(self) -> dict:
        with self.lock:
            window = ((self.last_reply - self.first_arrival)
                      if self.first_arrival is not None and self.last_reply is not None
                      else 0.0)
            return {
                "requests": self.requests, "connections": self.connections,
                "request_bytes": self.request_bytes, "status_429": self.status_429,
                "retries_after_429": self.retries_after_429,
                "retry_wait_s": self.retry_wait_s, "first_retries": self.first_retries,
                "first_retry_wait_s": self.first_retry_wait_s,
                "in_flight_area_s": self.in_flight_area, "window_s": window,
                "doc_latency_s": {d: self.doc_last[d] - t for d, t in self.doc_first.items()
                                  if d in self.doc_last},
            }


def completion(text: str, finish_reason: str, prompt_chars: int) -> dict:
    return {
        "object": "chat.completion",
        "choices": [{"index": 0, "message": {"role": "assistant", "content": text},
                     "finish_reason": finish_reason}],
        "usage": {"prompt_tokens": prompt_chars // 4, "completion_tokens": len(text) // 4},
    }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive is possible for clients that reuse connections
    counted = False

    def log_message(self, *args) -> None:
        pass

    def _send(self, status: int, body: dict, headers: dict | None = None) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, self.server.stats.snapshot())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.server.stats.reset()
            self._send(200, {"ok": True})
            return
        if self.path != "/v1/chat/completions":
            self._send(404, {"error": "not found"})
            return
        prompt = json.loads(raw)["messages"][-1]["content"]
        stage = self.server.stage_of(prompt)
        match = DOC_RE.search(prompt)
        doc = self.server.plan.get(match.group(1)) if match else None
        if stage is None or doc is None:
            self._send(400, {"error": "unknown stage or document"})
            return
        key = (match.group(1), stage)
        # one handler serves one TCP connection; count those that carry completions
        index = self.server.stats.arrive(key, len(raw), new_connection=not self.counted)
        self.counted = True
        script = doc["script"].get(stage, [])
        action = script[index] if index < len(script) else ["ok"]
        text = doc["responses"][stage]
        if action[0] == "429":
            time.sleep(0.002)
            self._send(429, {"error": {"message": "rate limited"}},
                       {"Retry-After": str(action[1])})
            self.server.stats.reply(key, 429)
            return
        finish = "stop"
        if action[0] == "bad":
            text = UNPARSEABLE[stage]
        elif action[0] == "length":
            text, finish = text[: len(text) // 2], "length"
        time.sleep(self.server.fixed_s + self.server.per_char_s * len(text))
        self._send(200, completion(text, finish, len(prompt)))
        self.server.stats.reply(key, 200)


class MockServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, plan: dict, templates: Path, fixed_ms: float,
                 per_char_us: float) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.plan = plan
        self.fixed_s = fixed_ms / 1000
        self.per_char_s = per_char_us / 1e6
        self.stats = Stats()
        self.heads = {stage: (templates / f"{stage}.txt").read_text(encoding="utf-8")
                      .split("\n", 1)[0] for stage in STAGES}

    def stage_of(self, prompt: str) -> str | None:
        return next((s for s, head in self.heads.items() if prompt.startswith(head)), None)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--templates", required=True)
    ap.add_argument("--fixed-ms", type=float, default=15.0)
    ap.add_argument("--per-char-us", type=float, default=20.0)
    args = ap.parse_args()
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    server = MockServer(plan, Path(args.templates), args.fixed_ms, args.per_char_us)
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
